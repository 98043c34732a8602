"""Span recording around the public entry points of each layer.

The benchmark never edits the program to trace it.  Instead a
:class:`Tracer` replaces a callable with a wrapper that records one span per
call: the layer name, start, end and the span that enclosed it.  Wrappers go
on module namespaces (``patch_module``) or on the class whose method an
instance calls (``patch_method``, ``patch_class``).

Spans stay in memory as flat arrays and are written out once, when the run
ends.  A layer's self time is its span durations minus the part covered by
its child spans.

Each wrapper also costs time, and a tight-loop measurement of that cost
(:func:`calibrate`) reads low against a real run, where wrapped calls
interleave with the program's own code.  So the runs measure it in place:
after the traced window they add a second, empty wrapper around every wrapped
entry point (:meth:`Tracer.add_probe_layer`), repeat the same work, and divide
the extra time by the extra spans.  :func:`calibrate` then only supplies how
that cost splits between the inside of a span and the span around it.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROBE = "trace.probe"


@dataclass
class Spans:
    """A window of recorded spans, detached from the tracer."""

    names: list[str]
    name_id: np.ndarray
    parent: np.ndarray
    start: np.ndarray
    end: np.ndarray
    #: Per span name, the sum of the tallied argument (see ``Tracer.wrap``).
    tallies: dict[str, int]

    def count(self, name: str) -> int:
        if name not in self.names:
            return 0
        return int((self.name_id == self.names.index(name)).sum())

    def write(self, path: Path) -> None:
        """Write the spans as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            name_id=self.name_id, parent=self.parent,
                            start=self.start, end=self.end)


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_id = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[int] = []
        #: (owner, attribute, value to restore, restore by deleting)
        self._patches: list[tuple[object, str, object, bool]] = []
        self._probe_mark: int | None = None
        self._tallies: dict[str, int] = {}

    def _id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(self, name: str, function, tally_arg: int | None = None):
        """A callable that runs ``function`` inside a span called ``name``.

        With ``tally_arg``, the wrapper also adds that positional argument
        (a count, such as how many draws a block call takes) to the name's
        tally.
        """
        ident = self._id(name)
        stack = self._stack
        name_ids, parents = self._name_id, self._parent
        starts, ends = self._start, self._end
        perf = time.perf_counter
        if tally_arg is not None:
            traced = self.wrap(name, function)
            tallies = self._tallies

            def tallied(*args, **kwargs):
                tallies[name] = tallies.get(name, 0) + args[tally_arg]
                return traced(*args, **kwargs)

            return tallied

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(ident)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            began = perf()
            try:
                return function(*args, **kwargs)
            finally:
                ends[index] = perf()
                starts[index] = began
                stack.pop()

        return traced

    def _patch(self, owner, attribute: str, name: str, value,
               delete_to_restore: bool, tally_arg: int | None = None) -> None:
        previous = None if delete_to_restore else value
        setattr(owner, attribute, self.wrap(name, value, tally_arg))
        self._patches.append((owner, attribute, previous, delete_to_restore))

    def _patched(self, owner, attribute: str) -> bool:
        return any(patched is owner and name == attribute
                   for patched, name, _previous, _delete in self._patches)

    def patch_module(self, module, attribute: str, name: str) -> None:
        """Wrap ``module.attribute`` (a name the module's code looks up)."""
        self._patch(module, attribute, name, getattr(module, attribute), False)

    def patch_method(self, instance, method: str, name: str,
                     tally_arg: int | None = None) -> None:
        """Wrap the method ``instance`` calls, on the instance's class.

        The wrapper goes on the class rather than into the instance: an
        instance attribute shadowing a method defeats the interpreter's
        method-call specialisation at every call site, which would make the
        first layer of wrappers cost more than the probe layer measures.
        Every instance of the class is traced; a class already patched for
        ``method`` is left alone.
        """
        cls = type(instance)
        if self._patched(cls, method):
            return
        own = method in cls.__dict__
        function = next(klass.__dict__[method] for klass in cls.__mro__
                        if method in klass.__dict__)
        # tally_arg counts the method's own arguments; ``self`` comes first.
        self._patch(cls, method, name, function, not own,
                    None if tally_arg is None else tally_arg + 1)

    def patch_class(self, cls, method: str, name: str) -> None:
        """Wrap a method on its class (for objects built inside a call)."""
        if not self._patched(cls, method):
            self._patch(cls, method, name, cls.__dict__[method], False)

    def add_probe_layer(self) -> None:
        """Wrap every wrapped entry point once more in an empty span."""
        if self._probe_mark is not None:
            return
        self._probe_mark = len(self._patches)
        targets = {}
        for owner, attribute, _previous, _delete in self._patches:
            targets[(id(owner), attribute)] = (owner, attribute)
        for owner, attribute in targets.values():
            # Class attributes hold plain functions; wrapping the class's
            # own entry keeps the probe a method.
            value = (owner.__dict__[attribute] if isinstance(owner, type)
                     else getattr(owner, attribute))
            self._patch(owner, attribute, PROBE, value, False)

    def remove_probe_layer(self) -> None:
        """Undo :meth:`add_probe_layer`."""
        if self._probe_mark is not None:
            self._restore(self._probe_mark)
            self._probe_mark = None

    def unpatch(self) -> None:
        """Restore every patched attribute, newest first."""
        self._restore(0)
        self._probe_mark = None

    def _restore(self, keep: int) -> None:
        for owner, attribute, previous, delete in reversed(self._patches[keep:]):
            if delete:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)
        del self._patches[keep:]

    def take(self) -> Spans:
        """Detach the spans recorded so far and start a new window."""
        if self._stack:
            raise RuntimeError("cannot end a window inside an open span")
        spans = Spans(names=list(self.names),
                      name_id=np.array(self._name_id, dtype=np.int64),
                      parent=np.array(self._parent, dtype=np.int64),
                      start=np.array(self._start),
                      end=np.array(self._end),
                      tallies=dict(self._tallies))
        for column in (self._name_id, self._parent, self._start, self._end):
            del column[:]
        self._tallies.clear()
        return spans


@dataclass(frozen=True)
class WrapperOverhead:
    """Cost one traced call adds, split at the span's edges."""

    inside_s: float    #: inside the recorded interval (inflates the span)
    outside_s: float   #: outside it (charged to the enclosing span)

    @property
    def total_s(self) -> float:
        return self.inside_s + self.outside_s

    def scaled_to(self, total_s: float) -> "WrapperOverhead":
        """This split at another per-span cost (one measured in place)."""
        if self.total_s <= 0:
            return self
        total = max(total_s, 0.0)
        inside = total * self.inside_s / self.total_s
        return WrapperOverhead(inside, total - inside)


NO_OVERHEAD = WrapperOverhead(0.0, 0.0)


@dataclass
class LayerTotals:
    """Aggregates of every span of one name, tracing cost taken out."""

    calls: int
    self_s: float        #: span time not covered by child spans
    inclusive_s: float   #: span time including child spans
    max_s: float         #: longest single span (as recorded)
    top_level_max_s: float  #: longest span with no enclosing span


@dataclass
class SpanSummary:
    """Per-layer aggregates of one window of spans.

    Each span's self time is its duration less its children's durations, less
    the wrapper cost inside its own interval and the cost its children's
    wrappers charged to it; inclusive time adds the corrected times of all
    descendants back.  Summed over layers, self time is the root spans' time
    as if they had not been traced.
    """

    layers: dict[str, LayerTotals]
    spans: int

    @classmethod
    def of(cls, spans: Spans,
           overhead: WrapperOverhead = NO_OVERHEAD) -> "SpanSummary":
        names, parents = spans.name_id, spans.parent
        duration = spans.end - spans.start
        count = len(names)
        nested = parents >= 0
        child_time = np.bincount(parents[nested], weights=duration[nested],
                                 minlength=count)
        child_count = np.bincount(parents[nested], minlength=count)
        self_time = (duration - child_time - overhead.inside_s
                     - child_count * overhead.outside_s)
        # Inclusive time bottom-up, one nesting depth at a time.
        depth = np.zeros(count, dtype=np.int64)
        cursor = parents.copy()
        while (cursor >= 0).any():
            up = cursor >= 0
            depth += up
            cursor[up] = parents[cursor[up]]
        inclusive = self_time.copy()
        for level in range(int(depth.max(initial=0)), 0, -1):
            at_level = depth == level
            inclusive += np.bincount(parents[at_level],
                                     weights=inclusive[at_level],
                                     minlength=count)
        layers = {}
        for ident, name in enumerate(spans.names):
            mask = names == ident
            calls = int(mask.sum())
            if not calls:
                continue
            top = mask & ~nested
            layers[name] = LayerTotals(
                calls=calls,
                self_s=max(float(self_time[mask].sum()), 0.0),
                inclusive_s=max(float(inclusive[mask].sum()), 0.0),
                max_s=float(duration[mask].max()),
                top_level_max_s=float(duration[top].max()) if top.any() else 0.0,
            )
        return cls(layers=layers, spans=count)

    def calls(self, name: str) -> int:
        layer = self.layers.get(name)
        return layer.calls if layer else 0

    def self_s(self, name: str) -> float:
        layer = self.layers.get(name)
        return layer.self_s if layer else 0.0

    def mean_us(self, name: str) -> float:
        """Mean inclusive time of one call, in microseconds."""
        layer = self.layers.get(name)
        return layer.inclusive_s / layer.calls * 1e6 if layer else 0.0

    def max_ms(self, name: str) -> float:
        layer = self.layers.get(name)
        return layer.max_s * 1e3 if layer else 0.0

    def top_level_max_ms(self) -> float:
        return max((layer.top_level_max_s for layer in self.layers.values()),
                   default=0.0) * 1e3


class _Probe:
    def call(self, first, second):
        return first


def calibrate(repeats: int = 3, calls: int = 100_000) -> WrapperOverhead:
    """A wrapper's in-span and out-of-span cost on a no-op method.

    The probe is a two-argument bound method traced inside an enclosing span.
    Takes the minimum over ``repeats`` rounds.  Runs keep the split this gives
    and measure the total in place (see the module docstring).
    """
    perf = time.perf_counter
    inside = outside = float("inf")
    for _ in range(repeats):
        probe = _Probe()
        plain_call = probe.call
        began = perf()
        for value in range(calls):
            pass
        loop = (perf() - began) / calls
        began = perf()
        for value in range(calls):
            plain_call(value, 2)
        plain = (perf() - began) / calls

        tracer = Tracer()
        tracer.patch_method(probe, "call", "probe")

        def traced_loop() -> float:
            traced_call = probe.call
            began = perf()
            for value in range(calls):
                traced_call(value, 2)
            return (perf() - began) / calls

        wrapped = tracer.wrap("enclosing", traced_loop)()
        spans = tracer.take()
        tracer.unpatch()
        recorded = float((spans.end[1:] - spans.start[1:]).mean())
        in_span = max(recorded - (plain - loop), 0.0)
        inside = min(inside, in_span)
        outside = min(outside, max(wrapped - plain - in_span, 0.0))
    return WrapperOverhead(inside_s=inside, outside_s=outside)
