"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload engine-agar --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced.
``--trace 1`` makes the traced run instead: a short untraced measurement, then
the same work with spans recorded around each layer's public entry points,
giving the per-layer metrics, the attribution table and the tracing overhead.

The human-readable report goes to standard output first; the last line is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every output was correct.  Run
without the program's sources next to it (``src/``), the benchmark exits with
code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPAN_DIR = HERE / "out"

def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every shape (the benchmark's own tests)")
    return parser.parse_args(argv)


def host_record(gateway_pid: int | None = None) -> dict:
    """Where a number was measured: hardware, versions, process layout."""
    import numpy

    from repro.erasure.codec import ErasureCodec

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "codec_backend": ErasureCodec().backend_name,
        "generator_pid": os.getpid(),
        "gateway_pid": gateway_pid,
    }


def _print_table(table: dict) -> None:
    print(f"\n{table['title']}")
    total = 0.0
    for label, value in table["rows"]:
        print(f"  {label:<28} {value:10.2f}")
        total += value
    if table["residual"] is not None:
        label, value = table["residual"]
        print(f"  {label:<28} {value:10.2f}")
        total += value
    reference = table["reference_us"]
    print(f"  {'sum of rows':<28} {total:10.2f}")
    print(f"  {table['reference_label']:<28} {reference:10.2f}"
          f"   (rows / reference = {total / reference:.3f})")
    overhead = table["overhead"]
    print(f"  traced cost {table['traced_us']:.2f} us per request, "
          f"{table['spans']} spans; wrapper cost "
          f"{overhead.inside_s * 1e9:.0f} ns inside + "
          f"{overhead.outside_s * 1e9:.0f} ns outside each span, taken out")


def main(argv=None) -> int:
    args = _parse(argv)
    needed = (ROOT / "src" / "repro", ROOT / "BENCHMARK.json")
    missing = [str(path) for path in needed if not path.exists()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import engine_bench
    import wire_bench
    from workloads import WORKLOADS, EngineWorkload

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(one of {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    module = engine_bench if isinstance(workload, EngineWorkload) else wire_bench
    runner = module.run_traced if args.trace else module.run
    outcome = runner(workload, args.seed, args.seconds, smoke=args.smoke)

    print(f"workload {workload.name} (seed {args.seed}, {args.seconds:g} s"
          f"{', traced' if args.trace else ''}): {workload.why}")
    print("host " + json.dumps(host_record(outcome.get("gateway_pid"))))
    for note in outcome.get("notes", ()):
        print(f"  {note}")
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {}
    if args.trace:
        for metric in config["per_layer"]:
            name, unit = metric["name"], metric["unit"]
            # A layer the workload never reaches did no work: zero.
            value = float(outcome["metrics"].get(name, 0.0))
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<38} {value:14.4f} {unit}")
        _print_table(outcome["table"])
        print(f"  trace.overhead (traced / untraced rate) = "
              f"{metrics['trace.overhead']['value']:.3f}")
        outcome["spans"].write(SPAN_DIR / f"{workload.name}-{args.seed}-spans.npz")
    else:
        for metric in config["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            value, samples = outcome["metrics"][name]
            metrics[name] = {"value": float(value), "unit": unit}
            print(f"  {name:<14} {value:14.4f} {unit:<6} ({samples} samples)")
        for name, (value, unit, samples) in outcome.get("extra", {}).items():
            print(f"  {name:<14} {value:14.4f} {unit:<6} ({samples} samples)")
    attempted, failed = outcome["attempted"], outcome["failed"]
    print(f"  failed_share   {failed / attempted:14.6f}        "
          f"({failed} of {attempted} operations)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
