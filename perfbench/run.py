"""Planner benchmark: cold and warm fig13 sweeps plus plan-service traffic.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload sd-sc-sweep --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all   # every workload, one process each

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` wraps each layer boundary from the outside and reports the
per-layer metrics instead.  End-to-end times and rates are in
reference time: wall time scaled by how fast the shared host ran a
fixed benchmark-owned job beside them (``common.HostSpeed``); the raw
wall medians are printed as notes.  Every answer the planner gives
is checked; a failed check makes the result ``"correct": false`` and
the exit code 1.  The last line of standard output is the JSON result.
"""

import time

T_START = time.perf_counter()

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SWEEPS = ("sd-sc-sweep", "cdm-lsun-sweep")
WORKLOADS = SWEEPS + ("serve-zipf",)
#: a child of ``--workload all`` that takes longer than this is killed
CHILD_TIMEOUT_S = 900


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory never carries."""
    status = 0
    for workload in WORKLOADS:
        print(f"== {workload}", flush=True)
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=CHILD_TIMEOUT_S,
        )
        status = status or child.returncode
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no planner sources at {SRC}", file=sys.stderr)
        return 2
    # The script's own directory would shadow stdlib names; the package
    # is imported from the checkout root instead.
    if sys.path and Path(sys.path[0]).resolve() == BENCH_DIR:
        sys.path.pop(0)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload in SWEEPS:
        from perfbench import sweeps as workload
    else:
        from perfbench import serve as workload
    result = workload.run(args.workload, args.seed, args.seconds,
                          bool(args.trace), T_START)

    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": float(result.metrics[m["name"]]),
                           "unit": m["unit"]} for m in wanted}
    outcome = result.outcome
    for name, m in metrics.items():
        print(f"{args.workload:<15} {name:<30} {m['value']:>14.6g} {m['unit']}")
    print(f"{args.workload:<15} {'error_rate':<30} "
          f"{outcome.error_rate:>14.6g} failed/attempted "
          f"({outcome.failed}/{outcome.attempted})")
    for line in result.notes:
        print(f"{args.workload:<15} # {line}")
    correct = outcome.failed == 0
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
