"""Run one benchmark workload, or all of them, and print every metric.

    python3 perfbench/run.py --workload setup --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

One workload runs in this interpreter. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (plus the tracing
overhead). The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload
all`` runs every workload untraced and traced, each in its own
interpreter, and prints all their reports. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import (  # noqa: E402
    CheckFailed,
    ProgramMissing,
    ensure_program,
    environment,
    measure,
)

WORKLOAD_NAMES = ("setup", "soak", "query")

#: Per-workload meaning of the generic end-to-end operation metrics.
OPERATION = {
    "setup": "one key setup of a fresh deployment",
    "soak": "one reading, offered to accepted at the base station",
    "query": "one HTTP request, sent to last body byte",
}


def run_one(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload here; returns the result object."""
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    tracer = Tracer() if trace else None
    workload.tracer = tracer
    report = measure(workload, seconds, tracer)
    metrics = report.per_layer if trace else report.end_to_end()
    print(f"workload {workload_name}  seed {seed}  trace {int(trace)}  {environment()}")
    print(f"operation: {OPERATION[workload_name]}")
    print(
        f"rounds {report.rounds}  timed {report.timed_s:.3f} s  "
        f"set-ups {len(report.setup_times_s)}  operations {len(report.latencies_s)}"
    )
    for section, counters in report.counters.items():
        print(f"behaviour[{section}]: {json.dumps(counters, sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<32} {value:>14.6g} {unit}")
    return {
        "correct": True,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    results = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload", name,
                "--seed", str(seed),
                "--seconds", str(seconds),
                "--trace", str(trace),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                print(f"{name} (trace {trace}) failed with exit code {proc.returncode}")
                return proc.returncode
            results[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
            print()
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        ensure_program()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
