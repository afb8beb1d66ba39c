"""The repo's benchmark: host time, memory and PPT's simulated FCTs.

Usage, from the repository root::

    python3 perfbench/run.py --workload incast --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` runs the measured pass and prints the end-to-end metrics;
``--trace 1`` runs the traced pass and prints the per-layer metrics.
Every metric is printed by name and unit, then the failed checks (if
any), the FCT digest and the machine record, and the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
status is 0 only when every check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A second seed, never run while the workloads were sized: re-check
# claims on it.
HOLDOUT_SEED = 9001


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no simulator sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    from measure import END_TO_END, PER_LAYER, measured_pass, traced_pass
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        if args.trace:
            outcome = traced_pass(workload, args.seed, Path(tmp))
            units = PER_LAYER
        else:
            outcome = measured_pass(workload, args.seed, args.seconds,
                                    Path(tmp))
            units = END_TO_END

    checks = list(outcome.checks_failed)
    for name, value in outcome.metrics.items():
        if not math.isfinite(value):
            checks.append(f"metric-is-finite ({name} = {value})")
    for name, unit in units.items():
        print(f"{workload.name}  {name:<28} {outcome.metrics[name]:>14.6g} "
              f"{unit}")
    for check in checks:
        print(f"{workload.name}  CHECK FAILED: {check}")
    if not args.trace:
        print(f"{workload.name}  fct_digest {outcome.digest}")
    machine = {
        "workload": workload.name, "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED, "trace": args.trace,
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
        "flows_offered": outcome.attempted,
    }
    if workload.shards:
        machine["shards"] = workload.shards
        machine["cores_ge_shards"] = usable_cores() >= workload.shards
    print(f"{workload.name}  machine {json.dumps(machine)}")
    correct = not checks
    # a failed check counts toward the failed flows: if no execution
    # failed, the run-level check voids every flow
    failed = outcome.failed or (outcome.attempted if checks else 0)
    metrics = {name: {"value": (outcome.metrics[name]
                                if math.isfinite(outcome.metrics[name])
                                else None), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(names, args) -> int:
    """Every workload in its own process (peak RSS stays per workload)."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


if __name__ == "__main__":
    sys.exit(main())
