#!/usr/bin/env python3
"""Benchmark of multifem's convergence studies and warm reassembly.

Run from the repository root:

    python3 perfbench/run.py --workload quad-tri-sweep --seed 1 \\
        --seconds 36 --trace 0

Workloads: quad-tri-sweep, split-fieldsplit-sweep and reassembly-warm (see
perfbench/README.md).  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: end-to-end metrics
with --trace 0, per-layer metrics of a traced run with --trace 1.  Untraced
times are scaled by a speed probe (calibration.py).  Every run checks its
outputs against perfbench/reference.json.  Cell reports, a run record and
(traced runs) the spans go to perfbench/out/.

multifem is imported from src/ of the checkout this file sits in, on one
thread: BLAS thread pools are pinned to 1 before numpy loads, which is
before this file imports the probe.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for var in BLAS_THREAD_VARS:
    os.environ[var] = "1"

from calibration import Speed, wall_timed  # noqa: E402 - loads numpy

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"


def import_multifem(timer=wall_timed):
    """multifem's modules from the checkout's src/, and the import's wall
    seconds, timed by `timer`.  numpy is loaded already."""
    package = SRC / "multifem"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no multifem package at {package}")
    sys.path.insert(0, str(SRC))
    _, seconds, _ = timer(importlib.import_module, "multifem.cli")
    multifem = sys.modules["multifem"]
    if Path(multifem.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported multifem from {multifem.__file__}"
                         f", not from {package}")
    mf = SimpleNamespace(**{
        name: importlib.import_module(f"multifem.{name}")
        for name in ("mesh", "fe", "forms", "compile", "assemble",
                     "studies", "cli")})
    return mf, seconds


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing per-layer metrics")
    return parser, parser.parse_args(argv)


def main(argv=None):
    parser, args = parse_args(argv)
    speed = None if args.trace else Speed()
    mf, import_s = import_multifem(speed.timed if speed else wall_timed)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    if not REFERENCE.is_file():
        raise SystemExit(f"error: missing {REFERENCE}")
    reference = json.loads(REFERENCE.read_text())
    OUT.mkdir(exist_ok=True)
    metrics, checks, record, tracer = workloads.run_workload(
        mf, OUT, args.workload, args.seed, args.seconds, speed, import_s,
        reference)

    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(f"{stem}-spans.npz")
    record.update(workload=args.workload, seed=args.seed,
                  trace=args.trace, attempted=checks.attempted,
                  failures=checks.failures,
                  metrics={k: v for k, (v, _) in metrics.items()})
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))

    for failure in checks.failures[:20]:
        print(f"check failed: {failure}", file=sys.stderr)
    failed = len(checks.failures)
    print(f"failed_frac = {failed}/{checks.attempted} checks")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit}
                    for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
