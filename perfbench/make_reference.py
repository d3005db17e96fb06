#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the benchmark's correctness oracle.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

Per-cell (L2, H1) errors of the study sweeps come from studies.run_study
in the natural cell order, not through the CLI path the benchmark times.  The
reassembly-warm entry holds the constrained Jacobian's nonzero count and
Frobenius norm.  seed_counts holds the exact layer counts of one traced run
per workload (seed 1), for later changes to cite.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import HERE, REFERENCE, import_multifem

COUNTS = ("compile.kernel_calls", "assemble.entities",
          "compile.pullback_calls", "assemble.cg_iters", "assemble.nnz",
          "forms.ndofs")


def main():
    mf, _ = import_multifem()
    import scipy.sparse.linalg

    import workloads

    reference = {}
    for name, (problem, solver) in workloads.SWEEPS.items():
        cells = {}
        for _, p, n in workloads.sweep_cells(name):
            cfg = mf.studies.StudyConfig(problem=problem, degrees=(p,),
                                         refinements=(n,), solver=solver)
            row = mf.studies.run_study(cfg).rows[0]
            cell = workloads.cell_id(problem, p, n)
            if row.error is not None:
                raise SystemExit(f"{cell} failed: {row.error}")
            cells[cell] = [row.l2, row.h1]
        reference[name] = {"problem": problem, "solver": solver,
                           "cells": cells}
    *_, A = workloads.reassembly_setup(mf)
    reference[workloads.REASSEMBLY] = {
        "problem": "quad-tri", "cell": list(workloads.REASSEMBLY_CELL),
        "nnz": int(A.count_nonzero()),
        "frobenius": float(scipy.sparse.linalg.norm(A))}
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")

    seed_counts = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", "1", "--seconds", "1", "--trace", "1"]
        result = json.loads(subprocess.run(
            cmd, check=True, capture_output=True,
            text=True).stdout.splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{name}: traced run failed its checks")
        seed_counts[name] = {k: result["metrics"][k]["value"]
                             for k in COUNTS}
    reference["seed_counts"] = seed_counts
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()
