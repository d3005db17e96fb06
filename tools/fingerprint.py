"""Fingerprints of multifem's outputs, to show that a change leaves them equal.

For both studies, degrees p <= 3 and levels n <= 2, it records the SHA-256
of the bytes, the dtype, max|x| and the 2-norm of: the residual at two
seeded u; the Jacobian's data, indices and indptr, unconstrained and under
the problem's Dirichlet conditions; u after the lu and after the
cg-fieldsplit solve; and each solve's (L2, H1) errors, also as float.hex.
It uses numpy and the standard library only, and imports multifem from the
src/ directory of its own checkout.

    python tools/fingerprint.py            # write FINGERPRINTS.json
    python tools/fingerprint.py --compare  # compare with FINGERPRINTS.json

--compare records every cell twice in one process: in the order above,
then in reverse order on the kernels the first pass kept, so that a
signature collision or a binding that depends on compile order shows.  It
prints one line per output: "equal" when both passes hash the same dtype
and bytes as the file, else the larger change of max|x| and the 2-norm
relative to the recorded max|x| (between the passes, if they differ).  It
exits 1 if any output changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from multifem import assemble, forms, studies  # noqa: E402

PATH = ROOT / "FINGERPRINTS.json"
CELLS = [(name, p, n) for name in studies.PROBLEMS
         for p in (1, 2, 3) for n in (0, 1, 2)]
SEEDS = (1, 2)


def record(x):
    x = np.ascontiguousarray(x)
    return {"dtype": str(x.dtype),
            "sha256": hashlib.sha256(x.tobytes()).hexdigest(),
            "max": float(np.abs(x).max(initial=0)),
            "norm": float(np.linalg.norm(x.ravel().astype(float)))}


def cell_fingerprints(name, degree, level):
    """{output: record} of one study cell."""
    out = {}
    problem = studies.build_problem(name, degree, level)
    for seed in SEEDS:
        problem.u.values[:] = np.random.default_rng(seed).standard_normal(
            problem.space.num_dofs)
        out[f"residual seed {seed}"] = record(assemble(problem.residual))
    J = forms.derivative(problem.residual, problem.u)
    for label, bcs in (("jacobian", ()), ("jacobian bcs", problem.bcs)):
        A = assemble(J, bcs)
        for part in ("data", "indices", "indptr"):
            out[f"{label} {part}"] = record(getattr(A, part))
    for solver in studies.SOLVERS:
        problem = studies.build_problem(name, degree, level)
        studies.solve_problem(problem, solver)
        out[f"u {solver}"] = record(problem.u.values)
        errors = studies.solution_errors(problem)
        out[f"errors {solver}"] = dict(record(errors),
                                       hex=[e.hex() for e in errors])
    return out


def change(old, new):
    """None if new is old's dtype and bytes, else the larger change of
    max|x| and the 2-norm relative to old's max|x|."""
    if new is None or new["dtype"] != old["dtype"]:
        return float("inf")
    if new["sha256"] == old["sha256"]:
        return None
    return max(abs(new["max"] - old["max"]),
               abs(new["norm"] - old["norm"])) / (old["max"] or 1.0)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Record or compare fingerprints of multifem's outputs.")
    parser.add_argument("--compare", action="store_true",
                        help="compare with FINGERPRINTS.json instead of "
                             "writing it")
    args = parser.parse_args(argv)
    got = {f"{name} p={p} n={n}": cell_fingerprints(name, p, n)
           for name, p, n in CELLS}
    if not args.compare:
        PATH.write_text(json.dumps(got, indent=1) + "\n")
        print(f"wrote {PATH}")
        return 0
    again = {f"{name} p={p} n={n}": cell_fingerprints(name, p, n)
             for name, p, n in reversed(CELLS)}
    changed = 0
    for cell, outputs in json.loads(PATH.read_text()).items():
        for output, old in outputs.items():
            first, second = (run.get(cell, {}).get(output)
                             for run in (got, again))
            delta = change(old, first)
            if delta is None and first != second:
                delta = change(first, second)
            changed += delta is not None
            print(f"{cell}\t{output}\t" + (
                "equal" if delta is None else f"{delta:.3g} of max|x|"))
    print(f"{changed} changed")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
