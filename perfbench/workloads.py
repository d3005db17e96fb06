"""The benchmark's workloads and their correctness checks.

Imported by run.py only after BLAS threads are pinned and multifem is
imported from the checkout.  Every workload returns its metrics, its checks
and a record of per-cell errors that run.py writes next to the result.
Untraced runs time every unit under a speed probe (calibration.py) and
report scaled times; traced runs report wall times.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import resource
import statistics
import time

import numpy as np
import scipy.sparse.linalg

from calibration import scaled, wall_timed
from tracing import Tracer

REASSEMBLY = "reassembly-warm"
# Each sweep runs one study with its own solver: LU on quad-tri, the
# Schur-complement Jacobi-CG on split-interface.  n = 3 cells cost about
# 100 s each with the seed's error norms, and p = 3 would more than double
# a sweep: too few sweeps per run for a per-cell median.
SWEEPS = {"quad-tri-sweep": ("quad-tri", "lu"),
          "split-fieldsplit-sweep": ("split-interface", "cg-fieldsplit")}
SOLVERS = dict(SWEEPS.values())
WORKLOADS = (*SWEEPS, REASSEMBLY)
DEGREES = (1, 2)
LEVELS = (0, 1, 2)
WARMUP_CELL = (1, 0)
REASSEMBLY_CELL = (2, 2)  # quad-tri, degree 2, level 2
SETUP_REPEATS = 5
TRACED_PAIRS = 3

# The Jacobi-CG stopping rule (1e-10 relative residual) moves the p=2, n=2
# split-interface L2 error by 2e-9 relative to an LU solve, and the p=3
# one by 7e-7; the CLI prints log2 errors to 1e-4 (7e-5 relative).
ERROR_RTOL = 1e-5
LINEARITY_TOL = 1e-10  # the seed measures 2e-16
SYMMETRY_TOL = 1e-12   # J is symmetric up to round-off
FROBENIUS_RTOL = 1e-12


class Checks:
    """Correctness checks of one run; every check is one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def __call__(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_loop(unit, seconds):
    """Unit results; a unit starts only while it is expected to end within
    `seconds` of the first one.  At least one unit runs."""
    results, times = [], []
    start = time.perf_counter()
    while True:
        results.append(unit())
        elapsed = time.perf_counter() - start
        times.append(elapsed - sum(times))
        if elapsed + statistics.median(times) > seconds:
            return results


def scaled_setup(speed, wall_s):
    """A set-up's wall time scaled at the median probe time of the import
    and the set-up units; called before any other unit has run."""
    return scaled(wall_s, statistics.median(speed.samples))


# ---------------------------------------------------------------------------
# convergence-study sweeps through the CLI


def cell_id(problem, p, n):
    return f"{problem}-p{p}n{n}"


def sweep_cells(name):
    """The (problem, p, n) cells of a sweep workload."""
    problem, _ = SWEEPS[name]
    return tuple((problem, p, n) for p in DEGREES for n in LEVELS)


def run_cell(mf, out_dir, problem, p, n):
    """One study cell through `multifem study`; (exit code, JSON row).  A
    cell that raises is returned as failed, to be counted."""
    stem = out_dir / cell_id(problem, p, n)
    argv = ["study", "--problem", problem, "--solver", SOLVERS[problem],
            "--degrees", str(p), "--refine", str(n),
            "--out", f"{stem}.tsv", "--json", f"{stem}.json"]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = mf.cli.main(argv)
        with open(f"{stem}.json") as fh:
            return code, json.load(fh)["rows"][0]
    except Exception as exc:  # noqa: BLE001 - a failed cell is counted
        return None, {"error": repr(exc), "l2": None, "h1": None}


def check_cell(checks, expected, cell, code, row):
    checks(code == 0 and row["error"] is None,
           f"{cell}: cell failed ({row['error']})")
    for norm, value, want in zip(("L2", "H1"), (row["l2"], row["h1"]),
                                 expected[cell]):
        checks(value is not None and abs(value - want) <= ERROR_RTOL * want,
               f"{cell}: {norm} error {value!r}, reference {want!r}")


def sweep(mf, out_dir, order, checks, expected, errors, timer,
          tracer=None):
    """Run cells in the given order, each timed by `timer`; returns
    {cell: (wall seconds, scaled seconds or None)}."""
    cell_s = {}
    for problem, p, n in order:
        cell = cell_id(problem, p, n)
        if tracer is not None:
            tracer.set_cell(cell)
        (code, row), wall, probe_s = timer(run_cell, mf, out_dir, problem,
                                           p, n)
        cell_s[cell] = (wall, probe_s and scaled(wall, probe_s))
        check_cell(checks, expected, cell, code, row)
        errors[cell] = [row["l2"], row["h1"]]
    return cell_s


def run_warmup(mf, out_dir, problem, checks, expected, errors, timer):
    """Wall seconds of the warm-up cell."""
    cells = sweep(mf, out_dir, [(problem, *WARMUP_CELL)], checks, expected,
                  errors, timer)
    return sum(wall for wall, _ in cells.values())


def run_sweep(mf, out_dir, name, seed, seconds, speed, import_s, reference):
    rng = random.Random(seed)
    checks = Checks()
    errors = {}
    expected = reference[name]["cells"]
    problem, _ = SWEEPS[name]
    cells = sweep_cells(name)
    sweeps = []

    def run(timer, tracer=None):
        order = rng.sample(cells, len(cells))
        sweeps.append(sweep(mf, out_dir, order, checks, expected, errors,
                            timer, tracer))
        return sum(wall for wall, _ in sweeps[-1].values())

    if speed is not None:
        warmups = [run_warmup(mf, out_dir, problem, checks, expected,
                              errors, speed.timed)
                   for _ in range(SETUP_REPEATS)]
        wall_setup_s = import_s + statistics.median(warmups)
        scaled_setup_s = scaled_setup(speed, wall_setup_s)
        timed_loop(lambda: run(speed.timed), seconds)
        # Per cell, the median over the run's sweeps of its scaled time.
        study_s = sum(statistics.median(s[cell][1] for s in sweeps)
                      for cell in sweeps[0])
        wall_study_s = sum(statistics.median(s[cell][0] for s in sweeps)
                           for cell in sweeps[0])
        metrics = {
            "setup_s": (scaled_setup_s, "s"),
            "study_s": (study_s, "s"),
            "pairs_per_s": (len(cells) / study_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        record = {"errors": errors, "import_s": import_s,
                  "warmup_s": warmups, "sweep_cell_s": sweeps,
                  "wall_setup_s": wall_setup_s, "wall_study_s": wall_study_s,
                  "probe_s": speed.samples}
        return metrics, checks, record, None
    run_warmup(mf, out_dir, problem, checks, expected, errors, wall_timed)
    plain = run(wall_timed)
    tracer = Tracer()
    with tracer.installed():
        traced = run(wall_timed, tracer)
    metrics, root_s = tracer.layer_metrics()
    metrics["trace.overhead_frac"] = (traced / plain - 1.0, "1")
    metrics["trace.coverage_frac"] = (root_s / traced, "1")
    record = {"errors": errors, "sweep_cell_s": sweeps}
    return metrics, checks, record, tracer


# ---------------------------------------------------------------------------
# warm reassembly on a fixed mesh


def reassembly_setup(mf):
    """Build the problem and assemble the first pair at u = 0."""
    problem = mf.studies.build_problem("quad-tri", *REASSEMBLY_CELL)
    jacobian = mf.forms.derivative(problem.residual, problem.u)
    r0 = mf.assemble.assemble(problem.residual)
    A0 = mf.assemble.assemble(jacobian, problem.bcs)
    return problem, jacobian, r0, A0


def assemble_pair(mf, problem, jacobian):
    """Residual and constrained Jacobian at the current problem.u."""
    r = mf.assemble.assemble(problem.residual)
    A = mf.assemble.assemble(jacobian, problem.bcs)
    return r, A


def check_pair(checks, expected, label, free, r0, u, r, A):
    """The residual is affine in u: r(u) - r(0) = J u on unconstrained rows
    (u vanishes on constrained dofs); J is symmetric and matches the seed."""
    gap = np.linalg.norm((r - r0 - A @ u)[free])
    checks(gap <= LINEARITY_TOL * np.linalg.norm(r[free]),
           f"{label}: |r(u) - r(0) - J u| = {gap:.3e}")
    fro = scipy.sparse.linalg.norm(A)
    asym = scipy.sparse.linalg.norm(A - A.T)
    checks(asym <= SYMMETRY_TOL * fro, f"{label}: |J - J^T| = {asym:.3e}")
    nnz = A.count_nonzero()
    checks(nnz == expected["nnz"],
           f"{label}: nnz {nnz}, reference {expected['nnz']}")
    checks(abs(fro - expected["frobenius"])
           <= FROBENIUS_RTOL * expected["frobenius"],
           f"{label}: |J|_F {fro!r}, reference {expected['frobenius']!r}")


def run_reassembly(mf, out_dir, name, seed, seconds, speed, import_s,
                   reference):
    expected = reference[name]
    rng = np.random.default_rng(seed)
    checks = Checks()
    trace = speed is None
    tracer = Tracer() if trace else None
    timer = wall_timed if trace else speed.timed
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        with tracer.installed() if trace else contextlib.nullcontext():
            if trace:
                tracer.set_cell("setup")
            (problem, jacobian, r0, A0), wall, _ = timer(reassembly_setup,
                                                         mf)
        setups.append(wall)
        if len(setups) == 1:
            dofs, _ = mf.assemble.dirichlet_dofs(problem.u.space,
                                                 problem.bcs)
            free = np.ones(len(r0), dtype=bool)
            free[dofs] = False
        zero = np.zeros(len(r0))
        check_pair(checks, expected, "setup", free, r0, zero, r0, A0)

    pair_labels = itertools.count()

    def pair(timer):
        """(wall seconds, probe seconds) of one pair on a fresh vector."""
        u = rng.standard_normal(len(r0))
        u[~free] = 0.0
        problem.u.values[:] = u
        (r, A), wall, probe_s = timer(assemble_pair, mf, problem, jacobian)
        check_pair(checks, expected, f"pair {next(pair_labels)}", free,
                   r0, u, r, A)
        return wall, probe_s

    if not trace:
        wall_setup_s = statistics.median(setups)
        scaled_setup_s = scaled_setup(speed, wall_setup_s)
        pairs = timed_loop(lambda: pair(speed.timed), seconds)
        study_s = statistics.median(scaled(*p) for p in pairs)
        metrics = {
            "setup_s": (scaled_setup_s, "s"),
            "study_s": (study_s, "s"),
            "pairs_per_s": (1.0 / study_s, "1/s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
        record = {"setup_s": setups, "pair_s": [p[0] for p in pairs],
                  "pair_probe_s": [p[1] for p in pairs],
                  "wall_setup_s": wall_setup_s,
                  "wall_pair_s": statistics.median(p[0] for p in pairs),
                  "probe_s": speed.samples}
        return metrics, checks, record, None
    plain = [pair(wall_timed)[0] for _ in range(TRACED_PAIRS)]
    traced = []
    with tracer.installed():
        for k in range(TRACED_PAIRS):
            tracer.set_cell(f"pair{k}")
            traced.append(pair(wall_timed)[0])
    metrics, root_s = tracer.layer_metrics()
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "1")
    metrics["trace.coverage_frac"] = (root_s / (setups[0] + sum(traced)),
                                      "1")
    record = {"pair_s": plain, "traced_pair_s": traced}
    return metrics, checks, record, tracer


def run_workload(mf, out_dir, name, seed, seconds, speed, import_s,
                 reference):
    """(metrics, checks, record, tracer or None) of one run, timed under
    `speed`, the run's probe, or traced if `speed` is None.  The
    reassembly set-up excludes the import, so it ignores `import_s`."""
    runner = run_reassembly if name == REASSEMBLY else run_sweep
    return runner(mf, out_dir, name, seed, seconds, speed, import_s,
                  reference)
