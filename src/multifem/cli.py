"""Command-line interface: convergence studies with report emission.

Exit code 0 when every study cell solved, 2 when any cell failed (failed
cells appear in the reports with nan errors and an error message in JSON).
"""

from __future__ import annotations

import argparse
import sys

from .assemble import dump_matrix
from .studies import (PROBLEMS, SOLVERS, StudyConfig, emit_report, run_study,
                      tabulate_report)


def _int_list(text):
    """Parse '1,2' or '0..3' into a list of ints."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok.strip()]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="multifem",
        description="Multi-domain finite element benchmark studies.")
    sub = parser.add_subparsers(dest="command", required=True)
    study = sub.add_parser(
        "study", help="run a convergence study and write rate tables")
    study.add_argument("--problem", required=True, choices=PROBLEMS)
    # left unset, the study's own defaults (StudyConfig) apply
    study.add_argument("--degrees", type=_int_list,
                       help="polynomial degrees, e.g. '1,2' (subset of 1..3)")
    study.add_argument("--refine", dest="refinements", type=_int_list,
                       help="refinement levels, e.g. '0..3' or '2,3'")
    study.add_argument("--penalty", type=float,
                       help="interior penalty constant C")
    study.add_argument("--out", required=True,
                       help="TSV report path")
    study.add_argument("--json", dest="json_out", default=None,
                       help="optional JSON report path")
    study.add_argument("--dump-matrix", dest="dump_matrix", default=None,
                       help="write the last solved system's matrix "
                            "(MatrixMarket)")
    study.add_argument("--solver", default="lu", choices=SOLVERS)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        given = {name: value for name, value in vars(args).items()
                 if name in ("degrees", "refinements", "penalty")
                 and value is not None}
        cfg = StudyConfig(problem=args.problem, solver=args.solver, **given)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_study(cfg, collect_matrix=args.dump_matrix is not None)
    emit_report(report, "tsv", args.out)
    print(f"wrote {args.out}")
    if args.json_out:
        emit_report(report, "json", args.json_out)
        print(f"wrote {args.json_out}")
    if args.dump_matrix:
        if report.final_matrix is None:
            print("error: no cell solved; matrix not dumped", file=sys.stderr)
        else:
            dump_matrix(report.final_matrix, args.dump_matrix)
            print(f"wrote {args.dump_matrix}")
    for (p, n, l2, r2, h1, r1, secs) in tabulate_report(report):
        print(f"p={p} n={n} log2_L2={l2:8.4f} rate_L2={r2:5.2f} "
              f"log2_H1={h1:8.4f} rate_H1={r1:5.2f} ({secs:.1f}s)")
    failures = report.failures()
    for row in failures:
        print(f"FAILED p={row.degree} n={row.level}: {row.error}",
              file=sys.stderr)
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
