"""Benchmark problems and convergence studies.

Two manufactured Poisson problems on the unit square with exact solution
u_e = cos(2 pi x) cos(2 pi y):

* quad-tri: the square is split at x = 0.5 into a quadrilateral mesh and a
  triangle mesh; the two solutions are glued with the symmetric interior
  penalty method, integrated over the intersection of the submeshes'
  exterior facets.
* split-interface: two quadrilateral submeshes plus a codimension-1 interval
  mesh on the interface carrying an auxiliary unknown that weakly enforces
  continuity of solution and flux; eliminating the auxiliary unknown yields
  the interior penalty operator.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import fe, forms
from .assemble import (DirichletBC, assemble, eliminate_component,
                       error_norms, newton_solve, solve_linear)
from .fe import make_element
from .forms import (Analytic, Coefficient, Constant, FacetNormal,
                    FunctionSpace, Measure, MeshSequence, MixedElement,
                    TestFunction, avg, grad, inner, jump, split)
from .mesh import (BOUNDARY_MARKER, INTERFACE_MARKER, CellType,
                   build_hybrid_unit_square, build_split_unit_square,
                   extract_codim0_submesh, extract_codim1_submesh)

PROBLEMS = ("quad-tri", "split-interface")
SOLVERS = ("lu", "cg-fieldsplit")
DEFAULT_PENALTY = 100.0
COARSE_MESH_SIZE = 0.10  # edge length at refinement level 0

TWO_PI = 2.0 * np.pi


def exact_solution(x, y):
    return np.cos(TWO_PI * x) * np.cos(TWO_PI * y)


def exact_gradient(x, y):
    return (-TWO_PI * np.sin(TWO_PI * x) * np.cos(TWO_PI * y),
            -TWO_PI * np.cos(TWO_PI * x) * np.sin(TWO_PI * y))


def source_term(x, y):
    return 2.0 * TWO_PI ** 2 * exact_solution(x, y)


def mesh_size(level):
    """Global mesh size h at a refinement level (used in the C/h penalty)."""
    return COARSE_MESH_SIZE / 2 ** level


# ---------------------------------------------------------------------------
# problem definitions


@dataclass
class Problem:
    """A residual problem ready to solve: find u with F(u; v) = 0."""

    space: FunctionSpace
    u: Coefficient
    residual: forms.Form
    bcs: tuple
    error_components: tuple  # components measured against the exact solution
    aux_component: int = None  # eliminable interface block, if any


def build_sipg_problem(mesh_a, elem_a, mesh_b, elem_b, penalty, h):
    """Poisson glued across the shared interface of two codim-0 meshes with
    the symmetric interior penalty method.

    The interface integrals run over the intersection of the two meshes'
    exterior facets; consistency terms use the average gradient and the
    normal-weighted jump.
    """
    V = FunctionSpace(MeshSequence([mesh_a, mesh_b]),
                      MixedElement([elem_a, elem_b]))
    u = Coefficient(V)
    v = TestFunction(V)
    u_a, u_b = split(u)
    v_a, v_b = split(v)
    n_a = FacetNormal(mesh_a)
    n_b = FacetNormal(mesh_b)
    dx_a = Measure("dx", mesh_a)
    dx_b = Measure("dx", mesh_b)
    ds_a = Measure("ds", mesh_a, intersect_measures=(Measure("ds", mesh_b),))
    ds_b = Measure("ds", mesh_b, intersect_measures=(Measure("ds", mesh_a),))
    f_a = Analytic(mesh_a, source_term, pure=True)
    f_b = Analytic(mesh_b, source_term, pure=True)
    C_h = Constant(penalty / h)
    F = (inner(grad(u_a), grad(v_a)) * dx_a
         + inner(grad(u_b), grad(v_b)) * dx_b
         - inner(avg([grad(u_a), grad(u_b)]),
                 jump([v_a, v_b], [n_a, n_b])) * ds_a(INTERFACE_MARKER)
         - inner(jump([u_a, u_b], [n_a, n_b]),
                 avg([grad(v_a), grad(v_b)])) * ds_b(INTERFACE_MARKER)
         + C_h * (u_a - u_b) * (v_a - v_b) * ds_a(INTERFACE_MARKER)
         - f_a * v_a * dx_a
         - f_b * v_b * dx_b)
    bcs = (DirichletBC(0, BOUNDARY_MARKER, exact_solution),
           DirichletBC(1, BOUNDARY_MARKER, exact_solution))
    return Problem(space=V, u=u, residual=F, bcs=bcs,
                   error_components=(0, 1))


def build_quad_tri_problem(degree, level, penalty=DEFAULT_PENALTY):
    """Interior-penalty gluing of Q_p on quadrilaterals (x < 0.5) and P_p on
    triangles (x > 0.5) over a hybrid background mesh."""
    background = build_hybrid_unit_square(level)
    mesh_q, _ = extract_codim0_submesh(background, 1)
    mesh_t, _ = extract_codim0_submesh(background, 2)
    elem_q = make_element(CellType.QUADRILATERAL, "Q", degree)
    elem_t = make_element(CellType.TRIANGLE, "P", degree)
    return build_sipg_problem(mesh_q, elem_q, mesh_t, elem_t, penalty,
                              mesh_size(level))


def build_split_interface_problem(degree, level, penalty=DEFAULT_PENALTY):
    """Poisson on two quadrilateral submeshes coupled through an auxiliary
    unknown on the codim-1 interface mesh.

    The auxiliary unknown u_i stands in for the average interface flux: it
    replaces the average-gradient consistency term in the bulk equations, and
    its own equation (tested with v_i) matches it to
    (grad u_l . n_l - grad u_r . n_r) / 2.  Eliminating u_i reproduces the
    interior penalty operator of build_sipg_problem exactly.
    """
    background = build_split_unit_square(level)
    mesh_l, _ = extract_codim0_submesh(background, 1)
    mesh_r, _ = extract_codim0_submesh(background, 2)
    mesh_i, _ = extract_codim1_submesh(background, INTERFACE_MARKER)
    elem = make_element(CellType.QUADRILATERAL, "Q", degree)
    elem_i = make_element(CellType.INTERVAL, "P", degree)
    V = FunctionSpace(MeshSequence([mesh_l, mesh_i, mesh_r]),
                      MixedElement([elem, elem_i, elem]))
    u = Coefficient(V)
    v = TestFunction(V)
    u_l, u_i, u_r = split(u)
    v_l, v_i, v_r = split(v)
    n_l = FacetNormal(mesh_l)
    n_r = FacetNormal(mesh_r)
    dx_l = Measure("dx", mesh_l)
    dx_r = Measure("dx", mesh_r)
    dz = Measure("dx", mesh_i,
                 intersect_measures=(Measure("ds", mesh_l),
                                     Measure("ds", mesh_r)))
    f_l = Analytic(mesh_l, source_term, pure=True)
    f_r = Analytic(mesh_r, source_term, pure=True)
    C_h = Constant(penalty / mesh_size(level))
    jump_u = jump([u_l, u_r], [n_l, n_r])
    jump_v = jump([v_l, v_r], [n_l, n_r])
    flux_u = avg([inner(grad(u_l), n_l), -inner(grad(u_r), n_r)])
    F = (inner(grad(u_l), grad(v_l)) * dx_l
         + inner(grad(u_r), grad(v_r)) * dx_r
         - u_i * (v_l - v_r) * dz
         - inner(jump_u, avg([grad(v_l), grad(v_r)])) * dz
         + C_h * inner(jump_u, jump_v) * dz
         - (flux_u - u_i) * v_i * dz
         - f_l * v_l * dx_l
         - f_r * v_r * dx_r)
    bcs = (DirichletBC(0, BOUNDARY_MARKER, exact_solution),
           DirichletBC(2, BOUNDARY_MARKER, exact_solution))
    return Problem(space=V, u=u, residual=F, bcs=bcs,
                   error_components=(0, 2), aux_component=1)


def build_problem(problem, degree, level, penalty=DEFAULT_PENALTY):
    if problem == "quad-tri":
        return build_quad_tri_problem(degree, level, penalty)
    if problem == "split-interface":
        return build_split_interface_problem(degree, level, penalty)
    raise ValueError(f"unknown problem {problem!r}; expected one of "
                     f"{PROBLEMS}")


# ---------------------------------------------------------------------------
# solving


def coarse_space(problem):
    """P, the degree-1 fields of each kept component's mesh at its dofs:
    (kept dofs, their vertex dofs in ascending order), kept components in
    order, the identity at degree 1.  A dof reads its first (cell, node)."""
    data, cols, widths, ncoarse = [], [], [], 0
    for k, (dofmap, elem) in enumerate(zip(problem.space.dofmaps,
                                           problem.space.element.sub_elements)):
        if k != problem.aux_component:
            values, vertex_nodes = fe.vertex_interpolation(elem)
            first = np.flatnonzero(np.diff(np.maximum.accumulate(
                dofmap.ravel()), prepend=-1))  # dofs number by first use
            vertex = np.zeros(first.size, dtype=bool)
            vertex[dofmap[:, vertex_nodes]] = True
            coarse = np.cumsum(vertex)[dofmap[:, vertex_nodes]] - 1
            data.append(values[first % len(values)].ravel())
            cols.append(ncoarse + coarse[first // len(values)].ravel())
            widths.append(np.full(first.size, len(vertex_nodes)))
            ncoarse += vertex.sum()
    P = scipy.sparse.csr_matrix((np.concatenate(data), np.concatenate(cols),
                                 np.concatenate([[0], *widths]).cumsum()))
    P.eliminate_zeros()
    return P


def solve_problem(problem, solver="lu"):
    """Solve a Problem in place; returns the number of update steps.

    'lu' solves each Newton update by sparse LU.  'cg-fieldsplit' gives
    solve_linear coarse_space(problem), so it runs two-level CG; an auxiliary
    block, if any, is first eliminated (Schur complement), CG runs on the
    symmetric reduced system, and the update is back-substituted.
    """
    if solver == "lu":
        solve = None
    elif solver not in SOLVERS:
        raise ValueError(f"unknown solver {solver!r}")
    else:
        P = coarse_space(problem)

        def solve(A, b):
            if problem.aux_component is None:
                return solve_linear(A, b, coarse=P)
            reduced = eliminate_component(A, problem.space.offsets,
                                          problem.aux_component, b)
            return reduced.expand(solve_linear(reduced, reduced.rhs, coarse=P))
    return newton_solve(problem.residual, problem.u, problem.bcs,
                        solve=solve)


def solution_errors(problem):
    """Combined (L2, H1) errors over the measured components."""
    l2_sq = 0.0
    h1_sq = 0.0
    for comp in problem.error_components:
        l2, h1 = error_norms(problem.u, comp, exact_solution,
                                 exact_gradient)
        l2_sq += l2 ** 2
        h1_sq += h1 ** 2
    return math.sqrt(l2_sq), math.sqrt(h1_sq)


# ---------------------------------------------------------------------------
# studies


@dataclass(frozen=True)
class StudyConfig:
    problem: str
    degrees: tuple = (1, 2)
    refinements: tuple = (0, 1, 2, 3)
    penalty: float = DEFAULT_PENALTY
    solver: str = "lu"

    def __post_init__(self):
        if self.problem not in PROBLEMS:
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.solver not in SOLVERS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if not self.degrees or not set(self.degrees) <= {1, 2, 3}:
            raise ValueError("degrees must be a non-empty subset of {1, 2, 3}")
        if not self.refinements or not set(self.refinements) <= {0, 1, 2, 3}:
            raise ValueError(
                "refinements must be a non-empty subset of {0, 1, 2, 3}")
        if not self.penalty > 0:
            raise ValueError("penalty must be positive")
        object.__setattr__(self, "degrees", tuple(self.degrees))
        object.__setattr__(self, "refinements", tuple(self.refinements))


@dataclass
class StudyRow:
    degree: int
    level: int
    l2: float
    h1: float
    seconds: float
    error: str = None  # failure message for this study cell, if any


@dataclass
class StudyReport:
    problem: str
    penalty: float
    solver: str
    rows: list = field(default_factory=list)

    def failures(self):
        return [r for r in self.rows if r.error is not None]


def run_study(cfg, collect_matrix=False):
    """Run every (degree, level) cell of a study; failed cells record their
    error and the study continues.

    With collect_matrix, the report gains a final_matrix attribute holding the
    constrained Jacobian of the last successful cell (for debug dumps).
    """
    report = StudyReport(problem=cfg.problem, penalty=cfg.penalty,
                         solver=cfg.solver)
    report.final_matrix = None
    for degree in cfg.degrees:
        for level in cfg.refinements:
            start = time.perf_counter()
            try:
                problem = build_problem(cfg.problem, degree, level,
                                        cfg.penalty)
                solve_problem(problem, cfg.solver)
                l2, h1 = solution_errors(problem)
                row = StudyRow(degree, level, l2, h1,
                               time.perf_counter() - start)
                if collect_matrix:
                    J = forms.derivative(problem.residual, problem.u)
                    report.final_matrix = assemble(J, problem.bcs)
            except Exception as exc:  # noqa: BLE001 - study must continue
                row = StudyRow(degree, level, float("nan"), float("nan"),
                               time.perf_counter() - start,
                               error=f"{type(exc).__name__}: {exc}")
            report.rows.append(row)
    return report


# ---------------------------------------------------------------------------
# report emission


TSV_COLUMNS = ("p", "n", "log2_L2", "rate_L2", "log2_H1", "rate_H1",
               "seconds")


def _log2_or_nan(value):
    if value is None or not np.isfinite(value) or value <= 0:
        return float("nan")
    return math.log2(value)


def tabulate_report(report):
    """Rows of (p, n, log2_L2, rate_L2, log2_H1, rate_H1, seconds).

    Rates compare adjacent rows of the same degree, per level between them:
    rate = log2(error_previous / error_current) / (n - n_previous), nan at
    a degree's first row and at a repeated level.
    """
    out, previous, nan = [], {}, float("nan")
    for row in report.rows:
        l2, h1 = _log2_or_nan(row.l2), _log2_or_nan(row.h1)
        l2_0, h1_0, n_0 = previous.get(row.degree, (nan, nan, row.level))
        gap = (row.level - n_0) or nan
        previous[row.degree] = (l2, h1, row.level)
        out.append((row.degree, row.level, l2, (l2_0 - l2) / gap, h1,
                    (h1_0 - h1) / gap, row.seconds))
    return out


def _fmt(value):
    if isinstance(value, float):
        return "nan" if not np.isfinite(value) else f"{value:.17g}"
    return str(value)


def emit_report(report, fmt, path):
    """Write a study report as TSV (fixed column set) or JSON."""
    if fmt == "tsv":
        lines = ["\t".join(TSV_COLUMNS)]
        for row in tabulate_report(report):
            lines.append("\t".join(_fmt(v) for v in row))
        text = "\n".join(lines) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        return path
    if fmt == "json":
        def number(x):
            return None if not np.isfinite(x) else x

        table = tabulate_report(report)
        payload = {
            "problem": report.problem,
            "penalty": report.penalty,
            "solver": report.solver,
            "rows": [
                {
                    "degree": row.degree,
                    "level": row.level,
                    "l2": number(row.l2),
                    "h1": number(row.h1),
                    "log2_l2": number(t[2]),
                    "rate_l2": number(t[3]),
                    "log2_h1": number(t[4]),
                    "rate_h1": number(t[5]),
                    "seconds": row.seconds,
                    "error": row.error,
                }
                for row, t in zip(report.rows, table)
            ],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        return path
    raise ValueError(f"unknown report format {fmt!r}")
