"""A nonlinear quad-tri problem: k(u) = 1 + u^2 in the bulk terms and in the
average interface flux of the SIPG gluing, built from the public API.

Its residual reads u nonlinearly, so every Newton step reruns the residual
kernels warm (kappa grad u . grad v on the cells among them) and assembles
a Jacobian that depends on u.  The source is the pure Analytic
f = (1 + u^2) 8 pi^2 u - 2 u |grad u|^2 of the studies' exact solution, so
the rates of criterion 1 and Newton's step count check the residual and its
Gateaux derivative together; a Taylor test checks the derivative alone.
"""

import numpy as np
import pytest

import multifem as mf
from multifem.studies import DEFAULT_PENALTY, Problem

STEPS = 5  # Newton steps in every cell, p <= 2, n <= 2
RATE_BOUND = 0.10  # criterion 1


def source(x, y):
    u = mf.exact_solution(x, y)
    gx, gy = mf.exact_gradient(x, y)
    return (1.0 + u * u) * 8.0 * np.pi ** 2 * u - 2.0 * u * (gx * gx + gy * gy)


def build_nonlinear_quad_tri(degree, level, penalty=DEFAULT_PENALTY):
    """-div(k(u) grad u) = f on the unit square, Q_p on quadrilaterals
    (x < 0.5) glued to P_p on triangles (x > 0.5) by interior penalty."""
    background = mf.build_hybrid_unit_square(level)
    mesh_a, _ = mf.extract_codim0_submesh(background, 1)
    mesh_b, _ = mf.extract_codim0_submesh(background, 2)
    V = mf.FunctionSpace(mf.MeshSequence([mesh_a, mesh_b]), mf.MixedElement(
        [mf.make_element(mf.CellType.QUADRILATERAL, "Q", degree),
         mf.make_element(mf.CellType.TRIANGLE, "P", degree)]))
    u = mf.Coefficient(V)
    u_a, u_b = mf.split(u)
    v_a, v_b = mf.split(mf.TestFunction(V))
    n_a, n_b = mf.FacetNormal(mesh_a), mf.FacetNormal(mesh_b)
    k_a, k_b = 1 + u_a * u_a, 1 + u_b * u_b
    dx_a, dx_b = mf.Measure("dx", mesh_a), mf.Measure("dx", mesh_b)
    ds = mf.Measure("ds", mesh_a, intersect_measures=(
        mf.Measure("ds", mesh_b),))(mf.INTERFACE_MARKER)
    f_a = mf.Analytic(mesh_a, source, pure=True)
    f_b = mf.Analytic(mesh_b, source, pure=True)
    grad, inner = mf.grad, mf.inner
    F = (k_a * inner(grad(u_a), grad(v_a)) * dx_a
         + k_b * inner(grad(u_b), grad(v_b)) * dx_b
         - inner((k_a * grad(u_a) + k_b * grad(u_b)) / 2,
                 v_a * n_a + v_b * n_b) * ds
         - inner(u_a * n_a + u_b * n_b, (grad(v_a) + grad(v_b)) / 2) * ds
         + mf.Constant(penalty / mf.mesh_size(level))
         * (u_a - u_b) * (v_a - v_b) * ds
         - f_a * v_a * dx_a
         - f_b * v_b * dx_b)
    bcs = (mf.DirichletBC(0, mf.BOUNDARY_MARKER, mf.exact_solution),
           mf.DirichletBC(1, mf.BOUNDARY_MARKER, mf.exact_solution))
    return Problem(space=V, u=u, residual=F, bcs=bcs,
                   error_components=(0, 1))


@pytest.fixture(scope="module")
def solved():
    """(p, n) -> (Newton steps, L2 error, H1 error)."""
    cells = {}
    for p in (1, 2):
        for n in (0, 1, 2):
            problem = build_nonlinear_quad_tri(p, n)
            steps = mf.newton_solve(problem.residual, problem.u, problem.bcs)
            cells[p, n] = (steps, *mf.solution_errors(problem))
    return cells


def test_newton_takes_the_same_steps_in_every_cell(solved):
    assert {cell: steps for cell, (steps, _, _) in solved.items()} == {
        cell: STEPS for cell in solved}


@pytest.mark.parametrize("p", [1, 2])
def test_rates_meet_criterion_1(solved, p):
    (_, l2c, h1c), (_, l2f, h1f) = solved[p, 1], solved[p, 2]
    assert abs(np.log2(l2c / l2f) - (p + 1)) <= RATE_BOUND
    assert abs(np.log2(h1c / h1f) - p) <= RATE_BOUND


def test_the_residual_moves_by_the_jacobian_action_to_second_order():
    # F is cubic in u, so r(u + e d) - r(u) - e J d = e^2 A + e^3 B: the
    # remainder falls by 4 per halving of e, to roundoff
    problem = build_nonlinear_quad_tri(2, 0)
    u = problem.u
    rng = np.random.default_rng(3)
    base = rng.standard_normal(problem.space.num_dofs)
    d = rng.standard_normal(problem.space.num_dofs)
    u.values[:] = base
    r = mf.assemble(problem.residual)
    Jd = mf.assemble(mf.derivative(problem.residual, u)) @ d
    remainders = []
    for eps in 1e-3 / 2.0 ** np.arange(4):
        u.values[:] = base + eps * d
        remainders.append(np.linalg.norm(
            mf.assemble(problem.residual) - r - eps * Jd))
    ratios = np.array(remainders[:-1]) / remainders[1:]
    assert np.all(np.abs(ratios - 4.0) <= 0.05), ratios
