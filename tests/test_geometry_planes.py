"""Cell geometry on component planes, against the formulas it replaced.

fe.geometry_jacobian sums each entry of a bilinear quadrilateral's
Jacobian on one plane over the points, and compile._inv_2x2 inverts
(..., 2, 2) matrices entry by entry.  The broadcast einsum and the
inverse over the whole (..., 2, 2) array that they replaced are kept here
as references.  An affine (triangle) map's inverse Jacobian is computed
once per cell and broadcast over the points, on the primal cells of a
measure and on a pulled-back participant alike.
"""

import numpy as np
import pytest

import conftest
from multifem import fe, forms
from multifem import mesh as mm

TRI, QUAD = mm.CellType.TRIANGLE, mm.CellType.QUADRILATERAL


def einsum_jacobian(vertices, pts):
    """The bilinear map's Jacobians as one broadcast einsum over the
    vertices; also returns the same sum over |x_vi| |dN_v/dxi_d|, the
    magnitude its roundoff is relative to."""
    x, y = pts[..., 0], pts[..., 1]
    dN = np.empty(pts.shape[:-1] + (4, 2))
    dN[..., 0, 0], dN[..., 0, 1] = -(1 - y), -(1 - x)
    dN[..., 1, 0], dN[..., 1, 1] = (1 - y), -x
    dN[..., 2, 0], dN[..., 2, 1] = y, x
    dN[..., 3, 0], dN[..., 3, 1] = -y, (1 - x)
    formula = "...vi,...pvd->...pid"
    return (np.einsum(formula, vertices, dN),
            np.einsum(formula, np.abs(vertices), np.abs(dN)))


def stacked_inverse(J):
    """Inverses and determinants, dividing the whole (..., 2, 2) array."""
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    inv = np.empty_like(J)
    inv[..., 0, 0] = J[..., 1, 1]
    inv[..., 0, 1] = -J[..., 0, 1]
    inv[..., 1, 0] = -J[..., 1, 0]
    inv[..., 1, 1] = J[..., 0, 0]
    return inv / det[..., None, None], det


def warped_quads(seed, count=40):
    """Convex, non-parallelogram quadrilaterals spread over [-50, 50]^2 at
    sizes from 1e-3 to 10."""
    rng = np.random.default_rng(seed)
    square = fe.reference_vertices(QUAD)
    corners = square + rng.uniform(-0.2, 0.2, (count, 4, 2))
    size = 10.0 ** rng.uniform(-3, 1, (count, 1, 1))
    return size * corners + rng.uniform(-50, 50, (count, 1, 2))


def slanted_triangles(seed, count=40):
    rng = np.random.default_rng(seed)
    corners = fe.reference_vertices(TRI) + rng.uniform(-0.2, 0.2,
                                                       (count, 3, 2))
    return 10.0 ** rng.uniform(-3, 1, (count, 1, 1)) * corners


@pytest.mark.parametrize("degree", [4, 8, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_quadrilateral_jacobian_matches_the_einsum(seed, degree):
    vertices = warped_quads(seed)
    rule_points = fe.make_quadrature(QUAD, degree).points
    per_cell = np.random.default_rng(seed).uniform(
        0, 1, (len(vertices), 7, 2))  # one point set per cell, as pullbacks
    for verts, pts in ((vertices, rule_points), (vertices, per_cell),
                       (vertices[0], rule_points)):
        J = fe.geometry_jacobian(QUAD, verts, pts)
        expected, scale = einsum_jacobian(verts, pts)
        assert J.shape == expected.shape and J.flags.writeable
        # a different summation order would stay within a few ulp of the
        # terms' magnitude
        assert np.all(np.abs(J - expected) <= 4 * np.spacing(scale))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_planar_inverse_matches_the_stacked_one(comp, seed):
    quads = warped_quads(seed)
    points = fe.make_quadrature(QUAD, 6).points
    for J in (fe.geometry_jacobian(QUAD, quads, points),
              fe.geometry_jacobian(TRI, slanted_triangles(seed), points)):
        inv, det = comp._inv_2x2(J)
        expected_inv, expected_det = stacked_inverse(J)
        assert inv.shape == J.shape and det.shape == J.shape[:-2]
        assert np.array_equal(inv, expected_inv)
        assert np.array_equal(det, expected_det)


def assert_one_inverse_per_cell(side, vertices, ref):
    """side.jinv is a read-only (E, nq, 2, 2) view with one inverse per
    cell, equal to the inverse taken at every point."""
    jinv = side.jinv
    expected = stacked_inverse(fe.geometry_jacobian(TRI, vertices, ref))[0]
    assert jinv.shape == expected.shape and jinv.strides[1] == 0
    assert not jinv.flags.writeable
    assert np.array_equal(jinv, expected)


def test_a_triangle_measure_inverts_once_per_cell(asm):
    mesh = conftest.warp(mm.build_hybrid_unit_square(1))
    tris, _ = mm.extract_codim0_submesh(mesh, 2)
    assert tris.cell_type is TRI
    V = conftest.scalar_space(tris, "P", 2)
    u, v = forms.TrialFunction(V), forms.TestFunction(V)
    dx = forms.Measure("dx", tris)
    form = forms.inner(forms.grad(u), forms.grad(v)) * dx
    asm.assemble(form)
    (plan,), _ = form._plans
    geometry, rule = plan.geometry, plan.kernel.quadrature
    vertices = tris.coords_of_cells(geometry.entities[:, 0])
    assert_one_inverse_per_cell(geometry.side(0, 0), vertices, rule.points)
    det = stacked_inverse(fe.geometry_jacobian(TRI, vertices,
                                               rule.points))[1]
    assert np.array_equal(geometry.wq, np.abs(det) * rule.weights)


def test_a_pulled_back_triangle_side_inverts_once_per_cell(asm, studies):
    problem = studies.build_quad_tri_problem(2, 1)
    asm.assemble(problem.residual)
    plans, _ = problem.residual._plans
    # one plan per integral, in form order
    interfaces = [(p, itg.measure.participants()) for p, itg
                  in zip(plans, problem.residual.integrals)
                  if len(itg.measure.participants()) > 1]
    assert len(interfaces) == 3  # ds(q)^ds(t) twice, ds(t)^ds(q) once
    for interface, parts in interfaces:
        pidx = [mesh.cell_type for _, mesh in parts].index(TRI)
        side = interface.geometry.side(pidx, 0)
        assert side.ref.shape[0] == len(interface.geometry) > 1
        assert_one_inverse_per_cell(side, side.vertices, side.ref)
