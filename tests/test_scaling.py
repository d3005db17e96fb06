"""Metamorphic scaling: the interior-penalty Jacobian is scale-free.

In 2D the stiffness, consistency and C/h penalty terms of Poisson's SIPG
operator are invariant under x -> s x when the mesh size h scales with the
mesh, so the Jacobian assembled on a scaled domain must equal the unit one.
Huge and tiny scales exercise the geometry checks: they are relative to the
cell, so they neither fire nor pass vacuously off unit scale.
"""

import numpy as np
import pytest
from scipy.sparse.linalg import norm as sparse_norm

from multifem import fe, forms, studies
import conftest
from multifem import mesh as mm

QUAD = mm.CellType.QUADRILATERAL
TRI = mm.CellType.TRIANGLE
LEVEL = 1


def _scaled(mesh, s):
    return mm.Mesh(2, s * mesh.vertices,
                   (mesh.cell_type_codes, mesh.cell_vertex_ids),
                   cell_markers=mesh.cell_markers,
                   facet_markers=(mesh.facet_vertex_ids, mesh.facet_markers))


def _sipg_jacobian(asm, build, cells, scale):
    background = _scaled(build(LEVEL), scale)
    mesh_a, _ = mm.extract_codim0_submesh(background, 1)
    mesh_b, _ = mm.extract_codim0_submesh(background, 2)
    problem = studies.build_sipg_problem(
        mesh_a, fe.make_element(cells[0], *cells[1]),
        mesh_b, fe.make_element(cells[2], *cells[3]),
        studies.DEFAULT_PENALTY, scale * studies.mesh_size(LEVEL))
    return asm.assemble(forms.derivative(problem.residual, problem.u))


CASES = {
    "quad-tri": (mm.build_hybrid_unit_square, (QUAD, ("Q", 2), TRI, ("P", 2))),
    "split-quad": (mm.build_split_unit_square, (QUAD, ("Q", 2), QUAD, ("Q", 2))),
}


@pytest.mark.parametrize("scale", [1e-6, 1e6, 1e-150])
@pytest.mark.parametrize("case", sorted(CASES))
def test_sipg_jacobian_is_scale_invariant(asm, case, scale):
    build, cells = CASES[case]
    unit = _sipg_jacobian(asm, build, cells, 1.0)
    scaled = _sipg_jacobian(asm, build, cells, scale)
    assert scaled.shape == unit.shape
    assert sparse_norm(scaled - unit) <= 1e-12 * sparse_norm(unit)


def test_collapsed_quadrilateral_still_raises(asm):
    # four collinear vertices: J is singular everywhere
    mesh = mm.Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                                [3.0, 0.0]]),
                   conftest.cells_of(QUAD, [(0, 1, 2, 3)]))
    V = forms.FunctionSpace(mesh, fe.make_element(QUAD, "Q", 1))
    u, v = forms.TrialFunction(V), forms.TestFunction(V)
    with pytest.raises(ValueError, match="degenerate geometry"):
        asm.assemble(forms.inner(forms.grad(u), forms.grad(v))
                     * forms.Measure("dx", mesh))


def test_collinear_triangle_still_raises(asm):
    # one good triangle and one with collinear vertices: the Jacobian,
    # inverted once per cell, is singular on the second
    mesh = mm.Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                [2.0, -1.0]]),
                   conftest.cells_of(TRI, [(0, 1, 2), (1, 2, 3)]))
    V = forms.FunctionSpace(mesh, fe.make_element(TRI, "P", 1))
    u, v = forms.TrialFunction(V), forms.TestFunction(V)
    with pytest.raises(ValueError, match="degenerate geometry"):
        asm.assemble(forms.inner(forms.grad(u), forms.grad(v))
                     * forms.Measure("dx", mesh))
