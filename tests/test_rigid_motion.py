"""Metamorphic rigid motion: the interior-penalty Jacobian is invariant.

Gradients, facet normals, facet lengths and cell areas are invariant under
a rotation plus translation of the domain, so Poisson's SIPG Jacobian
assembled on the moved mesh must equal the unmoved one.  The background is
a jittered hybrid mesh: its quadrilaterals are non-affine with full 2x2
Jacobians, so the cell geometry and the Newton pullback of the interface
points run off the axis-aligned case the study meshes give.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from multifem import fe, forms
from multifem import mesh as mm

QUAD = mm.CellType.QUADRILATERAL
TRI = mm.CellType.TRIANGLE
LEVEL = 1
SEED = 61


def _with_vertices(mesh, vertices):
    return mm.Mesh(2, vertices, (mesh.cell_type_codes, mesh.cell_vertex_ids),
                   cell_markers=mesh.cell_markers,
                   facet_markers=(mesh.facet_vertex_ids, mesh.facet_markers))


def _jittered_background(studies):
    """Hybrid unit square with every interior vertex moved by up to a
    fifth of the grid spacing in each coordinate."""
    mesh = mm.build_hybrid_unit_square(LEVEL)
    rng = np.random.default_rng(SEED)
    X = mesh.vertices.copy()
    interior = np.all((X > 1e-12) & (X < 1.0 - 1e-12), axis=1)
    X[interior] += rng.uniform(-0.2, 0.2, (interior.sum(), 2)) \
        * studies.mesh_size(LEVEL)
    return _with_vertices(mesh, X)


def _rigidly_moved(mesh):
    rng = np.random.default_rng(SEED + 1)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    return _with_vertices(mesh, mesh.vertices @ R.T + rng.uniform(-2, 2, 2))


def _problem(studies, background):
    mesh_q, _ = mm.extract_codim0_submesh(background, 1)
    mesh_t, _ = mm.extract_codim0_submesh(background, 2)
    problem = studies.build_sipg_problem(
        mesh_q, fe.make_element(QUAD, "Q", 2),
        mesh_t, fe.make_element(TRI, "P", 2),
        studies.DEFAULT_PENALTY, studies.mesh_size(LEVEL))
    return problem, forms.derivative(problem.residual, problem.u)


@pytest.fixture(scope="module")
def meshes(studies):
    background = _jittered_background(studies)
    return background, _rigidly_moved(background)


def test_background_quadrilaterals_are_not_parallelograms(studies, meshes):
    background, _ = meshes
    quads = background.cell_vertex_ids[
        background.cell_type_codes == mm.CELL_TYPES.index(QUAD)]
    a, b, c, d = (background.vertices[quads[:, k]] for k in range(4))
    skew = np.abs(a + c - b - d).max(axis=1)
    assert np.all(skew > 1e-3 * studies.mesh_size(LEVEL))


def test_sipg_jacobian_is_invariant_under_rigid_motion(asm, studies, meshes):
    background, moved = meshes
    J = asm.assemble(_problem(studies, background)[1])
    J_moved = asm.assemble(_problem(studies, moved)[1])
    assert J_moved.shape == J.shape
    assert abs(J_moved - J).max() <= 1e-12 * spla.norm(J)


def test_residual_difference_is_the_jacobian_action_on_the_moved_mesh(
        asm, studies, meshes):
    problem, jacobian = _problem(studies, meshes[1])
    r0 = asm.assemble(problem.residual)
    dofs, _ = asm.dirichlet_dofs(problem.space, problem.bcs)
    free = np.ones(problem.space.num_dofs, dtype=bool)
    free[dofs] = False
    u = np.random.default_rng(SEED + 2).standard_normal(len(free))
    u[~free] = 0.0
    problem.u.values[:] = u
    r = asm.assemble(problem.residual)
    A = asm.assemble(jacobian, problem.bcs)
    gap = np.linalg.norm((r - r0 - A @ u)[free])
    assert gap <= 1e-10 * np.linalg.norm(r[free])
