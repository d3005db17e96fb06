"""The two-level preconditioner of cg-fieldsplit: its degree-1 coarse space
P against closed-form interpolation, its M against symmetry and
positivity, and CG's iteration counts against growth under refinement."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg


@pytest.fixture
def cg_calls(monkeypatch):
    """(M, iterations) of every scipy cg call made while the test runs."""
    calls, cg = [], scipy.sparse.linalg.cg

    def recorded(A, b, **kwargs):
        steps = []
        x, info = cg(A, b, callback=steps.append, **kwargs)
        calls.append((kwargs["M"], len(steps)))
        return x, info

    monkeypatch.setattr(scipy.sparse.linalg, "cg", recorded)
    return calls


@pytest.fixture
def schur_matvecs(asm, monkeypatch):
    counted, dot = [], asm.ReducedSystem.dot

    def counting(self, v):
        counted.append(None)
        return dot(self, v)

    monkeypatch.setattr(asm.ReducedSystem, "dot", counting)
    return counted


def degree_1_field(mesh, X, g):
    """The degree-1 field with value g[v] at mesh vertex v, at the points
    X[c, i] of each cell c: closed-form barycentric coordinates on
    triangles, bilinear ones on parallelograms."""
    x = mesh.vertices[mesh.cell_vertex_ids]  # (cells, nverts, 2)
    vals = g[mesh.cell_vertex_ids].T[:, :, None]  # (nverts, cells, 1)
    e1, e2 = x[:, 1] - x[:, 0], x[:, -1] - x[:, 0]
    d = X - x[:, None, 0]
    det = (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])[:, None]
    s = (d[..., 0] * e2[:, None, 1] - d[..., 1] * e2[:, None, 0]) / det
    t = (e1[:, None, 0] * d[..., 1] - e1[:, None, 1] * d[..., 0]) / det
    if len(vals) == 3:
        return (1 - s - t) * vals[0] + s * vals[1] + t * vals[2]
    assert np.abs(x[:, 0] + x[:, 2] - x[:, 1] - x[:, 3]).max() < 1e-12
    return ((1 - s) * (1 - t) * vals[0] + s * (1 - t) * vals[1]
            + s * t * vals[2] + (1 - s) * t * vals[3])


@pytest.mark.parametrize("name", ["quad-tri", "split-interface"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_the_coarse_space_interpolates_degree_1_fields(studies, name, degree):
    problem = studies.build_problem(name, degree, 1)
    space = problem.space
    P = studies.coarse_space(problem)
    kept = [k for k in range(space.num_components)
            if k != problem.aux_component]
    rng = np.random.default_rng(degree)
    coarse, expected, rows = [], [], 0
    for k in kept:
        mesh, dofmap = space.meshes[k], space.dofmaps[k]
        element = space.element.sub_elements[k]
        g = rng.standard_normal(mesh.num_vertices)
        # a vertex dof's value is g at its vertex; the columns of P are
        # each component's vertex dofs in ascending order
        vertex_of = {}
        for ln, tag in enumerate(element.node_tags):
            if tag[0] == "vertex":
                for c in range(mesh.num_cells):
                    vertex_of[dofmap[c, ln]] = mesh.cell_vertex_ids[c, tag[1]]
        coarse.append(g[[vertex_of[d] for d in sorted(vertex_of)]])
        sl = space.component_slice(k)
        field = degree_1_field(mesh, space.dof_coords[sl][dofmap], g)
        values = np.full(sl.stop - sl.start, np.nan)
        values[dofmap] = field
        expected.append(values)
        rows += sl.stop - sl.start
    assert P.shape == (rows, sum(map(len, coarse)))
    fine = P @ np.concatenate(coarse)
    expected = np.concatenate(expected)
    assert np.abs(fine - expected).max() <= 1e-13


@pytest.mark.parametrize("name", ["quad-tri", "split-interface"])
def test_at_degree_1_the_coarse_space_is_the_fine_one(studies, name):
    problem = studies.build_problem(name, 1, 1)
    P = studies.coarse_space(problem)
    n = problem.space.num_dofs
    if problem.aux_component is not None:
        aux = problem.space.component_slice(problem.aux_component)
        n -= aux.stop - aux.start
    assert P.shape == (n, n)
    assert (P != scipy.sparse.identity(n)).nnz == 0


def dense_preconditioner(studies, cg_calls, name, degree):
    """cg-fieldsplit's M at n = 0 as a dense array."""
    problem = studies.build_problem(name, degree, 0)
    studies.solve_problem(problem, "cg-fieldsplit")
    (M, _), = cg_calls
    return np.column_stack([M.matvec(e) for e in np.eye(M.shape[0])])


@pytest.mark.parametrize("name", ["quad-tri", "split-interface"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_the_two_level_preconditioner_is_spd(studies, cg_calls, name, degree):
    dense = dense_preconditioner(studies, cg_calls, name, degree)
    scale = np.abs(dense).max()
    assert np.abs(dense - dense.T).max() <= 1e-12 * scale
    assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() > 0


def test_an_undamped_smoother_makes_the_cycle_indefinite(asm, studies,
                                                         cg_calls,
                                                         monkeypatch):
    # lambda_max(D^-1 A) is 2.41 here, so at omega = 1 the V-cycle is no
    # longer positive definite: the test above would catch it
    monkeypatch.setattr(asm, "OMEGA", 1.0)
    dense = dense_preconditioner(studies, cg_calls, "quad-tri", 2)
    assert np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() < 0


@pytest.mark.parametrize("degree", [1, 2])
def test_schur_cg_iterations_stay_bounded_per_degree(studies, cg_calls,
                                                     schur_matvecs, degree):
    # M applications, one per CG iteration: Jacobi alone took 79 and 185
    # at p = 1 (n = 1, 2) and 167 and 278 at p = 2, the additive two-level
    # M 16/16 and 54/56
    counts = []
    for level in (1, 2):
        problem = studies.build_problem("split-interface", degree, level)
        start = len(schur_matvecs)
        studies.solve_problem(problem, "cg-fieldsplit")
        counts.append(cg_calls[-1][1])
        # one matvec per iteration, two in each V-cycle M applies and one
        # for solve_linear's residual
        assert len(schur_matvecs) - start == 3 * counts[-1] + 1
    assert counts[1] <= 1.2 * counts[0]
    assert counts[1] <= 35


def test_quad_tri_cg_iterations_stay_bounded(studies, cg_calls):
    # plain Jacobi took 385 iterations here, the additive two-level M 74
    problem = studies.build_problem("quad-tri", 2, 2)
    studies.solve_problem(problem, "cg-fieldsplit")
    (_, iterations), = cg_calls
    assert iterations <= 45


def laplacian_1d(n):
    off = -np.ones(n - 1)
    return scipy.sparse.diags([off, 2 * np.ones(n), off], [-1, 0, 1],
                              format="csr")


def test_a_coarse_space_implies_cg(asm, cg_calls):
    A = laplacian_1d(6)
    P = scipy.sparse.csr_matrix(np.repeat(np.eye(3), 2, axis=0))
    x = asm.solve_linear(A, np.ones(6), coarse=P)
    assert len(cg_calls) == 1
    assert np.abs(A @ x - 1.0).max() <= 1e-9
    asm.solve_linear(A, np.ones(6))  # no coarse space: LU, no CG
    assert len(cg_calls) == 1


def test_a_singular_coarse_operator_names_itself(asm):
    # a zero column of P makes Ac singular; the error names Ac, and is
    # not SuperLU's bare RuntimeError
    P = scipy.sparse.csr_matrix(np.array([[1.0, 0.0]] * 4))
    with pytest.raises(ValueError, match="coarse operator is singular"):
        asm.solve_linear(laplacian_1d(4), np.ones(4), coarse=P)
