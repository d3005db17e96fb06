"""Global assembly, boundary conditions, solvers, norms, and elimination."""

import numpy as np
import pytest
import scipy.io
import scipy.sparse as sp

import conftest
from multifem import fe, forms
from multifem import mesh as mm

QUAD = mm.CellType.QUADRILATERAL
TRI = mm.CellType.TRIANGLE


def left_half_space(level=0, degree=1):
    parent = mm.build_split_unit_square(level)
    ml, _ = mm.extract_codim0_submesh(parent, 1)
    return conftest.scalar_space(ml, "Q", degree)


def ones_column(n):
    """A one-column coarse space P: given one, solve_linear runs CG."""
    return sp.csr_matrix(np.ones((n, 1)))


class TestAssembleBasics:
    def test_load_vector_sums_to_the_area(self, asm):
        m = mm.Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                 [0.0, 1.0]]),
                    conftest.cells_of(TRI, [(0, 1, 2), (0, 2, 3)]))
        V = conftest.scalar_space(m, "P", 1)
        (v0,) = forms.split(forms.TestFunction(V))
        b = asm.assemble(forms.Constant(1.0) * v0 * forms.Measure("dx", m))
        assert b.sum() == pytest.approx(1.0, abs=1e-12)

    def test_assembly_is_linear_in_the_form(self, asm, studies):
        problem = studies.build_quad_tri_problem(1, 0)
        rng = np.random.default_rng(17)
        problem.u.values[:] = rng.uniform(-1, 1, problem.space.num_dofs)
        integrals = list(problem.residual.integrals)
        part_a = forms.Form(integrals[: len(integrals) // 2])
        part_b = forms.Form(integrals[len(integrals) // 2:])
        whole = asm.assemble(problem.residual)
        pieces = asm.assemble(part_a) + asm.assemble(part_b)
        scale = np.abs(whole).max()
        assert np.abs(whole - pieces).max() <= 1e-14 * scale

    def test_matrix_assembly_is_linear_in_the_form(self, asm, studies):
        problem = studies.build_quad_tri_problem(1, 0)
        J = forms.derivative(problem.residual, problem.u)
        integrals = list(J.integrals)
        part_a = forms.Form(integrals[:2])
        part_b = forms.Form(integrals[2:])
        whole = asm.assemble(J).toarray()
        pieces = (asm.assemble(part_a) + asm.assemble(part_b)).toarray()
        scale = np.abs(whole).max()
        assert np.abs(whole - pieces).max() <= 1e-14 * scale

    def test_empty_subdomain_warns_and_contributes_zero(self, asm):
        V = left_half_space()
        m = V.meshes[0]
        u, v = forms.Coefficient(V), forms.TestFunction(V)
        (u0,), (v0,) = forms.split(u), forms.split(v)
        form = u0 * v0 * forms.Measure("ds", m, 4321)
        with pytest.warns(UserWarning, match="matched no entities"):
            b = asm.assemble(form)
        assert np.all(b == 0.0)

    @pytest.mark.parametrize("with_bcs", [False, True])
    def test_an_empty_form_raises(self, asm, with_bcs):
        V = left_half_space()
        u, w = forms.Coefficient(V), forms.Coefficient(V)
        (u0,), (v0,) = forms.split(u), forms.split(forms.TestFunction(V))
        J = forms.derivative(u0 * v0 * forms.Measure("dx", V.meshes[0]), w)
        bcs = [asm.DirichletBC(0, mm.BOUNDARY_MARKER, 0.0)] if with_bcs else []
        with pytest.raises(ValueError, match="no integrals.*derivative"):
            asm.assemble(J, bcs)

    def test_unrelated_meshes_rejected(self, asm):
        parent_a = mm.build_split_unit_square(0)
        parent_b = mm.build_split_unit_square(0)
        ma, _ = mm.extract_codim0_submesh(parent_a, 1)
        mb, _ = mm.extract_codim0_submesh(parent_b, 2)
        Va = conftest.scalar_space(ma, "Q", 1)
        Vb = conftest.scalar_space(mb, "Q", 1)
        (ua,) = forms.split(forms.Coefficient(Va))
        (vb,) = forms.split(forms.TestFunction(Vb))
        form = ua * vb * forms.Measure(
            "ds", ma, 999, intersect_measures=(forms.Measure("ds", mb),))
        with pytest.raises(ValueError, match="unrelated meshes"):
            asm.assemble(form)

    def test_interface_iteration_set_matches_brute_force(self, asm,
                                                         studies):
        problem = studies.build_quad_tri_problem(1, 0)
        J = forms.derivative(problem.residual, problem.u)
        for itg in conftest.distinct_intersection_integrals(
                problem.residual, J):
            assert (sorted(asm.iteration_set(itg))
                    == conftest.brute_force_iteration_set(itg))


class TestDirichletBC:
    def test_geometric_dof_lookup(self, asm):
        V = left_half_space()
        bc = asm.DirichletBC(0, mm.BOUNDARY_MARKER, lambda x, y: x + 2 * y)
        dofs, values = asm.dirichlet_dofs(V, [bc])
        m = V.meshes[0]
        boundary_segments = [m.coords_of_facets(f)
                             for f in range(m.num_facets)
                             if m.facet_markers[f] == mm.BOUNDARY_MARKER]

        def on_boundary(p):
            for seg in boundary_segments:
                a, b = seg
                t = np.clip(np.dot(p - a, b - a) / np.dot(b - a, b - a),
                            0.0, 1.0)
                if np.linalg.norm(p - (a + t * (b - a))) <= 1e-12:
                    return True
            return False

        expected = {d for d in range(V.num_dofs)
                    if on_boundary(V.dof_coords[d])}
        assert set(dofs.tolist()) == expected
        for d, value in zip(dofs, values):
            x, y = V.dof_coords[d]
            assert value == pytest.approx(x + 2 * y, abs=1e-14)

    def test_vector_closure_fixes_both_components(self, asm):
        mesh = mm.build_split_unit_square(0)
        spaces = [conftest.make_space([mesh], [fe.make_element(
            QUAD, "Q", 2, value_shape=shape)]) for shape in ((), (2,))]
        scalar, vector = (asm.dirichlet_dofs(V, [asm.DirichletBC(
            0, mm.BOUNDARY_MARKER, 0.0)])[0] for V in spaces)
        assert len(scalar) == 80 and len(vector) == 160
        assert np.array_equal(vector, np.sort(np.concatenate(
            [2 * scalar, 2 * scalar + 1])))

    def test_unmatched_marker_raises(self, asm):
        V = left_half_space()
        with pytest.raises(ValueError, match="no entities matched marker"):
            asm.dirichlet_dofs(V, [asm.DirichletBC(0, 777, 0.0)])

    def test_application_is_idempotent(self, asm, studies):
        problem = studies.build_quad_tri_problem(1, 0)
        J = forms.derivative(problem.residual, problem.u)
        once = asm.assemble(J, bcs=problem.bcs)
        twice = asm.assemble(J, bcs=list(problem.bcs) + list(problem.bcs))
        assert np.array_equal(once.data, twice.data)
        assert np.array_equal(once.indices, twice.indices)

    def test_residual_entries_take_boundary_values(self, asm):
        V = left_half_space()
        m = V.meshes[0]
        u, v = forms.Coefficient(V), forms.TestFunction(V)
        (u0,), (v0,) = forms.split(u), forms.split(v)
        F = u0 * v0 * forms.Measure("dx", m)
        bc = asm.DirichletBC(0, mm.BOUNDARY_MARKER, lambda x, y: 10 * x + y)
        b = asm.assemble(F, bcs=[bc])
        dofs, values = asm.dirichlet_dofs(V, [bc])
        assert np.allclose(b[dofs], values, atol=1e-14)

    def test_constant_value_broadcasts(self, asm):
        V = left_half_space()
        bc = asm.DirichletBC(0, mm.BOUNDARY_MARKER, 3.5)
        _, values = asm.dirichlet_dofs(V, [bc])
        assert len(values) > 0 and np.all(values == 3.5)

    @pytest.mark.parametrize("component", [1, -1])
    def test_component_out_of_range_raises(self, asm, component):
        V = left_half_space()
        with pytest.raises(ValueError, match="out of range"):
            asm.dirichlet_dofs(V, [asm.DirichletBC(component, 0, 0.0)])

    def test_codim1_component_raises(self, asm, studies):
        problem = studies.build_split_interface_problem(1, 0)
        with pytest.raises(ValueError, match="codim-1"):
            asm.dirichlet_dofs(problem.space, [asm.DirichletBC(1, 0, 0.0)])

    @pytest.mark.parametrize("degrees", [(1, 2), (2, 1), (1, 1)])
    def test_bcs_on_a_matrix_need_one_space(self, asm, degrees):
        # Q1 x Q2, Q2 x Q1 and two distinct Q1 spaces of equal size: the
        # constrained pattern numbers rows and columns alike
        parent = mm.build_split_unit_square(0)
        ml, _ = mm.extract_codim0_submesh(parent, 1)
        V, W = (conftest.scalar_space(ml, "Q", p) for p in degrees)
        (v0,) = forms.split(forms.TestFunction(V))
        (t0,) = forms.split(forms.TrialFunction(W))
        a = forms.inner(forms.grad(t0), forms.grad(v0)) * forms.Measure(
            "dx", ml)
        assert asm.assemble(a).shape == (V.num_dofs, W.num_dofs)
        bcs = [asm.DirichletBC(0, mm.BOUNDARY_MARKER, 0.0)]
        with pytest.raises(ValueError, match="trial space to be its test "
                                             "space"):
            asm.assemble(a, bcs)


class TestLinearSolvers:
    def test_identity_system(self, asm):
        b = np.array([3.0, -1.0, 2.0])
        x = asm.solve_linear(sp.identity(3, format="csr"), b)
        assert np.allclose(x, b, atol=1e-14)

    def test_uniform_load_chain_recovers_the_parabola(self, asm):
        # -u'' = 1 on (0, 1), zero ends, 4 interior nodes at spacing 0.2:
        # the 3-point stencil is exact for the quadratic x(1-x)/2
        h = 0.2
        main = 2.0 * np.ones(4)
        off = -1.0 * np.ones(3)
        A = sp.diags([off, main, off], [-1, 0, 1], format="csr") / h**2
        x = asm.solve_linear(A, np.ones(4))
        nodes = np.array([0.2, 0.4, 0.6, 0.8])
        assert np.allclose(x, nodes * (1 - nodes) / 2, atol=1e-12)

    def test_cg_and_lu_agree_on_spd_systems(self, asm):
        rng = np.random.default_rng(23)
        B = rng.normal(size=(50, 50))
        A = sp.csr_matrix(B @ B.T + 50.0 * np.eye(50))
        b = rng.normal(size=50)
        direct = asm.solve_linear(A, b)
        iterative = asm.solve_linear(A, b, coarse=ones_column(50))
        assert np.linalg.norm(direct - iterative) <= 1e-8

    def test_singular_matrix_raises(self, asm):
        A = sp.csr_matrix(np.zeros((3, 3)))
        with pytest.raises((ValueError, RuntimeError)):
            asm.solve_linear(A, np.ones(3))

    def test_singular_matrices_raise_value_errors(self, asm):
        A = sp.csr_matrix(np.diag([1.0, 0.0, 1.0]))
        with pytest.raises(ValueError, match="linear system is singular"):
            asm.solve_linear(A, np.ones(3))
        with pytest.raises(ValueError, match="eliminated block is singular"):
            asm.eliminate_component(A, [0, 1, 3], 1, np.ones(3))

    def test_an_inaccurate_lu_solve_raises(self, asm):
        # the 13 x 13 Hilbert matrix, condition number about 1e18: with
        # b = ones, LU's residual reads 1.0e-7, about 280 times the
        # tolerance 1e-10 |b|
        k = np.arange(13)
        A = sp.csr_matrix(1.0 / (k[:, None] + k + 1.0))
        with pytest.raises(asm.ConvergenceError, match="exceeds tolerance"):
            asm.solve_linear(A, np.ones(13))

    def test_lu_pivots_off_a_zero_diagonal(self, asm):
        # a cyclic shift plus a small strictly upper part: every diagonal
        # entry is zero, so no symmetric ordering avoids a zero pivot and
        # the factorization must still pivot
        rng = np.random.default_rng(29)
        A = sp.csr_matrix(np.roll(np.eye(40), 1, axis=1)
                          + 1e-3 * np.triu(rng.normal(size=(40, 40)), 1))
        x = rng.normal(size=40)
        assert np.abs(asm.solve_linear(A, A @ x) - x).max() <= 1e-10

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
    def test_cg_rejects_a_diagonal_no_spd_matrix_has(self, asm, bad):
        A = sp.diags([2.0, bad, 2.0, 2.0], format="csr")
        with pytest.raises(ValueError, match="diagonal"):
            asm.solve_linear(A, np.ones(4), coarse=ones_column(4))

    def test_cg_returns_zero_for_a_zero_right_hand_side(self, asm):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x = asm.solve_linear(A, np.zeros(2), coarse=ones_column(2))
        assert x.tolist() == [0.0, 0.0]

    def test_a_zero_right_hand_side_gives_fresh_positive_zeros(self, asm):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        b = -np.zeros(2)
        x = asm.solve_linear(A, b, coarse=ones_column(2))
        assert x is not b and not np.any(np.signbit(x))

    def test_cg_gives_up_after_ten_n_iterations(self, asm):
        # not symmetric, but a positive diagonal: CG's recurrences cycle
        # without breaking down
        A = sp.csr_matrix(np.array([[1.0, 2.0], [-2.0, 1.0]]))
        with pytest.raises(asm.ConvergenceError,
                           match="CG did not converge within 20 iterations"):
            asm.solve_linear(A, np.ones(2), coarse=ones_column(2))


class TestNewton:
    def test_converging_on_the_last_allowed_step_counts_it(
            self, asm, studies, monkeypatch):
        # a linear cell converges after one update: with one allowed, the
        # check after the loop accepts it
        problem = studies.build_quad_tri_problem(1, 0)
        monkeypatch.setattr(asm, "NEWTON_MAX_ITERS", 1)
        assert asm.newton_solve(problem.residual, problem.u,
                                bcs=problem.bcs) == 1

    def test_linear_problem_takes_one_update(self, asm, studies):
        problem = studies.build_quad_tri_problem(1, 0)
        iterations = asm.newton_solve(problem.residual, problem.u,
                                      bcs=problem.bcs)
        assert iterations == 1

    def test_solved_state_takes_no_update(self, asm, studies):
        problem = studies.build_quad_tri_problem(1, 0)
        asm.newton_solve(problem.residual, problem.u, bcs=problem.bcs)
        again = asm.newton_solve(problem.residual, problem.u,
                                 bcs=problem.bcs)
        assert again == 0

    def test_cube_root_problem_converges_quadratically(self, asm):
        m = conftest.single_cell_mesh(
            QUAD, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        V = conftest.scalar_space(m, "Q", 1)
        u, v = forms.Coefficient(V), forms.TestFunction(V)
        (u0,), (v0,) = forms.split(u), forms.split(v)
        F = ((u0 * u0 * u0 - forms.Constant(8.0)) * v0
             * forms.Measure("dx", m))
        u.values[:] = 1.8
        J = forms.derivative(F, u)
        norms = []
        for _ in range(12):
            residual = asm.assemble(F)
            norms.append(np.linalg.norm(residual))
            if norms[-1] < 1e-13:
                break
            u.values[:] -= asm.solve_linear(asm.assemble(J), residual)
        assert norms[-1] < 1e-13
        contraction = [after for before, after in zip(norms, norms[1:])
                       if 1e-11 < before < 0.5]
        for before, after in zip(norms, norms[1:]):
            if 1e-11 < before < 0.5:
                assert after <= before ** 1.7

        u.values[:] = 1.0
        iterations = asm.newton_solve(F, u)
        assert iterations <= 10
        assert np.allclose(u.values, 2.0, atol=1e-9)

    def test_a_half_step_raises_after_the_iteration_cap(self, asm, studies):
        # on a linear problem a half step halves the residual: after the
        # cap's 25 steps it is 2**-25 ~ 3e-8 of the first, above the
        # relative tolerance 1e-9
        problem = studies.build_split_interface_problem(1, 0)
        calls = []

        def half_step(A, b):
            calls.append(1)
            return 0.5 * asm.solve_linear(A, b)

        with pytest.raises(asm.ConvergenceError, match="25 iterations"):
            asm.newton_solve(problem.residual, problem.u, bcs=problem.bcs,
                             solve=half_step)
        assert len(calls) == asm.NEWTON_MAX_ITERS == 25

    def test_pluggable_step_is_called_once_on_a_linear_problem(self, asm,
                                                              studies):
        problem = studies.build_split_interface_problem(1, 0)
        calls = []

        def counting(A, b):
            calls.append(A.shape)
            return asm.solve_linear(A, b)

        steps = asm.newton_solve(problem.residual, problem.u,
                                 bcs=problem.bcs, solve=counting)
        n = problem.space.num_dofs
        assert steps == 1
        assert calls == [(n, n)]

    def test_a_step_that_leaves_the_residual_raises(self, asm, studies):
        problem = studies.build_split_interface_problem(1, 0)
        calls = []

        def no_step(A, b):
            calls.append(1)
            return np.zeros_like(b)

        with pytest.raises(asm.ConvergenceError):
            asm.newton_solve(problem.residual, problem.u, bcs=problem.bcs,
                             solve=no_step)
        assert len(calls) == asm.NEWTON_MAX_ITERS


class TestNonFiniteInput:
    """A NaN or inf fails at once with a clear error, never as a NaN
    solution or a run of NaN iterations."""

    class CountingOperator:
        def __init__(self, A):
            self.A = self.A_kk = A  # _jacobi_cg reads K from A_kk
            self.shape, self.matvecs = A.shape, 0

        def dot(self, x):
            self.matvecs += 1
            return self.A.dot(x)

    @pytest.mark.parametrize("cg", [False, True])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_right_hand_side_raises(self, asm, bad, cg):
        b = np.ones(4)
        b[2] = bad
        with pytest.raises(ValueError, match="not finite"):
            asm.solve_linear(sp.identity(4, format="csr") * 2.0, b,
                             coarse=ones_column(4) if cg else None)

    @pytest.mark.parametrize("case", ["nan-coupling", "inf-coupling",
                                      "nan-rhs"])
    def test_cg_stops_at_the_first_non_finite_residual(self, asm, case):
        bad = np.inf if case == "inf-coupling" else np.nan
        coupling = 0.0 if case == "nan-rhs" else bad
        A = sp.csr_matrix(np.array([[2.0, coupling, 0.0],
                                    [coupling, 2.0, 0.0], [0.0, 0.0, 2.0]]))
        b = np.array([1.0, np.nan if case == "nan-rhs" else 1.0, 1.0])
        op = self.CountingOperator(A)
        P = sp.csr_matrix(np.array([[0.0], [0.0], [1.0]]))  # finite Ac
        with np.errstate(all="ignore"), pytest.raises(
                asm.ConvergenceError, match="non-finite"):
            asm._jacobi_cg(op, b, P)
        # the first V-cycle's two: M applies A twice before its r.z check,
        # and CG makes no matvec of its own before calling M
        assert op.matvecs == 2

    def test_lu_of_a_non_finite_matrix_raises(self, asm):
        A = sp.csr_matrix(np.array([[2.0, np.nan], [np.nan, 2.0]]))
        with pytest.raises((ValueError, asm.ConvergenceError)):
            asm.solve_linear(A, np.ones(2))

    def test_newton_stops_on_a_non_finite_residual(self, asm):
        m = conftest.single_cell_mesh(
            QUAD, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        V = conftest.scalar_space(m, "Q", 1)
        u, v = forms.Coefficient(V), forms.TestFunction(V)
        (u0,), (v0,) = forms.split(u), forms.split(v)
        source = forms.Analytic(m, lambda x, y: np.where(x > 0.5, np.nan, x))
        F = (u0 - source) * v0 * forms.Measure("dx", m)
        steps = []

        def solve(A, b):
            steps.append(b)
            return asm.solve_linear(A, b)

        with pytest.raises(asm.ConvergenceError, match="not finite"):
            asm.newton_solve(F, u, solve=solve)
        assert steps == []


class TestErrorNorms:
    def test_zero_against_zero(self, asm):
        V = left_half_space()
        u = forms.Coefficient(V)
        l2, h1 = asm.error_norms(u, 0, lambda x, y: 0.0,
                                 lambda x, y: (0.0, 0.0))
        assert l2 == 0.0 and h1 == 0.0

    def test_interpolation_error_decreases_with_refinement(self, asm,
                                                           studies):
        errors = []
        for level in (0, 1):
            V = left_half_space(level)
            u = forms.Coefficient(V)
            asm.interpolate(studies.exact_solution, u, 0)
            l2, h1 = asm.error_norms(u, 0, studies.exact_solution,
                                     studies.exact_gradient)
            errors.append((l2, h1))
        assert errors[1][0] < errors[0][0]
        assert errors[1][1] < errors[0][1]

    def test_linear_interpolation_ratio_is_four(self, asm, studies):
        l2 = []
        for level in (0, 1):
            V = left_half_space(level)
            u = forms.Coefficient(V)
            asm.interpolate(studies.exact_solution, u, 0)
            err, _ = asm.error_norms(u, 0, studies.exact_solution,
                                     studies.exact_gradient)
            l2.append(err)
        assert l2[0] / l2[1] == pytest.approx(4.0, abs=0.3)

    @pytest.mark.parametrize("component, match", [
        (1, "codim-1"), (3, "out of range"), (-1, "out of range")])
    def test_component_without_cells_of_the_plane_raises(
            self, asm, studies, component, match):
        # split-interface: component 1 lives on the interface segments
        problem = studies.build_split_interface_problem(1, 0)
        with pytest.raises(ValueError, match=match):
            asm.error_norms(problem.u, component, studies.exact_solution,
                            studies.exact_gradient)


class TestEliminateComponent:
    def test_two_by_two_schur_complement(self, asm):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
        b = np.array([5.0, 3.0])
        reduced = asm.eliminate_component(A, [0, 1, 2], 1, b=b)
        assert np.allclose(conftest.dense_schur_complement(reduced), [[1.0]],
                           atol=1e-15)
        assert np.allclose(reduced.rhs, [2.0], atol=1e-15)  # 5 - 1*3
        full = reduced.expand(np.array([1.0]))
        assert np.allclose(full, [1.0, 2.0], atol=1e-14)  # back-substituted

    @pytest.mark.parametrize("offsets", [[0, 1], [0, 1, 3]])
    def test_offsets_must_match_the_matrix(self, asm, offsets):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(ValueError, match="offsets do not match"):
            asm.eliminate_component(A, offsets, 0, np.zeros(2))

    @pytest.mark.parametrize("component", [-1, 2])
    def test_a_component_out_of_range_raises(self, asm, component):
        # unchecked, -1 would make keep list every row twice (14 x 14)
        A = sp.identity(7, format="csr")
        with pytest.raises(ValueError, match=f"component {component} out "
                                             f"of range for 2 blocks"):
            asm.eliminate_component(A, [0, 4, 7], component, np.zeros(7))

    def test_block_diagonal_elimination_is_a_restriction(self, asm):
        rng = np.random.default_rng(29)
        K = rng.normal(size=(4, 4))
        M = rng.normal(size=(3, 3)) + 4.0 * np.eye(3)
        A = sp.csr_matrix(np.block(
            [[K, np.zeros((4, 3))], [np.zeros((3, 4)), M]]))
        b = rng.normal(size=7)
        reduced = asm.eliminate_component(A, [0, 4, 7], 1, b=b)
        assert np.allclose(conftest.dense_schur_complement(reduced), K,
                           atol=1e-14)
        assert np.allclose(reduced.rhs, b[:4], atol=1e-14)

    def test_matvec_matches_the_dense_schur_complement(self, asm, studies):
        problem = studies.build_split_interface_problem(1, 0)
        J = forms.derivative(problem.residual, problem.u)
        A = asm.assemble(J)
        zeros = np.zeros(A.shape[0])
        reduced = asm.eliminate_component(A, problem.space.offsets,
                                          problem.aux_component, zeros)
        S = conftest.dense_schur_complement(reduced)
        rng = np.random.default_rng(31)
        x = rng.normal(size=reduced.shape[1])
        assert np.allclose(reduced.dot(x), S @ x, atol=1e-11)
        # Jacobi's M reads its diagonal from the kept block A_kk
        k = reduced.keep[0]
        A = A.tolil()
        A[k, k] = 0.0
        zeroed = asm.eliminate_component(A.tocsr(), problem.space.offsets,
                                         problem.aux_component, zeros)
        with pytest.raises(ValueError, match="positive finite diagonal"):
            asm._jacobi_cg(zeroed, np.ones(zeroed.shape[0]),
                           studies.coarse_space(problem))


class TestMatrixDump:
    def test_matrix_market_round_trip(self, asm, tmp_path, studies):
        problem = studies.build_quad_tri_problem(1, 0)
        A = asm.assemble(forms.derivative(problem.residual, problem.u))
        path = tmp_path / "matrix.mtx"
        asm.dump_matrix(A, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("%%MatrixMarket matrix coordinate real")
        B = scipy.io.mmread(path).tocsr()
        assert B.shape == A.shape
        assert np.abs((A - B)).max() <= 1e-12 * np.abs(A.toarray()).max()
