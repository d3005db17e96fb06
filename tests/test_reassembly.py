"""Reassembly on a fixed mesh: what is kept across assemblies, what is not.

The summed entries of the kernels that read no coefficient and no impure
Analytic source are kept after a form's first assembly, and the
constrained CSR pattern is kept per form and per the bcs' (component,
marker) pairs; a matrix with no dynamic kernel is a new object on that
pattern's read-only arrays.
These tests check that nothing a later assembly must read again is kept:
coefficient values, Analytic sources, Dirichlet values, and what the
caller does with a returned matrix or vector.
"""

import contextlib
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse

import conftest
from multifem import fe, forms
from multifem import mesh as mm


def left_half(degree=2):
    parent = mm.build_split_unit_square(1)
    ml, _ = mm.extract_codim0_submesh(parent, 1)
    V = conftest.scalar_space(ml, "Q", degree)
    return V, ml, forms.Measure("dx", ml)


def laplacian(V, dx):
    (v0,) = forms.split(forms.TestFunction(V))
    (t0,) = forms.split(forms.TrialFunction(V))
    return forms.inner(forms.grad(t0), forms.grad(v0)) * dx


def assert_same_csr(A, B):
    assert A.shape == B.shape
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(A, name), getattr(B, name)), name


class TestStaticKernels:
    def test_constant_is_read_only(self, asm):
        V, _, dx = left_half(1)
        (v0,) = forms.split(forms.TestFunction(V))
        c = forms.Constant(1.0)
        form = c * v0 * dx
        assert asm.assemble(form).sum() == pytest.approx(0.5, abs=1e-14)
        with pytest.raises(AttributeError, match="read-only"):
            c.value = 2.0
        assert c.value == 1.0
        assert asm.assemble(form).sum() == pytest.approx(0.5, abs=1e-14)

    def test_static_is_decided_from_the_tape(self, asm):
        V, m, dx = left_half(1)
        u = forms.Coefficient(V)
        (u0,) = forms.split(u)
        (v0,) = forms.split(forms.TestFunction(V))
        source = forms.Analytic(m, lambda x, y: x)
        normal = forms.FacetNormal(m)
        n_v = forms.inner(normal, forms.grad(v0)) * forms.Measure("ds", m)
        cases = [(laplacian(V, dx), True), (n_v, True),
                 (forms.Constant(2.0) * v0 * dx, True),
                 (u0 * v0 * dx, False), (source * v0 * dx, False),
                 (forms.derivative(u0 * u0 * v0 * dx, u), False)]
        for form, static in cases:
            (integral,) = form.integrals
            assert asm._plan_for(integral).static is static

    def test_jacobian_follows_the_coefficient(self, asm):
        V, _, dx = left_half()
        u = forms.Coefficient(V)
        (u0,) = forms.split(u)
        (v0,) = forms.split(forms.TestFunction(V))
        J = forms.derivative(u0 * u0 * v0 * dx, u)
        u.values[:] = 1.0
        once = asm.assemble(J)
        u.values[:] = 3.0
        thrice = asm.assemble(J)
        assert np.abs(thrice - 3.0 * once).max() <= 1e-13 * abs(thrice).max()
        assert abs(thrice).max() > 2.0 * abs(once).max()

    def test_analytic_source_is_evaluated_on_each_assembly(self, asm):
        V, m, dx = left_half()
        (v0,) = forms.split(forms.TestFunction(V))
        (t0,) = forms.split(forms.TrialFunction(V))
        scale = [1.0]
        source = forms.Analytic(m, lambda x, y: scale[0] * (1.0 + x * y))
        for form in (source * v0 * dx, source * t0 * v0 * dx):
            scale[0] = 1.0
            first = asm.assemble(form)
            scale[0] = -2.0  # a power of two scales every sum exactly
            second = asm.assemble(form)
            if hasattr(first, "toarray"):
                first, second = first.toarray(), second.toarray()
            assert np.abs(first).max() > 0
            assert np.array_equal(second, -2.0 * first)

    def test_static_matrices_share_read_only_arrays(self, asm):
        # an all-static matrix is a new object on the arrays kept per bcs
        # key: a stored entry cannot be written, and an edit that rebuilds
        # the structure replaces the object's own arrays, not the kept ones
        V, _, dx = left_half()
        a = laplacian(V, dx)
        (v0,) = forms.split(forms.TestFunction(V))
        L = forms.Constant(1.0) * v0 * dx
        for bcs in ((), [asm.DirichletBC(0, mm.BOUNDARY_MARKER, 0.0)]):
            first = asm.assemble(a, bcs).copy()
            A, B = asm.assemble(a, bcs), asm.assemble(a, bcs)
            assert A is not B
            for name in ("data", "indices", "indptr"):
                assert getattr(A, name) is getattr(B, name)
            with pytest.raises(ValueError, match="read-only"):
                A[0, 0] = 7.0
            with pytest.raises(ValueError, match="read-only"):
                A.data[0] = 7.0
            n = A.shape[0]
            A.setdiag(7.0, k=n // 2)  # mostly new slots: a rebuild
            assert A.data is not B.data and A[0, n // 2] == 7.0
            col = np.setdiff1d(np.arange(n), B.indices[:B.indptr[1]])[0]
            with warnings.catch_warnings(), contextlib.suppress(ValueError):
                # scipy either refuses a new slot or rebuilds B's arrays
                warnings.simplefilter("ignore", scipy.sparse.SparseWarning)
                B[0, col] = 7.0
            assert_same_csr(asm.assemble(a, bcs), first)
        out = asm.assemble(L)
        kept = out.copy()
        out[:] = 7.0  # vectors are fresh and writable
        again = asm.assemble(L)
        assert np.array_equal(again, kept)
        assert again.flags.writeable and not np.shares_memory(again, out)


class TestConstrainedPattern:
    def test_each_bcs_set_gets_its_own_pattern(self, asm):
        V, _, dx = left_half()
        a = laplacian(V, dx)
        outer = [asm.DirichletBC(0, mm.BOUNDARY_MARKER, 0.0)]
        inner = [asm.DirichletBC(0, mm.INTERFACE_MARKER, 0.0)]
        sets = (outer, inner, outer + inner)
        expected = [conftest.constrain_matrix(asm.assemble(a),
                                              asm.dirichlet_dofs(V, bcs)[0])
                    .toarray() for bcs in sets]
        assert not np.array_equal(expected[0], expected[1])
        # alternate the sets on one form, so each is read from its cache
        for k in (0, 1, 2, 0, 1, 2):
            assert np.array_equal(asm.assemble(a, sets[k]).toarray(),
                                  expected[k])

    def test_stored_zeros_are_dropped_as_by_constrain_matrix(self, asm,
                                                             studies):
        # split-interface: bcs on components 0 and 2, the auxiliary
        # interface block in between left free
        for name, degree, level in (("quad-tri", 1, 0),
                                    ("split-interface", 2, 1)):
            problem = studies.build_problem(name, degree, level)
            J = forms.derivative(problem.residual, problem.u)
            A = asm.assemble(J)
            assert A.count_nonzero() < A.nnz  # exact zero couplings
            dofs, _ = asm.dirichlet_dofs(problem.space, problem.bcs)
            expected = conftest.constrain_matrix(A, dofs)
            for _ in range(2):
                assert_same_csr(asm.assemble(J, problem.bcs), expected)

    def test_dirichlet_closure_is_found_once_per_space(self, asm,
                                                       monkeypatch):
        V, _, dx = left_half()
        (v0,) = forms.split(forms.TestFunction(V))
        L = forms.Constant(1.0) * v0 * dx
        calls = []
        closure = fe.ReferenceElement.facet_closure

        def counted(element, local_facet):
            calls.append(local_facet)
            return closure(element, local_facet)

        monkeypatch.setattr(fe.ReferenceElement, "facet_closure", counted)
        bcs = [asm.DirichletBC(0, mm.BOUNDARY_MARKER, lambda x, y: x)]
        counts = []
        for _ in range(2):
            b = asm.assemble(L, bcs)
            counts.append(len(calls))
        assert counts[0] > 0 and counts[1] == counts[0]
        dofs, values = asm.dirichlet_dofs(V, bcs)
        assert np.array_equal(b[dofs], V.dof_coords[dofs, 0])
        with pytest.raises(ValueError, match="read-only"):
            V.meshes[0].facet_markers[0] = 7

    def test_float_and_array_values_share_a_pattern(self, asm):
        V, _, dx = left_half()
        a = laplacian(V, dx)
        (v0,) = forms.split(forms.TestFunction(V))
        L = forms.Constant(0.0) * v0 * dx
        dofs, _ = asm.dirichlet_dofs(
            V, [asm.DirichletBC(0, mm.BOUNDARY_MARKER, 0.0)])
        given = np.linspace(1.0, 2.0, len(dofs))
        by_float = [asm.DirichletBC(0, mm.BOUNDARY_MARKER, 2.0)]
        by_array = [asm.DirichletBC(0, mm.BOUNDARY_MARKER, given)]
        assert_same_csr(asm.assemble(a, by_float), asm.assemble(a, by_array))
        for bcs, values in ((by_float, 2.0), (by_array, given)):
            assert np.array_equal(asm.assemble(L, bcs)[dofs],
                                  np.broadcast_to(values, dofs.shape))

    def test_newton_reads_new_boundary_values(self, asm):
        V, _, dx = left_half(1)
        u = forms.Coefficient(V)
        (u0,) = forms.split(u)
        (v0,) = forms.split(forms.TestFunction(V))
        F = forms.inner(forms.grad(u0), forms.grad(v0)) * dx
        markers = (mm.BOUNDARY_MARKER, mm.INTERFACE_MARKER)
        # an affine datum is its own discrete harmonic extension
        for g in (lambda x, y: x + y, lambda x, y: 2.0 * x - 3.0 * y):
            u.values[:] = 0.0
            asm.newton_solve(F, u, [asm.DirichletBC(0, mk, g)
                                    for mk in markers])
            xy = V.dof_coords
            assert np.allclose(u.values, g(xy[:, 0], xy[:, 1]), atol=1e-10)


class TestFormScatter:
    def test_warm_static_jacobian_runs_no_kernel_and_no_scatter(
            self, asm, studies, monkeypatch):
        # every Jacobian kernel of the linear problem is static: its sum is
        # scattered once per bcs key into one read-only matrix, whose arrays
        # a warm assembly shares with a new matrix object
        problem = studies.build_problem("quad-tri", 1, 1)
        J = forms.derivative(problem.residual, problem.u)
        first = asm.assemble(J, problem.bcs)
        kernels, scatters = [], []
        execute_kernel, bincount = asm.execute_kernel, np.bincount

        def counted_kernel(*args):
            kernels.append(args)
            return execute_kernel(*args)

        def counted_bincount(*args, **kwargs):
            scatters.append(args)
            return bincount(*args, **kwargs)

        monkeypatch.setattr(asm, "execute_kernel", counted_kernel)
        monkeypatch.setattr(np, "bincount", counted_bincount)
        for _ in range(2):
            A = asm.assemble(J, problem.bcs)
            assert A is not first and A.has_canonical_format
            for name in ("data", "indices", "indptr"):
                array = getattr(A, name)
                assert array is getattr(first, name)
                assert not array.flags.writeable
        assert kernels == [] and scatters == []
        problem.u.values[:] = 1.0  # no kernel reads it
        assert_same_csr(asm.assemble(J, problem.bcs), first)

    def test_static_and_dynamic_kernels_add_up(self, asm):
        V, _, dx = left_half()
        u = forms.Coefficient(V)
        (u0,) = forms.split(u)
        (v0,) = forms.split(forms.TestFunction(V))
        (t0,) = forms.split(forms.TrialFunction(V))
        static_a = forms.inner(forms.grad(t0), forms.grad(v0)) * dx
        dynamic_a = u0 * t0 * v0 * dx
        static_L, dynamic_L = forms.Constant(3.0) * v0 * dx, u0 * v0 * dx
        a, L = static_a + dynamic_a, static_L + dynamic_L
        bcs = [asm.DirichletBC(0, mm.BOUNDARY_MARKER, 0.0)]
        dofs, _ = asm.dirichlet_dofs(V, bcs)
        rng = np.random.default_rng(2)
        for _ in range(3):
            u.values[:] = rng.standard_normal(V.num_dofs)
            A = (asm.assemble(static_a) + asm.assemble(dynamic_a)).toarray()
            b = asm.assemble(static_L) + asm.assemble(dynamic_L)
            scale = np.abs(A).max()
            assert np.abs(asm.assemble(a).toarray() - A).max() <= 1e-14 * scale
            constrained = conftest.constrain_matrix(
                scipy.sparse.csr_matrix(A), dofs).toarray()
            assert (np.abs(asm.assemble(a, bcs).toarray() - constrained).max()
                    <= 1e-14 * scale)
            assert np.abs(asm.assemble(L) - b).max() <= 1e-14 * np.abs(b).max()

    def test_dynamic_matrices_are_fresh_and_drop_assembled_zeros(self, asm):
        # a bilinear form with a kernel that reads u gets new, writable
        # arrays on every assembly; under bcs, entries that sum to zero go
        V, _, dx = left_half()
        u = forms.Coefficient(V)
        (u0,) = forms.split(u)
        (v0,) = forms.split(forms.TestFunction(V))
        (t0,) = forms.split(forms.TrialFunction(V))
        mass = u0 * t0 * v0 * dx
        stiffness = forms.inner(forms.grad(t0), forms.grad(v0)) * dx
        a = stiffness + mass
        bcs = [asm.DirichletBC(0, mm.BOUNDARY_MARKER, 0.0)]
        u.values[:] = 1.0
        for given in ((), bcs):
            A, B = asm.assemble(a, given), asm.assemble(a, given)
            kept = B.copy()
            for name in ("data", "indices", "indptr"):
                array = getattr(A, name)
                assert array.flags.writeable
                assert not np.shares_memory(array, getattr(B, name))
                array[:] = 7
            assert_same_csr(asm.assemble(a, given), kept)
        u.values[:] = 0.0  # every entry of mass is an assembled zero
        dofs, _ = asm.dirichlet_dofs(V, bcs)
        assert asm.assemble(mass).count_nonzero() == 0
        zero = asm.assemble(mass, bcs)
        assert zero.nnz == len(dofs) and zero.count_nonzero() == len(dofs)
        assert_same_csr(asm.assemble(a, bcs), asm.assemble(stiffness, bcs))


class TestDerivativeMemo:
    def test_derivative_is_memoized_per_coefficient_and_component(self):
        V, _, dx = left_half(1)
        u, w = forms.Coefficient(V), forms.Coefficient(V)
        (u0,) = forms.split(u)
        (w0,) = forms.split(w)
        (v0,) = forms.split(forms.TestFunction(V))
        F = u0 * w0 * v0 * dx
        J = forms.derivative(F, u)
        assert forms.derivative(F, u) is J
        assert forms.derivative(F, w) is not J
        assert forms.derivative(F, u, component=0) is not J
        assert forms.derivative(u0 * w0 * v0 * dx, u) is not J

    def test_second_newton_solve_compiles_nothing(self, asm, studies,
                                                  monkeypatch):
        # the Jacobian form, and with it its kernels, plans, CSR pattern
        # and static element tensors, is the one of the first solve; the
        # first solve compiles the residual's 7 integrals and the
        # Jacobian's 5
        problem = studies.build_problem("quad-tri", 2, 2)
        compiled = []
        compile_integral = asm.compile_integral

        def counting(integral):
            compiled.append(integral)
            return compile_integral(integral)

        monkeypatch.setattr(asm, "compile_integral", counting)
        counts, steps = [], []
        for _ in range(2):
            problem.u.values[:] = 0.0
            before = len(compiled)
            steps.append(asm.newton_solve(problem.residual, problem.u,
                                          problem.bcs))
            counts.append(len(compiled) - before)
        assert steps == [1, 1]
        assert counts == [12, 0]


def bits(result):
    """The bytes of a float, a vector, or a CSR matrix's three arrays."""
    if scipy.sparse.issparse(result):
        return tuple(getattr(result, name).tobytes()
                     for name in ("data", "indices", "indptr"))
    return np.asarray(result, dtype=float).tobytes()


class TestWarmStep:
    """A warm assembly runs the step kept on the form (per bcs key for a
    matrix): bitwise what a cold one gives, and nothing else."""

    @staticmethod
    def calls(problem):
        J = forms.derivative(problem.residual, problem.u)
        return [(problem.residual, ()), (problem.residual, problem.bcs),
                (J, problem.bcs)]

    @pytest.mark.parametrize("name", ["quad-tri", "split-interface"])
    @pytest.mark.parametrize("degree, level", [(1, 0), (1, 1), (2, 0),
                                               (2, 1)])
    def test_a_warm_assembly_is_bitwise_a_cold_one(self, asm, studies, name,
                                                   degree, level):
        warm = studies.build_problem(name, degree, level)
        for seed in (7, 8):  # steps built and run at other iterates
            warm.u.values[:] = np.random.default_rng(seed).standard_normal(
                warm.space.num_dofs)
            for form, bcs in self.calls(warm):
                asm.assemble(form, bcs)
        cold = studies.build_problem(name, degree, level)
        u = np.random.default_rng(9).standard_normal(cold.space.num_dofs)
        warm.u.values[:] = cold.u.values[:] = u
        for (form, bcs), (first, first_bcs) in zip(self.calls(warm),
                                                   self.calls(cold)):
            assert bits(asm.assemble(form, bcs)) == bits(
                asm.assemble(first, first_bcs))

    def test_a_warm_linear_residual_runs_no_kernel_and_builds_nothing(
            self, asm, studies, monkeypatch):
        # every integral of the quad-tri residual is static or linear in u:
        # a warm call is the static sum plus one matvec, bcs set after it
        problem = studies.build_problem("quad-tri", 2, 1)
        F, bcs = problem.residual, problem.bcs
        first = [asm.assemble(F), asm.assemble(F, bcs)]
        calls = []

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        for name in ("execute_kernel", "_plan_for", "_pattern", "_scatter"):
            counted(asm, name)
        counted(np, "bincount")
        for _ in range(2):
            again = [asm.assemble(F), asm.assemble(F, bcs)]
            assert list(map(bits, again)) == list(map(bits, first))
        assert calls == []
        assert "_scatters" not in vars(F)

    def test_the_empty_measure_warning_points_at_each_caller(self, asm):
        V, m, dx = left_half(1)
        (v0,) = forms.split(forms.TestFunction(V))
        (t0,) = forms.split(forms.TrialFunction(V))
        empty = forms.Measure("ds", m, 4321)
        bcs = [asm.DirichletBC(0, mm.BOUNDARY_MARKER, 0.0)]
        for form in (v0 * dx + v0 * empty, t0 * v0 * dx + t0 * v0 * empty):
            for given in ((), (), bcs, bcs):  # cold, then warm calls
                with pytest.warns(UserWarning,
                                  match="matched no entities") as caught:
                    line = sys._getframe().f_lineno + 1
                    asm.assemble(form, given)
                (warning,) = caught
                assert warning.filename == __file__
                assert warning.lineno == line
