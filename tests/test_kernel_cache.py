"""Kernels compiled once per signature and kept, mesh-free, process-wide.

forms.analyze keys an integral by its integrand DAG with meshes numbered
by participant and Coefficients, Arguments and Analytics by first use,
plus its elements, Constant bits, Analytic functions and the
measure's participant kinds, cell types and quadrature degree.
compile_integral keeps one kernel per key and hands out that object;
each integral's plan binds it through the integral's forms.Analysis.
Checked here: structurally equal integrals share one kernel object and
give the element tensors of an uncached compile bit for bit; what must miss
does; every integral is still checked; an Analytic's error names the
integral's own; no study cell changes a kept kernel; and the cache is
bounded and holds no mesh or form terminal.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest

from multifem import fe, forms
from multifem import mesh as mm

import conftest


@pytest.fixture
def cold(comp, monkeypatch):
    """An empty kernel cache and the list of keys compiled anew."""
    compile_, misses = comp._compile, []

    def counted(key):
        misses.append(key)
        return compile_(key)

    monkeypatch.setattr(comp, "_kernels", {})
    monkeypatch.setattr(comp, "_compile", counted)
    return misses


def left_half(level=0):
    return mm.extract_codim0_submesh(mm.build_split_unit_square(level), 1)[0]


def uncached(asm, comp, monkeypatch, integral):
    """The flat element tensors of an integral's plan, compiled with an
    empty cache that is then thrown away."""
    with monkeypatch.context() as m:
        m.setattr(comp, "_kernels", {})
        return asm._element_tensors(asm._plan_for(integral))


def seeded(problem, seed=3):
    problem.u.values[:] = np.random.default_rng(seed).standard_normal(
        problem.space.num_dofs)
    return problem


class TestSharing:
    def test_left_and_right_stiffness_share_one_kernel(
            self, asm, comp, studies, cold, monkeypatch):
        # components 0 and 2 on two meshes: one kernel, bound by each plan
        problem = seeded(studies.build_split_interface_problem(2, 1))
        J = forms.derivative(problem.residual, problem.u)
        for form in (problem.residual, J):
            left, right = form.integrals[:2]  # dx_l and dx_r stiffness
            before = len(cold)
            plans = [asm._plan_for(left), asm._plan_for(right)]
            assert len(cold) == before + 1
            assert plans[0].kernel.tape is plans[1].kernel.tape
            kernel = plans[1].kernel
            mesh = problem.space.meshes[2]  # the right plan's geometry
            assert np.array_equal(plans[1].geometry.X, fe.geometry_map(
                mesh.cell_type, mesh.coords_of_cells(np.arange(
                    mesh.num_cells)), kernel.quadrature.points))
            terminals, firsts = (plans[1].analysis.terminals,
                                 plans[1].analysis.firsts)
            t = kernel.arguments[0]
            assert [firsts[t] + b.component
                    for b in kernel.arg_blocks[0]] == [2]
            assert all(terminals[c] is problem.u and firsts[c] + k == 2
                       for c, k, *_ in kernel.coeff_slots)
            assert np.array_equal(asm._element_tensors(plans[1]),
                                  uncached(asm, comp, monkeypatch, right))

    def test_error_norms_of_two_components_compile_two_kernels(
            self, asm, comp, studies, cold, monkeypatch):
        problem = studies.build_split_interface_problem(1, 1)
        studies.solve_problem(problem)
        before = len(cold)
        norms = [asm.error_norms(problem.u, k, studies.exact_solution,
                                 studies.exact_gradient) for k in (0, 2)]
        assert len(cold) == before + 2  # the L2 and H1 functionals, once
        monkeypatch.setattr(comp, "_kernels", {})
        assert norms[1] == asm.error_norms(problem.u, 2,
                                           studies.exact_solution,
                                           studies.exact_gradient)
        assert len(cold) == before + 4 and norms[0] != norms[1]

    def test_only_the_penalty_kernels_miss_on_the_next_level(
            self, asm, comp, studies, cold, monkeypatch):
        def assembled(problem):
            J = forms.derivative(problem.residual, problem.u)
            return asm.assemble(problem.residual), asm.assemble(J)

        assembled(seeded(studies.build_quad_tri_problem(1, 0)))
        before = len(cold)
        problem = seeded(studies.build_quad_tri_problem(1, 1))
        r, A = assembled(problem)
        penalty = studies.DEFAULT_PENALTY / studies.mesh_size(1)
        # the residual's and the Jacobian's C/h integral
        assert len(cold) == before + 2
        assert all((forms.Constant, (), penalty.hex()) in rows
                   for _, _, rows in cold[before:])
        monkeypatch.setattr(comp, "_kernels", {})
        fresh = seeded(studies.build_quad_tri_problem(1, 1))
        r0, A0 = assembled(fresh)
        assert np.array_equal(r, r0)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, part), getattr(A0, part))


def fields(kernel):
    """A kernel's fields, containers as tuples, arrays and its rule's
    points and weights as bytes, all else as it is."""
    def frozen(value):
        if isinstance(value, fe.QuadratureRule):
            value = [value.cell, value.points, value.weights]
        if isinstance(value, dict):
            value = list(value.items())
        if isinstance(value, (list, tuple)):
            return tuple(frozen(v) for v in value)
        if isinstance(value, np.ndarray):
            return value.shape, value.dtype, value.tobytes()
        return value
    return {name: frozen(value) for name, value in vars(kernel).items()}


class TestOneObject:
    # compile_integral hands out the kept kernel itself, and each plan
    # binds it: nothing copies a kernel, so nothing may change one

    def test_one_signature_is_one_object(self, comp, studies, cold):
        # the left and right cell stiffness (two meshes, components 0 and
        # 2), and the left one of levels 0 and 1
        (left, right), (finer, _) = (
            studies.build_split_interface_problem(2, level).residual
            .integrals[:2] for level in (0, 1))
        kernel = comp.compile_integral(left)
        assert comp.compile_integral(right) is kernel
        assert comp.compile_integral(finer) is kernel
        assert len(cold) == 1

    def test_a_study_cell_changes_no_kept_kernel(self, comp, studies, cold,
                                                 monkeypatch):
        # each kernel's fields as compiled, against them after a cold and
        # a warm quad-tri p=1, n=0 cell: build, LU solve and error norms
        compile_, compiled = comp._compile, {}

        def snapshot(key):
            kernel = compile_(key)
            compiled[key] = fields(kernel)
            return kernel

        monkeypatch.setattr(comp, "_compile", snapshot)
        for _ in range(2):
            problem = studies.build_problem("quad-tri", 1, 0)
            studies.solve_problem(problem, "lu")
            studies.solution_errors(problem)
        assert len(compiled) == len(cold) == len(comp._kernels) > 0
        assert {key: fields(kernel)
                for key, kernel in comp._kernels.items()} == compiled

    @pytest.mark.parametrize("name", ["quad-tri", "split-interface"])
    def test_a_cold_compile_gives_the_plans_tensors(self, asm, comp,
                                                    studies, monkeypatch,
                                                    name):
        # cached equals cold: each planned integral's kernel, compiled
        # anew after the cache is cleared, gives its tensors bit for bit
        problem = seeded(studies.build_problem(name, 2, 1))
        J = forms.derivative(problem.residual, problem.u)
        integrals = problem.residual.integrals + J.integrals
        plans = [asm._plan_for(integral) for integral in integrals]
        monkeypatch.setattr(comp, "_kernels", {})
        for integral, plan in zip(integrals, plans):
            kernel = comp.compile_integral(integral)
            assert kernel is not plan.kernel
            assert np.array_equal(
                asm._element_tensors(dataclasses.replace(plan,
                                                         kernel=kernel)),
                asm._element_tensors(plan))


class TestMisses:
    @staticmethod
    def key(comp, integrand, measure):
        return forms.analyze((integrand * measure).integrals[0]).key

    @pytest.fixture
    def setting(self):
        m = left_half()
        V = conftest.scalar_space(m, "Q", 1)
        (u,), (w,) = (forms.split(forms.Coefficient(V)),
                      forms.split(forms.Coefficient(V)))
        return m, V, u, w, forms.Measure("dx", m)

    def test_equal_structures_on_other_meshes_hit(self, comp, setting):
        m, V, u, w, dx = setting
        other = left_half(1)
        (u1,) = forms.split(forms.Coefficient(
            conftest.scalar_space(other, "Q", 1)))
        assert (self.key(comp, 2.0 * u * u, dx)
                == self.key(comp, 2.0 * u1 * u1, forms.Measure("dx", other)))

    def test_constant_values_miss_by_bits(self, comp, setting):
        m, V, u, w, dx = setting
        keys = {self.key(comp, forms.Constant(c) * u, dx)
                for c in (1.0, 2.0, 0.0, -0.0)}
        assert len(keys) == 4

    def test_element_degrees_miss(self, comp, setting):
        m, V, u, w, dx = setting
        (u2,) = forms.split(forms.Coefficient(conftest.scalar_space(m, "Q",
                                                                    2)))
        assert self.key(comp, u * u, dx) != self.key(comp, u2 * u2, dx)

    def test_analytic_functions_miss(self, comp, setting):
        m, V, u, w, dx = setting

        def f(x, y):
            return x

        def g(x, y):
            return x

        same = [self.key(comp, forms.Analytic(m, f) * u, dx) for _ in "ab"]
        assert same[0] == same[1]
        assert same[0] != self.key(comp, forms.Analytic(m, g) * u, dx)
        assert same[0] != self.key(comp, forms.Analytic(m, f, pure=True)
                                   * u, dx)

    def test_the_participant_a_function_lives_on_misses(self, asm, comp,
                                                       cold, monkeypatch):
        # Q1 on both halves of the split square: u_l and u_r differ only
        # by the participant of the interface measure they live on
        parent = mm.build_split_unit_square(1)
        left, right = (mm.extract_codim0_submesh(parent, k)[0]
                       for k in (1, 2))
        V = conftest.make_space([left, right],
                                [fe.make_element(left.cell_type, "Q", 1)] * 2)
        u = forms.Coefficient(V)
        u.values[:] = np.random.default_rng(4).standard_normal(V.num_dofs)
        (u_l, u_r), (v_l, _) = (forms.split(u),
                                forms.split(forms.TestFunction(V)))
        ds = forms.Measure("ds", left, intersect_measures=(
            forms.Measure("ds", right),))(mm.INTERFACE_MARKER)
        assert self.key(comp, u_l * v_l, ds) != self.key(comp, u_r * v_l, ds)
        for integrand in (u_l * v_l, u_r * v_l):
            integral = (integrand * ds).integrals[0]
            assert np.array_equal(
                asm._element_tensors(asm._plan_for(integral)),
                uncached(asm, comp, monkeypatch, integral))

    def test_one_coefficient_twice_is_not_two_coefficients(
            self, asm, comp, setting, cold):
        m, V, u, w, dx = setting
        assert self.key(comp, u * u, dx) != self.key(comp, u * w, dx)
        u.function.values[:] = 1.0
        w.function.values[:] = 2.0
        assert asm.assemble(u * u * dx) == pytest.approx(0.5, rel=1e-14)
        assert asm.assemble(u * w * dx) == pytest.approx(1.0, rel=1e-14)
        assert len(cold) == 2


class TestBinding:
    def test_a_hit_still_checks_the_integral(self, asm, comp, cold):
        parent = mm.build_split_unit_square(0)
        left, right = (mm.extract_codim0_submesh(parent, k)[0]
                       for k in (1, 2))
        (v,) = forms.split(forms.TestFunction(conftest.scalar_space(
            left, "Q", 1)))
        dx = forms.Measure("dx", left)

        def source(x, y):
            return x + y

        valid, invalid = (forms.Analytic(mesh, source) * v * dx
                          for mesh in (left, right))
        comp.compile_integral(valid.integrals[0])
        assert forms.analyze(invalid.integrals[0]).key in comp._kernels
        with pytest.raises(comp.CompileError,
                           match=f"mesh {right.id} does not participate"):
            asm.assemble(invalid)
        assert len(cold) == 1

    def test_a_static_kernel_from_the_cache_is_static(self, asm, cold):
        # the second integral's kernel is a hit on the first's, its plan
        # bound to the second's own degree: no coefficient, so static
        m = left_half()
        (v,) = forms.split(forms.TestFunction(conftest.scalar_space(m, "Q",
                                                                    1)))
        first, second = ((forms.Constant(2.0) * v
                          * forms.Measure("dx", m)).integrals[0]
                         for _ in range(2))
        assert asm._plan_for(first).static is True
        plan = asm._plan_for(second)
        assert len(cold) == 1
        assert plan.static is True and plan.analysis.degree == (set(), 0)

    def test_a_wrong_shape_names_the_integrals_own_analytic(
            self, asm, comp, cold):
        m = left_half()

        def not_a_pair(x, y):
            return x

        for _ in range(2):
            source = forms.Analytic(m, not_a_pair, shape=(2,))
            with pytest.raises(comp.CompileError,
                               match=rf"{source!r} must return a pair .*"
                                     r"shape \(2,\)"):
                asm.assemble(forms.inner(source, source)
                             * forms.Measure("dx", m))
        assert len(cold) == 1


class TestBounds:
    def test_the_least_recently_used_kernel_goes_first(self, comp, cold,
                                                       monkeypatch):
        monkeypatch.setattr(comp, "KERNEL_CACHE_SIZE", 3)
        m = left_half()
        (u,) = forms.split(forms.Coefficient(conftest.scalar_space(m, "Q",
                                                                   1)))
        dx = forms.Measure("dx", m)
        integrals = [(forms.Constant(c) * u * dx).integrals[0]
                     for c in range(5)]
        for k in (0, 1, 2, 0, 3, 4):
            comp.compile_integral(integrals[k])
        assert list(comp._kernels) == [forms.analyze(integrals[k]).key
                                       for k in (0, 3, 4)]
        assert len(cold) == 5

    def test_the_cache_holds_no_mesh_space_or_terminal(self, asm, comp,
                                                       cold):
        gc.disable()
        try:
            parent = mm.build_split_unit_square(0)
            m = mm.extract_codim0_submesh(parent, 1)[0]
            V = conftest.scalar_space(m, "Q", 1)
            u, v = forms.Coefficient(V), forms.TestFunction(V)
            (u0,), (v0,) = forms.split(u), forms.split(v)
            f = forms.Analytic(m, lambda x, y: x * y)
            form = (forms.inner(forms.grad(u0), forms.grad(v0)) + f * v0) \
                * forms.Measure("dx", m)
            asm.assemble(form)
            held = [weakref.ref(x) for x in (parent, m, V, u, v, f)]
            assert len(comp._kernels) == len(cold) == 1
            cold.clear()  # the fixture keeps the keys it compiled
            del parent, m, V, u, v, u0, v0, f, form
            assert [ref() for ref in held] == [None] * len(held)
        finally:
            gc.enable()
