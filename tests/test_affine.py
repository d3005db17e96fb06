"""Residual integrals linear in u, applied as one sparse matvec.

A linear form is planned one integral at a time.  An integral homogeneous of
degree one in one coefficient u alone (the degree forms.analyze finds, which
its plan carries) equals its Gateaux derivative J applied to u.  Its
assembly adds L u, L the sum of J's static kernels whose source integral is
such an integral, on J's unconstrained CSR pattern; its own kernel is
compiled but never run.  These tests check that path against the integrals'
own kernels, also on a form where L is not every static kernel of J and
where one kernel serves integrals of two coefficients, which integrands
keep the kernel path, that J's static kernels run once per form whatever is
assembled first, that a constrained J is its unconstrained one with the
rows and columns masked, that the argument tables only static kernels read
are dropped, and that Newton still takes one step on the linear studies.
"""

import gc
import weakref

import numpy as np
import pytest

from multifem import forms
from multifem import mesh as mm

import conftest


def no_linear_plans(plan_for):
    """assemble._plan_for, but its analysis's degree None where it is 1:
    no integral counts as linear in u, so every dynamic one runs its
    kernel.  The plan's analysis is replaced, never the shared kernel."""
    def patched(integral):
        plan = plan_for(integral)
        found, d = plan.analysis.degree
        plan.analysis = plan.analysis._replace(
            degree=(found, None if d == 1 else d))
        return plan
    return patched


def seeded(problem, seed):
    problem.u.values[:] = np.random.default_rng(seed).standard_normal(
        problem.space.num_dofs)


@pytest.mark.parametrize("name", ["quad-tri", "split-interface"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_linear_integrals_match_their_own_kernels(asm, studies, monkeypatch,
                                                  name, degree):
    for level in (0, 1, 2):
        with monkeypatch.context() as patched:
            patched.setattr(asm, "_plan_for", no_linear_plans(asm._plan_for))
            kernels = studies.build_problem(name, degree, level)
            asm.assemble(kernels.residual)
        problem = studies.build_problem(name, degree, level)
        for seed in (1, 2):
            seeded(problem, seed)
            seeded(kernels, seed)
            r, want = (asm.assemble(p.residual) for p in (problem, kernels))
            assert np.abs(r - want).max() <= 1e-15 * np.abs(want).max()
        plans, _ = problem.residual._plans
        assert [p.linear is not None for p in plans] == [
            not p.static for p in plans]
        assert not any(p.linear for p in kernels.residual._plans[0])


@pytest.fixture()
def square():
    """Q1 on the left half of the split square, a seeded u and its test
    function's component."""
    V = conftest.scalar_space(
        mm.extract_codim0_submesh(mm.build_split_unit_square(1), 1)[0],
        "Q", 1)
    u = forms.Coefficient(V)
    u.values[:] = np.random.default_rng(5).standard_normal(V.num_dofs)
    (u0,), (v0,) = forms.split(u), forms.split(forms.TestFunction(V))
    return V, u, u0, v0


def counting(asm, monkeypatch):
    runs = []
    execute = asm.execute_kernel

    def counted(kernel, geometry, w, terminals):
        runs.append(kernel.arity)
        return execute(kernel, geometry, w, terminals)

    monkeypatch.setattr(asm, "execute_kernel", counted)
    return runs


class TestDetection:
    def test_integrands_homogeneous_of_degree_one(self, square):
        V, u, u0, v0 = square
        m = V.meshes[0]
        dx = forms.Measure("dx", m)
        pure = forms.Analytic(m, lambda x, y: x, pure=True)
        for integrand in (u0 * v0, forms.inner(forms.grad(u0),
                                               forms.grad(v0)),
                          forms.Constant(2.0) * u0 * v0 + pure * u0 * v0,
                          forms.inner(forms.grad(u0) * forms.Constant(3.0),
                                      forms.FacetNormal(m)) * v0):
            assert forms.analyze((integrand * dx).integrals[0]).degree == (
                {u}, 1)

    @pytest.mark.parametrize("case, degree", [("affine", None),
                                              ("square", 2), ("other", 2),
                                              ("impure", None)])
    def test_other_integrands_keep_their_kernels(self, asm, monkeypatch,
                                                 square, case, degree):
        V, u, u0, v0 = square
        m = V.meshes[0]
        w = forms.Coefficient(V)
        w.values[:] = 1.0 + np.arange(V.num_dofs) / V.num_dofs
        (w0,) = forms.split(w)
        impure = forms.Analytic(m, lambda x, y: x + y)
        integrand = {"affine": (u0 + 1.0) * v0, "square": u0 * u0 * v0,
                     "other": w0 * u0 * v0, "impure": impure * u0 * v0}[case]
        form = integrand * forms.Measure("dx", m)
        found, got = forms.analyze(form.integrals[0]).degree
        assert got == degree
        assert found == ({u, w} if case == "other" else {u})
        first = asm.assemble(form)
        (plan,), _ = form._plans
        assert plan.linear is None
        runs = counting(asm, monkeypatch)
        assert np.array_equal(asm.assemble(form), first)
        assert runs == [1]  # the kernel reruns warm

    def test_a_nonlinear_integral_beside_a_linear_one_runs_alone(
            self, asm, monkeypatch, square):
        # u0 v0 and u0 u0 v0 share a rule and entities but not a degree,
        # so the linear one is still applied by the matvec
        V, u, u0, v0 = square
        dx = forms.Measure("dx", V.meshes[0])
        linear, mixed = u0 * v0 * dx, u0 * v0 * dx + u0 * u0 * v0 * dx
        asm.assemble(linear)
        first = asm.assemble(mixed)
        assert [p.linear for p in linear._plans[0]] == [u]
        assert [p.linear for p in mixed._plans[0]] == [u, None]
        runs = counting(asm, monkeypatch)
        asm.assemble(linear)
        assert np.array_equal(asm.assemble(mixed), first)
        assert runs == [1]  # u0 u0 v0's kernel only


def test_one_kernel_is_bound_to_each_integrals_coefficient(asm, monkeypatch,
                                                           square):
    # u0 v0 and w0 v0 have one signature, so one kept kernel, which each
    # integral's plan binds to its own coefficient: each is applied as the
    # matvec of its own, as the kernel path computes it
    V, u, u0, v0 = square
    w = forms.Coefficient(V)
    w.values[:] = np.random.default_rng(6).standard_normal(V.num_dofs)
    (w0,) = forms.split(w)
    dx = forms.Measure("dx", V.meshes[0])
    F = u0 * v0 * dx + w0 * v0 * dx
    r = asm.assemble(F)
    plans, _ = F._plans
    assert plans[0].kernel.tape is plans[1].kernel.tape
    assert [p.linear for p in plans] == [u, w]
    with monkeypatch.context() as patched:
        patched.setattr(asm, "_plan_for", no_linear_plans(asm._plan_for))
        kernels = u0 * v0 * dx + w0 * v0 * dx
        want = asm.assemble(kernels)
    assert not any(p.linear for p in kernels._plans[0])
    assert np.abs(r - want).max() <= 1e-15 * np.abs(want).max()


def jacobian_bcs(problem):
    return [problem.bcs, problem.bcs[:1]]


def test_mixed_degrees_match_their_own_kernels(asm, monkeypatch):
    # linear, affine (u + 1) v on another rule, an impure source and u^2 v:
    # J's static kernels are du v twice, and only the linear one's source
    # is linear in u, so L is not their sum S, which would count the affine
    # integral's du v twice
    def mixed(V, u):
        (u0,), (v0,) = forms.split(u), forms.split(forms.TestFunction(V))
        m = V.meshes[0]
        dx = forms.Measure("dx", m)
        impure = forms.Analytic(m, lambda x, y: np.sin(3.0 * x) + y)
        return (forms.inner(forms.grad(u0), forms.grad(v0)) * dx
                + (u0 + 1.0) * v0 * forms.Measure("dx", m, quadrature_degree=9)
                + impure * v0 * dx + u0 * u0 * v0 * dx)

    quads, _ = mm.extract_codim0_submesh(
        conftest.warp(mm.build_hybrid_unit_square(1)), 1)
    V = conftest.scalar_space(quads, "Q", 2)
    u = forms.Coefficient(V)
    with monkeypatch.context() as patched:
        patched.setattr(asm, "_plan_for", no_linear_plans(asm._plan_for))
        kernels = mixed(V, u)
        asm.assemble(kernels)
    F = mixed(V, u)
    for seed in (1, 2):
        u.values[:] = np.random.default_rng(seed).standard_normal(V.num_dofs)
        r, want = asm.assemble(F), asm.assemble(kernels)
        assert np.abs(r - want).max() <= 1e-15 * np.abs(want).max()
    assert [p.linear for p in F._plans[0]] == [u, None, None, None]
    S, L = forms.derivative(F, u)._pattern[:2]
    assert L is not S and np.abs(L).sum() < np.abs(S).sum()


def test_static_kernels_run_once_per_form(asm, studies, monkeypatch):
    problem = studies.build_quad_tri_problem(2, 1)
    J = forms.derivative(problem.residual, problem.u)
    runs = counting(asm, monkeypatch)
    seeded(problem, 3)
    asm.assemble(problem.residual)
    asm.assemble(J)
    for bcs in jacobian_bcs(problem) * 2:
        asm.assemble(J, bcs)
    asm.assemble(problem.residual)
    assert len(J._scatters) == 3
    assert runs.count(2) == len(J.integrals) == 5


def test_only_matrices_keep_a_scatter_per_bcs(asm, studies, monkeypatch):
    # a vector's and a functional's static sum and slots are their pattern,
    # whatever the bcs; a matrix's pattern is masked once per bcs set
    problem = studies.build_quad_tri_problem(1, 0)
    J = forms.derivative(problem.residual, problem.u)
    asm.assemble(problem.residual)
    asm.assemble(J)
    asm.assemble(J, problem.bcs)
    asm.assemble(problem.residual, problem.bcs)
    functionals, assemble = [], asm.assemble

    def recorded(form, bcs=()):
        functionals.append(form)
        return assemble(form, bcs)

    monkeypatch.setattr(asm, "assemble", recorded)
    asm.error_norms(problem.u, 0, studies.exact_solution,
                    studies.exact_gradient)
    assert len(functionals) == 2
    for form in [problem.residual] + functionals:
        assert "_scatters" not in vars(form)
    assert list(J._scatters) == [
        (), tuple((bc.component, bc.marker) for bc in problem.bcs)]


@pytest.mark.parametrize("name", ["quad-tri", "split-interface"])
@pytest.mark.parametrize("degree, level", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_a_constrained_jacobian_is_its_masked_pattern(asm, studies, name,
                                                      degree, level):
    problem = studies.build_problem(name, degree, level)
    J = forms.derivative(problem.residual, problem.u)
    A = asm.assemble(J)
    asm.assemble(problem.residual)
    for bcs in jacobian_bcs(problem):
        dofs, _ = asm.dirichlet_dofs(problem.space, bcs)
        got, want = asm.assemble(J, bcs), conftest.constrain_matrix(A, dofs)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
    # every static kernel of J has a source linear in u alone: L is S, the
    # one read-only sum, and no plan keeps element matrices
    S, L = J._pattern[:2]
    assert L is S and np.array_equal(S, A.data)
    with pytest.raises(ValueError, match="read-only"):
        S[0] = 0.0
    for plan in J._plans[0] + problem.residual._plans[0]:
        assert not [a for a in vars(plan).values()
                    if isinstance(a, np.ndarray) and a.dtype.kind == "f"]


def test_the_csr_is_the_same_whichever_form_comes_first(asm, studies):
    results = []
    for jacobian_first in (False, True):
        problem = studies.build_quad_tri_problem(2, 1)
        J = forms.derivative(problem.residual, problem.u)
        seeded(problem, 4)
        if jacobian_first:
            matrices = [asm.assemble(J, bcs) for bcs in jacobian_bcs(problem)]
        r = asm.assemble(problem.residual)
        if not jacobian_first:
            matrices = [asm.assemble(J, bcs) for bcs in jacobian_bcs(problem)]
        results.append((r, matrices))
    (r, first), (r_j, second) = results
    assert np.array_equal(r, r_j)
    for A, B in zip(first, second):
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(A, part), getattr(B, part))


def argument_tables(form):
    plans, _ = form._plans
    geometries = {id(p.geometry): p.geometry for p in plans}.values()
    return sum(len(side._built) for g in geometries
               for side in g._sides.values())


def test_tables_only_static_kernels_read_are_dropped(asm, studies):
    problem = studies.build_quad_tri_problem(1, 1)
    J = forms.derivative(problem.residual, problem.u)
    asm.assemble(problem.residual)
    asm.assemble(J, problem.bcs)
    assert argument_tables(problem.residual) == argument_tables(J) == 0
    # a dynamic kernel's tables stay, and are not built again
    (u_q, _), (v_q, _) = (forms.split(problem.u),
                          forms.split(problem.residual.arguments()[0]))
    nonlinear = u_q * u_q * v_q * forms.Measure("dx",
                                                problem.space.meshes[0])
    asm.assemble(nonlinear)
    kept = argument_tables(nonlinear)
    assert kept > 0
    asm.assemble(nonlinear)
    assert argument_tables(nonlinear) == kept


@pytest.mark.parametrize("name, solver", [("quad-tri", "lu"),
                                          ("quad-tri", "cg-fieldsplit"),
                                          ("split-interface", "cg-fieldsplit")])
def test_a_solved_problem_is_freed_without_the_cycle_collector(
        studies, comp, monkeypatch, name, solver):
    # plans, the degree walk and the kernel signatures hold no reference
    # cycle: one through a coefficient would keep its meshes and their
    # geometry caches alive until a collection, which raised the sweeps'
    # peak memory.  The second build of the cell compiles nothing: its
    # kernels all come from the cache, which must not keep them either.
    compile_, misses = comp._compile, []

    def counted(*args):
        misses.append(None)
        return compile_(*args)

    monkeypatch.setattr(comp, "_kernels", {})
    monkeypatch.setattr(comp, "_compile", counted)
    gc.disable()
    try:
        roots = []
        for build in range(2):
            problem = studies.build_problem(name, 1, 1)
            studies.solve_problem(problem, solver)
            studies.solution_errors(problem)
            roots.append(weakref.ref(problem.space.meshes[0].root()))
            if build == 0:
                first = len(misses)
            del problem
        assert first > 0 and len(misses) == first
        assert [root() for root in roots] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["quad-tri", "split-interface"])
@pytest.mark.parametrize("degree, level", [(1, 0), (1, 1), (2, 0), (2, 1)])
def test_newton_takes_one_step_on_the_linear_studies(studies, name, degree,
                                                     level):
    problem = studies.build_problem(name, degree, level)
    assert studies.solve_problem(problem) == 1
