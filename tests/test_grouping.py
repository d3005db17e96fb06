"""One plan per integral, whatever the form's arity.

Every form is planned integral by integral, in form order: a bilinear
form's, a linear form's and a functional's plans are each their own
integral's (assemble._plan_for), but for a linear form's integral of degree
one in one coefficient u, which is added as a matvec (test_affine.py) and
keeps no dof arrays.  These tests check the plans the study forms and an
error functional get, a form with a nonlinear integral against the sum of
its integrals, the kernels a warm assembly reruns, the empty-subdomain
warning, the error an invalid integral raises, the constants the kernels
keep by value, and the markers a DirichletBC takes.
"""

import warnings

import numpy as np
import pytest

import conftest
from multifem import forms
from multifem import mesh as mm


def per_integral_sum(asm, form, size):
    """The sum of every integral's element vectors, each from its own
    plan (_plan_for on the integral alone), scattered by its rows."""
    total = np.zeros(size)
    for integral in form.integrals:
        plan = asm._plan_for(integral)
        total += np.bincount(plan.rows.ravel(),
                             weights=asm._element_tensors(plan),
                             minlength=size)
    return total


def error_functional(studies, problem):
    """error_norms' two integrands summed per error component, at its
    quadrature degree: two integrals on each component's dx."""
    parts = []
    for k in problem.error_components:
        mesh = problem.space.meshes[k]
        u_k = forms.Indexed(problem.u, k)
        e = u_k - forms.Analytic(mesh, studies.exact_solution)
        g = forms.grad(u_k) - forms.Analytic(mesh, studies.exact_gradient,
                                             shape=(2,))
        dx = forms.Measure("dx", mesh, quadrature_degree=2
                           * problem.space.element[k].degree + 4)
        parts.append(e * e * dx + forms.inner(g, g) * dx)
    return sum(parts[1:], parts[0])


@pytest.mark.parametrize("kind", ["residual", "jacobian", "errors"])
@pytest.mark.parametrize("name", ["quad-tri", "split-interface"])
def test_every_form_gets_one_plan_per_integral(asm, studies, name, kind):
    problem = studies.build_problem(name, 1, 0)
    problem.u.values[:] = np.random.default_rng(7).standard_normal(
        problem.space.num_dofs)
    if kind == "residual":
        form = problem.residual
    elif kind == "jacobian":
        form = forms.derivative(problem.residual, problem.u)
    else:
        form = error_functional(studies, problem)
    asm.assemble(form)
    plans, empty = form._plans
    assert len(plans) == len(form.integrals) and not empty
    assert any(p.linear for p in plans) == (kind == "residual")
    # each plan, in form order, is its own integral's: same geometry and
    # dofs as a plan built for that integral alone, and same entries but
    # for a linear plan, which is applied as L u and keeps no dof arrays
    for plan, integral in zip(plans, form.integrals):
        own = asm._plan_for(integral)
        assert plan.geometry is own.geometry
        assert plan.cols is own.cols is None or np.array_equal(plan.cols,
                                                               own.cols)
        if kind == "residual":  # one contraction per argument instruction
            instrs = [instr for _, instr in plan.kernel.terms]
            assert len(instrs) == len(set(instrs))
        if plan.linear:
            assert plan.rows is plan.coeff_dofs is None
            continue
        assert np.array_equal(plan.rows, own.rows)
        assert len(plan.coeff_dofs) == len(own.coeff_dofs)
        assert all(map(np.array_equal, plan.coeff_dofs, own.coeff_dofs))
        assert np.array_equal(asm._element_tensors(plan),
                              asm._element_tensors(own))


@pytest.fixture()
def split_left():
    """Q1 on the left half of the split square: cell markers 1 (all of
    it), boundary facets 1 and interface facets 999."""
    V = conftest.scalar_space(
        mm.extract_codim0_submesh(mm.build_split_unit_square(1), 1)[0],
        "Q", 1)
    u = forms.Coefficient(V)
    u.values[:] = np.random.default_rng(5).standard_normal(V.num_dofs)
    (u0,), (v0,) = forms.split(u), forms.split(forms.TestFunction(V))
    return V, u, u0, v0


def warm_kernel_runs(asm, monkeypatch, split_left, nonlinear):
    """The static-ness of each kernel a warm assembly of stiffness, pure
    source and mass (u0 u0 v0 if nonlinear) runs; the source is evaluated
    once, and the warm result equals the first."""
    V, u, u0, v0 = split_left
    calls = []
    source = forms.Analytic(V.meshes[0], lambda x, y: calls.append(1) or x,
                            pure=True)
    dx = forms.Measure("dx", V.meshes[0])
    mass = (u0 * u0 if nonlinear else u0) * v0 * dx
    form = (forms.inner(forms.grad(u0), forms.grad(v0)) * dx
            + source * v0 * dx + mass)
    first = asm.assemble(form)
    plans, _ = form._plans
    # u0 v0 is linear in u, as the stiffness is; u0 u0 v0 is not
    assert [p.kernel.static for p in plans] == [False, True, False]
    assert [p.linear is u for p in plans] == [True, False, not nonlinear]
    assert calls == [1]
    runs = []
    execute = asm.execute_kernel

    def counted(kernel, geometry, w):
        runs.append(kernel.static)
        return execute(kernel, geometry, w)

    monkeypatch.setattr(asm, "execute_kernel", counted)
    assert np.array_equal(asm.assemble(form), first)
    assert calls == [1]
    return runs


def test_static_and_dynamic_integrals_stay_two_kernels(asm, comp,
                                                       split_left,
                                                       monkeypatch):
    # the dynamic integrals are linear in u and applied as one sparse
    # matvec by the Jacobian's static sum, so no kernel reruns
    assert warm_kernel_runs(asm, monkeypatch, split_left, False) == []


def test_a_nonlinear_dynamic_integral_reruns_its_kernel(asm, split_left,
                                                        monkeypatch):
    # the twin with u0 u0 v0 for u0 v0: that integral is not linear in u
    assert warm_kernel_runs(asm, monkeypatch, split_left, True) == [False]


def test_a_nonlinear_integral_beside_linear_ones_is_their_sum(asm,
                                                              split_left):
    # the matvec of the linear integrals, the static source and the
    # nonlinear kernel together equal every integral's own kernel
    V, u, u0, v0 = split_left
    dx = forms.Measure("dx", V.meshes[0])
    source = forms.Analytic(V.meshes[0], lambda x, y: x * y, pure=True)
    form = (forms.inner(forms.grad(u0), forms.grad(v0)) * dx
            + source * v0 * dx + u0 * u0 * v0 * dx + u0 * v0 * dx)
    b = asm.assemble(form)
    assert [p.linear for p in form._plans[0]] == [u, None, None, u]
    expected = per_integral_sum(asm, form, len(b))
    assert np.abs(b - expected).max() <= 1e-15 * np.abs(expected).max()


def test_empty_measures_warn_once_per_integral(asm, split_left):
    V, u, u0, v0 = split_left
    ds = forms.Measure("ds", V.meshes[0])
    form = u0 * u0 * v0 * ds(4321) + u0 * u0 * v0 * ds(4322) + u0 * v0 * ds
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            b = asm.assemble(form)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert "[4321]" in messages[0] and "[4322]" in messages[1]
        assert len(form._plans[0]) == 3  # one per integral, empty or not
        assert np.array_equal(b, asm.assemble(u0 * v0 * ds))


def test_an_invalid_member_reports_its_own_measure_and_path(asm, comp,
                                                            split_left):
    # the restriction is the second integral's: the error names its own
    # measure and path, not a path inside a sum of both
    V, u, u0, v0 = split_left
    ds = forms.Measure("ds", V.meshes[0])
    form = u0 * v0 * ds + forms.restrict(u0, "+") * v0 * ds
    with pytest.raises(comp.CompileError) as info:
        asm.assemble(form)
    assert f"{ds!r} at /Product.0/Restricted[+]/Indexed" in str(info.value)
    assert "Sum" not in str(info.value)


def test_an_invalid_member_on_the_reversed_measure_names_it(asm, comp,
                                                            studies):
    # ds(t)^ds(q)[999] covers the facets of ds(q)^ds(t)[999]
    problem = studies.build_quad_tri_problem(1, 0)
    quads = problem.space.meshes[0]
    first, reversed_ = sorted({i.measure.key(): i.measure
                               for i in problem.residual.integrals
                               if i.measure.intersect_measures}.values(),
                              key=lambda m: m.mesh is not quads)
    (uq, _), (vq, _) = (forms.split(problem.u),
                        forms.split(forms.TestFunction(problem.space)))
    form = uq * vq * first + forms.restrict(uq, "+") * vq * reversed_
    with pytest.raises(comp.CompileError) as info:
        asm.assemble(form)
    assert (f"{reversed_!r} at /Product.0/Restricted[+]/Indexed"
            in str(info.value))


def test_constants_are_kept_by_value(comp, split_left):
    V, u, u0, v0 = split_left
    # built once at compile time, read-only: (1, 1, 1, 1, *shape)
    integrand = (forms.Constant(2.5) * u0 * v0
                 + forms.inner(forms.Zero((2,)), forms.grad(v0)))
    kernel = comp.compile_integral(
        (integrand * forms.Measure("dx", V.meshes[0])).integrals[0])
    consts = {instr[1]: instr[2] for instr in kernel.tape
              if instr[0] == "const"}
    assert consts[2.5].shape == (1, 1, 1, 1) and consts[2.5].item() == 2.5
    assert consts[0.0].shape == (1, 1, 1, 1, 2) and not consts[0.0].any()
    for array in consts.values():
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0


class TestDirichletMarkers:
    @pytest.mark.parametrize("marker", [True, 1.0, "1", np.True_])
    def test_non_integer_markers_raise(self, asm, marker):
        with pytest.raises(TypeError, match="markers are integers"):
            asm.DirichletBC(0, marker, 0.0)

    def test_numpy_integers_act_as_ints(self, asm, split_left):
        V, u, u0, v0 = split_left
        (t0,) = forms.split(forms.TrialFunction(V))
        a = t0 * v0 * forms.Measure("dx", V.meshes[0])
        by_int = [asm.DirichletBC(0, mm.BOUNDARY_MARKER, 0.0)]
        by_numpy = [asm.DirichletBC(0, np.int64(mm.BOUNDARY_MARKER), 0.0)]
        assert type(by_numpy[0].marker) is int
        assert np.array_equal(asm.dirichlet_dofs(V, by_int)[0],
                              asm.dirichlet_dofs(V, by_numpy)[0])
        A, B = asm.assemble(a, by_int), asm.assemble(a, by_numpy)
        assert list(a._scatters) == [((0, mm.BOUNDARY_MARKER),)]
        assert np.array_equal(A.toarray(), B.toarray())
