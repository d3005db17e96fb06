"""One kernel per group of integrals in linear forms and functionals.

A form of arity <= 1 is planned per group of integrals that share a
quadrature rule, coefficient degree (compile.coefficient_degree) and
iteration set, whichever participant of the measure is primal; each group
runs one kernel, compiled from the sum of its integrands at its first
integral's quadrature degree, but for a group linear in u, which is added
as a matvec (test_affine.py).  These tests check the grouped result
against the per-integral plans, the groups the study forms get, what is
never grouped, the rule of a group whose members' degrees differ, the
empty-subdomain warning inside a group, the error an invalid member
raises, the constants the kernels keep by value, and the markers a
DirichletBC takes.
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


def dynamic_kernels(plans):
    return sum(not plan.kernel.static for plan in plans)


@pytest.mark.parametrize("name", ["quad-tri", "split-interface"])
@pytest.mark.parametrize("degree", [1, 2, 3])
def test_grouped_residual_is_the_sum_of_the_integrals(asm, studies, name,
                                                      degree):
    problem = studies.build_problem(name, degree, 1)
    rng = np.random.default_rng(10 * degree + len(name))
    problem.u.values[:] = rng.standard_normal(problem.space.num_dofs)
    r = asm.assemble(problem.residual)
    plans, _ = problem.residual._plans
    assert len(plans) < len(problem.residual.integrals)
    expected = per_integral_sum(asm, problem.residual, len(r))
    assert np.abs(r - expected).max() <= 1e-15 * np.abs(expected).max()


@pytest.mark.parametrize("name, integrals, dynamic",
                         [("quad-tri", 7, 3), ("split-interface", 8, 3)])
def test_study_residuals_run_one_interface_kernel(asm, studies, name,
                                                  integrals, dynamic):
    # quad-tri: ds(q)^ds(t)[999] twice and ds(t)^ds(q)[999] once go into
    # one kernel laid out on the first measure; split-interface: its four
    # dz integrals go into one; the cell stiffness and source integrals
    # stay apart, as one reads u and the other does not
    problem = studies.build_problem(name, 2, 1)
    asm.assemble(problem.residual)
    plans, empty = problem.residual._plans
    assert len(problem.residual.integrals) == integrals
    assert len(plans) == 5 and dynamic_kernels(plans) == dynamic
    assert not empty
    # a linear group's kernel is checked, never run: its plan keeps no dofs
    linear = [p for p in plans if p.linear]
    assert linear and all(p.rows is p.coeff_dofs is None for p in linear)
    interface = [p for p in plans if len(p.kernel.participants) > 1]
    assert len(interface) == 1
    first = next(i for i in problem.residual.integrals
                 if i.measure.intersect_measures)
    assert interface[0].kernel.participants == first.measure.participants()
    # one contraction per argument instruction
    instrs = [instr for _, instr, _ in interface[0].kernel.terms]
    assert len(instrs) == len(set(instrs))


def test_measures_over_one_entity_set_share_a_key(asm, studies):
    problem = studies.build_quad_tri_problem(1, 0)
    ds_a, ds_b = {i.measure.mesh.id: i.measure
                  for i in problem.residual.integrals
                  if i.measure.intersect_measures}.values()
    assert ds_a.key() != ds_b.key()
    assert asm._iteration_set_key(ds_a) == asm._iteration_set_key(ds_b)
    rows_a, rows_b = asm._entities(ds_a), asm._entities(ds_b)
    assert len(rows_a) > 0
    assert sorted(map(tuple, rows_a[:, ::-1])) == sorted(map(tuple, rows_b))


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
    # u0 u0 v0 is of degree two in u: its own group, never the stiffness's
    assert [p.kernel.static for p in plans] == [False, True, False][
        :2 + nonlinear]
    assert [p.linear is u for p in plans] == [True, False, False][
        :2 + nonlinear]
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
    # the dynamic group is linear in u and applied from the Jacobian's
    # kept element matrices, so no kernel reruns
    assert warm_kernel_runs(asm, monkeypatch, split_left, False) == []


def test_a_nonlinear_dynamic_group_reruns_its_kernel(asm, split_left,
                                                     monkeypatch):
    # the twin with u0 u0 v0 for u0 v0: that group is not linear in u
    assert warm_kernel_runs(asm, monkeypatch, split_left, True) == [False]


def test_measures_with_other_entities_are_not_grouped(asm, split_left):
    V, u, u0, v0 = split_left
    m = V.meshes[0]
    ds = forms.Measure("ds", m)
    form = u0 * v0 * ds(mm.BOUNDARY_MARKER) + u0 * v0 * ds(
        mm.INTERFACE_MARKER)
    b = asm.assemble(form)
    plans, _ = form._plans
    assert len(plans) == 2
    assert np.abs(b - per_integral_sum(asm, form, len(b))).max() \
        <= 1e-15 * np.abs(b).max()
    same = u0 * u0 * v0 * ds(1) + forms.Constant(2.0) * u0 * u0 * v0 * ds(1)
    asm.assemble(same)
    assert len(same._plans[0]) == 1
    # of other degrees in u: not grouped, so a group is linear in u or not
    other = u0 * v0 * ds(1) + u0 * u0 * v0 * ds(1)
    asm.assemble(other)
    assert [p.linear for p in other._plans[0]] == [u, None]


def test_other_quadrature_rules_are_not_grouped(asm, split_left):
    V, u, u0, v0 = split_left
    m = V.meshes[0]
    form = (u0 * v0 * forms.Measure("dx", m, quadrature_degree=2)
            + u0 * v0 * forms.Measure("dx", m, quadrature_degree=6))
    asm.assemble(form)
    assert len(form._plans[0]) == 2


@pytest.mark.parametrize("lower_first", [False, True])
def test_a_group_keeps_its_members_rule(asm, split_left, lower_first):
    # dx at degrees 4 and 5 share one 3 x 3 Gauss rule; the sum reads a Q3
    # coefficient, whose default degree, 8, would take a 5 x 5 rule, so the
    # group runs at its first member's degree.  A member at Q1's default
    # degree 4 cannot join them: it would not read w, as a group's members
    # all do
    V, u, u0, v0 = split_left
    m = V.meshes[0]
    w = forms.Coefficient(conftest.scalar_space(m, "Q", 3))
    w.values[:] = np.random.default_rng(6).standard_normal(len(w.values))
    (w0,) = forms.split(w)
    lower = w0 * v0 * forms.Measure("dx", m, quadrature_degree=4)
    higher = (forms.Constant(2.0) * w0 * v0
              * forms.Measure("dx", m, quadrature_degree=5))
    form = lower + higher if lower_first else higher + lower
    b = asm.assemble(form)
    plans, _ = form._plans
    assert len(plans) == 1 and len(plans[0].kernel.quadrature) == 9
    assert len(asm._plan_for(forms.Integral(
        w0 * v0, forms.Measure("dx", m))).kernel.quadrature) == 25
    expected = per_integral_sum(asm, form, len(b))
    assert np.abs(b - expected).max() <= 1e-15 * np.abs(expected).max()
    mixed = u0 * v0 * forms.Measure("dx", m) + lower
    asm.assemble(mixed)
    assert [p.linear for p in mixed._plans[0]] == [u, w]


def test_bilinear_forms_get_one_kernel_per_integral(asm, studies):
    problem = studies.build_quad_tri_problem(1, 0)
    J = forms.derivative(problem.residual, problem.u)
    asm.assemble(J, problem.bcs)
    plans, _ = J._plans
    assert len(plans) == len(J.integrals) == 5
    # each plan is its own integral's: same geometry, dofs and entries as
    # a plan built for that integral alone
    for plan, integral in zip(plans, J.integrals):
        own = asm._plan_for(integral)
        assert plan.geometry is own.geometry
        assert np.array_equal(plan.rows, own.rows)
        assert np.array_equal(plan.cols, own.cols)
        assert np.array_equal(asm._element_tensors(plan),
                              asm._element_tensors(own))


def test_an_empty_measure_in_a_group_warns_once_per_integral(asm,
                                                             split_left):
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
        assert len(form._plans[0]) == 2  # the empty ones are one group
        assert np.array_equal(b, asm.assemble(u0 * v0 * ds))


def test_an_invalid_member_reports_its_own_measure_and_path(asm, comp,
                                                            split_left):
    # the restriction is the second integral's; inside the group's sum it
    # would sit at /Sum.1/... under the first integral's measure
    V, u, u0, v0 = split_left
    ds = forms.Measure("ds", V.meshes[0])
    form = u0 * v0 * ds + forms.restrict(u0, "+") * v0 * ds
    with pytest.raises(comp.CompileError) as info:
        asm.assemble(form)
    assert f"{ds!r} at /Product.0/Restricted[+]/Indexed" in str(info.value)
    assert "Sum" not in str(info.value)


def test_an_invalid_member_on_the_reversed_measure_names_it(asm, comp,
                                                            studies):
    # ds(t)^ds(q)[999] joins the group of ds(q)^ds(t)[999]
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


def test_a_group_error_no_member_has_is_raised_as_it_is(asm, comp,
                                                        split_left,
                                                        monkeypatch):
    V, u, u0, v0 = split_left
    ds = forms.Measure("ds", V.meshes[0])

    def failing(integral):
        raise comp.CompileError("the group's own error")

    monkeypatch.setattr(asm, "_plan_for", failing)
    with pytest.raises(comp.CompileError, match="the group's own error"):
        asm.assemble(u0 * v0 * ds + u0 * u0 * v0 * ds)


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
