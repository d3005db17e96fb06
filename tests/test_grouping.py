"""One kernel per group of integrals in linear forms and functionals.

A form of arity <= 1 is planned per group of integrals that share a
quadrature rule, static-ness and iteration set, whichever participant of
the measure is primal; each group runs one kernel, compiled from the sum
of its integrands at its first integral's quadrature degree.  These
tests check the grouped result against the per-integral plans, the
groups the study forms get, what is never grouped, the rule of a group
whose members mix default and explicit degrees, the empty-subdomain
warning inside a group, the constants the kernels keep by value, and
the markers a DirichletBC takes.
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


def test_static_and_dynamic_integrals_stay_two_kernels(asm, comp,
                                                       split_left,
                                                       monkeypatch):
    V, u, u0, v0 = split_left
    calls = []
    source = forms.Analytic(V.meshes[0], lambda x, y: calls.append(1) or x,
                            pure=True)
    dx = forms.Measure("dx", V.meshes[0])
    form = (forms.inner(forms.grad(u0), forms.grad(v0)) * dx
            + source * v0 * dx + u0 * v0 * dx)
    first = asm.assemble(form)
    plans, _ = form._plans
    assert [p.kernel.static for p in plans] == [False, True]
    assert calls == [1]
    runs = []
    execute = asm.execute_kernel

    def counted(kernel, geometry, w):
        runs.append(kernel.static)
        return execute(kernel, geometry, w)

    monkeypatch.setattr(asm, "execute_kernel", counted)
    assert np.array_equal(asm.assemble(form), first)
    assert runs == [False] and calls == [1]


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
    same = u0 * v0 * ds(1) + u0 * u0 * v0 * ds(1)
    asm.assemble(same)
    assert len(same._plans[0]) == 1


def test_other_quadrature_rules_are_not_grouped(asm, split_left):
    V, u, u0, v0 = split_left
    m = V.meshes[0]
    form = (u0 * v0 * forms.Measure("dx", m, quadrature_degree=2)
            + u0 * v0 * forms.Measure("dx", m, quadrature_degree=6))
    asm.assemble(form)
    assert len(form._plans[0]) == 2


@pytest.mark.parametrize("explicit_first", [False, True])
def test_a_group_keeps_its_members_rule(asm, split_left, explicit_first):
    # dx at Q1's default degree 4 and dx at degree 5 share one 3 x 3 Gauss
    # rule; the sum reads a Q3 coefficient, whose default degree, 8, would
    # take a 5 x 5 rule, so the group runs at its first member's degree
    V, u, u0, v0 = split_left
    m = V.meshes[0]
    w = forms.Coefficient(conftest.scalar_space(m, "Q", 3))
    w.values[:] = np.random.default_rng(6).standard_normal(len(w.values))
    (w0,) = forms.split(w)
    default = u0 * v0 * forms.Measure("dx", m)
    explicit = w0 * v0 * forms.Measure("dx", m, quadrature_degree=5)
    form = explicit + default if explicit_first else default + explicit
    b = asm.assemble(form)
    plans, _ = form._plans
    assert len(plans) == 1 and len(plans[0].kernel.quadrature) == 9
    expected = per_integral_sum(asm, form, len(b))
    assert np.abs(b - expected).max() <= 1e-15 * np.abs(expected).max()


def test_bilinear_forms_get_one_kernel_per_integral(asm, studies):
    problem = studies.build_quad_tri_problem(1, 0)
    J = forms.derivative(problem.residual, problem.u)
    asm.assemble(J, problem.bcs)
    plans, _ = J._plans
    assert len(plans) == len(J.integrals) == 5
    assert [p is i._plan for p, i in zip(plans, J.integrals)] == [True] * 5


def test_an_empty_measure_in_a_group_warns_once_per_integral(asm,
                                                             split_left):
    V, u, u0, v0 = split_left
    ds = forms.Measure("ds", V.meshes[0])
    form = u0 * v0 * ds(4321) + u0 * u0 * v0 * ds(4322) + u0 * v0 * ds
    for _ in range(2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            b = asm.assemble(form)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 2
        assert "[4321]" in messages[0] and "[4322]" in messages[1]
        assert len(form._plans[0]) == 2  # the empty ones are one group
        assert np.array_equal(b, asm.assemble(u0 * v0 * ds))


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
