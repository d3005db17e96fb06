"""One form checker: forms.analyze owns the integrand/measure rules, which
forms.validate_form reports and assembly applies through compile_integral,
once per integral."""

import numpy as np
import pytest

import conftest
from multifem import fe, forms
from multifem import mesh as mm
from multifem.compile import CompileError

QUAD = mm.CellType.QUADRILATERAL

CASES = conftest.validator_cases()
REJECTED = [case for case in CASES if case[2]]
ACCEPTED = [case for case in CASES if not case[2]]


def unit_square():
    return conftest.single_cell_mesh(
        QUAD, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


@pytest.mark.parametrize("name,form,expected", REJECTED,
                         ids=[c[0] for c in REJECTED])
def test_assemble_rejects_what_the_validator_rejects(asm, name, form,
                                                     expected):
    first = forms.validate_form(form)[0].message
    with pytest.raises(CompileError, match="invalid form") as info:
        asm.assemble(form)
    message = str(info.value)
    assert first in message
    assert any(fragment in message for fragment in expected), message


# every diagnostic of each rejected catalog form, as (integral index, path,
# message)
PINNED = {
    "unrestricted-interior-facet-participant": [
        (0, "/Product.0/Coefficient",
         "missing restriction on interior-facet participant")],
    "restricted-exterior-facet-participant": [
        (0, "/Product.1/Restricted[+]/Coefficient",
         "restriction on exterior-facet participant")],
    "nested-restriction": [(0, "/Product.0/Restricted[-]",
                            "nested restriction")],
    "facet-normal-of-a-codim1-mesh": [
        (0, "/Inner.1/FacetNormal", "FacetNormal requires a codim-0 mesh")],
    "restricted-cell-participant": [
        (0, "/Product.1/Restricted[+]/Coefficient",
         "restriction on cell participant")],
}


def reported(form):
    return [(d.integral_index, d.path, d.message)
            for d in forms.validate_form(form)]


def test_every_rejected_case_is_pinned():
    assert sorted(PINNED) == sorted(case[0] for case in REJECTED)


@pytest.mark.parametrize("name,form,expected", REJECTED,
                         ids=[c[0] for c in REJECTED])
def test_the_validator_reports_exactly_these(name, form, expected):
    assert reported(form) == PINNED[name]


@pytest.fixture()
def facets():
    """(Coefficient on a mesh, interior-facet participant full, exterior-
    facet participant left, unrelated right, the measure dS(full) ^
    ds(left))."""
    parent = mm.build_split_unit_square(0)
    full, left, right = (mm.extract_codim0_submesh(parent, ids)[0]
                         for ids in ((1, 2), 1, 2))
    measure = forms.Measure("dS", full, 999, intersect_measures=(
        forms.Measure("ds", left),))

    def scalar(mesh):
        return forms.Coefficient(conftest.scalar_space(mesh, "Q", 1))

    return scalar, full, left, right, measure


def test_faults_are_reported_in_walk_order(facets):
    # depth first, operands in order, integral by integral
    scalar, full, left, right, dS = facets
    u, w, z = scalar(full), scalar(left), scalar(right)
    form = (forms.restrict(u, "+") * w * dS
            + forms.restrict(w, "+") * (u + z) * dS)
    assert reported(form) == [
        (1, "/Product.0/Restricted[+]/Coefficient",
         "restriction on exterior-facet participant"),
        (1, "/Product.1/Sum.0/Coefficient",
         "missing restriction on interior-facet participant"),
        (1, "/Product.1/Sum.1/Coefficient",
         f"mesh {right.id} does not participate in the measure")]


def test_a_shared_faulty_node_is_reported_once_per_side(facets):
    # e * e reads e twice under no restriction: the walk checks each node
    # once per side, so e's fault is reported once, at the first path that
    # reaches it (the recursive checker reported it once per path); under
    # '+' and '-' it is checked under each, and restricted there
    scalar, full, _, _, dS = facets
    e = forms.Constant(2.0) * scalar(full)
    assert reported(e * e * dS) == [
        (0, "/Product.0/Product.1/Coefficient",
         "missing restriction on interior-facet participant")]
    assert reported(forms.restrict(e, "+") * forms.restrict(e, "-")
                    * dS) == []


@pytest.mark.parametrize("name,form,expected", ACCEPTED,
                         ids=[c[0] for c in ACCEPTED])
def test_assemble_accepts_what_the_validator_accepts(asm, name, form,
                                                     expected):
    assert np.isfinite(asm.assemble(form))


def test_facet_normal_of_a_cell_participant_is_flagged(asm):
    m = unit_square()
    v = forms.Coefficient(conftest.scalar_space(m, "Q", 1))
    n = forms.FacetNormal(m)
    form = forms.inner(n, n) * v * forms.Measure("dx", m)
    messages = {d.message for d in forms.validate_form(form)}
    assert messages == {"FacetNormal of a mesh participating through cells"}
    with pytest.raises(ValueError, match="participating through cells"):
        asm.assemble(form)


class TestArgumentsAgree:
    @pytest.fixture()
    def setting(self):
        m = unit_square()
        V = conftest.scalar_space(m, "Q", 1)
        W = conftest.scalar_space(m, "Q", 2)
        return (forms.Measure("dx", m), forms.TestFunction(V),
                forms.TestFunction(W), forms.TrialFunction(V))

    def test_distinct_test_functions_in_one_integrand(self, asm, setting):
        dx, v, w, _ = setting
        with pytest.raises(ValueError, match="distinct arguments"):
            asm.assemble((v + w) * dx)

    def test_distinct_test_functions_across_integrals(self, asm, setting):
        dx, v, w, _ = setting
        with pytest.raises(ValueError, match="the form's arguments"):
            asm.assemble(v * dx + w * dx)

    def test_linear_and_bilinear_integrals_do_not_mix(self, asm, setting):
        dx, v, _, u = setting
        with pytest.raises(ValueError, match="the form's arguments"):
            asm.assemble(u * v * dx + v * dx)

    def test_a_trial_function_needs_a_test_function(self, asm, setting):
        dx, _, _, u = setting
        with pytest.raises(CompileError, match="trial function but no test"):
            asm.assemble(u * dx)


def test_forms_are_checked_once_per_integral(asm, studies, monkeypatch):
    problem = studies.build_quad_tri_problem(1, 0)
    calls = []
    analyze = forms.analyze

    def counted(integral):
        if "_analysis" not in vars(integral):  # walked, not read as kept
            calls.append(integral)
        return analyze(integral)

    monkeypatch.setattr(forms, "analyze", counted)
    J = forms.derivative(problem.residual, problem.u)
    r0, A0 = asm.assemble(problem.residual), asm.assemble(J, problem.bcs)
    # one check per kernel, and so per integral: every integral is in
    # exactly one check
    assert len(calls) == len(problem.residual._plans[0]) + len(J.integrals)
    for integral in problem.residual.integrals + J.integrals:
        assert sum(checked is integral for checked in calls) == 1

    def no_walk(*args):
        raise AssertionError("expression tree walked on reassembly")

    # later assemblies reuse the plans: no check and no tree walk
    monkeypatch.setattr(forms, "analyze", no_walk)
    r1, A1 = asm.assemble(problem.residual), asm.assemble(J, problem.bcs)
    assert np.array_equal(r0, r1)
    assert np.array_equal(A0.data, A1.data)


def test_component_quadrature_degree_ignores_other_components():
    parent = mm.build_split_unit_square(0)
    left, _ = mm.extract_codim0_submesh(parent, 1)
    right, _ = mm.extract_codim0_submesh(parent, 2)
    V = conftest.make_space([left, right], [fe.make_element(QUAD, "Q", 1),
                                            fe.make_element(QUAD, "Q", 3)])
    v_left, v_right = forms.split(forms.TestFunction(V))
    low = (v_left * forms.Measure("dx", left)).integrals[0]
    high = (v_right * forms.Measure("dx", right)).integrals[0]
    assert forms.analyze(low).key[0] == 4  # 2 * 1 + 2 on quads
    assert forms.analyze(high).key[0] == 8  # 2 * 3 + 2 on quads


class Opaque(forms.Expr):
    """A node kind the compiler does not know."""


def argument_and_gradient_faults(studies):
    """(name, form, expected diagnostics (path, message)) of integrands whose
    argument, gradient or node-kind fault only the compiler once raised."""
    m = unit_square()
    V = conftest.scalar_space(m, "Q", 1)
    (v,), (w,) = (forms.split(forms.TestFunction(V)),
                  forms.split(forms.TrialFunction(V)))
    dx = forms.Measure("dx", m)
    problem = studies.build_split_interface_problem(1, 0)
    _, u_i, _ = forms.split(problem.u)
    (dz,) = {i.measure for i in problem.residual.integrals
             if i.measure.mesh.dim == 1}
    codim1 = "gradients on codim-1 meshes are not supported"
    return [
        ("test-function-squared", v * v * dx,
         [("/Product", "form is nonlinear in an argument")]),
        ("test-plus-trial", (v + w) * dx,
         [("/Sum", "a sum mixes terms that depend on different arguments")]),
        ("trial-alone", w * dx,
         [("/Indexed", "integral has a trial function but no test "
                       "function")]),
        ("grad-of-a-constant",
         forms.inner(forms.grad(forms.Constant(1.0)), forms.grad(v)) * dx,
         [("/Inner.0/Grad", "unsupported node kind under a differential "
                            "operator: Constant")]),
        ("grad-on-the-interface-mesh",
         forms.inner(forms.grad(u_i), forms.grad(u_i)) * dz,
         [("/Inner.0/Grad", codim1), ("/Inner.1/Grad", codim1)]),
        ("unknown-node-kind", Opaque() * v * dx,
         [("/Product.0/Opaque", "unsupported node kind: Opaque")]),
    ]


def test_the_validator_reports_what_the_compiler_rejects(asm, studies):
    # every integrand fault that compile_integral raises is one that
    # validate_form lists, at the node's own path; assemble raises the first
    for name, form, expected in argument_and_gradient_faults(studies):
        assert reported(form) == [(0, *fault) for fault in expected], name
        (measure,) = {i.measure for i in form.integrals}
        path, message = expected[0]
        with pytest.raises(CompileError) as info:
            asm.assemble(form)
        assert str(info.value) == (f"invalid form: {measure!r} at {path}: "
                                   f"{message}"), name


def test_post_order_faults_follow_the_faults_below_them(facets):
    # a measure fault inside a nonlinear product comes first: the product's
    # own fault is found once its operands are done; a product's fault
    # comes before a later operand's
    _, full, left, right, _ = facets
    V = conftest.make_space([left, right], [fe.make_element(QUAD, "Q", 1)] * 2)
    (v_l, v_r), (u_l, u_r) = (forms.split(forms.TestFunction(V)),
                              forms.split(forms.Coefficient(V)))
    dx = forms.Measure("dx", left)
    outside = f"mesh {right.id} does not participate in the measure"
    nonlinear = "form is nonlinear in an argument"
    assert reported((v_l + v_r) * v_l * dx + v_l * v_l * u_r * dx) == [
        (0, "/Product.0/Sum.1/Indexed", outside),
        (0, "/Product", nonlinear),
        (1, "/Product.0/Product", nonlinear),
        (1, "/Product.1/Indexed", outside)]


def test_a_gradient_reports_only_its_operands_fault(asm, studies, facets):
    # grad of a function on a mesh that does not participate (a codim-1
    # one too), or under a faulty restriction, reports that fault alone:
    # its row has no participant, which no gradient rule may read
    _, full, left, right, dS = facets
    problem = studies.build_split_interface_problem(1, 0)
    _, u_i, _ = forms.split(problem.u)
    interface = problem.space.meshes[1]

    def scalar(mesh):
        return forms.split(forms.Coefficient(conftest.scalar_space(
            mesh, "Q", 1)))[0]

    dx = forms.Measure("dx", left)
    plus, minus = (lambda e: forms.restrict(e, "+"),
                   lambda e: forms.restrict(e, "-"))
    cases = [
        (forms.inner(forms.grad(scalar(right)), forms.grad(scalar(left)))
         * dx, ("/Inner.0/Grad.0/Indexed",
                f"mesh {right.id} does not participate in the measure")),
        (forms.inner(forms.grad(u_i), forms.grad(scalar(left))) * dx,
         ("/Inner.0/Grad.0/Indexed",
          f"mesh {interface.id} does not participate in the measure")),
        (forms.inner(forms.grad(plus(scalar(left))), forms.grad(
            scalar(left))) * dx, ("/Inner.0/Grad.0/Restricted[+]/Indexed",
                                  "restriction on cell participant")),
        (forms.inner(forms.grad(minus(plus(scalar(full)))), forms.grad(
            minus(scalar(full)))) * dS, ("/Inner.0/Grad.0/Restricted[-]",
                                         "nested restriction")),
        (forms.inner(forms.grad(scalar(full)), forms.grad(
            minus(scalar(full)))) * dS,
         ("/Inner.0/Grad.0/Indexed",
          "missing restriction on interior-facet participant")),
    ]
    for form, fault in cases:
        assert reported(form) == [(0, *fault)]
        with pytest.raises(CompileError, match="invalid form"):
            asm.assemble(form)
