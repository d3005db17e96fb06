"""One form checker: forms.validate_form owns the integrand/measure rules,
and assembly applies it through compile_integral, once per integral."""

import numpy as np
import pytest

import conftest
from multifem import fe, forms
from multifem import mesh as mm
from multifem.compile import CompileError, default_quadrature_degree

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
    J = forms.derivative(problem.residual, problem.u)
    calls = []
    validate = forms.validate_form

    def counted(form):
        calls.extend(form.integrals)
        return validate(form)

    monkeypatch.setattr(forms, "validate_form", counted)
    r0, A0 = asm.assemble(problem.residual), asm.assemble(J, problem.bcs)
    # one check per kernel: the residual's grouped integrals are checked
    # as their group's sum, and every integral is in exactly one check
    assert len(calls) == len(problem.residual._plans[0]) + len(J.integrals)
    for integral in problem.residual.integrals + J.integrals:
        assert sum(any(node is integral.integrand
                       for node in forms.walk(checked.integrand))
                   for checked in calls) == 1

    def no_walk(*args):
        raise AssertionError("expression tree walked on reassembly")

    # later assemblies reuse the plans: no check and no tree walk
    monkeypatch.setattr(forms, "validate_form", no_walk)
    monkeypatch.setattr(forms, "walk", no_walk)
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
    assert default_quadrature_degree(low) == 4  # 2 * 1 + 2 on quads
    assert default_quadrature_degree(high) == 8  # 2 * 3 + 2 on quads
