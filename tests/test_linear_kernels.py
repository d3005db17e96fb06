"""Linear forms and functionals: the test function factored out of the tape.

A kernel with at most one argument evaluates argument-free registers only
and contracts each term with its argument table in one matmul.  Every
integral here is checked against conftest.materialized_element_tensors,
which walks the integrand with every value materialized and sums the
quadrature points last, to 1e-14 of the largest entry.  The bilinear
integrals of the study Jacobians and of the extra integrands' derivatives
are checked against it too, so a bilinear kernel that leaves the
materialized tape has its oracle.
"""

import numpy as np
import pytest

import conftest
from multifem import fe, forms
from multifem import mesh as mm
from multifem.compile import CompileError, execute_kernel

QUAD = mm.CellType.QUADRILATERAL
RTOL = 1e-14
plus = lambda e: forms.restrict(e, "+")  # noqa: E731
minus = lambda e: forms.restrict(e, "-")  # noqa: E731


def factored_element_tensors(asm, integral):
    plan = asm._plan_for(integral)
    w = [coeff.values[dofs] for (coeff, *_), dofs
         in zip(plan.kernel.coeff_slots, plan.coeff_dofs)]
    return execute_kernel(plan.kernel, plan.geometry, w)


def assert_matches_oracle(asm, integral):
    got = factored_element_tensors(asm, integral)
    want = conftest.materialized_element_tensors(integral)
    assert got.shape == want.shape
    scale = np.abs(want).max()
    assert scale > 0
    assert np.abs(got - want).max() <= RTOL * scale, integral


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("problem", ["quad-tri", "split-interface"])
def test_residual_integrals_match_the_materialized_oracle(asm, studies,
                                                          problem, degree):
    built = studies.build_problem(problem, degree, 1)
    rng = np.random.default_rng(degree)
    built.u.values[:] = rng.standard_normal(built.space.num_dofs)
    for integral in built.residual.integrals:
        assert asm._plan_for(integral).kernel.terms is not None
        assert_matches_oracle(asm, integral)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("problem", ["quad-tri", "split-interface"])
def test_jacobian_integrals_match_the_materialized_oracle(asm, studies,
                                                          problem, degree):
    built = studies.build_problem(problem, degree, 1)
    jacobian = forms.derivative(built.residual, built.u)
    assert len(jacobian.integrals) >= 5
    for integral in jacobian.integrals:
        assert asm._plan_for(integral).kernel.arity == 2
        assert_matches_oracle(asm, integral)


def extra_forms():
    """Integrands beyond the residuals': products of scalars and vectors on
    both sides of the argument, facet normals, +/- restrictions on interior
    facets, Constant and Analytic factors, a codim-1 participant, a vector
    element and functionals."""
    bg = mm.build_split_unit_square(1)
    ml, _ = mm.extract_codim0_submesh(bg, 1)
    mr, _ = mm.extract_codim0_submesh(bg, 2)
    full, _ = mm.extract_codim0_submesh(bg, (1, 2))
    mi, _ = mm.extract_codim1_submesh(bg, mm.INTERFACE_MARKER)
    q2 = fe.make_element(QUAD, "Q", 2)
    V = conftest.make_space(
        [ml, mi, mr, full],
        [q2, fe.make_element(mm.CellType.INTERVAL, "P", 2), q2, q2])
    W = conftest.make_space(
        [ml], [fe.make_element(QUAD, "Q", 2, value_shape=(2,))])
    u, w = forms.Coefficient(V), forms.Coefficient(W)
    rng = np.random.default_rng(5)
    u.values[:] = rng.standard_normal(V.num_dofs)
    w.values[:] = rng.standard_normal(W.num_dofs)
    ul, ui, ur, uf = forms.split(u)
    vl, vi, vr, vf = forms.split(forms.TestFunction(V))
    (w0,) = forms.split(w)
    (vw,) = forms.split(forms.TestFunction(W))
    nl, nr, nf = (forms.FacetNormal(m) for m in (ml, mr, full))
    dxl = forms.Measure("dx", ml)
    dsl = forms.Measure("ds", ml)
    dSf = forms.Measure("dS", full)
    dz = forms.Measure("dx", mi, intersect_measures=(forms.Measure("ds", ml),
                                                     forms.Measure("ds", mr)))
    f = forms.Analytic(ml, lambda x, y: 1.0 + x * y * y)
    c = forms.Constant(2.5)
    grad, inner = forms.grad, forms.inner
    return [
        # scalar x vector: a free vector times the test function, the test
        # gradient times free scalars
        inner(grad(ul), grad(ul) * vl) * dxl,
        inner(ul * grad(ul), grad(vl)) * dxl,
        inner(c * grad(vl), grad(ul)) * ul * dxl,
        (vl * inner(grad(ul), grad(ul)) - inner(grad(vl), grad(ul))) * dxl,
        # a vector times a contracted test term, contracted again
        inner(inner(grad(ul), grad(vl)) * grad(ul), grad(ul) + c * nl) * dsl,
        inner(grad(ul), ul * (inner(grad(vl), nl) * nl)) * dsl,
        # facet normals
        inner(grad(vl), nl) * ul * dsl,
        inner(grad(ul), nl * vl) * dsl,
        inner(vl * nl + ul * grad(vl), grad(ul) + nl) * dsl,
        # restrictions on interior facets
        (plus(vf) - minus(vf)) * inner(plus(grad(uf)) + minus(grad(uf)),
                                       plus(nf)) * dSf,
        inner(plus(grad(vf)), minus(nf)) * minus(uf) * dSf,
        inner(minus(grad(vf)) - plus(grad(vf)), plus(grad(uf))) * dSf,
        # Constant and Analytic
        c * f * vl * dxl,
        f * inner(grad(ul), grad(vl)) * dxl - c * vl * dxl,
        # a codim-1 participant
        ui * (vl - vr) * dz,
        inner(grad(ul), nl) * vi * dz + ui * inner(grad(vr), nr) * dz,
        c * ui * ui * vi * dz,
        # a vector element
        inner(w0, vw) * dxl,
        inner(grad(w0), grad(vw)) * f * dxl,
        inner(vw, nl) * inner(w0, nl) * dsl,
        # functionals
        ul * ul * f * dxl,
        plus(uf) * minus(uf) * dSf,
        inner(grad(ul), nl) * ui * c * dz,
    ]


def test_extra_integrands_match_the_materialized_oracle(asm):
    integrals = [itg for form in extra_forms() for itg in form.integrals]
    assert len(integrals) > 20
    for integral in integrals:
        assert_matches_oracle(asm, integral)


def coefficients(form):
    return {node.function for itg in form.integrals
            for node in forms.walk(itg.integrand)
            if isinstance(node, forms.Indexed)
            and isinstance(node.function, forms.Coefficient)}


def test_extra_bilinear_integrands_match_the_materialized_oracle(asm):
    # the derivatives of the extra linear forms: trial functions beside
    # coefficients, +/- restrictions on dS, a vector element and facet
    # normal products
    integrals = []
    for form in extra_forms():
        if 0 not in form.arguments():
            continue  # a functional
        for coeff in coefficients(form):
            integrals += forms.derivative(form, coeff).integrals
    assert len(integrals) == 20
    kinds = {itg.measure.integral_type for itg in integrals}
    assert kinds == {"dx", "ds", "dS"}
    for integral in integrals:
        assert asm._plan_for(integral).kernel.arity == 2
        assert_matches_oracle(asm, integral)


def stiffness_forms():
    """Integrands kappa grad w . grad v on the primal cells: non-affine
    quadrilaterals, kappa = 1 + u^2 on either side of the inner product and
    a Constant kappa, and a P1 coefficient against a P2 test function on
    triangles."""
    ml, _ = mm.extract_codim0_submesh(
        conftest.warp(mm.build_split_unit_square(1)), 1)
    mt, _ = mm.extract_codim0_submesh(mm.build_hybrid_unit_square(1), 2)
    V, W, P2 = (conftest.scalar_space(m, family, degree) for m, family,
                degree in ((ml, "Q", 2), (mt, "P", 1), (mt, "P", 2)))
    u, w = forms.Coefficient(V), forms.Coefficient(W)
    rng = np.random.default_rng(7)
    u.values[:] = rng.standard_normal(V.num_dofs)
    w.values[:] = rng.standard_normal(W.num_dofs)
    (u0,), (w1,) = forms.split(u), forms.split(w)
    (v0,), (v2,) = (forms.split(forms.TestFunction(S)) for S in (V, P2))
    grad, inner = forms.grad, forms.inner
    kappa = 1 + u0 * u0
    dx = forms.Measure("dx", ml)
    return [
        inner(grad(u0), grad(v0)) * dx,
        kappa * inner(grad(u0), grad(v0)) * dx,
        inner(kappa * grad(u0), grad(v0)) * dx,
        inner(grad(u0), kappa * grad(v0)) * dx,
        forms.Constant(3.0) * inner(grad(u0), grad(v0)) * dx,
        inner(grad(w1), grad(v2)) * forms.Measure("dx", mt),
    ]


def test_cell_stiffness_terms_match_the_materialized_oracle(asm):
    for form in stiffness_forms():
        (integral,) = form.integrals
        assert not asm._plan_for(integral).kernel.static
        assert_matches_oracle(asm, integral)


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("problem", ["quad-tri", "split-interface"])
def test_the_residual_moves_by_the_jacobian_action(asm, studies, problem,
                                                   degree):
    # the residual's term contractions and the materialized Jacobian sum
    # in different orders; F is linear in u, so r(u) - r(0) = J u up to
    # roundoff
    built = studies.build_problem(problem, degree, 1)
    J = asm.assemble(forms.derivative(built.residual, built.u))
    built.u.values[:] = 0.0
    r0 = asm.assemble(built.residual)
    u = np.random.default_rng(degree).standard_normal(built.space.num_dofs)
    built.u.values[:] = u
    r = asm.assemble(built.residual)
    assert np.abs(r - r0 - J @ u).max() <= 1e-12 * np.abs(r).max()


def test_warm_functional_and_vector_follow_the_coefficient(asm):
    # the terms are re-contracted on every assembly
    forms_ = extra_forms()
    functional, vector = forms_[-3], forms_[1]
    u = next(node for node in forms.walk(functional.integrals[0].integrand)
             if isinstance(node, forms.Indexed)).function
    first = asm.assemble(functional), asm.assemble(vector)
    u.values *= -2.0  # quadratic in u: exact scalings
    second = asm.assemble(functional), asm.assemble(vector)
    assert second[0] == 4.0 * first[0]
    assert np.array_equal(second[1], 4.0 * first[1])


class TestFactoringContracts:
    @staticmethod
    def setup():
        m = conftest.single_cell_mesh(
            QUAD, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
        V = conftest.scalar_space(m, "Q", 1)
        u = forms.Coefficient(V)
        (u0,) = forms.split(u)
        (v0,) = forms.split(forms.TestFunction(V))
        (t0,) = forms.split(forms.TrialFunction(V))
        return m, u0, v0, t0

    @pytest.mark.parametrize("case", range(4))
    def test_a_sum_of_different_argument_dependencies_raises(self, asm,
                                                             case):
        # v + 1 is not linear in v: assembling it would give the integral
        # of (phi_i + 1) per dof, a wrong number rather than an error
        m, u0, v0, t0 = self.setup()
        grad, inner = forms.grad, forms.inner
        integrand = [v0 + forms.Constant(1.0), t0 + v0, (v0 + u0) * u0,
                     inner(grad(v0) + grad(t0), grad(u0))][case]
        with pytest.raises(CompileError, match="sum mixes"):
            asm.assemble(integrand * forms.Measure("dx", m))

    @pytest.mark.parametrize("degree", [13, 30, -1])
    def test_an_explicit_quadrature_degree_outside_the_rules_raises(
            self, asm, degree):
        # a degree above the highest rule must not run a lower one
        m, _, v0, _ = self.setup()
        dx = forms.Measure("dx", m, quadrature_degree=degree)
        with pytest.raises(ValueError, match=rf"dx\({m.id}\).*quadrature "
                                             rf"degree {degree}"):
            asm.assemble(v0 * dx)

    def test_the_highest_quadrature_degree_still_assembles(self, asm):
        m, _, v0, _ = self.setup()
        dx = forms.Measure("dx", m, quadrature_degree=fe.MAX_QUADRATURE_DEGREE)
        assert asm.assemble(v0 * dx).sum() == pytest.approx(1.0, abs=1e-14)
