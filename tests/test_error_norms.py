"""Error norms as two functionals through the one kernel path.

error_norms assembles (u_k - u)^2 dx and |grad u_k - grad u|^2 dx, the
exact gradient entering as a vector Analytic.  Checked here: the vector
Analytic and its shape errors, subexpressions shared within an integrand
compiled once, and the norms against oracles that do not run the
library's geometry: sympy closed forms and linear functions, which Q1 and
P1 reproduce exactly, on affine and non-affine cells.
"""

import math

import numpy as np
import pytest
import sympy

import conftest
from multifem import fe, forms
from multifem import mesh as mm
from multifem.compile import CompileError, compile_integral

TRI = mm.CellType.TRIANGLE
QUAD = mm.CellType.QUADRILATERAL


def hybrid_space(degree):
    """Q_p on the quadrilaterals (x < 0.5) and P_p on the triangles
    (x > 0.5) of the level-0 hybrid unit square."""
    parent = mm.build_hybrid_unit_square(0)
    mq, _ = mm.extract_codim0_submesh(parent, 1)
    mt, _ = mm.extract_codim0_submesh(parent, 2)
    return conftest.make_space([mq, mt], [fe.make_element(QUAD, "Q", degree),
                                          fe.make_element(TRI, "P", degree)])


def left_half(level=0, warped=False):
    parent = mm.build_split_unit_square(level)
    if warped:
        parent = conftest.warp(parent)
    return mm.extract_codim0_submesh(parent, 1)[0]


class TestVectorAnalytic:
    @pytest.mark.parametrize("shape", [(3,), (2, 2), (1,)])
    def test_shape_outside_scalar_and_pair_raises_when_made(self, shape):
        with pytest.raises(ValueError, match="shape must be"):
            forms.Analytic(left_half(), lambda x, y: x, shape=shape)

    def test_pair_of_constants_integrates(self, asm):
        m = left_half()
        a = forms.Analytic(m, lambda x, y: (1.0, 2.0), shape=(2,))
        value = asm.assemble(forms.inner(a, a) * forms.Measure("dx", m))
        assert value == pytest.approx(5.0 * 0.5, rel=1e-14)

    def test_divergence_theorem_in_a_linear_form(self, asm):
        # int A . grad v dx = int v A . n ds - int v div A dx, A = (x, y)
        m = left_half(warped=True)
        V = conftest.scalar_space(m, "Q", 2)
        (v,) = forms.split(forms.TestFunction(V))
        a = forms.Analytic(m, lambda x, y: (x, y), shape=(2,))
        dx, ds = forms.Measure("dx", m), forms.Measure("ds", m)
        lhs = asm.assemble(forms.inner(a, forms.grad(v)) * dx)
        rhs = (asm.assemble(forms.inner(a, forms.FacetNormal(m)) * v * ds)
               - asm.assemble(2.0 * v * dx))
        assert np.abs(lhs - rhs).max() <= 1e-13 * np.abs(lhs).max()

    @pytest.mark.parametrize("fn", [lambda x, y: (x, y),
                                    lambda x, y: (1.0, 2.0)],
                             ids=["arrays", "scalars"])
    def test_pair_from_a_scalar_analytic_raises(self, asm, fn):
        m = left_half()
        source = forms.Analytic(m, fn)
        with pytest.raises(CompileError,
                           match=rf"{source!r} must return one value .*"
                                 r"shape \(\)"):
            asm.assemble(source * forms.Measure("dx", m))

    @pytest.mark.parametrize("fn", [lambda x, y: x, lambda x, y: 1.0,
                                    lambda x, y: (x, y, x)],
                             ids=["array", "scalar", "triple"])
    def test_non_pair_from_a_vector_analytic_raises(self, asm, fn):
        m = left_half()
        source = forms.Analytic(m, fn, shape=(2,))
        with pytest.raises(CompileError,
                           match=rf"{source!r} must return a pair .*"
                                 r"shape \(2,\)"):
            asm.assemble(forms.inner(source, source)
                         * forms.Measure("dx", m))


class TestSharedSubexpressions:
    def test_a_squared_difference_is_evaluated_once(self):
        m = left_half()
        (u,) = forms.split(forms.Coefficient(conftest.scalar_space(m, "Q", 1)))
        e = u - forms.Analytic(m, lambda x, y: x)
        tape = compile_integral((e * e * forms.Measure("dx", m)).integrals[0]
                                ).tape
        ops = [instr[0] for instr in tape]
        assert ops.count("analytic") == 1 and ops.count("cval") == 1

    def test_restrictions_of_one_expression_stay_apart(self):
        m = mm.build_split_unit_square(0)
        (u,) = forms.split(forms.Coefficient(conftest.scalar_space(m, "Q", 1)))
        jump = forms.restrict(u, "+") - forms.restrict(u, "-")
        integral = (jump * jump * forms.Measure("dS", m)).integrals[0]
        sides = sorted(instr[3] for instr in compile_integral(integral).tape
                       if instr[0] == "cval")
        assert sides == [0, 1]

    def test_sources_are_called_once_per_entity_block(self, asm, comp,
                                                      studies, monkeypatch):
        # small blocks, so that there are several
        monkeypatch.setattr(comp, "_BLOCK_VALUES", 256)
        V = conftest.scalar_space(left_half(), "Q", 1)
        u = forms.Coefficient(V)
        asm.interpolate(studies.exact_solution, u, 0)
        calls = {"exact": 0, "grad": 0}

        def exact(x, y):
            calls["exact"] += 1
            return studies.exact_solution(x, y)

        def exact_grad(x, y):
            calls["grad"] += 1
            return studies.exact_gradient(x, y)

        errors = asm.error_norms(u, 0, exact, exact_grad)
        (uk,) = forms.split(u)
        dx = forms.Measure("dx", V.meshes[0], quadrature_degree=2 * 1 + 4)

        def blocks(integrand):  # of a kernel with the same registers
            kernel = compile_integral((integrand * dx).integrals[0])
            return math.ceil(V.meshes[0].num_cells / kernel.block_size)

        assert blocks(uk * uk) > 1
        assert calls == {"exact": blocks(uk * uk),
                         "grad": blocks(forms.inner(forms.grad(uk),
                                                    forms.grad(uk)))}
        monkeypatch.undo()
        assert errors == pytest.approx(
            asm.error_norms(u, 0, studies.exact_solution,
                            studies.exact_gradient), rel=1e-14)


def closed_form(degree):
    """A polynomial of degree p + 2, whose square and squared gradient the
    error norms' degree-2p+4 rule integrates exactly."""
    x, y = sympy.symbols("x y")
    if degree == 1:
        return x, y, x**2 * y - 2 * x * y**2 + 3 * x - y + 1
    return x, y, x**3 * y - x * y**3 + x**2 - 2 * y + 1


class TestErrorNormOracles:
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("component, xrange", [(0, (0, 0.5)),
                                                   (1, (0.5, 1))],
                             ids=["quadrilaterals", "triangles"])
    def test_zero_against_a_polynomial_is_its_sympy_norm(
            self, asm, degree, component, xrange):
        x, y, f = closed_form(degree)
        grad = (sympy.diff(f, x), sympy.diff(f, y))
        region = ((y, 0, 1), (x, *xrange))
        l2_sq = float(sympy.integrate(f**2, *region))
        semi_sq = float(sympy.integrate(grad[0]**2 + grad[1]**2, *region))
        exact = sympy.lambdify((x, y), f, "numpy")
        exact_grad = sympy.lambdify((x, y), grad, "numpy")
        u = forms.Coefficient(hybrid_space(degree))
        l2, h1 = asm.error_norms(u, component, exact, exact_grad)
        assert l2 == pytest.approx(math.sqrt(l2_sq), rel=1e-12)
        assert h1 == pytest.approx(math.sqrt(l2_sq + semi_sq), rel=1e-12)

    @pytest.mark.parametrize("mesh", ["affine quadrilaterals", "triangles",
                                      "non-affine quadrilaterals"])
    def test_linear_functions_are_reproduced_at_p1(self, asm, mesh):
        if mesh == "triangles":
            V = hybrid_space(1)
            component = 1
        else:
            m = left_half(level=1, warped=mesh.startswith("non"))
            V = conftest.scalar_space(m, "Q", 1)
            component = 0
        u = forms.Coefficient(V)
        asm.interpolate(lambda x, y: 2 * x - 3 * y + 0.5, u, component)
        l2, h1 = asm.error_norms(u, component,
                                 lambda x, y: 2 * x - 3 * y + 0.5,
                                 lambda x, y: (2.0, -3.0))
        assert l2 <= 1e-13 and h1 <= 1e-13
