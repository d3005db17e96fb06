"""Pure Analytic sources and constants compiled once per kernel.

Analytic(mesh, fn, pure=True) promises that fn returns the same values on
every call, so a kernel whose only changing input is pure sources is
static: it runs on a form's first assembly and its entries are kept, as a
Constant's are.  The default stays impure and is evaluated on every
assembly.  Checked here: the source evaluations counted over warm pairs,
static decided from the tape, the frozen attributes, and residuals with
pure sources against impure ones.  Constants of one value, and
instructions in general, are emitted once per kernel.
"""

import numpy as np
import pytest

import conftest
from multifem import forms
from multifem import mesh as mm
from multifem.compile import compile_integral


def left_half():
    parent = mm.build_split_unit_square(1)
    m, _ = mm.extract_codim0_submesh(parent, 1)
    return m, conftest.scalar_space(m, "Q", 1)


def impure_sources(monkeypatch, studies):
    """Make the study builders mark their sources impure."""
    monkeypatch.setattr(studies, "Analytic",
                        lambda mesh, fn, pure: forms.Analytic(mesh, fn))


class TestPureSources:
    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "impure"])
    def test_source_calls_over_warm_pairs(self, asm, studies, monkeypatch,
                                          pure):
        calls = []

        def counted(x, y):
            calls.append(x.shape)
            return studies.exact_solution(x, y)

        monkeypatch.setattr(studies, "source_term", counted)
        if not pure:
            impure_sources(monkeypatch, studies)
        problem = studies.build_problem("quad-tri", 1, 1)
        jacobian = forms.derivative(problem.residual, problem.u)
        rng = np.random.default_rng(4)
        counts = []
        for _ in range(4):  # the set-up pair, then three warm pairs
            asm.assemble(problem.residual)
            asm.assemble(jacobian, problem.bcs)
            counts.append(len(calls))
            problem.u.values[:] = rng.standard_normal(problem.space.num_dofs)
        first = counts[0]
        assert first > 0
        assert counts == ([first] * 4 if pure
                          else [first, 2 * first, 3 * first, 4 * first])

    def test_static_is_decided_from_the_tape(self, asm):
        m, V = left_half()
        (u,) = forms.split(forms.Coefficient(V))
        (v,) = forms.split(forms.TestFunction(V))
        dx = forms.Measure("dx", m)
        source = forms.Analytic(m, lambda x, y: x * y, pure=True)
        for form, static in ((source * v * dx, True),
                             (source * u * v * dx, False)):
            (integral,) = form.integrals
            assert asm._plan_for(integral).static is static

    def test_attributes_are_read_only(self):
        m, _ = left_half()

        def fn(x, y):
            return x

        source = forms.Analytic(m, fn, pure=True)
        for name, value in (("fn", lambda x, y: y), ("shape", (2,)),
                            ("pure", False)):
            with pytest.raises(AttributeError, match="read-only"):
                setattr(source, name, value)
        assert (source.fn, source.shape, source.pure) == (fn, (), True)

    @pytest.mark.parametrize("pure", [1, 0, "yes", None])
    def test_pure_must_be_a_bool(self, pure):
        m, _ = left_half()
        with pytest.raises(TypeError, match="pure must be a bool"):
            forms.Analytic(m, lambda x, y: x, pure=pure)

    @pytest.mark.parametrize("name", ["quad-tri", "split-interface"])
    @pytest.mark.parametrize("degree", [1, 2])
    def test_pure_and_impure_residuals_agree(self, asm, studies, monkeypatch,
                                             name, degree):
        pure = studies.build_problem(name, degree, 1)
        impure_sources(monkeypatch, studies)
        impure = studies.build_problem(name, degree, 1)
        for problem, static in ((pure, 2), (impure, 0)):
            assert sum(asm._plan_for(i).static
                       for i in problem.residual.integrals) == static
        rng = np.random.default_rng(6)
        for _ in range(2):
            values = rng.standard_normal(pure.space.num_dofs)
            pure.u.values[:] = impure.u.values[:] = values
            r, expected = (asm.assemble(pure.residual),
                           asm.assemble(impure.residual))
            assert (np.abs(r - expected).max()
                    <= 1e-14 * np.abs(expected).max())


class TestConstantsOncePerKernel:
    def test_equal_constants_share_one_instruction(self):
        m, V = left_half()
        (u,) = forms.split(forms.Coefficient(V))
        (v,) = forms.split(forms.TestFunction(V))
        integrand = (forms.Constant(-1.0) * u + forms.Constant(-1.0) * u * u
                     + forms.Constant(0.0) * u + forms.Constant(-0.0) * u)
        tape = compile_integral((integrand * v
                                 * forms.Measure("dx", m)).integrals[0]).tape
        consts = [instr[1] for instr in tape if instr[0] == "const"]
        assert consts.count(-1.0) == 1
        # 0.0 and -0.0 are equal but not the same bits
        assert sorted(np.signbit(c) for c in consts if c == 0.0) == [0, 1]

    def test_study_tapes_emit_each_constant_once(self, studies):
        # both problems, residual and Jacobian, p <= 3, n = 2: each
        # subtraction's Constant(-1.0) used to take an instruction of its
        # own, and the interface flux's 0.5 * jump(u) one per test term
        count = 0
        for name in ("quad-tri", "split-interface"):
            for degree in (1, 2, 3):
                problem = studies.build_problem(name, degree, 2)
                jacobian = forms.derivative(problem.residual, problem.u)
                for form in (problem.residual, jacobian):
                    for integral in form.integrals:
                        tape = compile_integral(integral).tape
                        consts = [i[1] for i in tape if i[0] == "const"]
                        assert len(consts) == len(set(consts))
                        shown = [repr(instr) for instr in tape]
                        assert len(shown) == len(set(shown))
                        count += len(tape)
        assert count == 642
