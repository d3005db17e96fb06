"""Both studies on a warped background: non-affine geometry under a study.

The study meshes are axis-aligned, so the bilinear point pullback and the
pointwise Jacobians of non-parallelogram quadrilaterals would otherwise
run in unit tests only.  conftest.warp moves the background by
x, y += 0.04 sin 2 pi x sin 2 pi y before the submeshes are extracted;
triangles stay affine.  The meshes refine as asymptotic parallelograms,
so Q_p keeps its optimal rates (Arnold, Boffi & Falk, Math. Comp. 71,
2002), and the bounds are those of acceptance criteria 1-3.
"""

import numpy as np
import pytest

import conftest
from multifem import fe, forms
from multifem.mesh import CellType

# (rate bound of criterion 1 or 2) per problem
RATE_BOUND = {"quad-tri": 0.10, "split-interface": 0.15}


@pytest.fixture(scope="module")
def pullback_steps(comp):
    """Collects, per batched quadrilateral pullback, its Newton steps: the
    Jacobian evaluations it makes.  Points converge independently and the
    batch stops when the last one has, so k steps mean some point, and so
    some entity, took k."""
    steps = []
    align, jacobian = comp.align_interface_quadrature, fe.geometry_jacobian
    inside = []

    def counting_align(phys, cell_type, vertices):
        if CellType(cell_type) is not CellType.QUADRILATERAL:
            return align(phys, cell_type, vertices)
        steps.append(0)
        inside.append(True)
        try:
            return align(phys, cell_type, vertices)
        finally:
            inside.pop()

    def counting_jacobian(*args):
        if inside:
            steps[-1] += 1
        return jacobian(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(comp, "align_interface_quadrature", counting_align)
        patch.setattr(fe, "geometry_jacobian", counting_jacobian)
        yield steps


@pytest.fixture(scope="module")
def warped_reports(studies, pullback_steps):
    reports = {}
    with conftest.warped_studies():
        for problem in RATE_BOUND:
            reports[problem] = studies.run_study(studies.StudyConfig(
                problem=problem, degrees=(1, 2), refinements=(0, 1, 2, 3),
                solver="lu"))
    return reports, list(pullback_steps)


@pytest.mark.parametrize("problem", list(RATE_BOUND))
def test_warped_study_keeps_optimal_rates(studies, warped_reports, problem):
    report = warped_reports[0][problem]
    assert not report.failures()
    rates = {p: (r2, r1) for (p, n, _, r2, _, r1, _)
             in studies.tabulate_report(report) if n == 3}
    for p in (1, 2):
        rate_l2, rate_h1 = rates[p]
        assert abs(rate_l2 - (p + 1)) <= RATE_BOUND[problem], rates
        assert abs(rate_h1 - p) <= RATE_BOUND[problem], rates


def test_warped_pullback_takes_more_than_one_newton_step(
        studies, asm, warped_reports, pullback_steps):
    # on an axis-aligned mesh every quadrilateral is a parallelogram and
    # Newton is exact after one step
    warped = warped_reports[1]
    assert warped and max(warped) > 1
    del pullback_steps[:]
    problem = studies.build_problem("split-interface", 1, 1)
    asm.assemble(problem.residual)
    assert pullback_steps and max(pullback_steps) == 1


def test_warped_schur_complement_equals_interior_penalty(studies, asm):
    # criterion 3 on the warped level-1 meshes
    with conftest.warped_studies():
        split = studies.build_split_interface_problem(1, 1)
    A = asm.assemble(forms.derivative(split.residual, split.u))
    S = conftest.dense_schur_complement(asm.eliminate_component(
        A, split.space.offsets, split.aux_component, np.zeros(A.shape[0])))
    direct = studies.build_sipg_problem(
        split.space.meshes[0], split.space.element[0],
        split.space.meshes[2], split.space.element[2],
        studies.DEFAULT_PENALTY, studies.mesh_size(1))
    D = asm.assemble(forms.derivative(direct.residual, direct.u)).toarray()
    assert np.abs(S - D).max() <= 1e-10 * np.abs(D).max()
