"""End-to-end acceptance checks at pinned tolerances.

One test per criterion; each prints a single ``criterion N (<label>):
PASS|FAIL`` line (collected in the run summary) before asserting, so a full
run produces one verdict line per criterion.
"""

import math
import time

import numpy as np
import pytest

import conftest
from multifem import fe, forms
from multifem import mesh as meshmod


def verdict(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module")
def quad_tri_study(studies):
    start = time.perf_counter()
    report = studies.run_study(studies.StudyConfig(
        "quad-tri", degrees=(1, 2), refinements=(0, 1, 2, 3)))
    return report, time.perf_counter() - start


@pytest.fixture(scope="module")
def split_study(studies):
    start = time.perf_counter()
    report = studies.run_study(studies.StudyConfig(
        "split-interface", degrees=(1, 2), refinements=(0, 1, 2, 3)))
    return report, time.perf_counter() - start


def finest_rates(studies, report):
    """(rate_L2, rate_H1) between the two finest levels, per degree."""
    table = studies.tabulate_report(report)
    return {p: (r2, r1) for (p, n, _, r2, _, r1, _) in table if n == 3}


def test_criterion_1_quad_tri_convergence_rates(studies, quad_tri_study):
    report, elapsed = quad_tri_study
    rates = finest_rates(studies, report)
    ok = not report.failures() and elapsed <= 300.0
    for p in (1, 2):
        rate_l2, rate_h1 = rates[p]
        ok = ok and abs(rate_l2 - (p + 1)) <= 0.10
        ok = ok and abs(rate_h1 - p) <= 0.10
    assert verdict(1, "quad-tri convergence rates", ok), (rates, elapsed)


def test_criterion_2_split_interface_convergence_rates(studies, split_study):
    report, elapsed = split_study
    rates = finest_rates(studies, report)
    ok = not report.failures() and elapsed <= 300.0
    for p in (1, 2):
        rate_l2, rate_h1 = rates[p]
        ok = ok and abs(rate_l2 - (p + 1)) <= 0.15
        ok = ok and abs(rate_h1 - p) <= 0.15
    assert verdict(2, "split-interface convergence rates", ok), (rates,
                                                                 elapsed)


def test_criterion_3_elimination_equivalence(studies, asm):
    start = time.perf_counter()
    split = studies.build_split_interface_problem(1, 0)
    A = asm.assemble(forms.derivative(split.residual, split.u))
    reduced = asm.eliminate_component(A, split.space.offsets,
                                      split.aux_component,
                                      np.zeros(A.shape[0]))
    S = conftest.dense_schur_complement(reduced)
    # directly assembled interior-penalty operator on the same meshes
    direct = studies.build_sipg_problem(
        split.space.meshes[0], split.space.element[0],
        split.space.meshes[2], split.space.element[2],
        studies.DEFAULT_PENALTY, studies.mesh_size(0))
    D = asm.assemble(forms.derivative(direct.residual, direct.u)).toarray()
    elapsed = time.perf_counter() - start
    rel = np.abs(S - D).max() / np.abs(D).max()
    ok = rel <= 1e-10 and elapsed <= 10.0
    assert verdict(3, "schur complement equals interior penalty", ok), (
        rel, elapsed)


def test_criterion_4_jacobian_matches_finite_differences(studies, asm):
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    eps = 1e-6
    worst = 0.0
    for name in studies.PROBLEMS:
        problem = studies.build_problem(name, 1, 0)
        u = problem.u
        u.values[:] = rng.normal(scale=0.5, size=len(u.values))
        J = asm.assemble(forms.derivative(problem.residual, u))
        base = u.values.copy()
        for _ in range(5):
            d = rng.normal(size=len(base))
            d /= np.linalg.norm(d)
            u.values[:] = base + eps * d
            r_plus = asm.assemble(problem.residual)
            u.values[:] = base - eps * d
            r_minus = asm.assemble(problem.residual)
            u.values[:] = base
            fd = (r_plus - r_minus) / (2 * eps)
            Jd = J @ d
            worst = max(worst,
                        np.abs(Jd - fd).max() / max(np.abs(Jd).max(), 1e-30))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed <= 30.0
    assert verdict(4, "jacobian matches finite differences", ok), (worst,
                                                                   elapsed)


def test_criterion_5_component_sum_equals_monolithic(studies, asm):
    start = time.perf_counter()
    worst = 0.0
    for name in studies.PROBLEMS:
        problem = studies.build_problem(name, 1, 0)
        u = problem.u
        whole = asm.assemble(forms.derivative(problem.residual, u)).toarray()
        parts = sum(
            asm.assemble(forms.derivative(problem.residual, u,
                                          component=m)).toarray()
            for m in range(len(u.space.meshes)))
        worst = max(worst, np.abs(whole - parts).max() / np.abs(whole).max())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-14 and elapsed <= 30.0
    assert verdict(5, "component-sum equals monolithic derivative", ok), (
        worst, elapsed)


def test_criterion_6_iteration_sets_match_brute_force(studies, asm):
    ok = True
    checked = 0
    for name in studies.PROBLEMS:
        for level in (0, 1):
            problem = studies.build_problem(name, 1, level)
            integrals = conftest.distinct_intersection_integrals(
                problem.residual)
            for itg in integrals:
                mine = sorted(asm.iteration_set(itg))
                oracle = conftest.brute_force_iteration_set(itg)
                ok = ok and len(mine) > 0 and mine == oracle
                checked += 1
    ok = ok and checked == 6  # 2 + 2 quad-tri, 1 + 1 split-interface
    assert verdict(6, "intersection iteration sets", ok), checked


def test_criterion_7_restriction_validator_catalog():
    ok = True
    for name, form, expected in conftest.validator_cases():
        messages = [d.message for d in forms.validate_form(form)]
        if not expected:
            ok = ok and messages == []
        else:
            ok = ok and bool(messages) and all(
                any(fragment in m for m in messages) for fragment in expected)
    assert verdict(7, "restriction validator catalog", ok)


def test_criterion_8_interior_penalty_operator_symmetry(studies, asm):
    worst = 0.0
    for p in (1, 2):
        for n in range(4):
            problem = studies.build_quad_tri_problem(p, n)
            A = asm.assemble(forms.derivative(problem.residual, problem.u))
            worst = max(worst, abs(A - A.T).max() / abs(A).max())
    ok = worst <= 1e-12
    assert verdict(8, "interior-penalty operator symmetry", ok), worst


def test_criterion_9_property_suites(studies, asm):
    start = time.perf_counter()
    ok = True

    # entity-map composition laws: extraction of everything is the identity,
    # nested extraction composes to the direct one, composition is
    # associative on synthetic injective maps.
    bg = meshmod.build_hybrid_unit_square(0)
    both, to_parent = meshmod.extract_codim0_submesh(bg, (1, 2))
    ok = ok and np.array_equal(to_parent.table, np.arange(bg.num_cells))
    quads_nested, nested_map = meshmod.extract_codim0_submesh(both, 1)
    quads_direct, direct_map = meshmod.extract_codim0_submesh(bg, 1)
    composed = meshmod.compose_maps(nested_map, to_parent)
    ok = ok and np.array_equal(composed.table, direct_map.table)
    ok = ok and composed.kind == "cell->cell"
    rng = np.random.default_rng(23)
    sizes = sorted(rng.integers(2, 9, size=4).tolist())
    maps = [meshmod.EntityMap(i, i + 1, "cell->cell",
                              rng.permutation(sizes[i + 1])[:sizes[i]])
            for i in range(3)]
    left = meshmod.compose_maps(meshmod.compose_maps(maps[0], maps[1]),
                                maps[2])
    right = meshmod.compose_maps(maps[0],
                                 meshmod.compose_maps(maps[1], maps[2]))
    ok = ok and np.array_equal(left.table, right.table)
    ok = ok and len(np.unique(left.table)) == len(left.table)

    # kernel purity: repeated assembly is bit-identical
    problem = studies.build_quad_tri_problem(1, 0)
    J = forms.derivative(problem.residual, problem.u)
    A1, A2 = asm.assemble(J), asm.assemble(J)
    ok = (ok and np.array_equal(A1.data, A2.data)
          and np.array_equal(A1.indices, A2.indices)
          and np.array_equal(A1.indptr, A2.indptr))

    # quadrature monomial exactness on every reference cell
    closed_forms = {
        meshmod.CellType.INTERVAL:
            lambda a, b: 1.0 / (a + 1) if b == 0 else None,
        meshmod.CellType.QUADRILATERAL:
            lambda a, b: 1.0 / ((a + 1) * (b + 1)),
        meshmod.CellType.TRIANGLE:
            lambda a, b: (math.factorial(a) * math.factorial(b)
                          / math.factorial(a + b + 2)),
    }
    for cell, exact in closed_forms.items():
        for degree in range(1, 13):
            rule = fe.make_quadrature(cell, degree)
            x = rule.points[:, 0]
            y = rule.points[:, 1] if rule.points.shape[1] > 1 else 0 * x
            for a in range(degree + 1):
                for b in range(degree + 1 - a):
                    value = exact(a, b)
                    if value is None:
                        continue
                    approx = float(np.dot(rule.weights, x ** a * y ** b))
                    ok = ok and abs(approx - value) <= 1e-13

    # nodal bases evaluate to the identity at their own nodes
    for cell, family in ((meshmod.CellType.INTERVAL, "P"),
                         (meshmod.CellType.TRIANGLE, "P"),
                         (meshmod.CellType.QUADRILATERAL, "Q")):
        for degree in range(1, 5):
            elem = fe.make_element(cell, family, degree)
            values, _ = elem.tabulate(elem.node_points)
            ok = ok and np.abs(values - np.eye(elem.num_dofs)).max() <= 1e-12

    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 60.0
    assert verdict(9, "property suites", ok), elapsed
