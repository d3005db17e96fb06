"""Form language: spaces, measures, splitting, derivatives, and validation."""

import numpy as np
import pytest

import conftest
from multifem import fe, forms
from multifem import mesh as mm

TRI = mm.CellType.TRIANGLE
QUAD = mm.CellType.QUADRILATERAL
INTERVAL = mm.CellType.INTERVAL


def two_triangle_square():
    return mm.Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                [0.0, 1.0]]),
                   conftest.cells_of(TRI, [(0, 1, 2), (0, 2, 3)]))


@pytest.fixture()
def hybrid_spaces():
    parent = mm.build_hybrid_unit_square(0)
    mq, _ = mm.extract_codim0_submesh(parent, 1)
    mt, _ = mm.extract_codim0_submesh(parent, 2)
    V = conftest.make_space([mq, mt], [fe.make_element(QUAD, "Q", 1),
                                       fe.make_element(TRI, "P", 1)])
    return parent, mq, mt, V


class TestFunctionSpace:
    def test_single_mesh_linear_space(self):
        V = conftest.scalar_space(two_triangle_square(), "P", 1)
        assert V.num_dofs == 4

    def test_product_space_blocks_are_contiguous(self, hybrid_spaces):
        _, mq, mt, V = hybrid_spaces
        # both halves carry a 6 x 11 grid of vertices at level 0
        assert V.offsets == [0, 66, 132]
        assert V.num_dofs == 132
        assert V.component_slice(0) == slice(0, 66)
        assert V.component_slice(1) == slice(66, 132)

    @pytest.mark.parametrize("component", [-1, 2])
    def test_a_component_out_of_range_raises(self, asm, hybrid_spaces,
                                             component):
        # unchecked, -1 is an empty slice and interpolate would set nothing
        _, _, _, V = hybrid_spaces
        with pytest.raises(IndexError, match=f"component {component} out "
                                             f"of range"):
            asm.interpolate(lambda x, y: x, forms.Coefficient(V), component)

    def test_component_dof_count_matches_submesh_vertices(self,
                                                          hybrid_spaces):
        _, mq, mt, V = hybrid_spaces
        assert V.offsets[1] - V.offsets[0] == mq.num_vertices
        assert V.offsets[2] - V.offsets[1] == mt.num_vertices

    def test_quadratic_product_space(self, hybrid_spaces):
        _, mq, mt, _ = hybrid_spaces
        V = conftest.make_space([mq, mt], [fe.make_element(QUAD, "Q", 2),
                                           fe.make_element(TRI, "P", 2)])
        # vertices + one dof per facet (P2) / + facet and cell dofs (Q2)
        assert V.offsets[1] == mq.num_vertices + mq.num_facets + mq.num_cells
        assert V.num_dofs - V.offsets[1] == mt.num_vertices + mt.num_facets

    def test_element_cell_mismatch_rejected(self):
        m = two_triangle_square()
        with pytest.raises(ValueError):
            conftest.make_space([m], [fe.make_element(QUAD, "Q", 1)])

    def test_dof_coords_cover_vertices(self, hybrid_spaces):
        _, mq, _, V = hybrid_spaces
        block = V.dof_coords[V.component_slice(0)]
        have = {tuple(np.round(p, 12)) for p in block}
        want = {tuple(np.round(p, 12)) for p in mq.vertices}
        assert have == want


class TestSplit:
    def test_single_component_split_evaluates_like_parent(self, asm):
        V = conftest.scalar_space(two_triangle_square(), "P", 1)
        u = forms.Coefficient(V)
        u.values[:] = [1.0, 2.0, 3.0, 4.0]
        (u0,) = forms.split(u)
        dx = forms.Measure("dx", V.meshes[0])
        direct = asm.assemble(u * dx)
        through_index = asm.assemble(u0 * dx)
        assert direct == pytest.approx(through_index, abs=1e-15)

    def test_components_reference_the_unbroken_parent(self, hybrid_spaces):
        _, _, _, V = hybrid_spaces
        u = forms.Coefficient(V)
        uq, ut = forms.split(u)
        assert uq.function is u and ut.function is u
        assert (uq.component, ut.component) == (0, 1)

    def test_componentwise_interpolation_and_evaluation(self, asm,
                                                        hybrid_spaces):
        _, mq, mt, V = hybrid_spaces
        u = forms.Coefficient(V)
        asm.interpolate(lambda x, y: 2 * x + y, u, 0)
        asm.interpolate(lambda x, y: x - 3 * y, u, 1)
        l2_q, _ = asm.error_norms(u, 0, lambda x, y: 2 * x + y,
                                  lambda x, y: (2.0, 1.0))
        l2_t, _ = asm.error_norms(u, 1, lambda x, y: x - 3 * y,
                                  lambda x, y: (1.0, -3.0))
        assert l2_q <= 1e-13 and l2_t <= 1e-13


class TestMeasure:
    def test_plain_cell_measure(self):
        m = two_triangle_square()
        dx = forms.Measure("dx", m)
        assert dx.subdomain_id == forms.EVERYWHERE
        assert dx.participants() == [("dx", m)]
        assert not dx.is_facet_measure()

    def test_interface_measure_participants(self, hybrid_spaces):
        _, mq, mt, _ = hybrid_spaces
        ds = forms.Measure("ds", mq, 999,
                           intersect_measures=(forms.Measure("ds", mt),))
        assert ds.is_facet_measure()
        assert [m.id for _, m in ds.participants()] == [mq.id, mt.id]

    def test_mixed_cell_facet_measure(self):
        parent = mm.build_split_unit_square(0)
        ml, _ = mm.extract_codim0_submesh(parent, 1)
        mr, _ = mm.extract_codim0_submesh(parent, 2)
        mi, _ = mm.extract_codim1_submesh(parent, mm.INTERFACE_MARKER)
        dz = forms.Measure("dx", mi, intersect_measures=(
            forms.Measure("ds", ml), forms.Measure("ds", mr)))
        assert [t for t, _ in dz.participants()] == ["dx", "ds", "ds"]
        assert dz.is_facet_measure()

    def test_duplicate_mesh_rejected(self, hybrid_spaces):
        _, mq, _, _ = hybrid_spaces
        with pytest.raises(ValueError):
            forms.Measure("ds", mq,
                          intersect_measures=(forms.Measure("ds", mq),))

    def test_subdomain_on_nested_measure_rejected(self, hybrid_spaces):
        _, mq, mt, _ = hybrid_spaces
        with pytest.raises(ValueError):
            forms.Measure("ds", mq, 999,
                          intersect_measures=(forms.Measure("ds", mt, 4),))

    def test_codim1_mesh_only_integrates_cells(self):
        parent = mm.build_split_unit_square(0)
        mi, _ = mm.extract_codim1_submesh(parent, mm.INTERFACE_MARKER)
        with pytest.raises(ValueError):
            forms.Measure("ds", mi)

    def test_subdomain_call_builds_a_new_measure(self, hybrid_spaces):
        _, mq, _, _ = hybrid_spaces
        ds = forms.Measure("ds", mq)
        assert ds(999).subdomain_id == 999
        assert ds.subdomain_id == forms.EVERYWHERE

    # int() would truncate or parse each of these into marker 1
    @pytest.mark.parametrize("subdomain_id", [1.5, "1", True, np.float64(1.0),
                                              np.bool_(True)])
    def test_non_integer_subdomain_ids_rejected(self, subdomain_id):
        m = mm.build_split_unit_square(0)
        with pytest.raises(TypeError, match="markers are integers"):
            forms.Measure("dx", m, subdomain_id)
        with pytest.raises(TypeError, match="markers are integers"):
            forms.Measure("dx", m)(subdomain_id)

    # numpy would fail at first assembly without naming the measure (2.0,
    # 2.5), "2" would not compare, and True would mean degree 1
    @pytest.mark.parametrize("degree", [2.5, 2.0, "2", True, np.bool_(True),
                                        np.float64(2.0)])
    def test_non_integer_quadrature_degrees_rejected(self, degree):
        m = mm.build_split_unit_square(0)
        with pytest.raises(TypeError, match="quadrature_degree is an "
                                            "integer"):
            forms.Measure("dx", m, quadrature_degree=degree)

    def test_numpy_integer_quadrature_degrees_act_as_ints(self, asm):
        m = mm.build_split_unit_square(0)
        f = forms.Analytic(m, lambda x, y: x ** 5 * y ** 3, pure=True)
        expected = asm.assemble(f * forms.Measure("dx", m,
                                                  quadrature_degree=3))
        for degree in (np.int64(3), np.int32(3), np.uint8(3)):
            dx = forms.Measure("dx", m, quadrature_degree=degree)
            assert type(dx.quadrature_degree) is int
            assert asm.assemble(f * dx) == expected

    def test_numpy_integer_subdomain_ids_integrate_their_marker(self, asm):
        m = mm.build_split_unit_square(0)
        one = forms.Constant(1.0)
        dx = forms.Measure("dx", m)
        half = asm.assemble(one * dx(1))
        assert half == pytest.approx(0.5, abs=1e-14)
        for marker in (np.int64(1), np.int32(1), np.uint8(1)):
            assert asm.assemble(one * dx(marker)) == half
            assert asm.assemble(one * forms.Measure("dx", m, marker)) == half
            assert dx(marker).key() == dx(1).key()


class TestDerivative:
    @pytest.fixture()
    def linear_setup(self):
        V = conftest.scalar_space(two_triangle_square(), "P", 1)
        u = forms.Coefficient(V)
        v = forms.TestFunction(V)
        (u0,), (v0,) = forms.split(u), forms.split(v)
        dx = forms.Measure("dx", V.meshes[0])
        return V, u, u0, v0, dx

    def test_derivative_of_linear_form_is_the_mass_matrix(self, asm,
                                                          linear_setup):
        V, u, u0, v0, dx = linear_setup
        J = forms.derivative(u0 * v0 * dx, u)
        (t0,) = forms.split(forms.TrialFunction(V))
        expected = asm.assemble(t0 * v0 * dx)
        got = asm.assemble(J)
        assert np.allclose(got.toarray(), expected.toarray(), atol=1e-15)

    def test_product_rule(self, asm, linear_setup):
        V, u, u0, v0, dx = linear_setup
        u.values[:] = [0.5, -1.0, 2.0, 0.25]
        J = forms.derivative(u0 * u0 * v0 * dx, u)
        (t0,) = forms.split(forms.TrialFunction(V))
        expected = asm.assemble(2.0 * u0 * t0 * v0 * dx)
        assert np.allclose(asm.assemble(J).toarray(), expected.toarray(),
                           atol=1e-14)

    def test_derivative_is_linear_in_the_form(self, asm, linear_setup):
        V, u, u0, v0, dx = linear_setup
        u.values[:] = [1.0, 2.0, -0.5, 0.0]
        F = u0 * u0 * v0 * dx
        G = forms.inner(forms.grad(u0), forms.grad(v0)) * dx
        combined = forms.derivative(2.0 * F + 3.0 * G, u)
        separate_a = asm.assemble(forms.derivative(F, u)).toarray()
        separate_b = asm.assemble(forms.derivative(G, u)).toarray()
        got = asm.assemble(combined).toarray()
        expected = 2.0 * separate_a + 3.0 * separate_b
        scale = np.abs(expected).max()
        assert np.abs(got - expected).max() <= 1e-14 * scale

    def test_unreferenced_coefficient_gives_empty_form(self, linear_setup):
        V, u, u0, v0, dx = linear_setup
        w = forms.Coefficient(V)
        (w0,) = forms.split(w)
        J = forms.derivative(w0 * v0 * dx, u)
        assert len(J.integrals) == 0

    def test_component_restricted_derivative(self, asm, hybrid_spaces):
        _, mq, mt, V = hybrid_spaces
        u, v = forms.Coefficient(V), forms.TestFunction(V)
        rng = np.random.default_rng(3)
        u.values[:] = rng.uniform(-1, 1, V.num_dofs)
        (uq, ut), (vq, vt) = forms.split(u), forms.split(v)
        dsq = forms.Measure("ds", mq, 999,
                            intersect_measures=(forms.Measure("ds", mt),))
        F = (uq * uq * vq * forms.Measure("dx", mq)
             + ut * vt * forms.Measure("dx", mt)
             + (uq - ut) * (vq - vt) * dsq)
        total = asm.assemble(forms.derivative(F, u)).toarray()
        by_parts = sum(
            asm.assemble(forms.derivative(F, u, component=k)).toarray()
            for k in range(2))
        scale = np.abs(total).max()
        assert np.abs(total - by_parts).max() <= 1e-14 * scale

    def test_unsplit_coefficient_linearizes_like_its_component(
            self, asm, linear_setup):
        V, u, u0, v0, dx = linear_setup
        v = v0.function
        u.values[:] = [1.0, 2.0, -0.5, 0.0]
        unsplit = asm.assemble(forms.derivative(u * u * v * dx, u))
        split = asm.assemble(forms.derivative(u0 * u0 * v0 * dx, u))
        assert unsplit.nnz > 0
        assert np.array_equal(unsplit.toarray(), split.toarray())

    def test_interior_facet_derivative_matches_finite_differences(self, asm):
        mesh = mm.build_split_unit_square(0)
        V = conftest.scalar_space(mesh, "Q", 2)
        u = forms.Coefficient(V)
        (u0,), (v0,) = forms.split(u), forms.split(forms.TestFunction(V))
        # the gradients of a continuous u differ across a facet
        plus, minus = (forms.restrict(forms.grad(u0), s) for s in "+-")
        F = (forms.inner(plus, minus) * forms.restrict(u0 * v0, "+")
             * forms.Measure("dS", mesh)
             + forms.inner(forms.grad(u0), forms.grad(v0))
             * forms.Measure("dx", mesh))
        rng = np.random.default_rng(5)
        u.values[:] = rng.standard_normal(V.num_dofs)
        d = rng.standard_normal(V.num_dofs)
        r = asm.assemble(F)
        Jd = asm.assemble(forms.derivative(F, u)) @ d
        base = u.values.copy()
        remainders = []
        for eps in (1e-3, 1e-4, 1e-5):
            u.values[:] = base + eps * d
            remainders.append(np.linalg.norm(asm.assemble(F) - r - eps * Jd)
                              / np.linalg.norm(r))
        # the remainder is eps^2 times a fixed vector: it falls 100-fold
        assert remainders[0] < 1e-4
        for coarse, fine in zip(remainders, remainders[1:]):
            assert fine / coarse == pytest.approx(1e-2, rel=1e-2)

    def test_existing_trial_function_rejected(self, linear_setup):
        V, u, u0, v0, dx = linear_setup
        (t0,) = forms.split(forms.TrialFunction(V))
        with pytest.raises(ValueError):
            forms.derivative(u0 * t0 * v0 * dx, u)


class TestAvgJump:
    @pytest.fixture()
    def interface(self):
        parent, mq, mt = conftest.quad_tri_interface_pair()
        V = conftest.make_space([mq, mt], [fe.make_element(QUAD, "Q", 1),
                                           fe.make_element(TRI, "P", 1)])
        ds = forms.Measure("ds", mq, 999,
                           intersect_measures=(forms.Measure("ds", mt),))
        return V, mq, mt, ds

    def test_avg_of_identical_expressions_is_identity(self, asm, interface):
        V, mq, mt, ds = interface
        u, v = forms.Coefficient(V), forms.TestFunction(V)
        rng = np.random.default_rng(5)
        u.values[:] = rng.uniform(-1, 1, V.num_dofs)
        (uq, _), (vq, _) = forms.split(u), forms.split(v)
        diff = (forms.avg([uq, uq]) - uq) * vq * ds
        assert np.abs(asm.assemble(diff)).max() <= 1e-15

    def test_jump_of_a_continuous_field_vanishes(self, asm, interface):
        V, mq, mt, ds = interface
        u = forms.Coefficient(V)
        asm.interpolate(lambda x, y: 1.0 + 2.0 * x - y, u, 0)
        asm.interpolate(lambda x, y: 1.0 + 2.0 * x - y, u, 1)
        uq, ut = forms.split(u)
        nq, nt = forms.FacetNormal(mq), forms.FacetNormal(mt)
        j = forms.jump([uq, ut], [nq, nt])
        energy = asm.assemble(forms.inner(j, j) * ds)
        assert abs(energy) <= 1e-24

    def test_jump_measures_the_discontinuity(self, asm, interface):
        V, mq, mt, ds = interface
        u = forms.Coefficient(V)
        asm.interpolate(lambda x, y: 1.0, u, 0)
        asm.interpolate(lambda x, y: 3.0, u, 1)
        uq, ut = forms.split(u)
        j = forms.jump([uq, ut], [forms.FacetNormal(mq),
                                  forms.FacetNormal(mt)])
        energy = asm.assemble(forms.inner(j, j) * ds)
        # |jump| = 2 along a unit facet
        assert energy == pytest.approx(4.0, abs=1e-12)

    def test_helpers_sign_like_the_operators_they_stand_for(self, interface):
        # the studies' SIPG terms keep their kernel signatures, and so
        # their kernels and fingerprints, written either way
        V, mq, mt, ds = interface
        uq, ut = forms.split(forms.Coefficient(V))
        vq, vt = forms.split(forms.TestFunction(V))
        nq, nt = forms.FacetNormal(mq), forms.FacetNormal(mt)
        by_helpers = forms.inner(forms.avg([forms.grad(uq), forms.grad(ut)]),
                                 forms.jump([vq, vt], [nq, nt])) * ds
        by_operators = forms.inner((forms.grad(uq) + forms.grad(ut)) / 2,
                                   vq * nq + vt * nt) * ds
        (a,), (b,) = by_helpers.integrals, by_operators.integrals
        assert forms.analyze(a).key == forms.analyze(b).key

    def test_shape_mismatch_rejected(self, interface):
        V, mq, mt, ds = interface
        u = forms.Coefficient(V)
        uq, ut = forms.split(u)
        with pytest.raises(ValueError):
            forms.inner(forms.grad(uq), ut)


class TestValidator:
    CASES = conftest.validator_cases()

    @pytest.mark.parametrize("name,form,expected", CASES,
                             ids=[c[0] for c in CASES])
    def test_catalog(self, name, form, expected):
        diagnostics = forms.validate_form(form)
        messages = [d.message for d in diagnostics]
        if not expected:
            assert messages == []
        else:
            assert messages, f"{name} should have been rejected"
            for fragment in expected:
                assert any(fragment in m for m in messages), messages

    def test_unrelated_mesh_in_integrand(self):
        V = conftest.scalar_space(two_triangle_square(), "P", 1)
        W = conftest.scalar_space(two_triangle_square(), "P", 1)
        u, w = forms.Coefficient(V), forms.Coefficient(W)
        form = u * w * forms.Measure("dx", V.meshes[0])
        messages = [d.message for d in forms.validate_form(form)]
        assert any("does not participate" in m for m in messages)

    def test_study_residuals_validate_cleanly(self, studies):
        for build in (studies.build_quad_tri_problem,
                      studies.build_split_interface_problem):
            problem = build(1, 0)
            assert forms.validate_form(problem.residual) == []
            J = forms.derivative(problem.residual, problem.u)
            assert forms.validate_form(J) == []


def checks_setting():
    """A triangle mesh, a second mesh, a P1 space on the first and a
    two-component space on both."""
    m, other = two_triangle_square(), conftest.single_cell_mesh(
        QUAD, [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    V = conftest.scalar_space(m, "P", 1)
    W = conftest.make_space([m, other], [fe.make_element(TRI, "P", 1),
                                         fe.make_element(QUAD, "Q", 1)])
    return m, other, V, W


def _nested(m, other):
    inner_ = forms.Measure("ds", other, intersect_measures=(
        forms.Measure("ds", m),))
    return forms.Measure("ds", m, intersect_measures=(inner_,))


INPUT_CHECKS = {
    "empty-mesh-sequence": (lambda m, o, V, W: forms.MeshSequence([]),
                            ValueError, "empty mesh sequence"),
    "repeated-mesh-in-sequence": (
        lambda m, o, V, W: forms.MeshSequence([m, m]),
        ValueError, "repeated mesh in sequence"),
    "empty-mixed-element": (lambda m, o, V, W: forms.MixedElement([]),
                            ValueError, "empty element list"),
    "element-count": (
        lambda m, o, V, W: forms.FunctionSpace(
            forms.MeshSequence([m, o]),
            forms.MixedElement([fe.make_element(TRI, "P", 1)])),
        ValueError, "one element per mesh required"),
    "division-by-an-expression": (
        lambda m, o, V, W: forms.Constant(1.0) / forms.Constant(2.0),
        TypeError, "division by expressions is not supported"),
    "argument-number": (lambda m, o, V, W: forms.Argument(V, 2), ValueError,
                        r"argument number must be 0 \(test\) or 1 \(trial\)"),
    "index-a-non-function": (
        lambda m, o, V, W: forms.Indexed(forms.Constant(1.0), 0),
        TypeError, "only product-space functions can be indexed"),
    "component-out-of-range": (
        lambda m, o, V, W: forms.Indexed(forms.Coefficient(W), 2),
        IndexError, "component 2 out of range"),
    "grad-of-an-unsplit-function": (
        lambda m, o, V, W: forms.grad(forms.Coefficient(W)), ValueError,
        r"split\(\) the function before taking gradients"),
    "product-of-an-unsplit-function": (
        lambda m, o, V, W: forms.Coefficient(W) * 2.0, ValueError,
        r"split\(\) the function before multiplying"),
    "product-of-two-vectors": (
        lambda m, o, V, W: forms.FacetNormal(m) * forms.FacetNormal(m),
        ValueError, "at least one product factor must be scalar"),
    "sum-of-two-shapes": (
        lambda m, o, V, W: forms.FacetNormal(m) + forms.Constant(1.0),
        ValueError, r"cannot add shapes \(2,\) and \(\)"),
    "restriction-side": (
        lambda m, o, V, W: forms.restrict(forms.Constant(1.0), "left"),
        ValueError, "restriction side must be '\\+' or '-'"),
    "jump-normal-count": (
        lambda m, o, V, W: forms.jump(forms.split(forms.Coefficient(W)),
                                      [forms.FacetNormal(m)]),
        ValueError, "one normal per expression required"),
    "unknown-integral-type": (lambda m, o, V, W: forms.Measure("dX", m),
                              ValueError, "unknown integral type 'dX'"),
    "intersect-a-mesh": (
        lambda m, o, V, W: forms.Measure("ds", m, intersect_measures=(o,)),
        TypeError, "intersect_measures must contain Measures"),
    "nested-intersection": (lambda m, o, V, W: _nested(m, o), ValueError,
                            "intersected measures cannot nest"),
    "codim0-dx-in-a-facet-measure": (
        lambda m, o, V, W: forms.Measure("ds", m, intersect_measures=(
            forms.Measure("dx", o),)),
        ValueError, "codim-0 meshes participate in facet measures"),
}


@pytest.mark.parametrize("name", list(INPUT_CHECKS))
def test_input_checks_raise_with_their_rule(name):
    build, error, message = INPUT_CHECKS[name]
    with pytest.raises(error, match=message):
        build(*checks_setting())


def test_negation_and_subtraction_from_a_number_by_value(asm):
    m = two_triangle_square()
    dx = forms.Measure("dx", m)
    x = forms.Analytic(m, lambda x, y: x)
    assert asm.assemble(-x * dx) == pytest.approx(-0.5, abs=1e-15)
    assert asm.assemble((3.0 - x) * dx) == pytest.approx(2.5, abs=1e-15)
    assert asm.assemble(-(1.0 - x) * dx) == pytest.approx(-0.5, abs=1e-15)


def test_reprs_diagnostics_and_form_arithmetic_read_as_their_text():
    m, _, V, W = checks_setting()
    u, v = forms.Coefficient(V), forms.TestFunction(V)
    w = forms.Coefficient(W)
    U, A = f"Coefficient#{u.count}", f"Argument#{v.count}(number=0)"
    expected = {
        forms.Zero((2,)): "Zero(shape=(2,))",
        forms.Constant(2.5): "Constant(2.5)",
        u: U,
        v: A,
        forms.split(w)[0]: f"Coefficient#{w.count}[0]",
        forms.FacetNormal(m): f"n({m.id})",
        forms.grad(u): f"grad({U})",
        u + 2.0: f"({U} + Constant(2.0))",
        u * v: f"({U} * {A})",
        forms.inner(forms.grad(u), forms.grad(v)): f"inner(grad({U}), "
                                                   f"grad({A}))",
        forms.restrict(u, "+"): f"({U})('+')",
    }
    for expr, text in expected.items():
        assert repr(expr) == text
    form = u * v * forms.Measure("dx", m)
    assert repr(form.integrals[0]) == f"Integral(({U} * {A}), dx({m.id}))"
    assert repr(form) == "Form(1 integrals)"
    bad = forms.restrict(u, "+") * v * forms.Measure("dx", m)
    assert str(forms.validate_form(bad)[0]) == (
        "integrals[0] at /Product.0/Restricted[+]/Coefficient: "
        "restriction on cell participant")
    for combine in (lambda f: f + 1, lambda f: f - 1):
        with pytest.raises(TypeError, match="unsupported operand"):
            combine(form)
