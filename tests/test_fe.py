"""Reference Lagrange elements, quadrature rules, and facet embeddings."""

import math

import numpy as np
import pytest

from multifem import fe
from multifem.mesh import CellType

INTERVAL, TRI, QUAD = (CellType.INTERVAL, CellType.TRIANGLE,
                       CellType.QUADRILATERAL)

ALL_ELEMENTS = ([(INTERVAL, "P", p) for p in range(1, 5)]
                + [(TRI, "P", p) for p in range(1, 5)]
                + [(QUAD, "Q", p) for p in range(1, 5)])


def interior_points(cell, rng, count=12):
    if cell is INTERVAL:
        return rng.uniform(0.05, 0.95, size=(count, 1))
    if cell is QUAD:
        return rng.uniform(0.05, 0.95, size=(count, 2))
    bary = rng.dirichlet(np.ones(3), size=count)
    return bary[:, 1:]  # (x, y) with x + y < 1


class TestMakeElement:
    @pytest.mark.parametrize("cell,family,degree,dofs",
                             [(TRI, "P", 1, 3), (QUAD, "Q", 2, 9),
                              (TRI, "P", 3, 10), (INTERVAL, "P", 4, 5),
                              (QUAD, "Q", 1, 4), (TRI, "P", 2, 6)])
    def test_dof_counts(self, cell, family, degree, dofs):
        elem = fe.make_element(cell, family, degree)
        assert elem.num_dofs == dofs
        assert len(elem.node_points) == dofs

    @pytest.mark.parametrize("cell,family,degree", ALL_ELEMENTS)
    def test_basis_is_nodal(self, cell, family, degree):
        elem = fe.make_element(cell, family, degree)
        values, _ = elem.tabulate(elem.node_points)
        assert np.allclose(values, np.eye(elem.num_dofs), atol=1e-12)

    @pytest.mark.parametrize("cell,family", [(QUAD, "P"), (TRI, "Q"),
                                             (INTERVAL, "Q")])
    def test_incompatible_family_rejected(self, cell, family):
        with pytest.raises(ValueError):
            fe.make_element(cell, family, 1)

    @pytest.mark.parametrize("degree", [0, 5])
    def test_unsupported_degree_rejected(self, degree):
        with pytest.raises(ValueError):
            fe.make_element(TRI, "P", degree)

    # True would build a degree-1 element named QTrue; int() would
    # truncate 2.5 or parse "2"
    @pytest.mark.parametrize("degree", [True, np.bool_(True), 2.0, 2.5, "2",
                                        np.float64(2.0)])
    def test_non_integer_degree_rejected(self, degree):
        with pytest.raises(TypeError, match="element's degree is an integer"):
            fe.make_element(QUAD, "Q", degree)

    @pytest.mark.parametrize("cell,family,shape,message", [
        (TRI, "X", (), "unknown element family 'X'"),
        (TRI, "p", (), "unknown element family 'p'"),
        (QUAD, "Q", (3,), r"unsupported value shape \(3,\)"),
        (TRI, "P", (2, 2), r"unsupported value shape \(2, 2\)")])
    def test_input_checks_raise_with_their_rule(self, cell, family, shape,
                                                message):
        with pytest.raises(ValueError, match=message):
            fe.make_element(cell, family, 1, value_shape=shape)

    def test_numpy_integer_degree_is_stored_as_an_int(self):
        for degree in (np.int64(2), np.int32(2), np.uint8(2)):
            elem = fe.make_element(QUAD, "Q", degree)
            assert type(elem.degree) is int and elem.degree == 2
            assert repr(elem) == "Q2(quadrilateral)" and elem.num_dofs == 9

    def test_vector_element_blocks_scalars(self):
        elem = fe.make_element(QUAD, "Q", 1, value_shape=(2,))
        assert elem.value_shape == (2,)
        assert elem.num_dofs == 8
        assert elem.num_scalar_dofs == 4


class TestTabulate:
    def test_linear_triangle_at_centroid(self):
        elem = fe.make_element(TRI, "P", 1)
        values, _ = elem.tabulate(np.array([[1 / 3, 1 / 3]]))
        assert np.allclose(values, 1 / 3, atol=1e-14)

    @pytest.mark.parametrize("cell,family,degree", ALL_ELEMENTS)
    def test_partition_of_unity(self, cell, family, degree):
        rng = np.random.default_rng(7)
        elem = fe.make_element(cell, family, degree)
        values, grads = elem.tabulate(interior_points(cell, rng))
        assert np.allclose(values.sum(axis=1), 1.0, atol=1e-12)
        assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-11)

    @pytest.mark.parametrize("cell,family,degree", ALL_ELEMENTS)
    def test_gradients_match_finite_differences(self, cell, family, degree):
        rng = np.random.default_rng(11)
        elem = fe.make_element(cell, family, degree)
        pts = interior_points(cell, rng, count=5)
        _, grads = elem.tabulate(pts)
        eps = 1e-6
        for d in range(pts.shape[1]):
            shift = np.zeros(pts.shape[1])
            shift[d] = eps
            vp, _ = elem.tabulate(pts + shift)
            vm, _ = elem.tabulate(pts - shift)
            assert np.allclose(grads[:, :, d], (vp - vm) / (2 * eps),
                               atol=1e-7)


class TestQuadrature:
    def test_interval_degree_one_is_midpoint(self):
        rule = fe.make_quadrature(INTERVAL, 1)
        assert np.allclose(rule.points, [[0.5]])
        assert np.allclose(rule.weights, [1.0])

    @pytest.mark.parametrize("cell,measure", [(INTERVAL, 1.0), (QUAD, 1.0),
                                              (TRI, 0.5)])
    @pytest.mark.parametrize("degree", range(1, 13))
    def test_weights_sum_to_reference_measure(self, cell, measure, degree):
        rule = fe.make_quadrature(cell, degree)
        assert abs(rule.weights.sum() - measure) <= 1e-14

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_quad_monomial_exactness(self, degree):
        rule = fe.make_quadrature(QUAD, degree)
        x, y = rule.points[:, 0], rule.points[:, 1]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                value = float(np.dot(rule.weights, x ** a * y ** b))
                assert value == pytest.approx(1.0 / ((a + 1) * (b + 1)),
                                              abs=1e-13)

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_triangle_monomial_exactness(self, degree):
        rule = fe.make_quadrature(TRI, degree)
        x, y = rule.points[:, 0], rule.points[:, 1]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                exact = (math.factorial(a) * math.factorial(b)
                         / math.factorial(a + b + 2))
                value = float(np.dot(rule.weights, x ** a * y ** b))
                assert value == pytest.approx(exact, abs=1e-13)

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_interval_monomial_exactness(self, degree):
        rule = fe.make_quadrature(INTERVAL, degree)
        x = rule.points[:, 0]
        for a in range(degree + 1):
            value = float(np.dot(rule.weights, x ** a))
            assert value == pytest.approx(1.0 / (a + 1), abs=1e-14)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            fe.make_quadrature(TRI, 13)

    @pytest.mark.parametrize("degree", [True, 2.0, "2"])
    def test_non_integer_degrees_raise(self, degree):
        # True would give the 1-point rule, 2.0 and "2" fail inside numpy
        with pytest.raises(TypeError, match="quadrature degrees are integers"):
            fe.make_quadrature(QUAD, degree)

    def test_numpy_integer_degrees_act_as_ints(self):
        assert fe.make_quadrature(TRI, np.int64(4)) is fe.make_quadrature(
            TRI, 4)

    @pytest.mark.parametrize("cell", [INTERVAL, TRI, QUAD])
    def test_rules_are_shared_and_read_only(self, cell):
        rule = fe.make_quadrature(cell, 5)
        assert fe.make_quadrature(cell, 5) is rule
        assert fe.make_quadrature(cell.value, 5) is rule
        assert fe.make_quadrature(cell, 6) is not rule
        for array in (rule.points, rule.weights):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


class TestGeometryMaps:
    def test_identity_on_reference_quad(self):
        verts = fe.reference_vertices(QUAD)
        pts = np.array([[0.2, 0.7], [0.5, 0.5], [0.9, 0.1]])
        mapped = fe.geometry_map(QUAD, verts, pts)
        assert np.allclose(mapped, pts, atol=1e-14)
        jac = fe.geometry_jacobian(QUAD, verts, pts)
        assert np.allclose(jac, np.eye(2)[None, :, :], atol=1e-14)

    def test_affine_triangle_jacobian_is_constant(self):
        verts = np.array([[1.0, 2.0], [3.0, 2.5], [1.5, 4.0]])
        pts = np.array([[0.1, 0.1], [0.3, 0.5], [0.6, 0.2]])
        jac = fe.geometry_jacobian(TRI, verts, pts)
        expected = np.stack([verts[1] - verts[0], verts[2] - verts[0]],
                            axis=1)
        for j in jac:
            assert np.allclose(j, expected, atol=1e-14)

    def test_triangle_map_is_barycentric(self):
        verts = np.array([[1.0, 2.0], [3.0, 2.5], [1.5, 4.0]])
        pts = np.array([[0.25, 0.25]])
        mapped = fe.geometry_map(TRI, verts, pts)
        expected = 0.5 * verts[0] + 0.25 * verts[1] + 0.25 * verts[2]
        assert np.allclose(mapped[0], expected, atol=1e-14)
