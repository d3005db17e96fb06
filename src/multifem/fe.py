"""Reference Lagrange elements, quadrature rules, and cell geometry maps.

Elements are nodal (equispaced Lagrange) on the reference interval [0, 1],
the reference triangle {(x, y) : x, y >= 0, x + y <= 1}, and the reference
square [0, 1]^2.  Basis functions are built by inverting a monomial
Vandermonde matrix at the node points.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .mesh import CellType, as_int

MAX_DEGREE = 4
MAX_QUADRATURE_DEGREE = 12


def _monomial_exponents(cell, degree):
    if cell is CellType.INTERVAL:
        return [(a,) for a in range(degree + 1)]
    if cell is CellType.TRIANGLE:
        return [(a, b) for a in range(degree + 1)
                for b in range(degree + 1 - a)]
    return [(a, b) for a in range(degree + 1) for b in range(degree + 1)]


def _eval_monomials(exps, points):
    """Values and gradients of monomials at points: (npts, nm), (npts, nm, dim)."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    npts, dim = points.shape
    vals = np.ones((npts, len(exps)))
    grads = np.zeros((npts, len(exps), dim))
    for m, exp in enumerate(exps):
        for d, a in enumerate(exp):
            vals[:, m] *= points[:, d] ** a
        for d, a in enumerate(exp):
            if a == 0:
                continue
            g = a * points[:, d] ** (a - 1)
            for d2, a2 in enumerate(exp):
                if d2 != d:
                    g = g * points[:, d2] ** a2
            grads[:, m, d] = g
    return vals, grads


def _node_lattice(cell, degree):
    """Equispaced node points plus an entity tag per node.

    Tags are ('vertex', k), ('edge', local_edge, index_along_edge) or
    ('interior', i); edge indices run along the local edge direction.  Nodes
    come in lexicographic order of their lattice coordinates.
    """
    p = degree
    corners = np.rint(p * reference_vertices(cell)).astype(int)
    lattice = np.array([x for x in itertools.product(range(p + 1),
                                                     repeat=cell.dim)
                        if cell is not CellType.TRIANGLE or sum(x) <= p])
    tags, interior = [], 0
    for x in lattice:
        vertex = np.flatnonzero(np.all(corners == x, axis=1))
        edges = []
        for le, ends in enumerate(cell.local_facets if cell.dim == 2 else ()):
            a, b = corners[list(ends)]
            s = np.abs(x - a).max()  # lattice steps from vertex a towards b
            if 0 < s < p and np.array_equal(p * (x - a), s * (b - a)):
                edges.append(("edge", le, int(s) - 1))
        if len(vertex):
            tags.append(("vertex", int(vertex[0])))
        elif edges:
            tags.append(edges[0])
        else:
            tags.append(("interior", interior))
            interior += 1
    return lattice / p, tags


class ReferenceElement:
    """Scalar nodal Lagrange element.  Its arrays are read-only, as
    make_element shares one per (cell, family, degree)."""

    def __init__(self, cell, family, degree):
        self.cell = cell
        self.family = family
        self.degree = degree
        self.exponents = tuple(_monomial_exponents(cell, degree))
        self.node_points, tags = _node_lattice(cell, degree)
        self.node_tags = tuple(tags)
        vand, _ = _eval_monomials(self.exponents, self.node_points)
        self.coefficients = np.linalg.inv(vand)
        for array in (self.node_points, self.coefficients):
            array.setflags(write=False)

    @property
    def num_dofs(self):
        return len(self.node_points)

    def tabulate(self, points):
        """Basis values and reference gradients at points.

        Returns (values (npts, n), grads (npts, n, dim)).
        """
        vals, grads = _eval_monomials(self.exponents, points)
        return vals @ self.coefficients, np.einsum(
            "pmd,mn->pnd", grads, self.coefficients)

    def facet_closure(self, local_facet):
        """Local dof indices of the nodes on a local facet's closure: the
        vertex nodes of its vertices and its edge nodes."""
        verts = self.cell.local_facets[local_facet]
        return np.array([ln for ln, tag in enumerate(self.node_tags)
                         if (tag[0] == "vertex" and tag[1] in verts)
                         or (tag[0] == "edge" and tag[1] == local_facet)],
                        dtype=int)

    def __repr__(self):
        return f"{self.family}{self.degree}({self.cell.value})"


def make_element(cell, family, degree):
    """The shared, read-only Lagrange element of a (cell, family, degree).

    family 'P' lives on intervals and triangles, 'Q' on quadrilaterals;
    degrees 1 through 4.
    """
    cell = CellType(cell)
    degree = as_int(degree, "an element's degree is an integer")
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree {degree} outside supported range "
                         f"1..{MAX_DEGREE}")
    if family == "P":
        if cell is CellType.QUADRILATERAL:
            raise ValueError("family P not defined on quadrilaterals")
    elif family == "Q":
        if cell is not CellType.QUADRILATERAL:
            raise ValueError("family Q only defined on quadrilaterals")
    else:
        raise ValueError(f"unknown element family {family!r}")
    return _element(cell, family, degree)


_element = functools.lru_cache(maxsize=None)(ReferenceElement)


def vertex_interpolation(element):
    """The degree-1 basis of an element's cell and family at its nodes,
    (nodes, vertices), and the element's local node at each vertex."""
    linear = make_element(element.cell, element.family, 1)
    values, _ = linear.tabulate(element.node_points)
    return values, np.array([element.node_tags.index(t)
                             for t in linear.node_tags])


@dataclass(frozen=True)
class QuadratureRule:
    cell: CellType
    points: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.weights)


def _gauss_01(npts):
    """Gauss-Legendre points and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


def make_quadrature(cell, degree):
    """Quadrature exact for polynomials up to the requested degree.

    Interval and quadrilateral rules are (tensor) Gauss-Legendre and exact
    per coordinate degree; the triangle rule is a collapsed tensor rule exact
    for total degree.  All weights are positive.  Rules are built once per
    (cell, degree) and shared: their arrays are read-only.
    """
    cell = CellType(cell)
    degree = as_int(degree, "quadrature degrees are integers")
    if not 0 <= degree <= MAX_QUADRATURE_DEGREE:
        raise ValueError(f"quadrature degree {degree} outside supported "
                         f"range 0..{MAX_QUADRATURE_DEGREE}")
    return _quadrature(cell, degree)


@functools.lru_cache(maxsize=None)
def _quadrature(cell, degree):
    if cell is CellType.INTERVAL:
        x, w = _gauss_01(degree // 2 + 1)
        pts, wts = x.reshape(-1, 1), w
    elif cell is CellType.QUADRILATERAL:
        x, w = _gauss_01(degree // 2 + 1)
        pts = np.array([(xi, xj) for xi in x for xj in x])
        wts = np.array([wi * wj for wi in w for wj in w])
    else:
        # triangle: map the square by (x, y) -> (x, y (1 - x)); the extra
        # (1 - x) factor raises the x-degree by one
        gx, wx = _gauss_01((degree + 1) // 2 + 1)
        gy, wy = _gauss_01(degree // 2 + 1)
        pts, wts = [], []
        for xi, wxi in zip(gx, wx):
            for yj, wyj in zip(gy, wy):
                pts.append((xi, yj * (1.0 - xi)))
                wts.append(wxi * wyj * (1.0 - xi))
        pts, wts = np.array(pts), np.array(wts)
    for array in (pts, wts):
        array.setflags(write=False)
    return QuadratureRule(cell, pts, wts)


def reference_vertices(cell):
    cell = CellType(cell)
    if cell is CellType.INTERVAL:
        return np.array([[0.0], [1.0]])
    if cell is CellType.TRIANGLE:
        return np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _affine_jacobian(cell, vertices):
    """Constant Jacobian (..., 2, dim) of an interval or triangle map."""
    if cell is CellType.INTERVAL:
        return (vertices[..., 1, :] - vertices[..., 0, :])[..., None]
    return np.stack([vertices[..., 1, :] - vertices[..., 0, :],
                     vertices[..., 2, :] - vertices[..., 0, :]], axis=-1)


def geometry_map(cell, vertices, ref_points):
    """Physical coordinates of reference points.

    vertices is (nverts, 2), or (E, nverts, 2) for E cells at once;
    ref_points is (npts, dim), or (E, npts, dim) with one point set per
    cell.  Returns (npts, 2), or (E, npts, 2) when either is batched.
    """
    cell = CellType(cell)
    vertices = np.asarray(vertices, dtype=float)
    pts = np.atleast_2d(np.asarray(ref_points, dtype=float))
    if cell is CellType.QUADRILATERAL:
        x, y = pts[..., 0:1], pts[..., 1:2]
        shape = np.concatenate([(1 - x) * (1 - y), x * (1 - y), x * y,
                                (1 - x) * y], axis=-1)
        return shape @ vertices
    J = _affine_jacobian(cell, vertices)[..., None, :, :]
    X = vertices[..., :1, :] + pts[..., 0:1] * J[..., 0]
    if cell is CellType.TRIANGLE:
        X = X + pts[..., 1:2] * J[..., 1]
    return X


def geometry_jacobian(cell, vertices, ref_points):
    """Jacobians d(physical)/d(reference) at reference points.

    Returns (npts, 2, dim), or (E, npts, 2, dim) for batched inputs (see
    geometry_map): constant per cell for affine cells, pointwise for
    bilinear quadrilaterals, whose entries J[i, d] = sum_v x_vi dN_v/dxi_d
    are each summed on one (E, npts) plane, over v = 0..3 in order.
    """
    cell = CellType(cell)
    vertices = np.asarray(vertices, dtype=float)
    pts = np.atleast_2d(np.asarray(ref_points, dtype=float))
    lead = np.broadcast_shapes(vertices.shape[:-2], pts.shape[:-2])
    if cell is not CellType.QUADRILATERAL:
        J = _affine_jacobian(cell, vertices)[..., None, :, :]
        return np.broadcast_to(J, lead + (pts.shape[-2],) + J.shape[-2:]).copy()
    x, y = pts[..., 0], pts[..., 1]
    dN = ((-(1 - y), -(1 - x)), (1 - y, -x), (y, x), (-y, 1 - x))  # [v][d]
    J = np.zeros((2, 2) + lead + pts.shape[-2:-1])
    for v, i, d in itertools.product(range(4), range(2), range(2)):
        J[i, d] += vertices[..., v, i, None] * dN[v][d]
    return np.moveaxis(J, (0, 1), (-2, -1))
