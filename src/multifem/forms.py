"""Variational form language over sequences of meshes.

A function space couples one element per mesh of a MeshSequence into a single
product space; Coefficients and Arguments on it are monolithic unknowns whose
per-mesh components are accessed with split().  Measures describe integration
over one mesh's entities intersected with entities of other meshes; forms are
sums of (integrand, measure) pairs.  derivative() computes the Gateaux
derivative with respect to a whole Coefficient in one pass.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fe
from .mesh import CellType, Mesh, as_int, first_use_labels

_function_counter = itertools.count()


# ---------------------------------------------------------------------------
# spaces


class MeshSequence:
    """An ordered sequence of meshes making up a product domain."""

    def __init__(self, meshes):
        self.meshes = tuple(meshes)
        if not self.meshes:
            raise ValueError("empty mesh sequence")
        if len({m.id for m in self.meshes}) != len(self.meshes):
            raise ValueError("repeated mesh in sequence")

    def __len__(self):
        return len(self.meshes)


class MixedElement:
    """One element per component."""

    def __init__(self, sub_elements):
        self.sub_elements = tuple(sub_elements)
        if not self.sub_elements:
            raise ValueError("empty element list")

    def __len__(self):
        return len(self.sub_elements)

    def __getitem__(self, k):
        return self.sub_elements[k]


class FunctionSpace:
    """Product space V = V_0 x ... x V_{M-1}, one component per mesh.

    Degrees of freedom are numbered per component (component blocks are
    contiguous) and within a component by mesh entity, so coinciding element
    nodes of neighbouring cells share a degree of freedom.  The dofmaps and
    dof coordinates are read-only, as the meshes they are built from are.
    """

    def __init__(self, domain, element):
        if isinstance(domain, Mesh):
            domain = MeshSequence([domain])
        if isinstance(element, fe.ReferenceElement):
            element = MixedElement([element])
        if len(domain) != len(element):
            raise ValueError("one element per mesh required")
        for mesh, elem in zip(domain.meshes, element.sub_elements):
            if mesh.cell_type_set != {elem.cell}:
                kinds = sorted(t.value for t in mesh.cell_type_set)
                raise ValueError(
                    f"element on {elem.cell.value} cannot live on mesh "
                    f"{mesh.id} with cells {kinds}")
        self.domain = domain
        self.element = element
        self.dofmaps = []
        self.offsets = [0]
        coords = []
        for mesh, elem in zip(domain.meshes, element.sub_elements):
            dofmap, dof_coords = _number_dofs(mesh, elem)
            self.dofmaps.append(dofmap)
            coords.append(dof_coords)
            self.offsets.append(self.offsets[-1] + len(dof_coords))
        self.dof_coords = np.vstack(coords)
        for array in self.dofmaps + [self.dof_coords]:
            array.setflags(write=False)

    @property
    def num_components(self):
        return len(self.domain)

    @property
    def num_dofs(self):
        return self.offsets[-1]

    @property
    def meshes(self):
        return self.domain.meshes

    def component_slice(self, k):
        if not 0 <= k < self.num_components:
            raise IndexError(f"component {k} out of range")
        return slice(self.offsets[k], self.offsets[k + 1])


def _number_dofs(mesh, element):
    """Entity-based dof numbering for one component.

    Each (cell, local node) gets one integer key for the entity owning the
    node: its mesh vertex, its slot on a facet (counted from the facet's
    lower-numbered global vertex), or the node itself for cell interiors.
    Dofs number the distinct keys by first occurrence in (cell, local node)
    order and sit at the coordinates of that first node.  Returns (dofmap
    (ncells, num_dofs), dof_coords).
    """
    ctype = mesh.cell_type
    ncells, nnodes = mesh.num_cells, element.num_scalar_dofs
    verts = mesh.cell_vertex_ids
    per_edge = element.degree - 1
    edge_base = mesh.num_vertices
    interior_base = edge_base + mesh.num_facets * per_edge
    keys = np.empty((ncells, nnodes), dtype=np.int64)
    for ln, tag in enumerate(element.node_tags):
        if tag[0] == "vertex":
            keys[:, ln] = verts[:, tag[1]]
        elif tag[0] == "edge":
            _, le, idx = tag
            a, b = ctype.local_facets[le]
            along = np.where(verts[:, a] > verts[:, b], per_edge - 1 - idx, idx)
            keys[:, ln] = edge_base + mesh.cell_facets[:, le] * per_edge + along
        else:
            keys[:, ln] = interior_base + np.arange(ncells) * nnodes + ln
    labels, first = first_use_labels(keys.ravel())
    scalar_map = labels.reshape(ncells, nnodes)
    nodes = fe.geometry_map(ctype, mesh.coords_of_cells(np.arange(ncells)),
                            element.node_points)
    coords = nodes.reshape(-1, 2)[first]

    if element.value_shape:
        blocked = np.empty((ncells, element.num_dofs), dtype=int)
        for comp in range(2):
            blocked[:, comp::2] = 2 * scalar_map + comp
        return blocked, np.repeat(coords, 2, axis=0)
    return scalar_map, coords


# ---------------------------------------------------------------------------
# expression nodes


class Expr:
    """Base expression node.  Trees are immutable and compare by identity;
    shape is () or (2,)."""

    operands = ()
    shape = ()

    def __add__(self, other):
        return Sum(self, as_expr(other))

    def __radd__(self, other):
        return Sum(as_expr(other), self)

    def __sub__(self, other):
        return Sum(self, Product(Constant(-1.0), as_expr(other)))

    def __rsub__(self, other):
        return Sum(as_expr(other), Product(Constant(-1.0), self))

    def __neg__(self):
        return Product(Constant(-1.0), self)

    def __mul__(self, other):
        if isinstance(other, Measure):
            return Form([Integral(self, other)])
        return Product(self, as_expr(other))

    def __rmul__(self, other):
        return Product(as_expr(other), self)

    def __truediv__(self, other):
        if isinstance(other, Expr):
            raise TypeError("division by expressions is not supported")
        return Product(Constant(1.0 / float(other)), self)


def as_expr(value):
    if isinstance(value, Expr):
        return value
    return Constant(float(value))


class Zero(Expr):
    """Structural zero of a given shape, used when pruning derivatives."""

    def __init__(self, shape=()):
        self.shape = tuple(shape)

    def __repr__(self):
        return f"Zero(shape={self.shape})"


class Constant(Expr):
    """A real number, fixed once made: kernels compile its value in."""

    def __init__(self, value):
        object.__setattr__(self, "value", float(value))

    def __setattr__(self, name, _):
        raise AttributeError(f"Constant.{name} is read-only: compiled kernels "
                             f"hold the value; use a new Constant")

    def __repr__(self):
        return f"Constant({self.value})"


class _Function(Expr):
    """Common behaviour for Coefficient and Argument."""

    def __init__(self, space):
        self.space = space
        self.count = next(_function_counter)
        if space.num_components == 1:
            self.shape = space.element[0].value_shape
        else:
            self.shape = None  # must be split before use in integrands


class Coefficient(_Function):
    """A function in V with mutable dof values (a single unknown even when V
    is a product over several meshes)."""

    def __init__(self, space):
        super().__init__(space)
        self.values = np.zeros(space.num_dofs)

    def __repr__(self):
        return f"Coefficient#{self.count}"


class Argument(_Function):
    """Test (number 0) or trial (number 1) function."""

    def __init__(self, space, number):
        super().__init__(space)
        if number not in (0, 1):
            raise ValueError("argument number must be 0 (test) or 1 (trial)")
        self.number = number

    def __repr__(self):
        return f"Argument#{self.count}(number={self.number})"


def TestFunction(space):
    return Argument(space, 0)


def TrialFunction(space):
    return Argument(space, 1)


class Indexed(Expr):
    """Component k of a product-space Coefficient or Argument: a terminal,
    so tree walks stop here and never reach the other components."""

    def __init__(self, function, component):
        if not isinstance(function, (Coefficient, Argument)):
            raise TypeError("only product-space functions can be indexed")
        if not 0 <= component < function.space.num_components:
            raise IndexError(f"component {component} out of range")
        self.function = function
        self.component = int(component)
        self.shape = function.space.element[component].value_shape

    def __repr__(self):
        return f"{self.function!r}[{self.component}]"


def split(function):
    """The per-mesh components of a product-space function, as a tuple."""
    return tuple(Indexed(function, k)
                 for k in range(function.space.num_components))


class FacetNormal(Expr):
    """Outward unit normal of a codim-0 mesh participating through its facets."""

    shape = (2,)

    def __init__(self, mesh):
        self.mesh = mesh

    def __repr__(self):
        return f"n({self.mesh.id})"


class Analytic(Expr):
    """A pointwise closed-form value fn(x, y) at physical coordinates: a
    scalar for shape (), a pair of values for shape (2,).  pure=True
    promises that fn returns the same values on every call, so kernels may
    keep them, as they keep a Constant's.  Fixed once made."""

    def __init__(self, mesh, fn, shape=(), pure=False):
        if shape not in ((), (2,)):
            raise ValueError(f"Analytic shape must be () or (2,), not "
                             f"{shape!r}")
        if not isinstance(pure, bool):
            raise TypeError(f"Analytic pure must be a bool, not {pure!r}")
        self.__dict__.update(mesh=mesh, fn=fn, shape=shape, pure=pure,
                             count=next(_function_counter))

    def __setattr__(self, name, _):
        raise AttributeError(f"Analytic.{name} is read-only: compiled kernels "
                             f"may hold its values; use a new Analytic")

    def __repr__(self):
        return f"Analytic#{self.count}"


class Grad(Expr):
    """Spatial gradient; appends an axis of length 2 to the shape."""

    def __init__(self, operand):
        if operand.shape is None:
            raise ValueError("split() the function before taking gradients")
        self.operands = (operand,)
        self.shape = tuple(operand.shape) + (2,)

    def __repr__(self):
        return f"grad({self.operands[0]!r})"


class Sum(Expr):
    def __init__(self, a, b):
        if a.shape is None or b.shape is None or a.shape != b.shape:
            raise ValueError(f"cannot add shapes {a.shape} and {b.shape}")
        self.operands = (a, b)
        self.shape = a.shape

    def __repr__(self):
        return f"({self.operands[0]!r} + {self.operands[1]!r})"


class Product(Expr):
    """Product where at least one factor is scalar."""

    def __init__(self, a, b):
        if a.shape is None or b.shape is None:
            raise ValueError("split() the function before multiplying")
        if a.shape != () and b.shape != ():
            raise ValueError("at least one product factor must be scalar")
        self.operands = (a, b)
        self.shape = a.shape if a.shape != () else b.shape

    def __repr__(self):
        return f"({self.operands[0]!r} * {self.operands[1]!r})"


class Inner(Expr):
    """Full contraction of two equal-shaped operands."""

    shape = ()

    def __init__(self, a, b):
        if a.shape is None or b.shape is None or a.shape != b.shape:
            raise ValueError(f"cannot contract shapes {a.shape} and {b.shape}")
        self.operands = (a, b)

    def __repr__(self):
        return f"inner({self.operands[0]!r}, {self.operands[1]!r})"


class Restricted(Expr):
    """Interior-facet restriction to the '+' or '-' side."""

    def __init__(self, operand, side):
        if side not in ("+", "-"):
            raise ValueError("restriction side must be '+' or '-'")
        self.operands = (operand,)
        self.side = side
        self.shape = operand.shape

    def __repr__(self):
        return f"({self.operands[0]!r})('{self.side}')"


def grad(expr):
    return Grad(expr)


def inner(a, b):
    return Inner(as_expr(a), as_expr(b))


def restrict(expr, side):
    return Restricted(expr, side)


def avg(exprs):
    """Arithmetic mean of expressions living on different meshes."""
    exprs = list(exprs)
    total = exprs[0]
    for e in exprs[1:]:
        total = Sum(total, e)
    return Product(Constant(1.0 / len(exprs)), total)


def jump(exprs, normals):
    """Normal-weighted jump: sum of expr_i * normal_i."""
    exprs, normals = list(exprs), list(normals)
    if len(exprs) != len(normals):
        raise ValueError("one normal per expression required")
    total = Product(exprs[0], normals[0])
    for e, n in zip(exprs[1:], normals[1:]):
        total = Sum(total, Product(e, n))
    return total


# ---------------------------------------------------------------------------
# measures, integrals, forms

_INTEGRAL_TYPES = ("dx", "ds", "dS")
EVERYWHERE = "everywhere"


class Measure:
    """Integration measure over one mesh's entities, optionally intersected
    with entities of other meshes.

    integral_type 'dx' iterates cells, 'ds' exterior facets, 'dS' interior
    facets.  The first (primal) mesh defines the iteration set; every mesh in
    intersect_measures must supply a matching entity for an entity to be
    integrated.  Calling a measure with a subdomain id, an integer, restricts
    iteration to entities with that marker.
    """

    def __init__(self, integral_type, mesh, subdomain_id=EVERYWHERE,
                 intersect_measures=(), quadrature_degree=None):
        if integral_type not in _INTEGRAL_TYPES:
            raise ValueError(f"unknown integral type {integral_type!r}")
        self.integral_type = integral_type
        self.mesh = mesh
        self.subdomain_id = subdomain_id
        if quadrature_degree is not None:
            quadrature_degree = as_int(quadrature_degree, "a Measure's "
                                       "quadrature_degree is an integer")
        self.quadrature_degree = quadrature_degree
        norm = []
        for other in intersect_measures:
            if not isinstance(other, Measure):
                raise TypeError("intersect_measures must contain Measures")
            if other.intersect_measures:
                raise ValueError("intersected measures cannot nest")
            if other.subdomain_id != EVERYWHERE:
                raise ValueError("subdomain ids belong on the primal measure")
            norm.append((other.integral_type, other.mesh))
        self.intersect_measures = tuple(norm)
        self._validate()

    def _validate(self):
        if not (isinstance(self.subdomain_id, str)
                and self.subdomain_id == EVERYWHERE):
            self.subdomain_id = as_int(self.subdomain_id)
        meshes = [self.mesh] + [m for _, m in self.intersect_measures]
        if len({m.id for m in meshes}) != len(meshes):
            raise ValueError("repeated mesh in intersection measure")
        for itype, mesh in self.participants():
            if mesh.dim == 1 and itype != "dx":
                raise ValueError("codim-1 meshes participate through their "
                                 "cells; use 'dx'")
            if mesh.dim == 2 and itype == "dx" and self.is_facet_measure():
                raise ValueError("codim-0 meshes participate in facet "
                                 "measures through 'ds' or 'dS'")

    def participants(self):
        """All (integral_type, mesh) pairs, primal first."""
        return [(self.integral_type, self.mesh)] + list(self.intersect_measures)

    def is_facet_measure(self):
        """True if integration runs over codimension-1 physical entities."""
        if self.integral_type in ("ds", "dS"):
            return True
        if self.mesh.dim == 1:
            return True
        return any(t in ("ds", "dS") or m.dim == 1
                   for t, m in self.intersect_measures)

    def __call__(self, subdomain_id):
        m = copy.copy(self)
        m.subdomain_id = subdomain_id
        m._validate()
        return m

    def key(self):
        """The entities integrated: the measure but its quadrature degree."""
        return (self.integral_type, self.mesh.id, self.subdomain_id,
                tuple((t, m.id) for t, m in self.intersect_measures))

    def __repr__(self):
        parts = [f"{self.integral_type}({self.mesh.id})"]
        parts += [f"{t}({m.id})" for t, m in self.intersect_measures]
        sub = "" if self.subdomain_id == EVERYWHERE else f"[{self.subdomain_id}]"
        return "^".join(parts) + sub


class Integral:
    def __init__(self, integrand, measure):
        if integrand.shape != ():
            raise ValueError("integrands must be scalar")
        self.integrand = integrand
        self.measure = measure

    def __repr__(self):
        return f"Integral({self.integrand!r}, {self.measure!r})"


class Form:
    """A sum of integrals."""

    def __init__(self, integrals):
        self.integrals = tuple(integrals)

    def __add__(self, other):
        if isinstance(other, Form):
            return Form(self.integrals + other.integrals)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, Form):
            return self + (-other)
        return NotImplemented

    def __neg__(self):
        return -1.0 * self

    def __rmul__(self, scalar):
        return Form([Integral(Product(Constant(float(scalar)), i.integrand),
                              i.measure) for i in self.integrals])

    def arguments(self):
        """Distinct Arguments in the form, keyed by number: those of each
        integral's analyze(...), kept on it for the compiler."""
        found = {}
        for itg in self.integrals:
            for argument in analyze(itg).arguments.values():
                _add_argument(found, argument)
        return found

    def __repr__(self):
        return f"Form({len(self.integrals)} integrals)"


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class FormDiagnostic:
    integral_index: int
    path: str
    message: str

    def __str__(self):
        return f"integrals[{self.integral_index}] at {self.path}: {self.message}"


def _add_argument(found, argument):
    """found[argument.number] = argument, which must be the one there."""
    if found.setdefault(argument.number, argument) is not argument:
        raise ValueError("form mixes distinct arguments with the same number")


class Analysis(NamedTuple):
    """What analyze finds in an integral.  degree is (Coefficients read,
    degree in them), None if a sum is not homogeneous or an impure Analytic
    is read: (set(), 0) is static, fixed once planned like Constants and
    pure sources; ({u}, 1) is its u-derivative times u."""

    problems: list  # (path, message) of each fault (validate_form's order)
    # the kernel signature, the compiler's only input: (quadrature degree,
    # its one copy; per participant (type, dim, cell types); the rows)
    key: tuple
    terminals: list  # Coefficients, Arguments and Analytics by first use
    firsts: list  # per terminal, the component it is first read at
    arguments: dict  # argument number -> Argument
    degree: tuple


# the kinds of node analyze knows, and those whose rows are a function's
_FUNCTIONS = (Indexed, Coefficient, Argument)
_KINDS = {Zero, Constant, FacetNormal, Analytic, Grad, Sum, Product, Inner,
          Restricted, *_FUNCTIONS}

# (integral type of a participant, restricted?) -> the fault of its terminal
_RESTRICTION_FAULTS = {
    ("dS", False): "missing restriction on interior-facet participant",
    ("ds", True): "restriction on exterior-facet participant",
    ("dx", True): "restriction on cell participant"}


def analyze(integral):
    """The Analysis of an integral, from its one walk, kept on it: the
    rules of validate_form are checked here alone.  The walk is depth
    first, operands in order, and reads each node once per restriction side
    it is reached under.  Each (node, side) becomes one row of the key once
    its operands are done, so rows come in post order, the integrand's
    last; a restriction stands for its operand's row under its own side.  A
    row is (kind, shape, ...): an operator's operand rows; a Constant's
    bits; a FacetNormal's side and participant; a terminal's side, number
    (by first use) and component offset from its first, then an Analytic's
    function and purity or a function's element, participant (None if its
    mesh does not participate) and argument number (None for a
    Coefficient).  Raises ValueError if the integrand mixes distinct
    arguments with the same number."""
    if "_analysis" in integral.__dict__:
        return integral._analysis
    measure = integral.measure
    participants = measure.participants()
    roles = {mesh.id: (p, t) for p, (t, mesh) in enumerate(participants)}
    kinds = tuple((t, m.dim, m.cell_type_set) for t, m in participants)
    # per row: arguments read (bit n for number n) and degree
    problems, found, seen, rows, masks, degrees = [], {}, {}, [], [], []
    stack = [(integral.integrand, None, "", False)]
    while stack:  # a loop, not a recursive closure, which would hold meshes
        node, side, path, done = stack.pop()
        kind = type(node)
        if not done:  # reached: a leaf's row now, an operator's operands
            if (node, side) in seen:
                continue
            if kind is Restricted:
                if side is not None:
                    problems.append((path, "nested restriction"))
                here = f"{path}/Restricted[{node.side}]"
                stack.append((node, side, here, True))
                stack.append((node.operands[0], node.side, here, False))
                continue
            here = f"{path}/{kind.__name__}"
            if kind not in _KINDS:
                problems.append((here, "unsupported node kind: "
                                 + kind.__name__))
            operands = node.operands
            if operands:
                stack.append((node, side, here, True))
                for i in range(len(operands) - 1, -1, -1):
                    stack.append((operands[i], side, f"{here}.{i}", False))
                continue
            function = getattr(node, "function", node)  # an Indexed's
            mesh = getattr(node, "mesh", None)  # a FacetNormal's, Analytic's
            k = getattr(node, "component", 0)
            if isinstance(function, _Function):
                mesh = function.space.meshes[k]
            p, role = roles.get(getattr(mesh, "id", None), (None, None))
            row, mask, degree = (kind, node.shape, side), 0, 0
            if isinstance(function, (_Function, Analytic)):
                t, _, first = found.setdefault(id(function),
                                               (len(found), function, k))
                row += (t, k - first)
            if isinstance(function, _Function):
                number = getattr(function, "number", None)
                row += (function.space.element[k], p, number)
                degree, mask = (1, 0) if number is None else (0, 1 << number)
            elif isinstance(node, Analytic):
                row += (node.fn, node.pure)
                degree = 0 if node.pure else None
            elif isinstance(node, FacetNormal):
                row += (p,)
                if mesh.dim != 2 or role == "dx":
                    problems.append((here, "FacetNormal of a mesh "
                                     "participating through cells" if
                                     mesh.dim == 2 else "FacetNormal "
                                     "requires a codim-0 mesh"))
            else:
                row = (kind, node.shape, getattr(node, "value", 0.0).hex())
            if mesh is not None and role is None:
                problems.append((here, f"mesh {mesh.id} does not "
                                       f"participate in the measure"))
            elif (role, side is not None) in _RESTRICTION_FAULTS:
                problems.append((here, _RESTRICTION_FAULTS[
                    role, side is not None]))
        elif kind is Restricted:
            seen[node, side] = seen[node.operands[0], node.side]
            continue
        else:  # the operands are done, and path is the node's own
            ops = tuple([seen[o, side] for o in node.operands])
            a, b = ops[0], ops[-1]
            row, mask = (kind, node.shape) + ops, masks[a] | masks[b]
            d = [degrees[r] for r in ops]
            if kind is Sum:  # homogeneous: of one degree
                d = d[:1] if d[0] == d[1] else [None]
                if masks[a] != masks[b]:
                    problems.append((path, "a sum mixes terms that depend "
                                           "on different arguments"))
            elif kind is Grad:
                if rows[a][0] not in _FUNCTIONS:
                    problems.append((path, "unsupported node kind under a "
                                     "differential operator: "
                                     + rows[a][0].__name__))
                elif rows[a][6] is not None and kinds[rows[a][6]][1] != 2:
                    problems.append((path, "gradients on codim-1 meshes "
                                           "are not supported"))
            elif masks[a] & masks[b] and kind in (Product, Inner):
                problems.append((path, "form is nonlinear in an argument"))
            degree = None if None in d else sum(d)
        seen[node, side] = len(rows)
        rows.append(row)
        masks.append(mask)
        degrees.append(degree)
    terminals = [entry[1] for entry in found.values()]
    arguments = {}
    for argument in terminals:
        if isinstance(argument, Argument):
            _add_argument(arguments, argument)
    root = integral.integrand
    if 1 in arguments and 0 not in arguments:  # at the integrand's path
        side = f"[{root.side}]" if isinstance(root, Restricted) else ""
        problems.append((f"/{type(root).__name__}{side}",
                         "integral has a trial function but no test function"))
    quadrature_degree = measure.quadrature_degree
    if quadrature_degree is None:  # 2 * the top element degree, + 2 on quads
        quadrature_degree = 2 * max([1] + [
            row[5].degree for row in rows if row[0] in _FUNCTIONS]) + 2 * any(
            dim == 2 and CellType.QUADRILATERAL in cells
            for _, dim, cells in kinds)
    integral._analysis = Analysis(
        problems, (quadrature_degree, kinds, tuple(rows)), terminals,
        [entry[2] for entry in found.values()], arguments,
        ({f for f in terminals if isinstance(f, Coefficient)},
         degrees[seen[root, None]]))
    return integral._analysis


def validate_form(form):
    """Check integrand/measure consistency; returns a list of diagnostics.

    An empty list means the form is valid.  The rules live in analyze,
    which compile_integral runs on every integral it compiles.  Checks per
    integral: every terminal's mesh participates in the measure; terminals
    of interior-facet participants are restricted, of cell or
    exterior-facet participants not; a FacetNormal's mesh is codim-0 and
    participates through its facets; the compiler knows every node kind; a
    sum's terms read the same arguments, a product's factors none in
    common; grad takes a function, on a codim-0 mesh if it participates; a
    trial function comes with a test function.  Diagnostics come in
    depth-first order, operands in order: a node's own fault when it is
    reached, a sum's, product's or gradient's once its operands are done,
    and a missing test function last.  A subexpression reached twice under
    one restriction side is checked once, at its first path.
    """
    return [FormDiagnostic(idx, path, message)
            for idx, itg in enumerate(form.integrals)
            for path, message in analyze(itg).problems]


# ---------------------------------------------------------------------------
# differentiation


def _add(a, b):
    """a + b without Zero terms."""
    if isinstance(a, Zero):
        return b
    return a if isinstance(b, Zero) else Sum(a, b)


def _rebuild(expr, operands):
    """expr's node over new operands; Zero if a product, inner product,
    gradient or restriction has a Zero operand."""
    if isinstance(expr, Sum):
        return _add(*operands)
    if any(isinstance(o, Zero) for o in operands):
        return Zero(expr.shape)
    if isinstance(expr, Restricted):
        return Restricted(operands[0], expr.side)
    return type(expr)(*operands)


def _linearize(expr, coefficient, direction, component):
    """Forward-mode Gateaux derivative of expr with respect to coefficient."""
    if expr is coefficient:
        return direction
    if isinstance(expr, Indexed):
        if (expr.function is not coefficient
                or component not in (None, expr.component)):
            return Zero(expr.shape)
        return Indexed(direction, expr.component)
    if not expr.operands:
        return Zero(expr.shape or ())
    d = [_linearize(o, coefficient, direction, component)
         for o in expr.operands]
    if isinstance(expr, (Product, Inner)):  # the product rule
        (a, b), (da, db) = expr.operands, d
        return _add(_rebuild(expr, [da, b]), _rebuild(expr, [a, db]))
    return _rebuild(expr, d)


def derivative(form, coefficient, component=None):
    """Gateaux derivative of a form with respect to a whole Coefficient.

    The derivative is taken in the direction of a fresh trial Argument on the
    coefficient's (product) space; all components are linearized in one pass.
    Restricting to a single component (used for cross-checks) is available
    via the component argument.  Returns the empty form when the coefficient
    does not appear.  The result is memoized on the form, so repeated calls
    return the same Form and reuse its compiled kernels and plans.  Its
    sources are (coefficient, or None for a component's derivative, the
    integral of form each of its integrals comes from).
    """
    derivatives = form.__dict__.setdefault("_derivatives", {})
    key = (coefficient.count, component)
    if key in derivatives:
        return derivatives[key]
    if 1 in form.arguments():
        raise ValueError("form already has a trial function")
    direction = Argument(coefficient.space, 1)
    d = [_linearize(itg.integrand, coefficient, direction, component)
         for itg in form.integrals]
    kept = [(itg, dk) for itg, dk in zip(form.integrals, d)
            if not isinstance(dk, Zero)]
    derivatives[key] = Form([Integral(dk, itg.measure) for itg, dk in kept])
    derivatives[key].sources = (coefficient if component is None else None,
                                [itg for itg, _ in kept])
    return derivatives[key]
