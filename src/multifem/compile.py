"""Lowering of integrals to interpreted kernels over all entities at once.

A kernel evaluates one integral on every iteration entity (cell or facet of
the primal mesh) of its measure; the assembler plans one per integral.  The
integrand becomes a small tape of numpy operations whose registers carry a
leading entity axis and a quadrature-point axis, so one pass of the tape
produces the element tensors of a block of entities.  A subexpression that
occurs more than once in an integrand (the same Expr under the same
restriction) is emitted once, so e*e evaluates e once.  An Analytic source
is evaluated at the physical points, scalar or, for shape (2,), a pair; a
result of the wrong shape raises CompileError.  In a linear form or a
functional the tape evaluates only argument-free values: the compiler
factors the test function out of the integrand into terms, one
argument-free register per argument instruction, each contracted with its
argument's planes over quadrature points and components by one (batched)
matmul; coefficients on per-entity tables are contracted with theirs the
same way.  A bilinear tape materializes its argument registers with dof
axes.  Quadrature lives on the primal entities; every participating
mesh gets reference points by pulling the physical quadrature points back
through its own cell geometry, which is what aligns integration across
meshes.  MeasureGeometry holds that geometry for all entities of a measure
and is shared by every kernel on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import fe, forms
from .mesh import CellType

# Pullback tolerances, all unchanged by scaling the mesh: a pulled-back
# point must map back to within GEOMETRY_TOL cell diameters and lie in its
# cell to GEOMETRY_TOL in reference coordinates; Newton stops once the
# residual is below _NEWTON_TOL times the cell's largest coordinate, a few
# dozen roundoffs of evaluating the map.
GEOMETRY_TOL = 1e-10
_NEWTON_TOL = 1e-14
# |det J| at or below this fraction of |J|_F^2 counts as singular
_SINGULAR_RTOL = 1e-13
_NEWTON_MAXIT = 25
# Register values per entity block: bounds the kernel's temporaries to a
# few MB whatever the mesh size.
_BLOCK_VALUES = 1 << 16


class CompileError(ValueError):
    pass


@dataclass(frozen=True)
class ArgBlock:
    component: int
    participant: int
    side: object  # None, '+', or '-'
    offset: int
    ndofs: int
    element: object


@dataclass
class LocalKernel:
    participants: list  # the measure's (integral type, mesh) pairs
    primal_kind: str  # 'cell2d', 'cell1d', or 'facet'
    quadrature: fe.QuadratureRule
    tape: list
    reg_vshapes: list
    out_reg: int
    coeff_slots: list  # (coefficient, component, participant, side)
    arguments: dict  # argument number -> Argument
    arg_blocks: dict  # argument number -> list of ArgBlock
    # arity <= 1: (register, argument instruction or None) pairs whose
    # contractions sum to the output; else None
    terms: list = None
    static: bool = False  # coefficient_degree(integrand) == (set(), 0)

    def __post_init__(self):
        self.arity = len(self.arguments)
        self.test_size, self.trial_size = (
            sum(b.ndofs for b in self.arg_blocks.get(n, [])) for n in (0, 1))
        # entities per tape pass, so that no register exceeds _BLOCK_VALUES
        widest = max(math.prod(v) for v in self.reg_vshapes)
        footprint = len(self.quadrature) * widest * (
            1 if self.terms is not None else self.test_size * self.trial_size)
        self.block_size = max(1, _BLOCK_VALUES // footprint)


def side_index(side):
    """Column of a restriction in a facet's (+, -) incident cells."""
    return 1 if side == "-" else 0


def coefficient_degree(integrand):
    """(coefficients read, degree in them), None if a sum is not homogeneous
    or an impure Analytic is read: (set(), 0) is static, fixed once planned
    like Constants and pure sources; ({u}, 1) is its u-derivative times u."""
    found = set()
    return found, _degree(integrand, found)


def _degree(node, found):
    """coefficient_degree's walk, adding the coefficients it meets to found
    (not a closure: a recursive one is a reference cycle that holds them)."""
    function = getattr(node, "function", node)  # an Indexed's function
    if isinstance(function, forms.Coefficient):
        found.add(function)
        return 1
    degrees = [_degree(operand, found) for operand in node.operands]
    if None in degrees or not getattr(node, "pure", True):  # Analytic
        return None
    if isinstance(node, forms.Sum):  # homogeneous: of one degree
        return degrees[0] if degrees[0] == degrees[1] else None
    return sum(degrees)


def default_quadrature_degree(integral):
    """2 * the largest degree of an element component in the integrand,
    plus 2 on bilinear geometry."""
    pmax = 1
    for node in forms.walk(integral.integrand):
        if isinstance(node, forms.Indexed):
            pmax = max(pmax, node.function.space.element[node.component].degree)
        elif isinstance(node, forms._Function):  # of a one-component space
            pmax = max(pmax, node.space.element[0].degree)
    qgeom = 0
    for _, mesh in integral.measure.participants():
        if mesh.dim == 2 and CellType.QUADRILATERAL in mesh.cell_type_set:
            qgeom = 2
    return 2 * pmax + qgeom


class _Builder:
    """Builds the instruction tape for one integral that validate_form
    accepts.

    With at most one argument the tape holds argument-free registers only:
    visit returns a test-function-dependent value as a list of terms
    (c, instr, bshape, post): c an argument-free register (None for 1),
    instr the aval/agrad instruction of a basis of value shape bshape.  A
    term's value is c * basis, or sum_i c_i basis_i where c has the basis's
    shape, times the vector register post unless it is None.
    contraction_terms sums the terms that read one argument instruction
    into one register.  Bilinear tapes keep materializing argument
    registers bit for bit, the `inner` special case of _run_tape with
    them, until the benchmark's exact nnz check no longer pins their
    roundoff (ROADMAP items 1 and 3); then they move onto the same
    contraction and both go.
    """

    def __init__(self, integral):
        participants = self.participants = integral.measure.participants()
        self.pindex = {mesh.id: i for i, (_, mesh) in enumerate(participants)}
        self.tape = []
        self.vshapes = []
        self.argdeps = []
        self.coeff_slots = []
        self._slot_index = {}
        self._visited = {}
        self._pushed = {}
        self._layout_arguments(integral)
        self.factored = len(self.arguments) < 2

    def _layout_arguments(self, integral):
        """arguments (number -> Argument, as Form.arguments finds them),
        arg_blocks (number -> blocks on its dof axis) and the block of each
        (number, component, side)."""
        self.arguments = dict(sorted(
            forms.Form([integral]).arguments().items()))
        used = {number: set() for number in self.arguments}
        for node in forms.walk(integral.integrand):
            arg = getattr(node, "function", node)  # an Indexed's function
            if isinstance(arg, forms.Argument):
                used[arg.number].add(getattr(node, "component", 0))
        self.arg_blocks, self._blocks = {}, {}
        for number, arg in self.arguments.items():
            layout = self.arg_blocks[number] = []
            offset = 0
            for comp in sorted(used[number]):
                pidx = self.pindex[arg.space.meshes[comp].id]
                element = arg.space.element[comp]
                sides = (("+", "-") if self.participants[pidx][0] == "dS"
                         else (None,))
                for side in sides:
                    block = ArgBlock(comp, pidx, side, offset,
                                     element.num_dofs, element)
                    layout.append(block)
                    self._blocks[(number, comp, side)] = block
                    offset += element.num_dofs

    def _push(self, instr, vshape, argdeps=frozenset()):
        """One register per distinct instruction, constants told by bits."""
        key = (("const", instr[1].hex(), vshape) if instr[0] == "const"
               else instr)
        if key not in self._pushed:
            self.tape.append(instr)
            self.vshapes.append(vshape)
            self.argdeps.append(argdeps)
            self._pushed[key] = len(self.tape) - 1
        return self._pushed[key]

    def _coeff_slot(self, coeff, component, pidx, side):
        key = (coeff.count, component, side_index(side))
        slot = self._slot_index.get(key)
        if slot is None:
            slot = len(self.coeff_slots)
            self._slot_index[key] = slot
            self.coeff_slots.append((coeff, component, pidx, side))
        return slot

    def _resolve_function(self, expr, side):
        """Unwrap restrictions/indexing down to (function, component, side)."""
        while isinstance(expr, forms.Restricted):
            side = expr.side
            expr = expr.operands[0]
        if isinstance(expr, forms.Indexed):
            return expr.function, expr.component, side
        if isinstance(expr, forms._Function):
            return expr, 0, side
        raise CompileError(f"unsupported node kind under a differential "
                           f"operator: {type(expr).__name__}")

    def _function_value(self, func, component, side, op):
        mesh = func.space.meshes[component]
        element = func.space.element[component]
        pidx = self.pindex[mesh.id]
        if op != "val" and mesh.dim != 2:
            raise CompileError("gradients on codim-1 meshes are not supported")
        vshape = element.value_shape
        if op == "grad":
            vshape = vshape + (2,)
        sidx = side_index(side)
        if isinstance(func, forms.Argument):
            block = self._blocks[(func.number, component, side)]
            instr = (f"a{op}", func.number, block, pidx, sidx)
            if self.factored:
                return [(None, instr, vshape, None)]
            return self._push(instr, vshape, frozenset([func.number]))
        slot = self._coeff_slot(func, component, pidx, side)
        return self._push((f"c{op}", slot, pidx, sidx, element), vshape)

    def _const(self, value, shape=()):
        """A fixed value's register, its (1, 1, 1, 1, *shape) array built
        here once, read-only."""
        array = np.full((1, 1, 1, 1) + shape, value)
        array.setflags(write=False)
        return self._push(("const", value, array), shape)

    def _deps(self, value):  # a list of terms depends on the test function
        return (frozenset([0]) if isinstance(value, list)
                else self.argdeps[value])

    def _mul(self, c, f):
        return f if c is None else self._push(
            ("mul", c, f), self.vshapes[c] or self.vshapes[f])

    def _scale(self, term, f, inner):
        """A term times, or (inner) contracted with, the register f."""
        c, instr, bshape, post = term
        cshape = () if c is None else self.vshapes[c]
        if post is not None and inner:
            f, post = self._push(("inner", f, post), ()), None
        elif cshape and bshape and self.vshapes[f]:
            return c, instr, bshape, f  # a vector times a contracted term
        elif inner and cshape and not bshape:  # sum_i f_i c_i basis
            return self._push(("inner", f, c), ()), instr, bshape, None
        return self._mul(c, f), instr, bshape, post

    def visit(self, expr, side=None):
        """expr's register or terms, emitted on its first visit under side
        and reused on every later one; expressions compare by identity."""
        if (expr, side) not in self._visited:
            self._visited[expr, side] = self._emit(expr, side)
        return self._visited[expr, side]

    def _emit(self, expr, side):
        if isinstance(expr, (forms.Zero, forms.Constant)):
            return self._const(getattr(expr, "value", 0.0), expr.shape)
        if isinstance(expr, forms.Analytic):
            return self._push(("analytic", expr), expr.shape)
        if isinstance(expr, forms.FacetNormal):
            return self._push(("normal", self.pindex[expr.mesh.id],
                               side_index(side)), (2,))
        if isinstance(expr, (forms.Indexed, forms._Function)):
            func, component, side = self._resolve_function(expr, side)
            return self._function_value(func, component, side, "val")
        if isinstance(expr, forms.Grad):
            func, component, side = self._resolve_function(expr.operands[0],
                                                           side)
            return self._function_value(func, component, side, "grad")
        if isinstance(expr, forms.Restricted):
            return self.visit(expr.operands[0], expr.side)
        if isinstance(expr, forms.Sum):
            a = self.visit(expr.operands[0], side)
            b = self.visit(expr.operands[1], side)
            if self._deps(a) != self._deps(b):
                raise CompileError("a sum mixes terms that depend on "
                                   "different arguments")
            if isinstance(a, list):
                return a + b
            return self._push(("add", a, b), self.vshapes[a] or self.vshapes[b],
                              self.argdeps[a])
        if isinstance(expr, (forms.Product, forms.Inner)):
            a = self.visit(expr.operands[0], side)
            b = self.visit(expr.operands[1], side)
            if self._deps(a) & self._deps(b):
                raise CompileError("form is nonlinear in an argument")
            if isinstance(a, list) or isinstance(b, list):
                terms, f = (a, b) if isinstance(a, list) else (b, a)
                inner = isinstance(expr, forms.Inner)
                return [self._scale(t, f, inner) for t in terms]
            deps = self.argdeps[a] | self.argdeps[b]
            if isinstance(expr, forms.Product):
                vshape = self.vshapes[a] if self.vshapes[a] else self.vshapes[b]
                return self._push(("mul", a, b), vshape, deps)
            return self._push(("inner", a, b), (), deps)
        raise CompileError(f"unsupported node kind: {type(expr).__name__}")

    def contraction_terms(self, out):
        """The kernel's terms (c, instr): one register per argument
        instruction, in the order of first use; a functional's one term
        has instr None."""
        one = self._const(1.0)
        if not isinstance(out, list):  # a functional
            return [(out, None)]
        merged = {}
        for c, instr, _, _ in out:
            c = one if c is None else c
            merged[instr] = c if instr not in merged else self._push(
                ("add", merged[instr], c), self.vshapes[c])
        return [(c, instr) for instr, c in merged.items()]


def compile_integral(integral):
    """Compile one integral into a LocalKernel.  The integral is checked
    here, once, by forms.validate_form; the first diagnostic raises.  The
    rule is on its primal cells, or on an interval for facet and codim-1
    primal entities, of the measure's quadrature degree, else
    default_quadrature_degree."""
    diagnostics = forms.validate_form(forms.Form([integral]))
    measure = integral.measure
    if diagnostics:
        d = diagnostics[0]
        raise CompileError(f"invalid form: {measure!r} at {d.path}: "
                           f"{d.message}")
    primal_kind = ("facet" if measure.integral_type != "dx" else
                   "cell2d" if measure.mesh.dim == 2 else "cell1d")
    qdeg = measure.quadrature_degree
    if qdeg is None:
        qdeg = default_quadrature_degree(integral)
    try:
        rule = fe.make_quadrature(measure.mesh.cell_type if primal_kind ==
                                  "cell2d" else CellType.INTERVAL, qdeg)
    except ValueError as exc:
        raise CompileError(f"{measure!r}: {exc}") from exc
    builder = _Builder(integral)
    if 1 in builder.arguments and 0 not in builder.arguments:
        raise CompileError("integral has a trial function but no test function")
    out = builder.visit(integral.integrand)
    terms = None
    if builder.factored:
        terms = builder.contraction_terms(out)
    return LocalKernel(participants=builder.participants,
                       primal_kind=primal_kind, quadrature=rule,
                       tape=builder.tape, reg_vshapes=builder.vshapes,
                       out_reg=None if terms else out,
                       coeff_slots=builder.coeff_slots,
                       arguments=builder.arguments,
                       arg_blocks=builder.arg_blocks, terms=terms,
                       static=coefficient_degree(
                           integral.integrand) == (set(), 0))


# ---------------------------------------------------------------------------
# geometry evaluation


def _inv_2x2(J):
    """Inverses and determinants of (..., 2, 2) matrices, entry by entry.
    Raises where |det J| <= _SINGULAR_RTOL |J|_F^2, a scale-free test."""
    (a, b), (c, d) = np.moveaxis(J, (-2, -1), (0, 1))
    det = a * d - b * c
    if np.any(np.abs(det) <= _SINGULAR_RTOL * (a * a + b * b + c * c + d * d)):
        raise ValueError("non-conforming or degenerate geometry")
    inv = np.empty(J.shape)
    inv[..., 0, 0], inv[..., 0, 1] = d / det, -b / det
    inv[..., 1, 0], inv[..., 1, 1] = -c / det, a / det
    return inv, det


def _cell_inverse(cell_type, vertices, ref):
    """_inv_2x2 of the Jacobians of cells (E, nverts, 2) at points ref
    (E|1, nq, 2): read-only (E, nq, 2, 2) and (E, nq) arrays."""
    point = ref[:1, :1] if cell_type is CellType.TRIANGLE else ref
    inv, det = _inv_2x2(fe.geometry_jacobian(cell_type, vertices, point))
    shape = (len(vertices), ref.shape[1])
    return np.broadcast_to(inv, shape + (2, 2)), np.broadcast_to(det, shape)


def align_interface_quadrature(phys_points, cell_type, cell_vertices):
    """Reference coordinates of physical points inside a participant cell.

    phys_points (npts, 2) and cell_vertices (nverts, 2) describe one cell;
    with a leading entity axis, (E, npts, 2) and (E, nverts, 2), E cells at
    once, returning (E, npts, dim).  Affine cells are inverted in closed
    form; bilinear quadrilaterals with Newton iteration, vectorized over all
    points.  Raises if any point does not map back onto itself to within
    1e-10 cell diameters, or lies outside its cell by more than 1e-10 in
    reference coordinates, which catches non-conforming inputs.
    """
    cell_type = CellType(cell_type)
    phys = np.atleast_2d(np.asarray(phys_points, dtype=float))
    verts = np.asarray(cell_vertices, dtype=float)
    if cell_type is CellType.QUADRILATERAL:
        extent = np.max(np.abs(verts), axis=(-2, -1))[..., None, None]
        ref = np.full(phys.shape, 0.5)
        for _ in range(_NEWTON_MAXIT):
            residual = fe.geometry_map(cell_type, verts, ref) - phys
            if np.all(np.abs(residual) < _NEWTON_TOL * extent):
                break
            Jinv, _ = _inv_2x2(fe.geometry_jacobian(cell_type, verts, ref))
            ref = ref - (Jinv @ residual[..., None])[..., 0]
        else:
            raise CompileError("non-conforming or degenerate geometry: point "
                               "pullback did not converge")
    else:
        # affine: the Jacobian is constant; take it at the reference origin
        J = fe.geometry_jacobian(cell_type, verts, np.zeros(
            (1, cell_type.dim)))[..., 0, :, :]
        if cell_type is CellType.INTERVAL:  # least squares along the segment
            Jinv = np.swapaxes(J, -1, -2) / np.sum(J * J, axis=(-2, -1),
                                                   keepdims=True)
        else:
            Jinv, _ = _inv_2x2(J)
        ref = (phys - verts[..., :1, :]) @ np.swapaxes(Jinv, -1, -2)
    if not phys.size:
        return ref
    check = fe.geometry_map(cell_type, verts, ref)
    gaps = verts[..., :, None, :] - verts[..., None, :, :]  # for diameters
    diameter = np.sqrt(np.max(np.sum(gaps * gaps, axis=-1), axis=(-2, -1)))
    if np.any(np.abs(check - phys) > GEOMETRY_TOL * diameter[..., None, None]):
        raise CompileError("non-conforming or degenerate geometry: point "
                           "pullback did not converge")
    if cell_type is CellType.TRIANGLE:
        inside = (ref.min() >= -GEOMETRY_TOL
                  and ref.sum(axis=-1).max() <= 1.0 + GEOMETRY_TOL)
    else:
        inside = ref.min() >= -GEOMETRY_TOL and ref.max() <= 1.0 + GEOMETRY_TOL
    if not inside:
        raise CompileError("non-conforming or degenerate geometry: physical "
                           "points lie outside their cell")
    return ref


class _Side:
    """One participant side over all entities of a measure: its cells and,
    computed on first use, reference points, basis tables, inverse
    Jacobians (a triangle's once per cell, a zero stride over the points),
    argument tables pushed forward and padded into their dof axis, basis
    planes, and outward facet normals.  Arrays carry a leading entity axis
    of length E, or 1 where they are the same for every entity."""

    def __init__(self, mesh, cells, facets, X, rule, primal_vertices,
                 primal_jinv):
        self.cells = cells
        self.cell_type = mesh.cell_type
        self.vertices = mesh.coords_of_cells(cells)
        self.facet_ends = (None if facets is None
                           else mesh.coords_of_facets(facets))
        self._X = X
        self._rule = rule
        # a cell participant on the primal cells themselves maps the
        # reference rule points to X without a pullback, and shares their
        # inverse Jacobians where the primal geometry has them
        self._identity = (facets is None and primal_vertices is not None
                          and np.array_equal(self.vertices, primal_vertices))
        if self._identity and primal_jinv is not None:
            self.jinv = primal_jinv
        self._tables = {}
        self._built = {}  # argument tables and planes, by key

    @cached_property
    def ref(self):
        if self._identity:
            return self._rule.points[None]
        return align_interface_quadrature(self._X, self.cell_type,
                                          self.vertices)

    def tables(self, element):
        """Basis values and reference gradients, (E|1, nq, ndofs, ...)."""
        tab = self._tables.get(element)
        if tab is None:
            lead = self.ref.shape[:2]
            tab = self._tables[element] = tuple(
                t.reshape(lead + t.shape[1:]) for t in element.tabulate(
                    self.ref.reshape(-1, self.ref.shape[-1])))
        return tab

    @cached_property
    def jinv(self):
        return _cell_inverse(self.cell_type, self.vertices, self.ref)[0]

    def argument(self, element, op, offset, size):
        """Basis values ('aval') or physical gradients ('agrad') of an
        argument block, placed at dofs offset.. of a dof axis of length
        size and zero elsewhere: (E|1, nq, size, ...).  Computed once and
        read-only."""
        key = (element, op, offset, size)
        table = self._built.get(key)
        if table is None:
            if size == element.num_dofs:
                vals, grads = self.tables(element)
                table = (vals if op == "aval"
                         else push_forward(grads, self.jinv))
            else:
                own = self.argument(element, op, 0, element.num_dofs)
                table = np.zeros(own.shape[:2] + (size,) + own.shape[3:])
                table[:, :, offset:offset + element.num_dofs] = own
            table.setflags(write=False)
            self._built[key] = table
        return table

    def planes(self, element, op):
        """Basis values ('cval', 'aval'), reference gradients ('cgrad') or
        physical gradients ('agrad') as contiguous planes (E|1, nq k,
        ndofs), k values per point, for one (batched) matmul.  Computed
        once, read-only."""
        key = (element, "cval" if op == "aval" else op)
        planes = self._built.get(key)
        if planes is None:
            table = (self.argument(element, op, 0, element.num_dofs)
                     if op == "agrad" else self.tables(element)[op == "cgrad"])
            planes = self._built[key] = np.ascontiguousarray(np.moveaxis(
                table, 2, -1)).reshape(len(table), -1, element.num_dofs)
            planes.setflags(write=False)
        return planes

    @cached_property
    def normal(self):
        """Unit normals (E, 2) of the facets, outward from this side."""
        p0, p1 = self.facet_ends[:, 0], self.facet_ends[:, 1]
        n = np.stack([p1[:, 1] - p0[:, 1], p0[:, 0] - p1[:, 0]], axis=1)
        n /= np.linalg.norm(n, axis=1, keepdims=True)
        inward = np.sum(n * (0.5 * (p0 + p1) - self.vertices.mean(axis=1)),
                        axis=1) < 0
        n[inward] *= -1.0
        return n


class MeasureGeometry:
    """Quadrature geometry of one measure over all its iteration entities.

    entities is (E, P): row k holds the k-th primal entity and, per
    participant, its resolved cell ('dx') or facet ('ds', 'dS').  The
    physical points X (E, nq, 2) and scaled weights wq (E, nq) live on the
    primal entities; side(p, s) is participant p's side s (0 is '+' or the
    only side, 1 is '-').  Holds arrays only, no meshes.  Jacobians and
    their inverses are computed entry by entry, on (E, nq) planes; an
    affine (triangle) map's once per cell, broadcast over the points.
    """

    def __init__(self, participants, primal_kind, rule, entities):
        self.entities = entities
        primal = participants[0][1]
        first = entities[:, 0]
        primal_vertices = jinv = None
        if primal_kind == "cell2d":
            primal_vertices = primal.coords_of_cells(first)
            self.X = fe.geometry_map(primal.cell_type, primal_vertices,
                                     rule.points)
            jinv, det = _cell_inverse(primal.cell_type, primal_vertices,
                                      rule.points[None])
            self.wq = np.abs(det) * rule.weights
        else:
            if primal_kind == "cell1d":
                primal_vertices = ends = primal.coords_of_cells(first)
            else:
                ends = primal.coords_of_facets(first)
            self.X = fe.geometry_map(CellType.INTERVAL, ends, rule.points)
            length = np.linalg.norm(ends[:, 1] - ends[:, 0], axis=1)
            self.wq = length[:, None] * rule.weights
        self._sides = {}
        for pidx, (itype, mesh) in enumerate(participants):
            ids = entities[:, pidx]
            facets = None if itype == "dx" else ids
            for sidx in range(2 if itype == "dS" else 1):
                cells = ids if facets is None else mesh.facet_sides[ids, sidx]
                self._sides[(pidx, sidx)] = _Side(
                    mesh, cells, facets, self.X, rule, primal_vertices, jinv)

    def __len__(self):
        return len(self.entities)

    def side(self, pidx, sidx):
        return self._sides[(pidx, sidx)]


# ---------------------------------------------------------------------------
# kernel execution


def _block(a, lo, hi):
    """Rows lo:hi of an entity-leading array; entity-independent arrays
    (leading axis 1) pass through."""
    return a if len(a) == 1 else a[lo:hi]


def push_forward(grads, jinv):
    """Physical gradients from reference gradients (E|1, nq, ..., 2) and
    inverse Jacobians (E, nq, 2, 2).  Products and the sum are separate
    ufuncs, never fused multiply-adds, so every entity's result is bitwise
    the one of a per-cell evaluation."""
    j = jinv.reshape(jinv.shape[:2] + (1,) * (grads.ndim - 3) + (2, 2))
    # per component: ufuncs over a trailing axis of length 2 are slow
    out = np.empty(np.broadcast_shapes(grads.shape, j.shape[:-1]))
    for k in (0, 1):
        out[..., k] = grads[..., 0] * j[..., 0, k] + grads[..., 1] * j[..., 1, k]
    return out


def _align_ndim(a, b):
    """Pad the trailing value axes of the operand with fewer of them."""
    n = max(a.ndim, b.ndim)
    return (a.reshape(a.shape + (1,) * (n - a.ndim)),
            b.reshape(b.shape + (1,) * (n - b.ndim)))


def _contract(kernel, geometry, regs, lo, hi):
    """Element vectors (B, test), or values (B, 1) of a functional, of
    entities lo:hi: each term's register, times the weights, is contracted
    over points and components with its argument's planes by one (batched)
    matmul."""
    B = hi - lo
    out = np.zeros((B, max(kernel.test_size, 1)))
    for reg, instr in kernel.terms:
        c = regs[reg]
        m = geometry.wq[lo:hi, :, None] * c.reshape(c.shape[:2] + (-1,))
        if instr is None:
            out[:, 0] += m.sum(axis=(1, 2))
            continue
        block = instr[2]
        planes = _block(geometry.side(*instr[3:]).planes(block.element,
                                                         instr[0]), lo, hi)
        out[:, block.offset:block.offset + block.ndofs] += (
            m.reshape(B, -1) @ planes[0] if len(planes) == 1
            else (m.reshape(B, 1, -1) @ planes)[:, 0])
    return out


def _analytic(expr, X):
    """An Analytic's values at points X (B, nq, 2) as a register (B, nq, 1,
    1, *shape): fn(x, y) gives one value, or a pair for shape (2,), each a
    scalar or a (B, nq) array."""
    lead = X.shape[:2]
    raw = expr.fn(X[..., 0], X[..., 1])
    try:
        parts = [np.asarray(p, dtype=float)
                 for p in (raw if expr.shape else [raw])]
        if len(parts) != math.prod(expr.shape) or any(
                p.ndim not in (0, 2) for p in parts):
            raise ValueError
        parts = [np.broadcast_to(p, lead)[..., None, None] for p in parts]
    except (TypeError, ValueError):  # not a pair, or not of X's shape
        want = "a pair of values" if expr.shape else "one value"
        raise CompileError(f"{expr!r} must return {want} per point, as an "
                           f"Analytic of shape {expr.shape}") from None
    return np.stack(parts, axis=-1) if expr.shape else parts[0]


def _run_tape(kernel, geometry, w, lo, hi):
    """Element tensors (B, test|1, trial|1) of entities lo:hi, through
    _contract unless the tape is materialized."""
    nq, test, trial = (len(kernel.quadrature), kernel.test_size,
                       kernel.trial_size)
    regs = []
    for instr, vshape in zip(kernel.tape, kernel.reg_vshapes):
        op = instr[0]
        if op == "const":
            val = instr[2]
        elif op == "analytic":
            val = _analytic(instr[1], geometry.X[lo:hi])
        elif op == "normal":
            _, pidx, sidx = instr
            nrm = geometry.side(pidx, sidx).normal[lo:hi]
            val = nrm.reshape(len(nrm), 1, 1, 1, 2)
        elif op in ("cval", "cgrad"):
            _, slot, pidx, sidx, element = instr
            side = geometry.side(pidx, sidx)
            wb = w[slot][lo:hi]
            planes = _block(side.planes(element, op), lo, hi)
            out = (wb @ planes[0].T if len(planes) == 1  # one BLAS product
                   else planes @ wb[:, :, None]).reshape((hi - lo, -1)
                                                         + vshape)
            if op == "cgrad":
                out = push_forward(out, side.jinv[lo:hi])
            val = out.reshape(out.shape[:2] + (1, 1) + vshape)
        elif op in ("aval", "agrad"):
            _, number, block, pidx, sidx = instr
            size = test if number == 0 else trial
            table = _block(geometry.side(pidx, sidx).argument(
                block.element, op, block.offset, size), lo, hi)
            axes = (size, 1) if number == 0 else (1, size)
            val = table.reshape(table.shape[:2] + axes + vshape)
        elif op in ("add", "mul"):
            a, b = _align_ndim(regs[instr[1]], regs[instr[2]])
            val = a + b if op == "add" else a * b
        elif op == "inner":
            # a sum of component products: summing a tiny trailing axis of
            # the full product is several times slower
            a, b = (regs[r] for r in instr[1:])
            a = a.reshape(a.shape[:4] + (-1,))
            b = b.reshape(b.shape[:4] + (-1,))
            val = a[..., 0] * b[..., 0]
            for i in range(1, a.shape[-1]):
                val = val + a[..., i] * b[..., i]
        else:
            raise CompileError(f"unknown tape instruction {op!r}")
        regs.append(val)
    if kernel.terms is not None:
        return _contract(kernel, geometry, regs, lo, hi)
    out = np.broadcast_to(regs[kernel.out_reg], (hi - lo, nq, test, trial))
    return np.einsum("bq,bqvu->bvu", geometry.wq[lo:hi], out)


def execute_kernel(kernel, geometry, w):
    """Element tensors of a kernel on every entity of its measure.

    w holds one (E, ndofs) array of coefficient dof values per kernel slot.
    Returns (E, test, trial), (E, test) or (E,) by arity.  The tape runs
    over blocks of kernel.block_size entities in ascending order; results
    are bitwise reproducible for identical inputs.
    """
    E = len(geometry)
    out = np.empty((E, kernel.test_size, kernel.trial_size)[:1 + kernel.arity])
    for lo in range(0, E, kernel.block_size):
        hi = min(lo + kernel.block_size, E)
        out[lo:hi] = _run_tape(kernel, geometry, w, lo,
                               hi).reshape((hi - lo,) + out.shape[1:])
    return out
