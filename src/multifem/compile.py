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

Kernels are compiled once per signature and kept, mesh-free, in a module
cache of at most KERNEL_CACHE_SIZE, least recently used out first.  A
signature, the key of forms.analyze, is the integrand as rows in post
order (one per node and restriction side, operands by row index, with
elements, each Constant's bits and each Analytic's function and purity),
the final quadrature degree and the measure's participant kinds, dims and
cell types.  _compile builds a kernel from its signature alone, so no key
can leave out a fact the builder reads: integrals of one signature compile
to one tape and a new C/h compiles anew.  compile_integral returns the
kept kernel itself, which nothing may mutate: it names terminals by number,
components by offset and no measure, and the assembler's plan binds it
through its integral's forms.Analysis, so the cache holds no mesh or form
terminal.  Sides at a rule's own points share basis tables per element
and rule.
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
KERNEL_CACHE_SIZE = 256
_kernels = {}  # signature -> mesh-free LocalKernel, least recently used first


class CompileError(ValueError):
    pass


@dataclass(frozen=True)
class ArgBlock:
    component: int  # offset from its argument's first component
    participant: int
    side: object  # None, '+', or '-'
    offset: int
    element: object  # holds the block's width, num_dofs


@dataclass
class LocalKernel:
    # one per signature, naming no measure: MeasureGeometry places its rule
    quadrature: fe.QuadratureRule
    tape: list
    reg_vshapes: list
    out_reg: int
    coeff_slots: list  # (terminal, component offset, participant, side)
    arguments: dict  # argument number -> terminal
    arg_blocks: dict  # argument number -> list of ArgBlock
    # arity <= 1: (register, argument instruction or None) pairs whose
    # contractions sum to the output; else None
    terms: list = None

    def __post_init__(self):
        self.arity = len(self.arguments)
        self.test_size, self.trial_size = (
            sum(b.element.num_dofs for b in self.arg_blocks.get(n, []))
            for n in (0, 1))
        # entities per tape pass, so that no register exceeds _BLOCK_VALUES
        widest = max(math.prod(v) for v in self.reg_vshapes)
        footprint = len(self.quadrature) * widest * (
            1 if self.terms is not None else self.test_size * self.trial_size)
        self.block_size = max(1, _BLOCK_VALUES // footprint)


def side_index(side):
    """Column of a restriction in a facet's (+, -) incident cells."""
    return 1 if side == "-" else 0


class _Builder:
    """Builds the instruction tape of one kernel signature (forms.analyze's
    key, whose rules it has passed) from its rows alone.  Rows are visited
    from the last one, the integrand's, depth first, operands in order,
    each once; a function row reached only under Grad emits no value.

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

    def __init__(self, kinds, rows):
        self.kinds, self.rows = kinds, rows
        self.tape, self.vshapes, self.coeff_slots = [], [], []
        self._slot_index, self._visited, self._pushed = {}, {}, {}
        self._layout_arguments()
        self.factored = len(self.arguments) < 2

    def _layout_arguments(self):
        """arguments (number -> terminal), arg_blocks (number -> blocks on
        its dof axis) and the block of each (number, offset k, side)."""
        read = {}  # number -> (terminal, {component offset: row})
        for row in self.rows:
            if row[0] in forms._FUNCTIONS and row[7] is not None:
                read.setdefault(row[7], (row[3], {}))[1][row[4]] = row
        self.arguments = {n: read[n][0] for n in sorted(read)}
        self.arg_blocks, self._blocks = {}, {}
        for number in self.arguments:
            layout = self.arg_blocks[number] = []
            offset = 0
            for k, row in sorted(read[number][1].items()):
                element, pidx = row[5:7]
                sides = ("+", "-") if self.kinds[pidx][0] == "dS" else (None,)
                for side in sides:
                    block = ArgBlock(k, pidx, side, offset, element)
                    layout.append(block)
                    self._blocks[(number, k, side)] = block
                    offset += element.num_dofs

    def _push(self, instr, vshape):
        """One register per distinct instruction, constants told by bits."""
        key = (("const", instr[1].hex(), vshape) if instr[0] == "const"
               else instr)
        if key not in self._pushed:
            self.tape.append(instr)
            self.vshapes.append(vshape)
            self._pushed[key] = len(self.tape) - 1
        return self._pushed[key]

    def _function_value(self, row, op, vshape):
        _, _, side, t, k, element, pidx, number = row
        sidx = side_index(side)
        if number is not None:
            instr = (f"a{op}", number, self._blocks[(number, k, side)], pidx,
                     sidx)
            if self.factored:
                return [(None, instr, vshape, None)]
            return self._push(instr, vshape)
        slot = (t, k, pidx, side)
        if slot not in self._slot_index:
            self._slot_index[slot] = len(self.coeff_slots)
            self.coeff_slots.append(slot)
        return self._push((f"c{op}", self._slot_index[slot], pidx, sidx,
                           element), vshape)

    def _const(self, value, shape=()):
        """A fixed value's register, its (1, 1, 1, 1, *shape) array built
        here once, read-only."""
        array = np.full((1, 1, 1, 1) + shape, value)
        array.setflags(write=False)
        return self._push(("const", value, array), shape)

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

    def visit(self, r):
        """Row r's register or terms, emitted on its first visit."""
        if r not in self._visited:
            self._visited[r] = self._emit(self.rows[r])
        return self._visited[r]

    def _emit(self, row):
        kind, shape = row[:2]
        if kind is forms.Constant or kind is forms.Zero:
            return self._const(float.fromhex(row[2]), shape)
        if kind is forms.Analytic:
            return self._push(("analytic", row[3]), shape)
        if kind is forms.FacetNormal:
            return self._push(("normal", row[3], side_index(row[2])), shape)
        if kind is forms.Grad:
            return self._function_value(self.rows[row[2]], "grad", shape)
        if kind not in (forms.Sum, forms.Product, forms.Inner):
            return self._function_value(row, "val", shape)
        a, b = self.visit(row[2]), self.visit(row[3])
        if kind is forms.Sum:
            return a + b if isinstance(a, list) else self._push(
                ("add", a, b), self.vshapes[a] or self.vshapes[b])
        if isinstance(a, list) or isinstance(b, list):
            terms, f = (a, b) if isinstance(a, list) else (b, a)
            inner = kind is forms.Inner
            return [self._scale(t, f, inner) for t in terms]
        if kind is forms.Product:
            vshape = self.vshapes[a] if self.vshapes[a] else self.vshapes[b]
            return self._push(("mul", a, b), vshape)
        return self._push(("inner", a, b), ())

    def contraction_terms(self, out):
        """The kernel's terms (c, instr): one register per argument
        instruction, in the order of first use; a functional's one term
        has instr None."""
        if not isinstance(out, list):  # a functional
            return [(out, None)]
        one = self._const(1.0)
        merged = {}
        for c, instr, _, _ in out:
            c = one if c is None else c
            merged[instr] = c if instr not in merged else self._push(
                ("add", merged[instr], c), self.vshapes[c])
        return [(c, instr) for instr, c in merged.items()]


def compile_integral(integral):
    """The kept LocalKernel of one integral's signature, compiled on a
    miss.  The integral is read by forms.analyze, whose first fault raises;
    every integral of one signature gets the identical object."""
    analysis = forms.analyze(integral)
    measure = integral.measure
    if analysis.problems:
        path, message = analysis.problems[0]
        raise CompileError(f"invalid form: {measure!r} at {path}: {message}")
    kernel = _kernels.pop(analysis.key, None)
    if kernel is None:
        try:
            kernel = _compile(analysis.key)
        except ValueError as exc:  # no rule of the key's degree or cell
            raise CompileError(f"{measure!r}: {exc}") from exc
    _kernels[analysis.key] = kernel
    if len(_kernels) > KERNEL_CACHE_SIZE:
        del _kernels[next(iter(_kernels))]
    return kernel


def _compile(key):
    """The kept, mesh-free kernel of a signature, from it alone.  The rule
    is on the primal cells, or on an interval for facet and codim-1 primal
    entities, of the key's quadrature degree."""
    degree, kinds, rows = key
    itype, dim, cells = kinds[0]
    if itype != "dx" or dim != 2:
        cells = {CellType.INTERVAL}
    if len(cells) != 1:
        raise ValueError("mesh is hybrid, no unique cell type")
    rule = fe.make_quadrature(next(iter(cells)), degree)
    builder = _Builder(kinds, rows)
    out = builder.visit(len(rows) - 1)
    terms = builder.contraction_terms(out) if builder.factored else None
    return LocalKernel(quadrature=rule, tape=builder.tape,
                       reg_vshapes=builder.vshapes,
                       out_reg=None if terms else out,
                       coeff_slots=builder.coeff_slots,
                       arguments=builder.arguments,
                       arg_blocks=builder.arg_blocks, terms=terms)


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
                               f"pullback did not converge in {_NEWTON_MAXIT} "
                               "Newton steps")
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
        raise CompileError("non-conforming or degenerate geometry: "
                           "pulled-back point does not map back onto its "
                           "physical point")
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
    argument gradients pushed forward, basis planes, and outward facet
    normals.  Arrays carry a leading entity axis of length E, or 1 where
    they are the same for every entity."""

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
        # an identity side's tables are kept on its rule, per element
        self._tables = (rule.__dict__.setdefault("_tables", {})
                        if self._identity else {})
        self._built = {}  # gradient tables by element; planes by (element, op)

    @cached_property
    def ref(self):
        if self._identity:
            return self._rule.points[None]
        return align_interface_quadrature(self._X, self.cell_type,
                                          self.vertices)

    def tables(self, element):
        """Basis values and reference gradients, (E|1, nq, ndofs, ...),
        read-only."""
        tab = self._tables.get(element)
        if tab is None:
            lead = self.ref.shape[:2]
            tab = self._tables[element] = tuple(
                t.reshape(lead + t.shape[1:]) for t in element.tabulate(
                    self.ref.reshape(-1, self.ref.shape[-1])))
            for table in tab:
                table.setflags(write=False)
        return tab

    @cached_property
    def jinv(self):
        return _cell_inverse(self.cell_type, self.vertices, self.ref)[0]

    def argument(self, element, op):
        """Basis values ('aval') or physical gradients ('agrad') of an
        element, (E|1, nq, ndofs, ...): the tape pads them into a wider dof
        axis.  Computed once, read-only."""
        vals, grads = self.tables(element)
        if op == "aval":
            return vals
        table = self._built.get(element)
        if table is None:
            table = self._built[element] = push_forward(grads, self.jinv)
            table.setflags(write=False)
        return table

    def planes(self, element, op):
        """Basis values ('cval', 'aval'), reference gradients ('cgrad') or
        physical gradients ('agrad') as contiguous planes (E|1, nq k,
        ndofs), k values per point, for one (batched) matmul.  Computed
        once, read-only."""
        key = (element, "cval" if op == "aval" else op)
        planes = self._built.get(key)
        if planes is None:
            table = (self.argument(element, op) if op == "agrad"
                     else self.tables(element)[op == "cgrad"])
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

    participants are the measure's: the rule lies on 2-D primal cells,
    else (an interval rule) on codim-1 primal cells ('dx') or facets.
    entities is (E, P): row k holds the k-th primal entity and, per
    participant, its cell ('dx') or facet ('ds', 'dS').  X (E, nq, 2) and
    wq (E, nq), the points and scaled weights, lie on primal entities;
    side(p, s) is participant p's side s (0: '+' or the only side, 1: '-').
    Holds arrays only, no meshes; an affine map is inverted once per cell.
    """

    def __init__(self, participants, rule, entities):
        self.entities = entities
        itype, primal = participants[0]
        first = entities[:, 0]
        primal_vertices = jinv = None
        if rule.cell is not CellType.INTERVAL:  # on 2-D primal cells
            primal_vertices = primal.coords_of_cells(first)
            self.X = fe.geometry_map(primal.cell_type, primal_vertices,
                                     rule.points)
            jinv, det = _cell_inverse(primal.cell_type, primal_vertices,
                                      rule.points[None])
            self.wq = np.abs(det) * rule.weights
        else:
            if itype == "dx":  # codim-1 primal cells
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
        out[:, block.offset:block.offset + block.element.num_dofs] += (
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


def _run_tape(kernel, geometry, w, terminals, lo, hi):
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
            val = _analytic(terminals[instr[1]], geometry.X[lo:hi])
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
            size, n = test if number == 0 else trial, block.element.num_dofs
            table = _block(geometry.side(pidx, sidx).argument(
                block.element, op), lo, hi)
            if size > n:  # padded into the block's place on the dof axis
                own = table
                table = np.zeros(own.shape[:2] + (size,) + own.shape[3:])
                table[:, :, block.offset:block.offset + n] = own
            axes = (size, 1) if number == 0 else (1, size)
            val = table.reshape(table.shape[:2] + axes + vshape)
        elif op in ("add", "mul"):
            a, b = _align_ndim(regs[instr[1]], regs[instr[2]])
            val = a + b if op == "add" else a * b
        else:  # inner: a sum of component products; summing a tiny
            # trailing axis of the full product is several times slower
            a, b = (regs[r] for r in instr[1:])
            a = a.reshape(a.shape[:4] + (-1,))
            b = b.reshape(b.shape[:4] + (-1,))
            val = a[..., 0] * b[..., 0]
            for i in range(1, a.shape[-1]):
                val = val + a[..., i] * b[..., i]
        regs.append(val)
    if kernel.terms is not None:
        return _contract(kernel, geometry, regs, lo, hi)
    out = np.broadcast_to(regs[kernel.out_reg], (hi - lo, nq, test, trial))
    return np.einsum("bq,bqvu->bvu", geometry.wq[lo:hi], out)


def execute_kernel(kernel, geometry, w, terminals):
    """Element tensors of a kernel on every entity of its measure.

    w holds one (E, ndofs) array of coefficient dof values per kernel slot;
    terminals is the integral's Analysis.terminals, of which the tape
    evaluates the Analytics.  Returns (E, test, trial), (E, test) or (E,)
    by arity.  The tape runs over blocks of kernel.block_size entities in
    ascending order; results are bitwise reproducible for identical inputs.
    """
    E = len(geometry)
    out = np.empty((E, kernel.test_size, kernel.trial_size)[:1 + kernel.arity])
    for lo in range(0, E, kernel.block_size):
        hi = min(lo + kernel.block_size, E)
        out[lo:hi] = _run_tape(kernel, geometry, w, terminals, lo,
                               hi).reshape((hi - lo,) + out.shape[1:])
    return out
