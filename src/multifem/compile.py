"""Lowering of integrals to element-local interpreted kernels.

A kernel evaluates one integral on one iteration entity (a cell or facet of
the measure's primal mesh).  The integrand is linearized into a small tape of
numpy operations over quadrature points; argument-dependent values carry a
test and/or trial dof axis so the tape produces the whole element tensor in
one pass.  Quadrature lives on the primal entity; every participating mesh
gets reference points by pulling the physical quadrature points back through
its own cell geometry, which is what aligns integration across meshes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fe, forms
from .mesh import CellType

GEOMETRY_TOL = 1e-10
_NEWTON_TOL = 1e-13
_NEWTON_MAXIT = 25


class CompileError(ValueError):
    pass


_ROLE = {"dx": "cell", "ds": "exterior_facet", "dS": "interior_facet"}


@dataclass(frozen=True)
class Participant:
    mesh: object
    role: str


@dataclass(frozen=True)
class ArgBlock:
    component: int
    participant: int
    side: object  # None, '+', or '-'
    offset: int
    ndofs: int
    element: object


@dataclass
class SideGeom:
    """Geometry of one participating cell at the current entity."""

    cell_type: object = None
    cell_vertices: np.ndarray = None
    facet_endpoints: np.ndarray = None


@dataclass
class Geometry:
    primal: SideGeom
    participants: list


@dataclass
class PackedInputs:
    """Everything a kernel execution reads: output tensor t, coefficient dof
    values w (one array per kernel slot), and per-participant geometry g."""

    t: np.ndarray
    w: list
    g: Geometry


@dataclass
class LocalKernel:
    arity: int
    participants: list
    primal_kind: str  # 'cell2d', 'cell1d', or 'facet'
    quadrature: fe.QuadratureRule
    tape: list
    reg_vshapes: list
    out_reg: int
    coeff_slots: list  # (coefficient, component, participant, side)
    arg_blocks: dict  # argument number -> list of ArgBlock
    table_needs: list  # (participant, side_idx, element, need_grad)
    fixed_tables: dict  # element -> (values, reference gradients) at rule points

    @property
    def test_size(self):
        blocks = self.arg_blocks.get(0, [])
        return sum(b.ndofs for b in blocks)

    @property
    def trial_size(self):
        blocks = self.arg_blocks.get(1, [])
        return sum(b.ndofs for b in blocks)

    def output_shape(self):
        if self.arity == 2:
            return (self.test_size, self.trial_size)
        if self.arity == 1:
            return (self.test_size,)
        return ()


def _side_index(side):
    return 1 if side == "-" else 0


def default_quadrature_degree(integral):
    """2 * max participating element degree, plus 2 on bilinear geometry."""
    pmax = 1
    for node in forms.walk(integral.integrand):
        if isinstance(node, forms.Indexed):
            pmax = max(pmax, node.function.space.element[node.component].degree)
        elif isinstance(node, forms._Function):
            pmax = max(pmax, max(e.degree for e in node.space.element.sub_elements))
    qgeom = 0
    for _, mesh in integral.measure.participants():
        if mesh.dim == 2 and CellType.QUADRILATERAL in mesh.cell_types:
            qgeom = 2
    return 2 * pmax + qgeom


class _Builder:
    """Builds the instruction tape for one integral."""

    def __init__(self, integral, participants, pindex):
        self.integral = integral
        self.participants = participants
        self.pindex = pindex
        self.tape = []
        self.vshapes = []
        self.argdeps = []
        self.coeff_slots = []
        self._slot_index = {}
        self.table_needs = {}
        self.arg_blocks = self._layout_arguments(integral.integrand)

    def _layout_arguments(self, integrand):
        used = {}

        def scan(node):
            if isinstance(node, forms.Indexed):
                if isinstance(node.function, forms.Argument):
                    used.setdefault(node.function.number,
                                    (node.function, set()))[1].add(
                                        node.component)
                return
            if isinstance(node, forms.Argument):
                if node.space.num_components != 1:
                    raise CompileError("split() product-space arguments "
                                       "before integration")
                used.setdefault(node.number, (node, set()))[1].add(0)
                return
            for child in node.operands:
                scan(child)

        scan(integrand)
        blocks = {}
        for number, (arg, comps) in sorted(used.items()):
            layout = []
            offset = 0
            for comp in sorted(comps):
                mesh = arg.space.meshes[comp]
                pidx = self.pindex.get(mesh.id)
                if pidx is None:
                    raise CompileError(f"mesh {mesh.id} of argument component "
                                       f"{comp} does not participate")
                element = arg.space.element[comp]
                sides = ("+", "-") if (self.participants[pidx].role
                                       == "interior_facet") else (None,)
                for side in sides:
                    layout.append(ArgBlock(comp, pidx, side, offset,
                                           element.num_dofs, element))
                    offset += element.num_dofs
            blocks[number] = layout
        return blocks

    def _find_block(self, number, component, side):
        for block in self.arg_blocks[number]:
            if block.component == component and block.side == side:
                return block
        raise CompileError(f"no block for argument {number} component "
                           f"{component} side {side!r}")

    def _participant_of(self, mesh):
        pidx = self.pindex.get(mesh.id)
        if pidx is None:
            raise CompileError(f"mesh {mesh.id} does not participate in the "
                               f"measure")
        return pidx

    def _need_table(self, pidx, side, element, need_grad):
        key = (pidx, _side_index(side), element)
        self.table_needs[key] = self.table_needs.get(key, False) or need_grad

    def _check_side(self, pidx, side, what):
        role = self.participants[pidx].role
        if role == "interior_facet" and side is None:
            raise CompileError(f"{what} on an interior-facet participant "
                               f"must be restricted")
        if role != "interior_facet" and side is not None:
            raise CompileError(f"{what} on a {role} participant must not be "
                               f"restricted")

    def _push(self, instr, vshape, argdeps):
        self.tape.append(instr)
        self.vshapes.append(vshape)
        self.argdeps.append(argdeps)
        return len(self.tape) - 1

    def _coeff_slot(self, coeff, component, pidx, side):
        key = (coeff.count, component, _side_index(side))
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
            if expr.space.num_components != 1:
                raise CompileError("split() product-space functions before "
                                   "integration")
            return expr, 0, side
        raise CompileError(f"unsupported node kind under a differential "
                           f"operator: {type(expr).__name__}")

    def _function_value(self, func, component, side, op):
        mesh = func.space.meshes[component]
        element = func.space.element[component]
        pidx = self._participant_of(mesh)
        self._check_side(pidx, side, repr(func))
        if op != "val" and mesh.dim != 2:
            raise CompileError("gradients on codim-1 meshes are not supported")
        self._need_table(pidx, side, element, op == "grad")
        vshape = element.value_shape
        if op == "grad":
            vshape = vshape + (2,)
        sidx = _side_index(side)
        if isinstance(func, forms.Argument):
            block = self._find_block(func.number, component, side)
            deps = frozenset([func.number])
            return self._push((f"a{op}", func.number, block, pidx, sidx),
                              vshape, deps)
        slot = self._coeff_slot(func, component, pidx, side)
        return self._push((f"c{op}", slot, pidx, sidx, element), vshape,
                          frozenset())

    def visit(self, expr, side=None):
        if isinstance(expr, forms.Zero):
            return self._push(("zero", expr.shape), expr.shape, frozenset())
        if isinstance(expr, forms.Constant):
            return self._push(("const", expr.value), (), frozenset())
        if isinstance(expr, forms.Analytic):
            self._participant_of(expr.mesh)
            return self._push(("analytic", expr.fn), (), frozenset())
        if isinstance(expr, forms.FacetNormal):
            pidx = self._participant_of(expr.mesh)
            role = self.participants[pidx].role
            if role == "cell":
                raise CompileError("FacetNormal of a mesh participating "
                                   "through cells")
            self._check_side(pidx, side, "FacetNormal")
            return self._push(("normal", pidx, _side_index(side)), (2,),
                              frozenset())
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
            return self._push(("add", a, b), self.vshapes[a] or self.vshapes[b],
                              self.argdeps[a] | self.argdeps[b])
        if isinstance(expr, (forms.Product, forms.Inner)):
            a = self.visit(expr.operands[0], side)
            b = self.visit(expr.operands[1], side)
            if self.argdeps[a] & self.argdeps[b]:
                raise CompileError("form is nonlinear in an argument")
            deps = self.argdeps[a] | self.argdeps[b]
            if isinstance(expr, forms.Product):
                vshape = self.vshapes[a] if self.vshapes[a] else self.vshapes[b]
                return self._push(("mul", a, b), vshape, deps)
            return self._push(("inner", a, b), (), deps)
        raise CompileError(f"unsupported node kind: {type(expr).__name__}")


def compile_integral(integral):
    """Compile one integral into a LocalKernel."""
    measure = integral.measure
    participants = [Participant(mesh, _ROLE[itype])
                    for itype, mesh in measure.participants()]
    pindex = {p.mesh.id: i for i, p in enumerate(participants)}
    if measure.integral_type == "dx":
        primal_kind = "cell2d" if measure.mesh.dim == 2 else "cell1d"
    else:
        primal_kind = "facet"
    qdeg = measure.quadrature_degree
    if qdeg is None:
        qdeg = default_quadrature_degree(integral)
    qdeg = min(qdeg, fe.MAX_QUADRATURE_DEGREE)
    if primal_kind == "cell2d":
        rule = fe.make_quadrature(measure.mesh.cell_type, qdeg)
    else:
        rule = fe.make_quadrature(CellType.INTERVAL, qdeg)

    builder = _Builder(integral, participants, pindex)
    out_reg = builder.visit(integral.integrand)
    if builder.vshapes[out_reg] != ():
        raise CompileError("integrand does not reduce to a scalar")
    arity = len(builder.arg_blocks)
    if 1 in builder.arg_blocks and 0 not in builder.arg_blocks:
        raise CompileError("integral has a trial function but no test function")

    # Tables at the reference rule points serve every participant whose cell
    # geometry coincides with the primal cell (always true for the primal
    # itself on cell integrals).
    fixed_tables = {}
    if primal_kind in ("cell2d", "cell1d"):
        for (_, _, element) in builder.table_needs:
            if element not in fixed_tables and element.cell is rule.cell:
                fixed_tables[element] = element.tabulate(rule.points)

    table_needs = [(p, s, e, g) for (p, s, e), g in builder.table_needs.items()]
    return LocalKernel(arity=arity, participants=participants,
                       primal_kind=primal_kind, quadrature=rule,
                       tape=builder.tape, reg_vshapes=builder.vshapes,
                       out_reg=out_reg, coeff_slots=builder.coeff_slots,
                       arg_blocks=builder.arg_blocks, table_needs=table_needs,
                       fixed_tables=fixed_tables)


# ---------------------------------------------------------------------------
# geometry evaluation


def _inv_2x2(J):
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    if np.any(np.abs(det) < 1e-300):
        raise ValueError("non-conforming or degenerate geometry")
    inv = np.empty_like(J)
    inv[:, 0, 0] = J[:, 1, 1]
    inv[:, 0, 1] = -J[:, 0, 1]
    inv[:, 1, 0] = -J[:, 1, 0]
    inv[:, 1, 1] = J[:, 0, 0]
    return inv / det[:, None, None], det


def align_interface_quadrature(phys_points, cell_type, cell_vertices):
    """Reference coordinates of physical points inside a participant cell.

    Affine cells are inverted in closed form; bilinear quadrilaterals with
    Newton iteration.  Raises if the points do not lie in the cell (up to
    1e-10), which catches non-conforming inputs.
    """
    cell_type = CellType(cell_type)
    phys = np.atleast_2d(np.asarray(phys_points, dtype=float))
    verts = np.asarray(cell_vertices, dtype=float)
    if cell_type is CellType.INTERVAL:
        d = verts[1] - verts[0]
        t = (phys - verts[0]) @ d / np.dot(d, d)
        ref = t.reshape(-1, 1)
    elif cell_type is CellType.TRIANGLE:
        J = np.stack([verts[1] - verts[0], verts[2] - verts[0]], axis=1)
        ref = np.linalg.solve(J, (phys - verts[0]).T).T
    else:
        ref = np.full((len(phys), 2), 0.5)
        for _ in range(_NEWTON_MAXIT):
            residual = fe.geometry_map(cell_type, verts, ref) - phys
            if np.max(np.abs(residual)) < _NEWTON_TOL:
                break
            J = fe.geometry_jacobian(cell_type, verts, ref)
            Jinv, _ = _inv_2x2(J)
            ref = ref - np.einsum("pij,pj->pi", Jinv, residual)
        else:
            raise CompileError("non-conforming or degenerate geometry: point "
                               "pullback did not converge")
    check = fe.geometry_map(cell_type, verts, ref)
    if np.max(np.abs(check - phys)) > GEOMETRY_TOL:
        raise CompileError("non-conforming or degenerate geometry: point "
                           "pullback did not converge")
    if cell_type is CellType.TRIANGLE:
        inside = (ref.min() >= -GEOMETRY_TOL
                  and ref.sum(axis=1).max() <= 1.0 + GEOMETRY_TOL)
    else:
        inside = ref.min() >= -GEOMETRY_TOL and ref.max() <= 1.0 + GEOMETRY_TOL
    if not inside:
        raise CompileError("non-conforming or degenerate geometry: physical "
                           "points lie outside the participant cell")
    return ref


def _outward_normal(side_geom):
    p0, p1 = side_geom.facet_endpoints
    tang = p1 - p0
    n = np.array([tang[1], -tang[0]])
    n /= np.linalg.norm(n)
    centroid = side_geom.cell_vertices.mean(axis=0)
    if np.dot(n, 0.5 * (p0 + p1) - centroid) < 0:
        n = -n
    return n


class _SideContext:
    """Reference points, tables, and Jacobian data for one participant side."""

    def __init__(self, ref_points, identity):
        self.ref_points = ref_points
        self.identity = identity
        self.tables = {}
        self.jinv = None


def execute_kernel(kernel, inputs):
    """Run a kernel on packed inputs; fills and returns inputs.t.

    Pure: the result depends only on the kernel and the packed inputs, and is
    bitwise reproducible for identical inputs.
    """
    g = inputs.g
    rule = kernel.quadrature
    nq = len(rule)

    if kernel.primal_kind == "cell2d":
        ctype = g.primal.cell_type
        verts = g.primal.cell_vertices
        X = fe.geometry_map(ctype, verts, rule.points)
        J = fe.geometry_jacobian(ctype, verts, rule.points)
        det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        scale = np.abs(det)
    else:
        if kernel.primal_kind == "cell1d":
            p0, p1 = g.primal.cell_vertices
        else:
            p0, p1 = g.primal.facet_endpoints
        t = rule.points[:, 0]
        X = p0 + t[:, None] * (p1 - p0)
        scale = np.linalg.norm(p1 - p0)
    wq = rule.weights * scale

    # reference points, basis tables, and Jacobians per participant side
    contexts = {}
    for pidx, sidx, element, need_grad in kernel.table_needs:
        ckey = (pidx, sidx)
        ctx = contexts.get(ckey)
        if ctx is None:
            sg = g.participants[pidx][sidx]
            identity = (kernel.primal_kind in ("cell2d", "cell1d")
                        and sg.cell_type is g.primal.cell_type
                        and np.array_equal(sg.cell_vertices,
                                           g.primal.cell_vertices))
            if identity:
                ref = rule.points
            else:
                ref = align_interface_quadrature(X, sg.cell_type,
                                                 sg.cell_vertices)
            ctx = contexts[ckey] = _SideContext(ref, identity)
        if element not in ctx.tables:
            if ctx.identity and element in kernel.fixed_tables:
                ctx.tables[element] = kernel.fixed_tables[element]
            else:
                ctx.tables[element] = element.tabulate(ctx.ref_points)
        if need_grad and ctx.jinv is None:
            sg = g.participants[pidx][sidx]
            Jp = fe.geometry_jacobian(sg.cell_type, sg.cell_vertices,
                                      ctx.ref_points)
            ctx.jinv, _ = _inv_2x2(Jp)

    test_size = kernel.test_size
    trial_size = kernel.trial_size
    normals = {}

    def arg_axes(number):
        return (test_size, 1) if number == 0 else (1, trial_size)

    regs = []
    for instr, vshape in zip(kernel.tape, kernel.reg_vshapes):
        op = instr[0]
        if op == "const":
            val = np.empty((1, 1, 1))
            val[...] = instr[1]
        elif op == "zero":
            val = np.zeros((1, 1, 1) + instr[1])
        elif op == "analytic":
            out = np.asarray(instr[1](X[:, 0], X[:, 1]), dtype=float)
            val = np.broadcast_to(out, (nq,)).reshape(nq, 1, 1)
        elif op == "normal":
            _, pidx, sidx = instr
            nrm = normals.get((pidx, sidx))
            if nrm is None:
                nrm = _outward_normal(g.participants[pidx][sidx])
                normals[(pidx, sidx)] = nrm
            val = np.empty((1, 1, 1, 2))
            val[...] = nrm
        elif op in ("cval", "cgrad"):
            _, slot, pidx, sidx, element = instr
            w = inputs.w[slot]
            vals, grads = contexts[(pidx, sidx)].tables[element]
            if op == "cval":
                out = np.einsum("qn...,n->q...", vals, w)
            else:
                jinv = contexts[(pidx, sidx)].jinv
                phys = np.einsum("qn...r,qri->qn...i", grads, jinv)
                out = np.einsum("qn...,n->q...", phys, w)
            val = out.reshape((nq, 1, 1) + vshape)
        elif op in ("aval", "agrad"):
            _, number, block, pidx, sidx = instr
            vals, grads = contexts[(pidx, sidx)].tables[block.element]
            if op == "aval":
                table = vals
            else:
                jinv = contexts[(pidx, sidx)].jinv
                table = np.einsum("qn...r,qri->qn...i", grads, jinv)
            av, au = arg_axes(number)
            size = av if number == 0 else au
            full = np.zeros((nq, size) + vshape)
            full[:, block.offset:block.offset + block.ndofs] = table
            if number == 0:
                val = full.reshape((nq, size, 1) + vshape)
            else:
                val = full.reshape((nq, 1, size) + vshape)
        elif op == "add":
            a, b = regs[instr[1]], regs[instr[2]]
            if a.ndim < b.ndim:
                a = a.reshape(a.shape + (1,) * (b.ndim - a.ndim))
            elif b.ndim < a.ndim:
                b = b.reshape(b.shape + (1,) * (a.ndim - b.ndim))
            val = a + b
        elif op == "mul":
            a, b = regs[instr[1]], regs[instr[2]]
            if a.ndim < b.ndim:
                a = a.reshape(a.shape + (1,) * (b.ndim - a.ndim))
            elif b.ndim < a.ndim:
                b = b.reshape(b.shape + (1,) * (a.ndim - b.ndim))
            val = a * b
        elif op == "inner":
            a, b = regs[instr[1]], regs[instr[2]]
            prod = a * b
            k = prod.ndim - 3
            if k:
                prod = prod.sum(axis=tuple(range(-k, 0)))
            val = prod
        else:
            raise CompileError(f"unknown tape instruction {op!r}")
        regs.append(val)

    out = regs[kernel.out_reg]
    out = np.broadcast_to(out, (nq, out.shape[1], out.shape[2]))
    res = np.einsum("q,qvu->vu", wq, out)
    if kernel.arity == 2:
        full = np.broadcast_to(res, (test_size, trial_size))
        inputs.t[...] = full
    elif kernel.arity == 1:
        inputs.t[...] = np.broadcast_to(res[:, 0], (test_size,))
    else:
        inputs.t[...] = res[0, 0]
    return inputs.t
