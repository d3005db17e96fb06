"""Global assembly over intersection measures, boundary conditions, solvers.

Assembly iterates the entities of each integral's primal mesh, resolves the
matching entity on every participating mesh by composing entity maps up to
the common root mesh and inverse tables back down, packs dof values
and geometry, executes the compiled kernel, and scatters the element tensor
with add-accumulation.  Iteration is in ascending entity order, so results
are bitwise reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse
import scipy.sparse.linalg

from . import fe, forms
from .compile import (Geometry, PackedInputs, SideGeom, compile_integral,
                      execute_kernel)
from .mesh import compose_maps

BC_TOL = 1e-12
SOLVE_TOL = 1e-10


class ConvergenceError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# entity resolution across meshes


class _Relations:
    """Entity correspondence between submeshes through their common root."""

    def __init__(self, root):
        self.root = root
        self._cell_root = {}
        self._facet_root = {}
        self._from_root = {}

    def check(self, mesh):
        if mesh.root() is not self.root:
            raise ValueError("unrelated meshes: no common root mesh")

    def cell_to_root(self, mesh):
        """('cell'|'facet', table) mapping this mesh's cells into the root."""
        entry = self._cell_root.get(mesh.id)
        if entry is None:
            if mesh is self.root:
                entry = ("cell", np.arange(mesh.num_cells))
            elif mesh.dim == 1:
                pmap = mesh.parent_map  # cell->facet into the parent
                table = pmap.table
                if mesh.parent is not self.root:
                    table = self.facet_to_root(mesh.parent)[table]
                entry = ("facet", table)
            else:
                chain = mesh.parent_map
                if mesh.parent is not self.root:
                    kind, ptable = self.cell_to_root(mesh.parent)
                    parent_map = type(chain)(mesh.parent.id, self.root.id,
                                             "cell->cell", ptable)
                    chain = compose_maps(chain, parent_map)
                entry = ("cell", chain.table)
            self._cell_root[mesh.id] = entry
        return entry

    def facet_to_root(self, mesh):
        table = self._facet_root.get(mesh.id)
        if table is None:
            if mesh is self.root:
                table = np.arange(mesh.num_facets)
            else:
                table = mesh.facet_to_parent()
                if mesh.parent is not self.root:
                    table = self.facet_to_root(mesh.parent)[table]
            self._facet_root[mesh.id] = table
        return table

    def from_root(self, mesh, role):
        """Inverse of the map of this mesh's cells ('cell') or facets
        ('facet') into the root: root entity -> mesh entity, -1 if none."""
        inv = self._from_root.get((mesh.id, role))
        if inv is None:
            if role == "cell":
                kind, table = self.cell_to_root(mesh)
            else:
                kind, table = "facet", self.facet_to_root(mesh)
            n_root = (self.root.num_cells if kind == "cell"
                      else self.root.num_facets)
            inv = np.full(n_root, -1)
            inv[table] = np.arange(len(table))
            self._from_root[(mesh.id, role)] = inv
        return inv


def _relations_for(meshes):
    root = meshes[0].root()
    cache = getattr(root, "_relations_cache", None)
    if cache is None:
        cache = _Relations(root)
        root._relations_cache = cache
    for m in meshes:
        cache.check(m)
    return cache


def _primal_candidates(measure):
    """Primal entity indices matching the measure type and subdomain id."""
    mesh = measure.mesh
    sub = measure.subdomain_id
    if measure.integral_type == "dx":
        markers = mesh.cell_markers
        candidates = range(mesh.num_cells)
    else:
        markers = mesh.facet_markers
        want_exterior = measure.integral_type == "ds"
        candidates = [f for f in range(mesh.num_facets)
                      if (len(mesh.facet_cells[f]) == 1) == want_exterior]
    if sub == forms.EVERYWHERE:
        return list(candidates)
    return [e for e in candidates if int(markers[e]) == int(sub)]


def _resolve_participant(participant, relations, root_kind, root_entity):
    """The participant-side entity for a primal entity, or None.

    Returns ('cell', c) or ('facet', f); None excludes the primal entity
    from the iteration set (the intersection is empty there).
    """
    mesh, role = participant.mesh, participant.role
    if role == "cell":
        if mesh.dim == 2 and root_kind != "cell":
            raise ValueError("codim-0 cell participant in a facet measure")
        c = int(relations.from_root(mesh, "cell")[root_entity])
        return None if c < 0 else ("cell", c)
    f = int(relations.from_root(mesh, "facet")[root_entity])
    if f < 0:
        return None
    exterior = len(mesh.facet_cells[f]) == 1
    if role == "exterior_facet" and not exterior:
        return None
    if role == "interior_facet" and exterior:
        return None
    return ("facet", f)


def _iteration_entities(integral, kernel):
    """(primal_entity, resolved participant entities) for every entity the
    intersection measure integrates."""
    measure = integral.measure
    meshes = [p.mesh for p in kernel.participants]
    relations = _relations_for(meshes)
    primal = measure.mesh
    if measure.integral_type == "dx":
        if primal.dim == 2:
            root_kind = "cell"
            kind, to_root = relations.cell_to_root(primal)
        else:
            root_kind = "facet"
            kind, to_root = relations.cell_to_root(primal)
    else:
        root_kind = "facet"
        to_root = relations.facet_to_root(primal)
    entities = []
    for e in _primal_candidates(measure):
        root_entity = to_root[e]
        resolved = []
        ok = True
        for i, participant in enumerate(kernel.participants):
            if i == 0:
                kind = "cell" if measure.integral_type == "dx" else "facet"
                resolved.append((kind, e))
                continue
            r = _resolve_participant(participant, relations, root_kind,
                                     root_entity)
            if r is None:
                ok = False
                break
            resolved.append(r)
        if ok:
            entities.append((e, resolved))
    return entities


def iteration_set(integral):
    """Primal entity indices the assembler integrates for this integral."""
    kernel = _kernel_for(integral)
    return [e for e, _ in _iteration_entities(integral, kernel)]


def _kernel_for(integral):
    kernel = getattr(integral, "_kernel", None)
    if kernel is None:
        kernel = compile_integral(integral)
        integral._kernel = kernel
    return kernel


# ---------------------------------------------------------------------------
# packing and scatter


def _facet_sides(mesh, f):
    """Incident (cell, local_facet) pairs; '+' is the smaller cell index."""
    return sorted(mesh.facet_cells[f])


def _side_geoms(participant, entity):
    mesh = participant.mesh
    kind, idx = entity
    if participant.role == "cell":
        return [SideGeom(cell_type=mesh.cell_types[idx],
                         cell_vertices=mesh.cell_coords(idx))]
    endpoints = mesh.facet_coords(idx)
    sides = []
    for cell, _ in _facet_sides(mesh, idx):
        sides.append(SideGeom(cell_type=mesh.cell_types[cell],
                              cell_vertices=mesh.cell_coords(cell),
                              facet_endpoints=endpoints))
    return sides


def _side_cells(participant, entity):
    mesh = participant.mesh
    kind, idx = entity
    if participant.role == "cell":
        return [idx]
    return [cell for cell, _ in _facet_sides(mesh, idx)]


def _pack(kernel, resolved):
    sides = [_side_geoms(p, entity)
             for p, entity in zip(kernel.participants, resolved)]
    cells = [_side_cells(p, entity)
             for p, entity in zip(kernel.participants, resolved)]
    g = Geometry(primal=sides[0][0], participants=sides)
    w = []
    for coeff, component, pidx, side in kernel.coeff_slots:
        cell = cells[pidx][1 if side == "-" else 0]
        w.append(coeff.values[coeff.space.component_dofs(component, cell)])
    t = np.zeros(kernel.output_shape())
    return PackedInputs(t=t, w=w, g=g), cells


def _block_dofs(space, blocks, cells):
    out = np.empty(sum(b.ndofs for b in blocks), dtype=int)
    for b in blocks:
        cell = cells[b.participant][1 if b.side == "-" else 0]
        out[b.offset:b.offset + b.ndofs] = space.component_dofs(b.component,
                                                                cell)
    return out


def assemble(form, bcs=()):
    """Assemble a form into a float, a vector, or a CSR matrix.

    Dirichlet conditions: matrix rows and columns of constrained dofs are
    zeroed with a unit diagonal (a symmetric application); vector entries are
    set to the boundary values.
    """
    diagnostics = forms.validate_form(form)
    if diagnostics:
        raise ValueError(f"invalid form: {diagnostics[0]}")
    arity = form.arity()
    args = form.arguments()
    if arity >= 1:
        test_space = args[0].space
    if arity == 2:
        trial_space = args[1].space

    total = 0.0
    vector = np.zeros(test_space.num_dofs) if arity == 1 else None
    rows_acc, cols_acc, vals_acc = [], [], []

    for integral in form.integrals:
        kernel = _kernel_for(integral)
        if kernel.arity != arity:
            raise ValueError("every integral must use the form's arguments")
        entities = _iteration_entities(integral, kernel)
        if (not entities
                and integral.measure.subdomain_id != forms.EVERYWHERE):
            warnings.warn(f"measure {integral.measure!r} matched no entities; "
                          f"contribution is zero", stacklevel=2)
        for _, resolved in entities:
            inputs, cells = _pack(kernel, resolved)
            execute_kernel(kernel, inputs)
            if arity == 0:
                total += float(inputs.t)
                continue
            rows = _block_dofs(test_space, kernel.arg_blocks[0], cells)
            if arity == 1:
                np.add.at(vector, rows, inputs.t)
            else:
                cols = _block_dofs(trial_space, kernel.arg_blocks[1], cells)
                rows_acc.append(np.repeat(rows, len(cols)))
                cols_acc.append(np.tile(cols, len(rows)))
                vals_acc.append(inputs.t.ravel())

    if arity == 0:
        return total
    if arity == 1:
        if bcs:
            dofs, values = dirichlet_dofs(test_space, bcs)
            vector[dofs] = values
        return vector
    n, m = test_space.num_dofs, trial_space.num_dofs
    if rows_acc:
        rows = np.concatenate(rows_acc)
        cols = np.concatenate(cols_acc)
        vals = np.concatenate(vals_acc)
    else:
        rows = cols = np.empty(0, dtype=int)
        vals = np.empty(0)
    A = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, m)).tocsr()
    A.sum_duplicates()
    if bcs:
        dofs, _ = dirichlet_dofs(test_space, bcs)
        A = _constrain_matrix(A, dofs)
    return A


def _constrain_matrix(A, dofs):
    n = A.shape[0]
    mask = np.ones(n)
    mask[dofs] = 0.0
    D = scipy.sparse.diags(mask)
    A = (D @ A @ D).tocsr()
    A = A + scipy.sparse.diags(1.0 - mask)
    return A.tocsr()


def assemble_system(a_form, L_form, bcs=()):
    """(A, b) for a linear problem with inhomogeneous Dirichlet data.

    Boundary values are lifted into the right-hand side (b -= A g), then rows
    and columns are constrained symmetrically and b takes the boundary values.
    """
    A = assemble(a_form)
    b = assemble(L_form)
    if bcs:
        space = a_form.arguments()[0].space
        dofs, values = dirichlet_dofs(space, bcs)
        g = np.zeros(space.num_dofs)
        g[dofs] = values
        b = b - A @ g
        b[dofs] = values
        A = _constrain_matrix(A, dofs)
    return A, b


# ---------------------------------------------------------------------------
# Dirichlet boundary conditions


@dataclass(frozen=True)
class DirichletBC:
    """Fix component dofs whose nodes lie on facets with the given marker."""

    component: int
    marker: int
    value: object  # callable (x, y) -> values


def dirichlet_dofs(space, bcs):
    """(dof indices, boundary values) for a set of DirichletBCs.

    Dofs are identified geometrically: a dof is constrained when its node
    lies on a marked facet of its component's mesh (distance below 1e-12).
    """
    fixed = {}
    for bc in bcs:
        if not 0 <= bc.component < space.num_components:
            raise ValueError(f"Dirichlet component {bc.component} out of range "
                             f"for a space of {space.num_components}")
        mesh = space.meshes[bc.component]
        if mesh.dim != 2:
            raise ValueError(f"Dirichlet component {bc.component} lives on a "
                             f"codim-1 mesh, which has no boundary facets")
        facets = np.nonzero(mesh.facet_markers == bc.marker)[0]
        if len(facets) == 0:
            raise ValueError(f"no entities matched marker {bc.marker!r}")
        sl = space.component_slice(bc.component)
        coords = space.dof_coords[sl]
        hit = np.zeros(len(coords), dtype=bool)
        for f in facets:
            p0, p1 = mesh.facet_coords(f)
            d = p1 - p0
            t = np.clip((coords - p0) @ d / np.dot(d, d), 0.0, 1.0)
            proj = p0 + t[:, None] * d
            hit |= np.linalg.norm(coords - proj, axis=1) <= BC_TOL
        idx = np.nonzero(hit)[0]
        xs, ys = coords[idx, 0], coords[idx, 1]
        raw = bc.value(xs, ys) if callable(bc.value) else bc.value
        vals = np.broadcast_to(np.asarray(raw, dtype=float), xs.shape)
        for dof, val in zip(idx + sl.start, vals):
            fixed[int(dof)] = float(val)
    dofs = np.array(sorted(fixed), dtype=int)
    values = np.array([fixed[d] for d in dofs])
    return dofs, values


# ---------------------------------------------------------------------------
# linear and nonlinear solvers


def _jacobi_cg(A, b, tol=SOLVE_TOL):
    """Jacobi-preconditioned conjugate gradients for SPD systems."""
    diag = A.diagonal()
    if not np.all(np.isfinite(diag) & (diag > 0)):
        raise ValueError("Jacobi-CG needs a positive finite diagonal; the "
                         "matrix is not SPD")
    n = len(b)
    norm_b = np.linalg.norm(b)
    if norm_b == 0.0:
        return np.zeros(n)
    dinv = 1.0 / diag
    x = np.zeros(n)
    r = b.copy()
    z = dinv * r
    p = z.copy()
    rz = r @ z
    for _ in range(10 * n):
        if np.linalg.norm(r) <= tol * norm_b:
            return x
        Ap = A.dot(p)
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = dinv * r
        rz_next = r @ z
        p = z + (rz_next / rz) * p
        rz = rz_next
    if np.linalg.norm(r) <= tol * norm_b:
        return x
    raise ConvergenceError(f"CG did not converge within {10 * n} iterations")


def solve_linear(A, b, spd=False):
    """Solve A x = b by sparse LU, or Jacobi-CG when flagged SPD.

    The residual is verified: |A x - b| <= 1e-10 |b|.
    """
    b = np.asarray(b, dtype=float)
    if spd:
        x = _jacobi_cg(A, b)
    else:
        try:
            lu = scipy.sparse.linalg.splu(A.tocsc())
        except RuntimeError as exc:
            raise ValueError(f"linear system is singular: {exc}") from exc
        x = lu.solve(b)
    residual = np.linalg.norm(A.dot(x) - b)
    if residual > SOLVE_TOL * max(np.linalg.norm(b), 1e-300):
        raise ConvergenceError(
            f"linear solve residual {residual:.3e} exceeds tolerance")
    return x


@dataclass(frozen=True)
class NewtonConfig:
    max_iters: int = 25
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9


def newton_solve(F, u, bcs=(), config=NewtonConfig(), solve=None):
    """Newton's method on the residual form F(u; v) = 0; returns the number
    of update steps taken.

    Boundary values are imposed on the first iterate, corrections are
    homogeneous.  The Jacobian is the Gateaux derivative of F with respect to
    the whole Coefficient u.  Each update is solve(A, b) on the constrained
    Jacobian A and the negated residual b; the default is solve_linear
    (sparse LU), looked up at call time.
    """
    solve = solve or solve_linear
    dofs, values = (np.empty(0, dtype=int), np.empty(0))
    if bcs:
        dofs, values = dirichlet_dofs(u.space, bcs)
    u.values[dofs] = values
    J = forms.derivative(F, u)

    def residual_norm():
        r = assemble(F)
        r[dofs] = 0.0
        return r, np.linalg.norm(r)

    r, norm = residual_norm()
    norm0 = norm
    for it in range(config.max_iters):
        if norm <= config.abs_tol or norm <= config.rel_tol * norm0:
            return it
        A = assemble(J, bcs)
        delta = solve(A, -r)
        u.values += delta
        r, norm = residual_norm()
    if norm <= config.abs_tol or norm <= config.rel_tol * norm0:
        return config.max_iters
    raise ConvergenceError(
        f"Newton did not converge in {config.max_iters} iterations "
        f"(residual {norm:.3e})")


# ---------------------------------------------------------------------------
# error norms, interpolation, component elimination, matrix output


def interpolate(fn, u, component):
    """Set component dofs of u to fn evaluated at the dof nodes."""
    sl = u.space.component_slice(component)
    coords = u.space.dof_coords[sl]
    xs, ys = coords[:, 0], coords[:, 1]
    u.values[sl] = np.broadcast_to(np.asarray(fn(xs, ys), dtype=float),
                                   xs.shape)


def error_norms(u, component, exact, exact_grad=None):
    """(L2, H1) errors of a component against a closed-form solution.

    The H1 norm includes the L2 part.  exact_grad returns the gradient pair;
    when omitted it is approximated by central differences of exact.
    """
    space = u.space
    mesh = space.meshes[component]
    element = space.element[component]
    qdeg = min(2 * element.degree + 4, fe.MAX_QUADRATURE_DEGREE)
    rule = fe.make_quadrature(mesh.cell_type, qdeg)
    vals, grads = element.tabulate(rule.points)
    if exact_grad is None:
        eps = 1e-6

        def exact_grad(x, y):
            return ((exact(x + eps, y) - exact(x - eps, y)) / (2 * eps),
                    (exact(x, y + eps) - exact(x, y - eps)) / (2 * eps))

    l2_sq = 0.0
    semi_sq = 0.0
    for c in range(mesh.num_cells):
        verts = mesh.cell_coords(c)
        X = fe.geometry_map(mesh.cell_type, verts, rule.points)
        J = fe.geometry_jacobian(mesh.cell_type, verts, rule.points)
        det = np.abs(J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0])
        inv_det = J.copy()
        inv_det[:, 0, 0], inv_det[:, 1, 1] = J[:, 1, 1], J[:, 0, 0]
        inv_det[:, 0, 1], inv_det[:, 1, 0] = -J[:, 0, 1], -J[:, 1, 0]
        jinv = inv_det / (J[:, 0, 0] * J[:, 1, 1]
                          - J[:, 0, 1] * J[:, 1, 0])[:, None, None]
        dofs = u.values[space.component_dofs(component, c)]
        uh = vals @ dofs
        gh = np.einsum("qnr,qri,n->qi", grads, jinv, dofs)
        ue = exact(X[:, 0], X[:, 1])
        gx, gy = exact_grad(X[:, 0], X[:, 1])
        wq = rule.weights * det
        l2_sq += wq @ (uh - ue) ** 2
        semi_sq += wq @ ((gh[:, 0] - gx) ** 2 + (gh[:, 1] - gy) ** 2)
    return float(np.sqrt(l2_sq)), float(np.sqrt(l2_sq + semi_sq))


class ReducedSystem:
    """Schur complement after eliminating one component block.

    Provides matvec access (dot) for iterative solves, an explicit dense()
    for small systems, the reduced right-hand side, and expand() to recover
    the eliminated component.
    """

    def __init__(self, A, offsets, component, b=None):
        n = A.shape[0]
        if A.shape[0] != A.shape[1] or offsets[-1] != n:
            raise ValueError("offsets do not match the matrix")
        lo, hi = offsets[component], offsets[component + 1]
        self.keep = np.concatenate([np.arange(0, lo), np.arange(hi, n)])
        self.eliminated = np.arange(lo, hi)
        A = A.tocsr()
        self.A_kk = A[self.keep][:, self.keep].tocsr()
        self.A_km = A[self.keep][:, self.eliminated].tocsr()
        self.A_mk = A[self.eliminated][:, self.keep].tocsr()
        A_mm = A[self.eliminated][:, self.eliminated].tocsc()
        try:
            self._lu = scipy.sparse.linalg.splu(A_mm)
        except RuntimeError as exc:
            raise ValueError(f"eliminated block is singular: {exc}") from exc
        self.b = None if b is None else np.asarray(b, dtype=float)
        if self.b is not None:
            self.rhs = (self.b[self.keep]
                        - self.A_km @ self._lu.solve(self.b[self.eliminated]))
        else:
            self.rhs = None

    @property
    def shape(self):
        n = len(self.keep)
        return (n, n)

    def dot(self, v):
        return self.A_kk @ v - self.A_km @ self._lu.solve(self.A_mk @ v)

    def diagonal(self):
        # Jacobi preconditioning uses the kept block's diagonal
        return self.A_kk.diagonal()

    def dense(self):
        return (self.A_kk.toarray()
                - self.A_km @ self._lu.solve(self.A_mk.toarray()))

    def expand(self, x_keep):
        """Full-length solution from the reduced one (needs the rhs)."""
        if self.b is None:
            raise ValueError("reduced system was built without a rhs")
        n = len(self.keep) + len(self.eliminated)
        x = np.empty(n)
        x[self.keep] = x_keep
        x[self.eliminated] = self._lu.solve(
            self.b[self.eliminated] - self.A_mk @ x_keep)
        return x


def eliminate_component(A, offsets, component, b=None):
    """Eliminate one contiguous component block from a block system."""
    return ReducedSystem(A, offsets, component, b)


def dump_matrix(A, path):
    """Write a matrix in MatrixMarket coordinate format."""
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(A), symmetry="general")
