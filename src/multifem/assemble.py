"""Global assembly over intersection measures, boundary conditions, solvers.

Assembly works on plans built on a form's first assembly, cached on it and
reused by every later one: one per integral of a bilinear form and, for a
linear form or functional, one per group of integrals that share a
quadrature rule, static-ness and iteration set, compiled as one integral
on the group's first measure and quadrature degree, so ds(a)^ds(b) and
ds(b)^ds(a) over the same facets run one kernel.  Iteration sets are
resolved once per measure, as integer arrays: the primal entities and,
per participating mesh, the matching cell or facet, found through the
common root mesh: Mesh.root_entities composes each mesh's parent maps
into a table of root entities, whose inverse leads back down.  A plan
holds the dof index arrays of every argument block and coefficient slot
and the measure's batched quadrature geometry (compile.MeasureGeometry),
shared by every plan on the same measure and rule and cached on the root
mesh.  A form's scatter is cached on the form per set of bcs (component,
marker) pairs: a matrix's CSR pattern under its bcs, which drops the rows
and columns of Dirichlet dofs and gives each a unit diagonal, so the
constrained matrix is scattered, not edited; and the sum of its static
kernels, those that read no coefficient and no impure Analytic source
(Constants and pure sources are frozen), scattered once, with its zeros
dropped under bcs when no dynamic kernel adds to it.  Each assembly
gathers coefficient values, runs every dynamic kernel once over all its
entities, so impure Analytic sources are evaluated afresh, scatters their
entries with one np.bincount and adds the static sum.  Dirichlet dofs
are found topologically, as the closure of the marked facets through the
dofmap, cached per space; their values are evaluated on every call.
Entities are scattered in ascending order and plans in form order, so
results are bitwise reproducible.  newton_solve takes its Jacobian from
forms.derivative, memoized per form, so repeated solves on one residual
reuse all of the above.  error_norms is two functionals through assemble,
so the norms share the kernels' one geometry path.
"""

from __future__ import annotations

import copy
import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.io
import scipy.sparse
import scipy.sparse.linalg

from . import fe, forms
from .compile import (MeasureGeometry, compile_integral, execute_kernel,
                      is_static, quadrature_rule, side_index)
from .mesh import as_marker

SOLVE_TOL = 1e-10


class ConvergenceError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# entity resolution across meshes


def _iteration_entities(measure):
    """(E, P) int array of the entities the intersection measure integrates.

    Row k holds the k-th primal entity (ascending) and, for every other
    participant, its resolved cell ('dx') or facet ('ds', 'dS').  A primal
    entity stays only if every participant supplies a matching entity of
    the required exterior/interior kind.
    """
    primal = measure.mesh
    root = primal.root()
    participants = measure.participants()
    if any(mesh.root() is not root for _, mesh in participants):
        raise ValueError("unrelated meshes: no common root mesh")
    if measure.integral_type == "dx":
        candidates = np.arange(primal.num_cells)
        markers = primal.cell_markers
    else:
        want_exterior = measure.integral_type == "ds"
        candidates = np.flatnonzero(primal.facet_exterior == want_exterior)
        markers = primal.facet_markers
    if measure.subdomain_id != forms.EVERYWHERE:
        candidates = candidates[markers[candidates] == measure.subdomain_id]
    _, to_root = primal.root_entities(
        "cell" if measure.integral_type == "dx" else "facet")
    root_ids = to_root[candidates]
    columns = [candidates]
    keep = np.ones(len(candidates), dtype=bool)
    for itype, mesh in participants[1:]:
        kind, table = mesh.root_entities("cell" if itype == "dx" else "facet")
        # root entity -> this mesh's entity, -1 if none
        from_root = np.full(root.num_cells if kind == "cell"
                            else root.num_facets, -1)
        from_root[table] = np.arange(len(table))
        found = from_root[root_ids]
        keep &= found >= 0
        if itype != "dx":
            exterior = mesh.facet_exterior[np.maximum(found, 0)]
            keep &= exterior == (itype == "ds")
        columns.append(found)
    return np.stack(columns, axis=1)[keep]


def _entities(measure):
    """The measure's _iteration_entities, kept in a dict on the root mesh."""
    cache = measure.mesh.root().__dict__.setdefault("_entities", {})
    if measure.key() not in cache:
        cache[measure.key()] = _iteration_entities(measure)
    return cache[measure.key()]


def _iteration_set_key(measure):
    """The measure's participants and entity rows, the columns in mesh
    order and the rows ascending: one key for one set of entities,
    whichever participant is primal."""
    participants = measure.participants()
    order = np.argsort([mesh.id for _, mesh in participants])
    rows = _entities(measure)[:, order]
    return (tuple((participants[k][0], participants[k][1].id) for k in order),
            rows[np.lexsort(rows.T[::-1])].tobytes())


# ---------------------------------------------------------------------------
# assembly plans


@dataclass
class _IntegralPlan:
    """What every assembly of an integral (or a group compiled as one)
    reuses: its kernel, the measure geometry, and (E, ndofs) global dof
    indices of the test (rows) and trial (cols) blocks and coefficients."""

    kernel: object
    geometry: MeasureGeometry
    rows: np.ndarray
    cols: np.ndarray
    coeff_dofs: list


def _measure_geometry(measure, kernel):
    """The measure's geometry, built once per measure and rule, kept in a
    dict on the root mesh and shared by every plan on them.  Rules of one
    cell type and point count are identical."""
    cache = measure.mesh.root().__dict__.setdefault("_geometry", {})
    rule = kernel.quadrature
    key = (measure.key(), rule.cell, len(rule))
    if key not in cache:
        cache[key] = MeasureGeometry(kernel.participants, kernel.primal_kind,
                                     rule, _entities(measure))
    return cache[key]


def _plan_for(integral):
    plan = getattr(integral, "_plan", None)
    if plan is not None:
        return plan
    kernel = compile_integral(integral)
    geometry = _measure_geometry(integral.measure, kernel)

    def dofs(space, component, pidx, side):
        cells = geometry.side(pidx, side_index(side)).cells
        return space.offsets[component] + space.dofmaps[component][cells]

    def arg_dofs(number):
        if number not in kernel.arguments:
            return None
        space = kernel.arguments[number].space
        return np.concatenate([dofs(space, b.component, b.participant, b.side)
                               for b in kernel.arg_blocks[number]], axis=1)

    coeff_dofs = [dofs(coeff.space, component, pidx, side)
                  for coeff, component, pidx, side in kernel.coeff_slots]
    plan = integral._plan = _IntegralPlan(kernel, geometry, arg_dofs(0),
                                          arg_dofs(1), coeff_dofs)
    return plan


def _plans(form):
    """(plans, measures that matched no entities under a subdomain id) of a
    form, cached on it: its integrals' plans if bilinear, else a plan per
    group of integrals sharing a quadrature rule, static-ness and iteration
    set (_iteration_set_key), in form order; a larger group's is that of
    its integrands' sum, on its first measure at its first degree."""
    if "_plans" in form.__dict__:
        return form._plans
    arguments = [forms.Form([i]).arguments() for i in form.integrals]
    if any(args != arguments[0] for args in arguments):
        raise ValueError("every integral must use the form's arguments")
    groups = {}
    for key, integral in enumerate(form.integrals):
        if len(arguments[0]) < 2:
            _, _, rule = quadrature_rule(integral)
            key = (rule.cell, len(rule), is_static(integral.integrand),
                   _iteration_set_key(integral.measure))
        groups.setdefault(key, []).append(integral)
    plans = []
    for first, *rest in groups.values():
        if rest:
            measure = copy.copy(first.measure)
            measure.quadrature_degree = quadrature_rule(first)[1]
            first = forms.Integral(functools.reduce(forms.Sum, [
                i.integrand for i in [first] + rest]), measure)
        plans.append(_plan_for(first))
    form._plans = plans, [i.measure for i in form.integrals if not len(
        _entities(i.measure)) and i.measure.subdomain_id != forms.EVERYWHERE]
    return form._plans


def iteration_set(integral):
    """Primal entity indices the assembler integrates for this integral."""
    return _entities(integral.measure)[:, 0].tolist()


def _element_tensors(plan):
    w = [coeff.values[dofs] for (coeff, *_), dofs
         in zip(plan.kernel.coeff_slots, plan.coeff_dofs)]
    return execute_kernel(plan.kernel, plan.geometry, w).ravel()


def _csr(keys, shape):
    """(slot, indices, indptr): the CSR structure of entries at flat
    positions keys of a matrix and each entry's slot in it; keys past the
    end get slot len(indices)."""
    n, m = shape
    unique, slot = np.unique(keys, return_inverse=True)
    unique = unique[unique < n * m]
    index = np.int32 if max(n, m, len(unique)) < 2 ** 31 else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(unique // m, minlength=n), out=indptr[1:])
    return slot.ravel().astype(index), (unique % m).astype(index), indptr


def _scatter(form, plans, shape, bcs):
    """(static, slot, indices, indptr): where a form's element entries go
    under bcs.  slot holds the index in the assembled data of each entry of
    its dynamic kernels, in assembly order; static holds the entries of its
    static kernels already scattered there, read-only.  A matrix's data is
    its CSR structure (indices, indptr): an entry in a Dirichlet dof's row
    or column gets slot len(indices), which is dropped, and each Dirichlet
    dof adds one unit-diagonal entry; under bcs, with no dynamic kernel,
    its stored zeros are dropped here, once.  A vector's data is itself
    (bcs set its values later), a functional's has length 1.  Cached on the
    form per bcs (component, marker) pairs, () for none; the static kernels
    run once per key."""
    scatters = form.__dict__.setdefault("_scatters", {})
    key = tuple((bc.component, bc.marker) for bc in bcs)
    if key in scatters:
        return scatters[key]
    keys = [np.zeros(len(p.geometry), dtype=int) if p.rows is None
            else p.rows.ravel() if p.cols is None
            else (p.rows[:, :, None] * shape[1] + p.cols[:, None, :]).ravel()
            for p in plans]
    sizes = [len(k) for k in keys]
    keys = np.concatenate(keys + [np.empty(0, dtype=int)])
    size, indices, indptr = (shape or (1,))[0], None, None
    if len(shape) == 2:
        n, m = shape
        if bcs:
            dofs = dirichlet_dofs(plans[0].kernel.arguments[0].space, bcs)[0]
            fixed = np.zeros(n, dtype=bool)
            fixed[dofs] = True
            keys[fixed[keys // m] | fixed[keys % m]] = n * m  # past the end
            keys = np.append(keys, dofs * (m + 1))
        keys, indices, indptr = _csr(keys, shape)
        size = len(indices)
    # after the element entries, the Dirichlet diagonal: static
    diagonal = len(keys) - sum(sizes)
    static = np.repeat([p.kernel.static for p in plans] + [True],
                       sizes + [diagonal])
    values = [_element_tensors(p) for p in plans if p.kernel.static]
    data = np.bincount(keys[static],
                       weights=np.concatenate(values + [np.ones(diagonal)]),
                       minlength=size)[:size].astype(float)  # int if empty
    if bcs and static.all():  # no kernel adds to it: drop its zeros once
        A = scipy.sparse.csr_matrix((data, indices, indptr), shape=shape)
        A.eliminate_zeros()
        data, indices, indptr = A.data, A.indices, A.indptr
    data.setflags(write=False)
    scatters[key] = (data, keys[~static], indices, indptr)
    return scatters[key]


def assemble(form, bcs=()):
    """Assemble a form into a float, a vector, or a CSR matrix.

    Dirichlet conditions: matrix rows and columns of constrained dofs are
    zeroed with a unit diagonal (a symmetric application), which needs the
    trial space to be the test space; vector entries are set to the
    boundary values.  The form's plans are built, and their integrals
    checked (compile_integral), on its first assembly; its integrals must
    all use the same arguments.
    """
    plans, empty = _plans(form)
    for measure in empty:
        warnings.warn(f"measure {measure!r} matched no entities; "
                      f"contribution is zero", stacklevel=2)
    args = plans[0].kernel.arguments if plans else {}
    arity = len(args)
    if arity == 2 and bcs and args[1].space is not args[0].space:
        raise ValueError("Dirichlet conditions on a bilinear form need its "
                         "trial space to be its test space")
    shape = tuple(args[k].space.num_dofs for k in range(arity))
    static, slot, indices, indptr = _scatter(form, plans, shape,
                                             bcs if arity == 2 else ())
    data = static.copy()
    dynamic = [_element_tensors(p) for p in plans if not p.kernel.static]
    if dynamic:
        data += np.bincount(slot, weights=np.concatenate(dynamic),
                            minlength=len(data))[:len(data)]
    if arity == 0:
        return float(data[0])
    if arity == 1:
        if bcs:
            dofs, bc_values = dirichlet_dofs(args[0].space, bcs)
            data[dofs] = bc_values
        return data
    A = scipy.sparse.csr_matrix((data, indices.copy(), indptr.copy()),
                                shape=shape)
    A.has_canonical_format = True
    if bcs and dynamic:  # assembled zeros go, as rows and columns do
        A.eliminate_zeros()
    return A


def assemble_system(a_form, L_form, bcs=()):
    """(A, b) for a linear problem with inhomogeneous Dirichlet data.

    The matrix is assembled twice: under the bcs, constrained
    symmetrically, and without them, to lift the boundary values into the
    right-hand side (b -= A g) before b takes them.
    """
    A = assemble(a_form)
    b = assemble(L_form)
    if bcs:
        constrained = assemble(a_form, bcs)
        space = a_form.arguments()[0].space
        dofs, values = dirichlet_dofs(space, bcs)
        g = np.zeros(space.num_dofs)
        g[dofs] = values
        b = b - A @ g
        b[dofs] = values
        A = constrained
    return A, b


# ---------------------------------------------------------------------------
# Dirichlet boundary conditions


@dataclass(frozen=True)
class DirichletBC:
    """Fix component dofs whose nodes lie on facets with the given marker."""

    component: int
    marker: int
    value: object  # callable (x, y) -> values

    def __post_init__(self):
        object.__setattr__(self, "marker", as_marker(self.marker))


def _codim0_mesh(space, k, what):
    """The mesh of component k, which must be a codim-0 mesh."""
    if not 0 <= k < space.num_components:
        raise ValueError(f"{what} component {k} out of range for a space "
                         f"of {space.num_components}")
    if space.meshes[k].dim != 2:
        raise ValueError(f"{what} component {k} lives on a codim-1 mesh; "
                         f"only codim-0 components are supported")
    return space.meshes[k]


def dirichlet_dofs(space, bcs):
    """(dof indices, boundary values) for a set of DirichletBCs.

    Dofs are found topologically: the closure of the marked facets of the
    component's mesh through its dofmap, i.e. the vertex and edge nodes of
    each marked facet in one of its cells.  Each (component, marker)
    closure is kept on the space, read-only, as the mesh and the dofmap it
    reads are; the values are evaluated on every call.  Where conditions
    overlap, the later one sets the value.
    """
    closures = space.__dict__.setdefault("_dirichlet", {})
    found, given = [], []
    for bc in bcs:
        k = bc.component
        if (k, bc.marker) not in closures:
            mesh = _codim0_mesh(space, k, "Dirichlet")
            facets = np.flatnonzero(mesh.facet_markers == bc.marker)
            if len(facets) == 0:
                raise ValueError(f"no entities matched marker {bc.marker!r}")
            element = space.element[k]
            closure = np.array([element.facet_closure(lf) for lf
                                in range(len(element.cell.local_facets))])
            dofs = space.offsets[k] + np.unique(space.dofmaps[k][
                mesh.facet_sides[facets, :1],
                closure[mesh.facet_local[facets, 0]]])
            dofs.setflags(write=False)
            closures[k, bc.marker] = dofs
        dofs = closures[k, bc.marker]
        xs, ys = space.dof_coords[dofs, 0], space.dof_coords[dofs, 1]
        raw = bc.value(xs, ys) if callable(bc.value) else bc.value
        found.append(dofs)
        given.append(np.broadcast_to(np.asarray(raw, dtype=float), xs.shape))
    if not found:
        return np.empty(0, dtype=int), np.empty(0)
    # the last occurrence of each dof wins
    dofs = np.concatenate(found)[::-1]
    values = np.concatenate(given)[::-1]
    dofs, last = np.unique(dofs, return_index=True)
    return dofs, values[last]


# ---------------------------------------------------------------------------
# linear and nonlinear solvers


def _jacobi_cg(A, b):
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
        if np.linalg.norm(r) <= SOLVE_TOL * norm_b:
            return x
        Ap = A.dot(p)
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = dinv * r
        rz_next = r @ z
        if not np.isfinite(rz_next):
            raise ConvergenceError("CG broke down: non-finite residual")
        p = z + (rz_next / rz) * p
        rz = rz_next
    if np.linalg.norm(r) <= SOLVE_TOL * norm_b:
        return x
    raise ConvergenceError(f"CG did not converge within {10 * n} iterations")


def _factor(A):
    """Sparse LU of A in SuperLU's symmetric mode: minimum-degree ordering
    on the pattern of A^T + A and diagonal pivots preferred, with partial
    pivoting kept at the default threshold.  Roughly halves the fill of
    the structurally symmetric interior-penalty Jacobians."""
    return scipy.sparse.linalg.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                    options=dict(SymmetricMode=True))


def solve_linear(A, b, spd=False):
    """Solve A x = b by sparse LU, or Jacobi-CG when flagged SPD.

    b must be finite, and the residual is verified: |A x - b| <= 1e-10 |b|.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side is not finite")
    if spd:
        x = _jacobi_cg(A, b)
    else:
        try:
            lu = _factor(A)
        except RuntimeError as exc:
            raise ValueError(f"linear system is singular: {exc}") from exc
        x = lu.solve(b)
    residual = np.linalg.norm(A.dot(x) - b)
    if not residual <= SOLVE_TOL * max(np.linalg.norm(b), 1e-300):  # or NaN
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
    the whole Coefficient u, the same Form on every call.  Each update is
    solve(A, b) on the constrained Jacobian A and the negated residual b;
    the default is solve_linear (sparse LU), looked up at call time.  A
    non-finite residual raises ConvergenceError at once.
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
        if not np.all(np.isfinite(r)):
            raise ConvergenceError("Newton residual is not finite")
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


def error_norms(u, component, exact, exact_grad):
    """(L2, H1) errors of a component against a closed-form solution.

    Two functionals through assemble: (u_k - exact)^2 dx and
    |grad u_k - exact_grad|^2 dx at quadrature degree 2p + 4 (at most 12),
    whose geometry is cached on the root mesh like any measure's.  The H1
    norm includes the L2 part.  exact_grad returns the gradient pair.  Both
    are called once per entity block, on (entities, points) arrays of
    coordinates; scalar results broadcast.
    """
    mesh = _codim0_mesh(u.space, component, "error-norm")
    degree = u.space.element[component].degree
    dx = forms.Measure("dx", mesh, quadrature_degree=min(
        2 * degree + 4, fe.MAX_QUADRATURE_DEGREE))
    u_k = forms.Indexed(u, component)
    e = u_k - forms.Analytic(mesh, exact)
    g = forms.grad(u_k) - forms.Analytic(mesh, exact_grad, shape=(2,))
    l2_sq = assemble(e * e * dx)
    semi_sq = assemble(forms.inner(g, g) * dx)
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
        A_mm = A[self.eliminated][:, self.eliminated]
        try:
            self._lu = _factor(A_mm)
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
