"""Global assembly over intersection measures, boundary conditions, solvers.

Assembly works on plans built on a form's first assembly, cached on it and
reused by every later one: one per integral, in form order, whatever the
form's arity.  Iteration sets are resolved once per measure as integer
arrays through the common root mesh (Mesh.root_entities).  A plan holds
its signature's shared kernel; its integral's forms.Analysis, which binds
the terminals and components the kernel numbers and gives the degree; the
dof indices of every argument block and coefficient slot; and the measure's
batched quadrature geometry (compile.MeasureGeometry), shared by every plan
on the same measure and rule and cached on the root mesh.  Static kernels,
which read no coefficient and no impure Analytic source, run once per form,
and one np.bincount sums theirs on the form's pattern, built with its plans:
a functional's one entry, a vector's rows or a matrix's unconstrained CSR
pattern.  A matrix's scatter per set of bcs (component, marker) pairs masks
that pattern, dropping the rows and columns of Dirichlet dofs but for a unit
diagonal; with no dynamic kernel it is one read-only CSR whose arrays every
returned matrix shares.  A linear form's integrals of degree one in a
coefficient u alone add one sparse matvec, L u, L from J =
forms.derivative(form, u), and never run their kernels.  Each assembly runs
every other dynamic kernel once over all its entities, so impure Analytic
sources are evaluated afresh, scatters their entries with one np.bincount
and adds the static sum.  Dirichlet dofs are the closure of the marked
facets through the dofmap, cached per space; their values are evaluated on
every call.  Entities are scattered in ascending order and plans in form
order, so results are bitwise reproducible.  newton_solve's Jacobian is
forms.derivative's, memoized per form.  error_norms is two functionals
through assemble.
"""

from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from . import fe, forms
from .compile import (MeasureGeometry, compile_integral, execute_kernel,
                      side_index)
from .mesh import as_int

SOLVE_TOL = 1e-10
# damped-Jacobi weight of _jacobi_cg's V-cycle: lambda_max(D^-1 A) < 2.9 at
# n=0 for p <= 3 in both studies, so OMEGA lambda_max < 2 keeps M SPD
OMEGA = 2.0 / 3.0
# newton_solve stops once the residual norm is at most NEWTON_ABS_TOL or
# NEWTON_REL_TOL times the first one, and fails after NEWTON_MAX_ITERS steps
NEWTON_MAX_ITERS = 25
NEWTON_ABS_TOL = 1e-10
NEWTON_REL_TOL = 1e-9


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


# ---------------------------------------------------------------------------
# assembly plans


@dataclass
class _IntegralPlan:
    """What every assembly of an integral reuses: its kernel, its
    forms.Analysis, the measure geometry, and (E, ndofs) global dof indices
    of the test (rows) and trial (cols) blocks and coefficients."""

    kernel: object
    analysis: forms.Analysis
    geometry: MeasureGeometry
    rows: np.ndarray
    cols: np.ndarray
    coeff_dofs: list
    linear: object = None  # u, if it is J u: applied, never run

    @property
    def static(self):  # reads no coefficient and no impure Analytic
        return self.analysis.degree == (set(), 0)


def _measure_geometry(measure, rule):
    """The measure's geometry, built once per measure and rule, kept in a
    dict on the root mesh and shared by every plan on them.  Rules of one
    cell type and point count are identical."""
    cache = measure.mesh.root().__dict__.setdefault("_geometry", {})
    key = (measure.key(), rule.cell, len(rule))
    if key not in cache:
        cache[key] = MeasureGeometry(measure.participants(), rule,
                                     _entities(measure))
    return cache[key]


def _plan_for(integral):
    kernel, analysis = compile_integral(integral), forms.analyze(integral)
    geometry = _measure_geometry(integral.measure, kernel.quadrature)

    def dofs(t, k, pidx, side):  # terminal t's component firsts[t] + k
        space, component = analysis.terminals[t].space, analysis.firsts[t] + k
        cells = geometry.side(pidx, side_index(side)).cells
        return space.offsets[component] + space.dofmaps[component][cells]

    def arg_dofs(number):  # a functional's rows are its one entry, 0
        if number not in kernel.arguments:
            return None if number else np.zeros((len(geometry), 1), int)
        t = kernel.arguments[number]
        return np.concatenate([dofs(t, b.component, b.participant, b.side)
                               for b in kernel.arg_blocks[number]], axis=1)

    coeff_dofs = [dofs(*slot) for slot in kernel.coeff_slots]
    return _IntegralPlan(kernel, analysis, geometry, arg_dofs(0),
                         arg_dofs(1), coeff_dofs)


def _plans(form):
    """(plans, measures that matched no entities under a subdomain id) of a
    form, cached on it: one plan per integral, in form order.  A linear
    form's integral of degree one in one coefficient u alone is linear (J u,
    J = forms.derivative(form, u)).  The form's _pattern is built here."""
    if "_plans" in form.__dict__:
        return form._plans
    plans = [_plan_for(integral) for integral in form.integrals]
    if any(p.analysis.arguments != plans[0].analysis.arguments
           for p in plans):
        raise ValueError("every integral must use the form's arguments")
    for plan in plans:
        found, degree = plan.analysis.degree
        if plan.kernel.arity == 1 and degree == 1 == len(found):
            (plan.linear,) = found
            plan.rows = plan.coeff_dofs = None  # nothing reads them
    form._pattern = _pattern(form, plans)
    form._plans = plans, [i.measure for i in form.integrals if not len(
        _entities(i.measure)) and i.measure.subdomain_id != forms.EVERYWHERE]
    return form._plans


def iteration_set(integral):
    """Primal entity indices the assembler integrates for this integral."""
    return _entities(integral.measure)[:, 0].tolist()


def _element_tensors(plan):
    terminals = plan.analysis.terminals
    w = [terminals[t].values[dofs] for (t, *_), dofs
         in zip(plan.kernel.coeff_slots, plan.coeff_dofs)]
    return execute_kernel(plan.kernel, plan.geometry, w, terminals).ravel()


def _static_pass(plans):
    """Static plans' flat element tensors, None for others.  The argument
    tables and planes built for them then go; dynamic kernels keep theirs."""
    sides = [side for p in plans for side in p.geometry._sides.values()]
    before = [dict(side._built) for side in sides]
    values = [_element_tensors(p) if p.static else None for p in plans]
    for side, built in zip(sides, before):
        side._built = built
    return values


def _csr(keys, shape):
    """(slot, indices, indptr): the CSR structure of entries at flat
    positions keys of a matrix and each entry's slot in it.  Keys sort as
    int32 where they fit, for the same slots."""
    n, m = shape
    unique, slot = np.unique(keys.astype(np.int32) if n * m < 2 ** 31
                             else keys, return_inverse=True)
    index = np.int32 if max(n, m, len(unique)) < 2 ** 31 else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(unique // m, minlength=n), out=indptr[1:])
    return slot.astype(index), (unique % m).astype(index), indptr


def _pattern(form, plans):
    """(S, L, slot, indices, indptr, diagonal, hit, matvecs) of a form: the
    sum S of its static kernels' entries, read-only; the slot there of each
    entry of its dynamic kernels, in assembly order; and (u, L) per
    coefficient u of a vector's linear plans, which add L u, L from
    forms.derivative(form, u)'s pattern.  A functional's slots are 0 and a
    vector's its rows, the rest None.  A matrix's are on a CSR structure
    (indices, indptr) over its element entries' and diagonal's keys, with
    the diagonal's slots and where entries hit; L sums the entries whose
    source (forms.derivative) is of degree one in its coefficient u alone,
    so L u sums those (S if all are, None if none is)."""
    args = plans[0].analysis.arguments if plans else {}
    shape = [args[k].space.num_dofs for k in range(len(args))]
    matvecs = []  # first: they plan J and run its static pass
    for u in dict.fromkeys(p.linear for p in plans if p.linear):
        J = forms.derivative(form, u)
        if _plans(J)[0] and J._pattern[1] is not None:  # else they add 0
            _, L, _, indices, indptr, *_ = J._pattern
            matvecs.append((u, scipy.sparse.csr_matrix(
                (L, indices, indptr), shape=(shape[0], len(u.values)))))
    plans = [p for p in plans if not p.linear]
    matrix = len(shape) == 2
    keys = [(p.rows[:, :, None] * shape[1] + p.cols[:, None, :]).ravel()
            if matrix else p.rows.ravel() for p in plans]
    sizes = [len(k) for k in keys]
    if matrix:
        slot, indices, indptr = _csr(np.concatenate(
            keys + [np.arange(min(shape)) * (shape[1] + 1)]), shape)
        slot, diagonal = slot[:sum(sizes)], slot[sum(sizes):].copy()
    else:
        slot = np.concatenate(keys + [np.empty(0, int)])
        indices = indptr = diagonal = None
    size = len(indices) if matrix else (shape or [1])[0]
    values = _static_pass(plans)
    static = [p.static for p in plans]

    def summed(chosen):  # read-only
        S = np.bincount(slot[np.repeat(np.array(chosen, bool), sizes)],
                        weights=np.concatenate([v for v, c in zip(
                            values, chosen) if c] + [np.empty(0)]),
                        minlength=size).astype(float)  # int if empty
        S.setflags(write=False)
        return S

    S = summed(static)
    dynamic = slot[~np.repeat(np.array(static, bool), sizes)]
    if not matrix:
        return S, None, dynamic, None, None, None, None, matvecs
    u, sources = getattr(form, "sources", (None, ()))
    linear = [forms.analyze(s).degree == ({u}, 1) for s in sources]
    L = S if linear == static else summed(linear) if any(linear) else None
    return (S, L, dynamic, indices, indptr, diagonal,
            np.bincount(slot, minlength=size) > 0, matvecs)


def _scatter(form, space, shape, bcs):
    """(static, slot, indices, indptr) of a matrix under bcs, cached on the
    form per bcs (component, marker) pairs: its _pattern masked.  Dirichlet
    dofs' rows and columns go but for a unit diagonal; every kept slot sums
    the same entries in the same order, and a dropped entry's slot is past
    the end.  static is read-only, a csr_matrix if every kernel is static."""
    scatters = form.__dict__.setdefault("_scatters", {})
    key = tuple((bc.component, bc.marker) for bc in bcs)
    if key in scatters:
        return scatters[key]
    static, _, slot, indices, indptr, diagonal, hit, _ = form._pattern
    dofs = dirichlet_dofs(space, bcs)[0]
    free = np.ones(shape[0], dtype=bool)
    free[dofs] = False
    keep = hit & np.repeat(free, np.diff(indptr))
    if bcs:  # square; with no dynamic kernel, its zeros go here, once
        keep &= free[indices] & ((static != 0) | bool(len(slot)))
    live = keep.copy()  # where dynamic entries go
    keep[diagonal[dofs]] = True
    at = np.cumsum(keep, dtype=indptr.dtype)
    static = static[keep]
    static[at[diagonal[dofs]] - 1] = 1.0
    static.setflags(write=False)
    slot = np.where(live[slot], at[slot] - 1, len(static))
    indices, indptr = indices[keep], np.insert(at, 0, 0)[indptr]
    if not len(slot):  # no dynamic kernel: one matrix, read-only
        indices.setflags(write=False)
        indptr.setflags(write=False)
        static = scipy.sparse.csr_matrix((static, indices, indptr), shape)
        static.has_canonical_format = True
    scatters[key] = static, slot, indices, indptr
    return scatters[key]


def assemble(form, bcs=()):
    """Assemble a non-empty form into a float, a vector, or a CSR matrix.

    Dirichlet conditions: matrix rows and columns of constrained dofs are
    zeroed with a unit diagonal (a symmetric application), which needs the
    trial space to be the test space; vector entries are set to the
    boundary values.  The form's plans are built, and their integrals
    checked (compile_integral), on its first assembly; its integrals must
    all use the same arguments.  A linear form's integrals linear in a
    coefficient u add one matvec by forms.derivative(form, u)'s static sum.
    A static matrix shares cached read-only arrays: copy before editing.
    """
    if not form.integrals:
        raise ValueError("the form has no integrals, so its arity is "
                         "unknown; forms.derivative(F, w) is empty if F "
                         "does not read w")
    plans, empty = _plans(form)
    for measure in empty:
        warnings.warn(f"measure {measure!r} matched no entities; "
                      f"contribution is zero", stacklevel=2)
    args = plans[0].analysis.arguments
    arity = len(args)
    if arity == 2 and bcs and args[1].space is not args[0].space:
        raise ValueError("Dirichlet conditions on a bilinear form need its "
                         "trial space to be its test space")
    shape = tuple(args[k].space.num_dofs for k in range(arity))
    static, _, slot, indices, indptr, *_, matvecs = form._pattern
    if arity == 2:
        static, slot, indices, indptr = _scatter(form, args[0].space, shape,
                                                 bcs)
    if scipy.sparse.issparse(static):  # a new object on the shared arrays
        return copy.copy(static)
    data = static.copy()
    dynamic = [_element_tensors(p) for p in plans
               if not (p.static or p.linear)]
    if dynamic:
        data += np.bincount(slot, weights=np.concatenate(dynamic),
                            minlength=len(data))[:len(data)]
    for u, L in matvecs:
        data += L @ u.values
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


# ---------------------------------------------------------------------------
# Dirichlet boundary conditions


@dataclass(frozen=True)
class DirichletBC:
    """Fix component dofs whose nodes lie on facets with the given marker."""

    component: int
    marker: int
    value: object  # callable (x, y) -> values

    def __post_init__(self):
        object.__setattr__(self, "marker", as_int(self.marker))


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


def _jacobi_cg(A, b, coarse):
    """CG for SPD systems: scipy's cg, with M a symmetric V(1,1) cycle on
    the sparse coarse space P = coarse: z = ωD⁻¹r, z += P Ac⁻¹ Pᵀ(r - Az),
    z += ωD⁻¹(r - Az), ω = OMEGA, D the diagonal of K and Ac the factored
    symmetric part of PᵀKP, stopping at the first non-finite r·z.  K is the
    kept block, read once: a ReducedSystem's A_kk or A."""
    K = getattr(A, "A_kk", A)
    diag = K.diagonal()
    if not np.all(np.isfinite(diag) & (diag > 0)):
        raise ValueError("Jacobi-CG needs a positive finite diagonal; the "
                         "matrix is not SPD")
    n = len(b)
    if np.linalg.norm(b) == 0.0:  # cg would return b itself
        return np.zeros(n)
    dinv = OMEGA / diag
    restrict = coarse.T.tocsr()
    Ac = restrict @ K @ coarse
    coarse_lu = _factor(0.5 * (Ac + Ac.T), "coarse operator")

    def jacobi(r):
        z = dinv * r
        z += coarse @ coarse_lu.solve(restrict @ (r - A.dot(z)))
        z += dinv * (r - A.dot(z))
        if not np.isfinite(r @ z):
            raise ConvergenceError("CG broke down: non-finite residual")
        return z

    op, M = (scipy.sparse.linalg.LinearOperator(A.shape, f, dtype=float)
             for f in (A.dot, jacobi))
    x, info = scipy.sparse.linalg.cg(op, b, rtol=SOLVE_TOL, atol=0.0, M=M)
    if info:
        raise ConvergenceError(f"CG did not converge within {10 * n} iterations")
    return x


def _factor(A, what):
    """Sparse LU of A in SuperLU's symmetric mode: minimum-degree ordering
    on the pattern of A^T + A and diagonal pivots preferred, with partial
    pivoting kept at the default threshold.  Roughly halves the fill of
    the structurally symmetric interior-penalty Jacobians.  The one place
    that factors: a singular A raises ValueError naming its system, what."""
    try:
        return scipy.sparse.linalg.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                        options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise ValueError(f"{what} is singular: {exc}") from exc


def solve_linear(A, b, coarse=None):
    """Solve A x = b by sparse LU, or, given a coarse space P = coarse, by
    _jacobi_cg: CG with the two-level V-cycle on P as its M.

    b must be finite, and the residual is verified: |A x - b| <= 1e-10 |b|.
    """
    b = np.asarray(b, dtype=float)
    if not np.all(np.isfinite(b)):
        raise ValueError("right-hand side is not finite")
    if coarse is not None:
        x = _jacobi_cg(A, b, coarse)
    else:
        x = _factor(A, "linear system").solve(b)
    residual = np.linalg.norm(A.dot(x) - b)
    if not residual <= SOLVE_TOL * max(np.linalg.norm(b), 1e-300):  # or NaN
        raise ConvergenceError(
            f"linear solve residual {residual:.3e} exceeds tolerance")
    return x


def newton_solve(F, u, bcs=(), solve=None):
    """Newton's method on the residual form F(u; v) = 0; returns the number
    of update steps taken.

    Boundary values are imposed on the first iterate, corrections are
    homogeneous.  The Jacobian is the Gateaux derivative of F with respect to
    the whole Coefficient u, the same Form on every call, whose static
    sum also applies F's integrals linear in u as one matvec.  Each update is
    solve(A, b) on the constrained Jacobian A and the negated residual b;
    the default is solve_linear (sparse LU), looked up at call time.  A
    non-finite residual raises ConvergenceError at once.
    """
    solve = solve or solve_linear
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
    tol = max(NEWTON_ABS_TOL, NEWTON_REL_TOL * norm)
    for it in range(NEWTON_MAX_ITERS):
        if norm <= tol:
            return it
        u.values += solve(assemble(J, bcs), -r)
        r, norm = residual_norm()
    if norm <= tol:
        return NEWTON_MAX_ITERS
    raise ConvergenceError(
        f"Newton did not converge in {NEWTON_MAX_ITERS} iterations "
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
    """Schur complement after eliminating one component block of A x = b.

    Provides matvec access (dot) for iterative solves, the reduced
    right-hand side rhs, and expand() to recover the eliminated component
    by back-substitution.  _jacobi_cg's D and Ac come from the kept block
    A_kk, its V-cycle applies dot; the eliminated block is factored once.
    """

    def __init__(self, A, offsets, component, b):
        n = A.shape[0]
        if A.shape[0] != A.shape[1] or offsets[-1] != n:
            raise ValueError("offsets do not match the matrix")
        if not 0 <= component < len(offsets) - 1:
            raise ValueError(f"component {component} out of range for "
                             f"{len(offsets) - 1} blocks")
        lo, hi = offsets[component], offsets[component + 1]
        self.keep = np.concatenate([np.arange(0, lo), np.arange(hi, n)])
        self.eliminated = np.arange(lo, hi)
        self.shape = (len(self.keep),) * 2
        A = A.tocsr()
        kept, eliminated = A[self.keep], A[self.eliminated]  # row sets
        self.A_kk = kept[:, self.keep].tocsr()
        self.A_km = kept[:, self.eliminated].tocsr()
        self.A_mk = eliminated[:, self.keep].tocsr()
        self._lu = _factor(eliminated[:, self.eliminated], "eliminated block")
        self.b = np.asarray(b, dtype=float)
        self.rhs = (self.b[self.keep]
                    - self.A_km @ self._lu.solve(self.b[self.eliminated]))

    def dot(self, v):
        return self.A_kk @ v - self.A_km @ self._lu.solve(self.A_mk @ v)

    def expand(self, x_keep):
        """Full-length solution from the reduced one."""
        n = len(self.keep) + len(self.eliminated)
        x = np.empty(n)
        x[self.keep] = x_keep
        x[self.eliminated] = self._lu.solve(
            self.b[self.eliminated] - self.A_mk @ x_keep)
        return x


def eliminate_component(A, offsets, component, b):
    """Eliminate one contiguous component block from A x = b."""
    return ReducedSystem(A, offsets, component, b)


def dump_matrix(A, path):
    """Write a matrix in MatrixMarket coordinate format."""
    import scipy.io  # only --dump-matrix pays for its import
    scipy.io.mmwrite(path, scipy.sparse.coo_matrix(A), symmetry="general")
