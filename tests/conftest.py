"""Shared fixtures and independent oracles used across the test suite.

The helpers here deliberately avoid the library's own resolution machinery:
iteration sets are recomputed from physical coordinates, and the validator
catalog builds its forms from scratch, so the tests cross-check the package
rather than restate it.
"""

import contextlib
import importlib

import numpy as np
import pytest
import scipy.sparse

from multifem import fe, forms
from multifem import mesh as meshmod

# The package re-exports the assemble *function* at top level, which shadows
# the submodule attribute; importlib resolves the module itself.
assemble_mod = importlib.import_module("multifem.assemble")
studies_mod = importlib.import_module("multifem.studies")
compile_mod = importlib.import_module("multifem.compile")


@pytest.fixture(scope="session")
def asm():
    return assemble_mod


@pytest.fixture(scope="session")
def studies():
    return studies_mod


@pytest.fixture(scope="session")
def comp():
    return compile_mod


# ---------------------------------------------------------------------------
# small construction helpers
# ---------------------------------------------------------------------------

def make_space(meshes, elements):
    return forms.FunctionSpace(forms.MeshSequence(list(meshes)),
                               forms.MixedElement(list(elements)))


def scalar_space(mesh, family, degree):
    cell = mesh.cell_type
    return make_space([mesh], [fe.make_element(cell, family, degree)])


def cells_of(cell_type, rows):
    """Mesh's cells input for cells of one type: (type codes, vertex ids)."""
    rows = np.array(rows)
    return np.full(len(rows), meshmod.CELL_TYPES.index(cell_type)), rows


def single_cell_mesh(cell_type, vertices, marker=0):
    verts = np.asarray(vertices, dtype=float)
    return meshmod.Mesh(2, verts, cells_of(cell_type, [range(len(verts))]),
                        cell_markers=[marker])


def quad_tri_interface_pair():
    """A one-quad/one-triangle parent sharing the unit facet x=0, y in [0,1].

    Returns (parent, quad submesh, triangle submesh); the shared facet is
    marked 999 and is of unit length.
    """
    verts = [(-1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)]
    codes = [meshmod.CELL_TYPES.index(t) for t in (
        meshmod.CellType.QUADRILATERAL, meshmod.CellType.TRIANGLE)]
    cells = (np.array(codes), np.array([[0, 1, 2, 3], [1, 4, 2, -1]]))
    parent = meshmod.Mesh(2, np.array(verts), cells, cell_markers=[1, 2],
                          facet_markers=(np.array([[1, 2]]),
                                         np.array([999])))
    mq, _ = meshmod.extract_codim0_submesh(parent, 1)
    mt, _ = meshmod.extract_codim0_submesh(parent, 2)
    return parent, mq, mt


WARP_AMPLITUDE = 0.04


def warp(mesh, amplitude=WARP_AMPLITUDE):
    """A copy of a background mesh moved by x, y += a sin 2 pi x sin 2 pi y.

    The move vanishes on the boundary of the unit square and on the
    interface x = 0.5, so markers, submeshes and the exact solution's
    boundary data keep their meaning.  From level 1 on every quadrilateral
    becomes a non-parallelogram; at level 0 the 36 quadrilaterals that
    straddle x or y = 0.25 or 0.75 symmetrically stay parallelograms.
    """
    x, y = mesh.vertices.T
    shift = amplitude * np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y)
    return meshmod.Mesh(2, mesh.vertices + shift[:, None],
                        (mesh.cell_type_codes, mesh.cell_vertex_ids),
                        cell_markers=mesh.cell_markers,
                        facet_markers=(mesh.facet_vertex_ids,
                                       mesh.facet_markers))


@contextlib.contextmanager
def warped_studies():
    """Within the block, the study problems build on warped backgrounds."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("build_split_unit_square", "build_hybrid_unit_square"):
            build = getattr(meshmod, name)
            patch.setattr(studies_mod, name,
                          lambda level, build=build: warp(build(level)))
        yield


def dof_index_at(space, component, xy, tol=1e-10):
    """Global dof index of the component's dof at physical point xy."""
    lo, hi = space.offsets[component], space.offsets[component + 1]
    coords = space.dof_coords[lo:hi]
    dist = np.linalg.norm(coords - np.asarray(xy, dtype=float), axis=1)
    hits = np.flatnonzero(dist <= tol)
    if len(hits) != 1:
        raise AssertionError(f"expected one dof at {xy}, found {len(hits)}")
    return lo + int(hits[0])


# ---------------------------------------------------------------------------
# brute-force iteration-set oracle (coordinate based)
# ---------------------------------------------------------------------------

def _segment_key(coords, ndigits=10):
    return frozenset((round(float(x), ndigits), round(float(y), ndigits))
                     for x, y in coords)


def _entity_keys(mesh, integral_type):
    """Map physical-segment key -> entity index for one participation role."""
    table = {}
    if integral_type == "dx":
        for c in range(mesh.num_cells):
            table[_segment_key(mesh.cell_coords(c))] = c
    else:
        exterior, interior = meshmod.classify_facets(mesh)
        wanted = exterior if integral_type == "ds" else interior
        for f in wanted:
            table[_segment_key(mesh.coords_of_facets(int(f)))] = int(f)
    return table


def brute_force_iteration_set(integral):
    """Recompute an integral's iteration set from physical coordinates alone.

    Primal candidates are filtered by integral type and subdomain marker;
    each intersected measure keeps only candidates whose physical vertex set
    appears in that mesh with the required exterior/interior status.
    """
    measure = integral.measure
    primal = measure.mesh
    sub = measure.subdomain_id
    candidates = []
    if measure.integral_type == "dx":
        for c in range(primal.num_cells):
            if sub != forms.EVERYWHERE and int(primal.cell_markers[c]) != sub:
                continue
            candidates.append((c, _segment_key(primal.cell_coords(c))))
    else:
        exterior, interior = meshmod.classify_facets(primal)
        wanted = set(exterior.tolist() if measure.integral_type == "ds"
                     else interior.tolist())
        for f in range(primal.num_facets):
            if f not in wanted:
                continue
            if sub != forms.EVERYWHERE and int(primal.facet_markers[f]) != sub:
                continue
            candidates.append((f, _segment_key(primal.coords_of_facets(f))))
    participant_tables = [_entity_keys(mesh, integral_type)
                          for integral_type, mesh in measure.intersect_measures]
    kept = [e for e, key in candidates
            if all(key in table for table in participant_tables)]
    return sorted(kept)


def distinct_intersection_integrals(*forms_):
    """One representative integral per distinct intersection measure."""
    seen = {}
    for form in forms_:
        for itg in form.integrals:
            if itg.measure.intersect_measures:
                seen.setdefault(itg.measure.key(), itg)
    return list(seen.values())


# ---------------------------------------------------------------------------
# Dirichlet oracle: constraining an assembled matrix
# ---------------------------------------------------------------------------

def constrain_matrix(A, dofs):
    """Zero the rows and columns of dofs, drop the zeros, set a unit
    diagonal there."""
    free = np.ones(A.shape[0], dtype=bool)
    free[dofs] = False
    A = A.tocsr(copy=True)
    row_free = np.repeat(free, np.diff(A.indptr))
    A.data[~(row_free & free[A.indices])] = 0.0
    A.eliminate_zeros()
    return (A + scipy.sparse.diags((~free).astype(float))).tocsr()


# ---------------------------------------------------------------------------
# form oracle: materialized argument values, quadrature summed last
# ---------------------------------------------------------------------------

def materialized_element_tensors(integral):
    """Element matrices (E, test, trial), vectors (E, test) or functional
    values (E,) of an integral, by walking its integrand with every value
    materialized as (E, nq, test | 1, trial | 1, *shape) and summing the
    weighted quadrature points last: the contraction the tape did before
    the test function was factored out of its kernels, and still does for
    bilinear ones.  Reads the integral's plan for the geometry and the
    argument blocks' offsets only, placing a block by its component through
    the plan's analysis."""
    plan = assemble_mod._plan_for(integral)
    kernel, geometry = plan.kernel, plan.geometry
    E, nq = geometry.wq.shape
    sizes = (max(kernel.test_size, 1), max(kernel.trial_size, 1))
    firsts = plan.analysis.firsts
    blocks = {(number, firsts[kernel.arguments[number]] + b.component,
               b.side): b
              for number, group in kernel.arg_blocks.items() for b in group}
    pindex = {mesh.id: k for k, (_, mesh)
              in enumerate(integral.measure.participants())}

    def function(expr, side, grad):
        while isinstance(expr, forms.Restricted):
            side, expr = expr.side, expr.operands[0]
        func, k = ((expr.function, expr.component)
                   if isinstance(expr, forms.Indexed) else (expr, 0))
        element = func.space.element[k]
        where = geometry.side(pindex[func.space.meshes[k].id],
                              compile_mod.side_index(side))
        vals, grads = (np.broadcast_to(t, (E,) + t.shape[1:])
                       for t in where.tables(element))
        table = (np.einsum("eqn...i,eqij->eqn...j", grads, where.jinv)
                 if grad else vals)
        if isinstance(func, forms.Argument):
            block = blocks[(func.number, k, side)]
            out = np.zeros((E, nq, sizes[func.number]) + table.shape[3:])
            n = block.element.num_dofs
            out[:, :, block.offset:block.offset + n] = table
            # the other argument's axis stays of length 1
            return np.expand_dims(out, 3 - func.number)
        w = func.values[func.space.offsets[k]
                        + func.space.dofmaps[k][where.cells]]
        return np.einsum("eqn...,en->eq...", table, w)[:, :, None, None]

    def value(expr, side=None):
        if isinstance(expr, (forms.Constant, forms.Zero)):
            return np.full((1, 1, 1, 1) + expr.shape,
                           getattr(expr, "value", 0.0))
        if isinstance(expr, forms.Analytic):
            x, y = geometry.X[..., 0], geometry.X[..., 1]
            return np.broadcast_to(expr.fn(x, y), (E, nq))[..., None, None]
        if isinstance(expr, forms.FacetNormal):
            where = geometry.side(pindex[expr.mesh.id],
                                  compile_mod.side_index(side))
            return where.normal[:, None, None, None, :]
        if isinstance(expr, forms.Restricted):
            return value(expr.operands[0], expr.side)
        if isinstance(expr, (forms.Indexed, forms._Function, forms.Grad)):
            grad = isinstance(expr, forms.Grad)
            return function(expr.operands[0] if grad else expr, side, grad)
        a, b = (value(o, side) for o in expr.operands)
        if isinstance(expr, forms.Sum):
            return a + b
        if isinstance(expr, forms.Inner):  # equal value shapes
            a, b = (x.reshape(x.shape[:4] + (-1,)) for x in (a, b))
            return np.einsum("...k,...k->...", a, b)
        n = max(a.ndim, b.ndim)
        return (a.reshape(a.shape + (1,) * (n - a.ndim))
                * b.reshape(b.shape + (1,) * (n - b.ndim)))

    values = np.broadcast_to(value(integral.integrand), (E, nq) + sizes)
    out = (geometry.wq[:, None] @ values.reshape(E, nq, -1)).reshape(
        (E,) + sizes)
    return out[(slice(None),) * (1 + kernel.arity) + (0,) * (2 - kernel.arity)]


def dense_schur_complement(reduced):
    """A ReducedSystem's Schur complement as a dense array: the oracle of
    acceptance criterion 3, the Schur complement equals the interior-penalty
    operator."""
    return (reduced.A_kk.toarray()
            - reduced.A_km @ reduced._lu.solve(reduced.A_mk.toarray()))


# ---------------------------------------------------------------------------
# restriction-validator catalog
# ---------------------------------------------------------------------------

def validator_cases():
    """Catalog of facet/mixed integrals with expected validator outcomes.

    Returns a list of (name, form, expected_message_substrings); an empty
    expectation means the form must validate cleanly.  The meshes share one
    parent so that interior-facet participants (full copies of the parent)
    and exterior-facet participants (half extractions) coexist, and a
    codim-1 interface mesh provides the cell participant of the mixed case.
    """
    bg = meshmod.build_split_unit_square(0)
    full_a, _ = meshmod.extract_codim0_submesh(bg, (1, 2))
    full_b, _ = meshmod.extract_codim0_submesh(bg, (1, 2))
    left, _ = meshmod.extract_codim0_submesh(bg, 1)
    right, _ = meshmod.extract_codim0_submesh(bg, 2)
    interface, _ = meshmod.extract_codim1_submesh(bg, 999)

    quad = meshmod.CellType.QUADRILATERAL
    scalar = lambda m: forms.Coefficient(scalar_space(m, "Q", 1))
    vector = lambda m: forms.Coefficient(make_space(
        [m], [fe.make_element(quad, "Q", 1, value_shape=(2,))]))
    interface_scalar = forms.Coefficient(make_space(
        [interface], [fe.make_element(meshmod.CellType.INTERVAL, "P", 1)]))

    def dS(mesh, *rest):
        return forms.Measure("dS", mesh, 999, intersect_measures=tuple(
            forms.Measure(t, m) for t, m in rest))

    plus = lambda e: forms.restrict(e, "+")
    minus = lambda e: forms.restrict(e, "-")
    cases = []

    # scalar x scalar x (vector . facet normal), all three facet roles
    u0, u1, u2 = scalar(full_a), scalar(full_b), vector(left)
    cases.append((
        "interior-interior-exterior",
        plus(u0) * plus(u1) * forms.inner(u2, forms.FacetNormal(left))
        * dS(full_a, ("dS", full_b), ("ds", left)),
        []))

    u0, u1, u2 = scalar(full_a), scalar(left), vector(full_b)
    n2 = forms.FacetNormal(full_b)
    cases.append((
        "interior-exterior-interior",
        plus(u0) * u1 * forms.inner(plus(u2), plus(n2))
        * dS(full_a, ("ds", left), ("dS", full_b)),
        []))

    u0, u1 = scalar(full_a), scalar(left)
    cases.append((
        "interior-exterior",
        plus(u0) * u1 * dS(full_a, ("ds", left)),
        []))

    u0, u1, u2 = scalar(full_a), scalar(left), vector(right)
    cases.append((
        "interior-exterior-exterior",
        plus(u0) * u1 * forms.inner(u2, forms.FacetNormal(right))
        * dS(full_a, ("ds", left), ("ds", right)),
        []))

    u0a, u1a, u2a = scalar(full_a), scalar(left), vector(right)
    u0b, u1b, u2b = scalar(full_a), scalar(left), vector(right)
    cases.append((
        "sum-of-two-valid-integrals",
        plus(u0a) * plus(scalar(full_b))
        * forms.inner(u2a, forms.FacetNormal(right))
        * dS(full_a, ("dS", full_b), ("ds", right))
        + plus(u0b) * u1b * forms.inner(u2b, forms.FacetNormal(right))
        * dS(full_a, ("ds", left), ("ds", right)),
        []))

    w0, w1 = vector(full_a), vector(left)
    n0 = forms.FacetNormal(full_a)
    cases.append((
        "mixed-cell-facet",
        ((forms.inner(plus(w0), plus(n0))
          + forms.inner(minus(w0), minus(n0))) * interface_scalar
         + forms.inner(w1, forms.FacetNormal(left)))
        * dS(full_a, ("ds", left), ("dx", interface)),
        []))

    u0, u1 = scalar(full_a), scalar(left)
    cases.append((
        "unrestricted-interior-facet-participant",
        u0 * u1 * dS(full_a, ("ds", left)),
        ["missing restriction on interior-facet participant"]))

    u0, u1 = scalar(full_a), scalar(left)
    cases.append((
        "restricted-exterior-facet-participant",
        plus(u0) * plus(u1) * dS(full_a, ("ds", left)),
        ["restriction on exterior-facet participant"]))

    u0, u1 = scalar(full_a), scalar(left)
    cases.append((
        "nested-restriction",
        forms.restrict(plus(u0), "-") * u1 * dS(full_a, ("ds", left)),
        ["nested restriction"]))

    w1 = vector(left)
    cases.append((
        "facet-normal-of-a-codim1-mesh",
        forms.inner(w1, forms.FacetNormal(interface))
        * dS(full_a, ("ds", left), ("dx", interface)),
        ["FacetNormal requires a codim-0 mesh"]))

    u0 = scalar(full_a)
    cases.append((
        "restricted-cell-participant",
        plus(u0) * plus(interface_scalar)
        * dS(full_a, ("ds", left), ("dx", interface)),
        ["restriction on cell participant"]))

    return cases
