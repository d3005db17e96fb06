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


def single_cell_mesh(cell_type, vertices, marker=0):
    verts = np.asarray(vertices, dtype=float)
    return meshmod.Mesh(2, verts,
                        [(cell_type, tuple(range(len(verts))))],
                        cell_markers=[marker])


def quad_tri_interface_pair():
    """A one-quad/one-triangle parent sharing the unit facet x=0, y in [0,1].

    Returns (parent, quad submesh, triangle submesh); the shared facet is
    marked 999 and is of unit length.
    """
    verts = [(-1.0, 0.0), (0.0, 0.0), (0.0, 1.0), (-1.0, 1.0), (1.0, 0.0)]
    cells = [(meshmod.CellType.QUADRILATERAL, (0, 1, 2, 3)),
             (meshmod.CellType.TRIANGLE, (1, 4, 2))]
    parent = meshmod.Mesh(2, np.array(verts), cells, cell_markers=[1, 2],
                          facet_markers={(1, 2): 999})
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
            table[_segment_key(mesh.facet_coords(int(f)))] = int(f)
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
            candidates.append((f, _segment_key(primal.facet_coords(f))))
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

    return cases
