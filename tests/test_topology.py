"""Array-based topology and dof numbering against a per-entity reference.

The reference below is the dict-based construction the array code
replaced: it walks cells in order, keys facets by sorted vertex tuples in a
dict, and hands out dofs one node at a time.  It is kept here as an oracle,
the way conftest keeps a coordinate-based iteration-set oracle, and the
property tests compare the mesh arrays, extractions, entity maps and
dofmaps with it exactly on random small meshes: hybrid triangle/quad
meshes with random vertex labels, cell orders and starting vertices,
interval trees (with vertices shared by three or more intervals) and
random markers.  Meshes are built from arrays and read back through them.
TestCellValidation covers the cells and the inputs the constructor
rejects.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multifem import fe, forms
from multifem import mesh as mm

QUAD = mm.CellType.QUADRILATERAL
TRI = mm.CellType.TRIANGLE
INTERVAL = mm.CellType.INTERVAL


# ---------------------------------------------------------------------------
# per-entity reference


def cell_arrays(cells):
    """Mesh's cells input for (CellType, vertex ids) pairs: type codes and
    rows padded with -1 to the widest cell."""
    width = max(len(vids) for _, vids in cells)
    rows = np.full((len(cells), width), -1)
    for c, (_, vids) in enumerate(cells):
        rows[c, :len(vids)] = vids
    return np.array([mm.CELL_TYPES.index(t) for t, _ in cells]), rows


def mesh_cells(mesh):
    """A mesh's cells as (CellType, vertex id tuple) pairs, read from its
    arrays."""
    return [(mm.CELL_TYPES[t], tuple(v for v in row if v >= 0))
            for t, row in zip(mesh.cell_type_codes.tolist(),
                              mesh.cell_vertex_ids.tolist())]


def ref_facets(cells):
    """(facet vertex tuples, per facet its (cell, local facet) pairs, dict
    from sorted vertex tuple to facet index), in first-occurrence order."""
    facet_vertices, facet_cells, index = [], [], {}
    for c, (ctype, vids) in enumerate(cells):
        for lf, local in enumerate(ctype.local_facets):
            key = tuple(sorted(vids[l] for l in local))
            idx = index.get(key)
            if idx is None:
                idx = index[key] = len(facet_vertices)
                facet_vertices.append(key)
                facet_cells.append([])
            facet_cells[idx].append((c, lf))
    return facet_vertices, facet_cells, index


def ref_renumber(used_vertices):
    v2new, new2parent = {}, []
    for v in used_vertices:
        if v not in v2new:
            v2new[v] = len(new2parent)
            new2parent.append(v)
    return v2new, new2parent


def ref_codim0(parent, markers):
    """(cells, new -> parent vertices, cell table, facet markers)."""
    parent_cells = mesh_cells(parent)
    _, _, pindex = ref_facets(parent_cells)
    table = [c for c in range(parent.num_cells)
             if int(parent.cell_markers[c]) in markers]
    v2new, new2parent = ref_renumber(
        [v for c in table for v in parent_cells[c][1]])
    cells = [(parent_cells[c][0],
              tuple(v2new[v] for v in parent_cells[c][1]))
             for c in table]
    sub_facets, _, _ = ref_facets(cells)
    facet_markers = [int(parent.facet_markers[
        pindex[tuple(sorted(new2parent[v] for v in key))]])
        for key in sub_facets]
    return cells, new2parent, table, facet_markers


def ref_codim1(parent, marker):
    """(cells, new -> parent vertices, facet table)."""
    facets, _, _ = ref_facets(mesh_cells(parent))
    table = [f for f in range(len(facets))
             if int(parent.facet_markers[f]) == marker]
    v2new, new2parent = ref_renumber([v for f in table for v in facets[f]])
    cells = [(INTERVAL, tuple(v2new[v] for v in facets[f])) for f in table]
    return cells, new2parent, table


def ref_dofs(mesh, element):
    """Dofmap and dof coordinates, one node at a time."""
    ctype = mesh.cell_type
    per_edge = element.degree - 1
    nodes = fe.geometry_map(ctype, mesh.coords_of_cells(
        np.arange(mesh.num_cells)), element.node_points)
    vertex_dof, edge_dofs, coords = {}, {}, []
    dofmap = np.empty((mesh.num_cells, element.num_dofs), dtype=int)

    def fresh(point):
        coords.append(point)
        return len(coords) - 1

    for c, (_, verts) in enumerate(mesh_cells(mesh)):
        for ln, tag in enumerate(element.node_tags):
            if tag[0] == "vertex":
                gv = verts[tag[1]]
                if gv not in vertex_dof:
                    vertex_dof[gv] = fresh(nodes[c, ln])
                dof = vertex_dof[gv]
            elif tag[0] == "edge":
                _, le, idx = tag
                ga, gb = (verts[i] for i in ctype.local_facets[le])
                if ga > gb:
                    idx = per_edge - 1 - idx
                slots = edge_dofs.setdefault(tuple(sorted((ga, gb))),
                                             [None] * per_edge)
                if slots[idx] is None:
                    slots[idx] = fresh(nodes[c, ln])
                dof = slots[idx]
            else:
                dof = fresh(nodes[c, ln])
            dofmap[c, ln] = dof
    return dofmap, np.array(coords)


# ---------------------------------------------------------------------------
# random meshes


def random_hybrid(seed):
    """Jittered nx x ny grid of quads and triangle pairs (either diagonal),
    with random vertex labels, cell order and starting vertex per cell.
    Quads are marked 1 or 2, triangles 3 or 4; a random third of the facets
    is marked 5 or 6, given as vertex rows in random order.  Returns
    (mesh, dict from those rows as tuples to their markers)."""
    rng = np.random.default_rng(seed)
    nx, ny = rng.integers(1, 5, size=2)
    xs, ys = np.meshgrid(np.arange(nx + 1.0), np.arange(ny + 1.0),
                         indexing="ij")
    grid = np.stack([xs.ravel(), ys.ravel()], axis=1)
    grid += rng.uniform(-0.2, 0.2, grid.shape)
    label = rng.permutation(len(grid))
    vertices = np.empty_like(grid)
    vertices[label] = grid
    vid = lambda i, j: int(label[i * (ny + 1) + j])
    cells, markers = [], []
    for i in range(nx):
        for j in range(ny):
            a, b, c, d = vid(i, j), vid(i + 1, j), vid(i + 1, j + 1), \
                vid(i, j + 1)
            if rng.random() < 0.5:
                pieces = [(QUAD, [a, b, c, d])]
            elif rng.random() < 0.5:
                pieces = [(TRI, [a, b, c]), (TRI, [a, c, d])]
            else:
                pieces = [(TRI, [a, b, d]), (TRI, [b, c, d])]
            for ctype, vids in pieces:
                shift = int(rng.integers(len(vids)))
                cells.append((ctype, tuple(vids[shift:] + vids[:shift])))
                markers.append(int(rng.integers(1, 3))
                               + (2 if ctype is TRI else 0))
    order = rng.permutation(len(cells))
    cells = [cells[k] for k in order]
    markers = [markers[k] for k in order]
    facets, _, _ = ref_facets(cells)
    facet_markers = {}
    for key in facets:
        if rng.random() < 1 / 3:
            key = tuple(rng.permutation(key).tolist())
            facet_markers[key] = int(rng.integers(5, 7))
    rows = np.array(list(facet_markers), dtype=int).reshape(-1, 2)
    values = np.array(list(facet_markers.values()), dtype=int)
    return mm.Mesh(2, vertices, cell_arrays(cells), cell_markers=markers,
                   facet_markers=(rows, values)), facet_markers


def random_interval_tree(seed):
    """Random tree of intervals: each new vertex joins an earlier one, so
    some vertices are shared by three or more intervals."""
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(2, 12))
    label = rng.permutation(nv)
    cells = []
    for k in range(1, nv):
        ends = [int(label[k]), int(label[rng.integers(k)])]
        cells.append((INTERVAL, tuple(rng.permutation(ends).tolist())))
    cells = [cells[k] for k in rng.permutation(len(cells))]
    return mm.Mesh(1, rng.uniform(0.0, 1.0, (nv, 2)), cell_arrays(cells),
                   cell_markers=rng.integers(0, 3, len(cells)))


def assert_topology_matches(mesh):
    cells = mesh_cells(mesh)
    facets, facet_cells, _ = ref_facets(cells)
    assert mesh.facet_vertex_ids.tolist() == [list(key) for key in facets]
    # per facet, its (cell, local facet) pairs in cell order
    from_arrays = [[] for _ in facets]
    for (c, lf), f in np.ndenumerate(mesh.cell_facets):
        if f >= 0:
            from_arrays[f].append((c, lf))
    assert from_arrays == facet_cells
    sides = np.full((len(facets), 2), -1)
    local = np.full((len(facets), 2), -1)
    for f, incident in enumerate(facet_cells):
        for k, (c, lf) in enumerate(incident[:2]):
            sides[f, k], local[f, k] = c, lf
    assert np.array_equal(mesh.facet_sides, sides)
    assert np.array_equal(mesh.facet_local, local)
    assert np.array_equal(mesh.facet_exterior,
                          [len(inc) == 1 for inc in facet_cells])
    for c, (ctype, _) in enumerate(cells):
        row = mesh.cell_facets[c]
        assert np.all(row[:len(ctype.local_facets)] >= 0)
        assert np.all(row[len(ctype.local_facets):] == -1)
    found = mesh.locate_facets(mesh.facet_vertex_ids[:, ::-1])
    assert found.tolist() == list(range(len(facets)))
    outside = [[mesh.num_vertices] * mesh.dim]
    assert mesh.locate_facets(outside).tolist() == [-1]


SEEDS = settings(max_examples=40, deadline=None, derandomize=True)


@SEEDS
@given(st.integers(0, 2 ** 32 - 1))
def test_hybrid_topology_matches_reference(seed):
    mesh, facet_markers = random_hybrid(seed)
    assert_topology_matches(mesh)
    _, _, index = ref_facets(mesh_cells(mesh))
    expected = np.zeros(mesh.num_facets, dtype=int)
    for key, marker in facet_markers.items():
        expected[index[tuple(sorted(key))]] = marker
    assert np.array_equal(mesh.facet_markers, expected)


@SEEDS
@given(st.integers(0, 2 ** 32 - 1))
def test_interval_topology_matches_reference(seed):
    assert_topology_matches(random_interval_tree(seed))


@SEEDS
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(1,), (3,), (1, 2),
                                                    (2, 4), (1, 2, 3, 4)]))
def test_codim0_extraction_matches_reference(seed, markers):
    parent, _ = random_hybrid(seed)
    if not np.isin(parent.cell_markers, markers).any():
        return
    sub, emap = mm.extract_codim0_submesh(parent, markers)
    cells, new2parent, table, facet_markers = ref_codim0(parent, markers)
    assert mesh_cells(sub) == cells
    assert emap.table.tolist() == table
    assert sub.facet_markers.tolist() == facet_markers
    assert np.array_equal(sub.vertices, parent.vertices[new2parent])
    assert_topology_matches(sub)
    _, _, pindex = ref_facets(mesh_cells(parent))
    assert sub.facet_to_parent.tolist() == [
        pindex[tuple(sorted(new2parent[v] for v in key))]
        for key in sub.facet_vertex_ids.tolist()]


@SEEDS
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([5, 6]))
def test_codim1_extraction_matches_reference(seed, marker):
    parent, _ = random_hybrid(seed)
    if not np.any(parent.facet_markers == marker):
        return
    sub, emap = mm.extract_codim1_submesh(parent, marker)
    cells, new2parent, table = ref_codim1(parent, marker)
    assert mesh_cells(sub) == cells
    assert np.array_equal(sub.vertices, parent.vertices[new2parent])
    assert emap.table.tolist() == table
    assert np.array_equal(sub.cell_markers, [marker] * len(table))
    assert sub.facet_to_parent is None
    with pytest.raises(ValueError, match="codim-1 submesh's facets"):
        sub.root_entities("facet")
    assert_topology_matches(sub)


ELEMENTS = [(cell, family, degree)
            for cell, family in ((QUAD, "Q"), (TRI, "P"), (INTERVAL, "P"))
            for degree in range(1, fe.MAX_DEGREE + 1)]


def _single_type_meshes(seed):
    parent, _ = random_hybrid(seed)
    meshes = {INTERVAL: random_interval_tree(seed)}
    for cell, markers in ((QUAD, (1, 2)), (TRI, (3, 4))):
        if np.isin(parent.cell_markers, markers).any():
            meshes[cell] = mm.extract_codim0_submesh(parent, markers)[0]
    return meshes


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1))
def test_dofmaps_match_reference(seed):
    meshes = _single_type_meshes(seed)
    for cell, family, degree in ELEMENTS:
        if cell not in meshes:
            continue
        element = fe.make_element(cell, family, degree)
        V = forms.FunctionSpace(meshes[cell], element)
        dofmap, coords = ref_dofs(meshes[cell], element)
        assert np.array_equal(V.dofmaps[0], dofmap)
        assert np.array_equal(V.dof_coords, coords)


class TestCellValidation:
    SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("cell", [(QUAD, (0, 1, 1, 3)),
                                      (TRI, (2, 0, 2)),
                                      (QUAD, (3, 1, 0, 3))])
    def test_repeated_vertex_rejected(self, cell):
        with pytest.raises(ValueError, match=r"cell 1 repeats a vertex"):
            mm.Mesh(2, self.SQUARE, cell_arrays([(TRI, (0, 1, 2)), cell]))

    def test_repeated_interval_endpoint_rejected(self):
        with pytest.raises(ValueError, match=r"cell 0 repeats a vertex"):
            mm.Mesh(1, self.SQUARE, cell_arrays([(INTERVAL, (2, 2))]))

    @pytest.mark.parametrize("cell", [(TRI, (0, 1, 4)), (TRI, (0, -1, 2))])
    def test_vertex_out_of_range_rejected(self, cell):
        with pytest.raises(ValueError, match="cell 0 has a vertex index out"):
            mm.Mesh(2, self.SQUARE, cell_arrays([cell]))

    # rows of the widest cell's width in a single-type and a hybrid mesh;
    # each is checked against its own type before the rows are trimmed
    @pytest.mark.parametrize("codes,rows,message", [
        ([TRI], [[0, 1, 2, 3]], "cell 0 needs 3 vertices as a triangle, "
                                "got 4"),
        ([TRI], [[0, 1, -1, -1]], "cell 0 needs 3 vertices as a triangle, "
                                  "got 2"),
        ([QUAD], [[0, 1, 3]], "cell 0 needs 4 vertices as a quadrilateral, "
                              "got 3"),
        ([QUAD, TRI], [[0, 1, 3, 2], [0, 1, 2, 3]],
         "cell 1 needs 3 vertices as a triangle, got 4"),
        ([QUAD, TRI], [[0, 1, 3, 2], [0, 1, -1, -1]],
         "cell 1 needs 3 vertices as a triangle, got 2"),
        ([TRI, QUAD], [[0, 1, 2, -1], [0, 1, 3, -1]],
         "cell 1 needs 4 vertices as a quadrilateral, got 3")])
    def test_row_width_checked_against_the_cell_type(self, codes, rows,
                                                     message):
        codes = np.array([mm.CELL_TYPES.index(t) for t in codes])
        with pytest.raises(ValueError, match=message):
            mm.Mesh(2, self.SQUARE, (codes, np.array(rows)))

    @pytest.mark.parametrize("code", [-1, len(mm.CELL_TYPES)])
    def test_unknown_type_code_rejected(self, code):
        with pytest.raises(ValueError, match=r"cell type codes lie in 0..2"):
            mm.Mesh(2, self.SQUARE, (np.array([code]), np.array([[0, 1, 2]])))

    @pytest.mark.parametrize("cells", [
        [(TRI, (0, 1, 2))],
        ((TRI, (0, 1, 2)), (TRI, (1, 3, 2))),
        (np.array([1]), np.array([[0.0, 1.0, 2.0]])),
        (np.array([True]), np.array([[0, 1, 2]])),
        (np.array([1, 1]), np.array([[0, 1, 2]])),
        (np.array([1]), np.array([0, 1, 2]))])
    def test_cells_other_than_a_pair_of_integer_arrays_rejected(self, cells):
        with pytest.raises(TypeError, match=r"cells must be a pair of integer "
                                            r"arrays \(cell_type_codes"):
            mm.Mesh(2, self.SQUARE, cells)

    @pytest.mark.parametrize("facet_markers", [
        {(1, 0): 5},
        [([0, 1], 5)],
        (np.array([[0, 1]]), np.array([5.0])),
        (np.array([[0.0, 1.0]]), np.array([5])),
        (np.array([0, 1]), np.array([5]))])
    def test_facet_markers_other_than_a_pair_of_integer_arrays_rejected(
            self, facet_markers):
        with pytest.raises(TypeError, match=r"facet_markers must be a pair of "
                                            r"integer arrays \(vertex ids"):
            mm.Mesh(2, self.SQUARE, cell_arrays([(TRI, (0, 1, 2))]),
                    facet_markers=facet_markers)

    @pytest.mark.parametrize("markers", [[1.5], [True], ["1"]])
    def test_non_integer_cell_markers_rejected(self, markers):
        with pytest.raises(TypeError, match="cell_markers must be integers"):
            mm.Mesh(2, self.SQUARE, cell_arrays([(TRI, (0, 1, 2))]),
                    cell_markers=markers)
