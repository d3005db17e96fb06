"""Mesh generators, submesh extraction and entity maps."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conftest
from multifem import mesh as mm

QUAD = mm.CellType.QUADRILATERAL
TRI = mm.CellType.TRIANGLE


def unit_quad_mesh():
    return mm.Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                [0.0, 1.0]]),
                   conftest.cells_of(QUAD, [(0, 1, 2, 3)]))


class TestGenerators:
    def test_hybrid_level0_cell_counts(self):
        m = mm.build_hybrid_unit_square(0)
        codes = m.cell_type_codes
        assert np.count_nonzero(codes == mm.CELL_TYPES.index(QUAD)) == 50
        assert np.count_nonzero(codes == mm.CELL_TYPES.index(TRI)) == 100
        assert np.count_nonzero(m.cell_markers == 1) == 50
        assert np.count_nonzero(m.cell_markers == 2) == 100

    def test_hybrid_level0_interface_facet_count(self):
        m = mm.build_hybrid_unit_square(0)
        on_interface = np.flatnonzero(m.facet_markers == mm.INTERFACE_MARKER)
        assert len(on_interface) == 10
        for f in on_interface:
            assert np.allclose(m.coords_of_facets(int(f))[:, 0], 0.5)

    @pytest.mark.parametrize("n", [0, 1])
    @pytest.mark.parametrize("build", [mm.build_hybrid_unit_square,
                                       mm.build_split_unit_square])
    def test_generators_tile_the_unit_square(self, build, n):
        assert build(n).total_volume() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,cells", [(0, 100), (1, 400)])
    def test_split_cell_counts(self, n, cells):
        m = mm.build_split_unit_square(n)
        assert m.num_cells == cells
        assert m.cell_type is QUAD

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_split_interface_facet_count(self, n):
        m = mm.build_split_unit_square(n)
        marked = np.count_nonzero(m.facet_markers == mm.INTERFACE_MARKER)
        assert marked == 10 * 2 ** n

    def test_boundary_facets_are_marked(self):
        m = mm.build_split_unit_square(0)
        exterior, _ = mm.classify_facets(m)
        assert all(m.facet_markers[f] == mm.BOUNDARY_MARKER for f in exterior)


class TestCodim0Extraction:
    def test_hybrid_quad_extraction(self):
        parent = mm.build_hybrid_unit_square(0)
        sub, emap = mm.extract_codim0_submesh(parent, 1)
        assert sub.num_cells == 50
        assert sub.cell_type is QUAD
        assert emap.kind == "cell->cell"
        assert len(set(emap.table.tolist())) == len(emap.table)

    def test_extraction_preserves_geometry(self):
        parent = mm.build_hybrid_unit_square(0)
        sub, emap = mm.extract_codim0_submesh(parent, 2)
        for c in range(sub.num_cells):
            mine = {tuple(p) for p in sub.cell_coords(c)}
            theirs = {tuple(p) for p in parent.cell_coords(int(emap.table[c]))}
            assert mine == theirs

    def test_partition_of_area(self):
        parent = mm.build_hybrid_unit_square(0)
        a, _ = mm.extract_codim0_submesh(parent, 1)
        b, _ = mm.extract_codim0_submesh(parent, 2)
        assert a.total_volume() + b.total_volume() == pytest.approx(
            parent.total_volume(), abs=1e-12)

    def test_empty_marker_raises(self):
        parent = mm.build_hybrid_unit_square(0)
        with pytest.raises(ValueError, match="no entities matched marker"):
            mm.extract_codim0_submesh(parent, 7)

    def test_facet_markers_inherited(self):
        parent = mm.build_hybrid_unit_square(0)
        sub, _ = mm.extract_codim0_submesh(parent, 1)
        marked = np.flatnonzero(sub.facet_markers == mm.INTERFACE_MARKER)
        assert len(marked) == 10
        for f in marked:
            assert np.allclose(sub.coords_of_facets(int(f))[:, 0], 0.5)


class TestExtractionMarkers:
    # int() would truncate each of these into an existing marker
    @pytest.mark.parametrize("marker", [1.5, True, "1", (1, 2.5)])
    def test_non_integer_cell_marker_rejected(self, marker):
        with pytest.raises(TypeError, match="markers are integers"):
            mm.extract_codim0_submesh(mm.build_split_unit_square(0), marker)

    @pytest.mark.parametrize("marker", [999.7, 1.0, np.True_])
    def test_non_integer_facet_marker_rejected(self, marker):
        with pytest.raises(TypeError, match="markers are integers"):
            mm.extract_codim1_submesh(mm.build_split_unit_square(0), marker)

    def test_numpy_integer_markers_extract(self):
        bg = mm.build_split_unit_square(0)
        for marker in (np.int64(1), np.int32(1), [np.int64(1)]):
            _, emap = mm.extract_codim0_submesh(bg, marker)
            assert emap.table.tolist() == mm.extract_codim0_submesh(
                bg, 1)[1].table.tolist()
        _, emap = mm.extract_codim1_submesh(bg, np.int64(999))
        assert len(emap.table) == 10


class TestCodim1Extraction:
    def test_interface_interval_mesh(self):
        parent = mm.build_split_unit_square(0)
        sub, emap = mm.extract_codim1_submesh(parent, mm.INTERFACE_MARKER)
        assert sub.dim == 1 and sub.vertices.shape[1] == 2
        assert sub.num_cells == 10
        assert emap.kind == "cell->facet"
        assert sub.total_volume() == pytest.approx(1.0, abs=1e-12)

    def test_boundary_extraction_cell_count(self):
        sub, _ = mm.extract_codim1_submesh(mm.build_split_unit_square(0),
                                           mm.BOUNDARY_MARKER)
        assert sub.num_cells == 40

    def test_empty_marker_raises(self):
        with pytest.raises(ValueError, match="no entities matched marker"):
            mm.extract_codim1_submesh(mm.build_split_unit_square(0), 31)


class TestClassifyFacets:
    def test_single_quad(self):
        exterior, interior = mm.classify_facets(unit_quad_mesh())
        assert len(exterior) == 4 and len(interior) == 0

    def test_quad_strip(self):
        m = mm.Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0],
                                 [2.0, 1.0], [1.0, 1.0], [0.0, 1.0]]),
                    conftest.cells_of(QUAD, [(0, 1, 4, 5), (1, 2, 3, 4)]))
        exterior, interior = mm.classify_facets(m)
        assert len(exterior) == 6 and len(interior) == 1
        assert m.facet_vertex_ids[int(interior[0])].tolist() == [1, 4]

    @pytest.mark.parametrize("build", [mm.build_split_unit_square,
                                       mm.build_hybrid_unit_square])
    def test_classification_partitions_facets(self, build):
        m = build(0)
        exterior, interior = mm.classify_facets(m)
        assert len(exterior) + len(interior) == m.num_facets
        assert not set(exterior.tolist()) & set(interior.tolist())

    def test_interface_is_interior_on_parent_exterior_on_submeshes(self):
        parent = mm.build_hybrid_unit_square(0)
        _, parent_interior = mm.classify_facets(parent)
        parent_interior = set(parent_interior.tolist())
        marked = np.flatnonzero(parent.facet_markers == mm.INTERFACE_MARKER)
        assert all(int(f) in parent_interior for f in marked)
        for marker in (1, 2):
            sub, _ = mm.extract_codim0_submesh(parent, marker)
            sub_exterior, _ = mm.classify_facets(sub)
            sub_exterior = set(sub_exterior.tolist())
            sub_marked = np.flatnonzero(
                sub.facet_markers == mm.INTERFACE_MARKER)
            assert len(sub_marked) == 10
            assert all(int(f) in sub_exterior for f in sub_marked)

    def test_non_manifold_raises(self):
        # three triangles on facet (0, 1): rejected when the mesh is built,
        # before any dS integral could see only two of them
        with pytest.raises(ValueError, match=r"non-manifold facet \(0, 1\) "
                                             r"with 3 incident cells"):
            mm.Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                 [1.0, 1.0], [-1.0, 1.0]]),
                    conftest.cells_of(TRI, [(0, 1, 2), (0, 1, 3), (0, 1, 4)]))

    def test_segment_t_junction_builds_but_does_not_classify(self):
        # a dim-1 mesh only takes dx, so a branch point is allowed until
        # its facets are classified
        m = mm.Mesh(1, np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0],
                                 [0.0, 1.0]]),
                    conftest.cells_of(mm.CellType.INTERVAL,
                                      [(0, v) for v in (1, 2, 3)]))
        assert m.num_cells == 3
        with pytest.raises(ValueError, match=r"non-manifold facet \(0,\) "
                                             r"with 3 incident cells"):
            mm.classify_facets(m)


class TestEntityMaps:
    def test_identity_composition(self):
        parent = mm.build_hybrid_unit_square(0)
        sub, emap = mm.extract_codim0_submesh(parent, 1)
        ident = mm.EntityMap(sub.id, sub.id, "cell->cell",
                             np.arange(sub.num_cells))
        assert np.array_equal(mm.compose_maps(ident, emap).table, emap.table)

    def test_nested_extraction_composes_to_direct(self):
        parent = mm.build_hybrid_unit_square(0)
        both, to_parent = mm.extract_codim0_submesh(parent, (1, 2))
        nested, to_both = mm.extract_codim0_submesh(both, 1)
        direct, direct_map = mm.extract_codim0_submesh(parent, 1)
        composed = mm.compose_maps(to_both, to_parent)
        assert composed.kind == "cell->cell"
        assert np.array_equal(composed.table, direct_map.table)

    def test_codim1_composition_kind(self):
        parent = mm.build_split_unit_square(0)
        both, to_parent = mm.extract_codim0_submesh(parent, (1, 2))
        # interval mesh extracted from the copy, then composed up one level
        interface, to_both = mm.extract_codim1_submesh(
            both, mm.INTERFACE_MARKER)
        with pytest.raises(ValueError):
            mm.compose_maps(to_both, to_parent)  # cell->facet then cell->cell

    def test_mismatched_meshes_raise(self):
        parent = mm.build_split_unit_square(0)
        a, ma = mm.extract_codim0_submesh(parent, 1)
        b, mb = mm.extract_codim0_submesh(parent, 2)
        with pytest.raises(ValueError, match="not composable"):
            mm.compose_maps(ma, mb)

    def test_non_injective_table_rejected(self):
        with pytest.raises(ValueError, match="injective"):
            mm.EntityMap(0, 1, "cell->cell", np.array([0, 0, 1]))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            mm.EntityMap(0, 1, "facet->facet", np.array([0]))


def _injective_tables(draw, sizes):
    tables = []
    for src, tgt in zip(sizes, sizes[1:]):
        perm = draw(st.permutations(range(tgt)))
        tables.append(np.array(perm[:src], dtype=int))
    return tables


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_composition_is_associative_and_injective(data):
    sizes = data.draw(st.lists(st.integers(min_value=1, max_value=8),
                               min_size=4, max_size=4))
    sizes = sorted(sizes)  # each map's image must fit in the next domain
    t1, t2, t3 = _injective_tables(data.draw, sizes)
    a = mm.EntityMap(0, 1, "cell->cell", t1)
    b = mm.EntityMap(1, 2, "cell->cell", t2)
    c = mm.EntityMap(2, 3, "cell->cell", t3)
    left = mm.compose_maps(mm.compose_maps(a, b), c)
    right = mm.compose_maps(a, mm.compose_maps(b, c))
    assert np.array_equal(left.table, right.table)
    assert len(set(left.table.tolist())) == len(left.table)


class TestMeshValidation:
    def test_wrong_vertex_count_rejected(self):
        with pytest.raises(ValueError, match="vertices"):
            mm.Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    conftest.cells_of(QUAD, [(0, 1, 2)]))

    def test_wrong_dimension_cell_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            mm.Mesh(2, np.array([[0.0, 0.0], [1.0, 0.0]]),
                    conftest.cells_of(mm.CellType.INTERVAL, [(0, 1)]))


def interface_mesh():
    return mm.extract_codim1_submesh(mm.build_split_unit_square(0),
                                     mm.INTERFACE_MARKER)[0]


def unit_quad_mesh_with(**given):
    m = unit_quad_mesh()
    return mm.Mesh(2, m.vertices, (m.cell_type_codes, m.cell_vertex_ids),
                   **given)


def marked(rows):
    rows = np.array(rows)
    return unit_quad_mesh_with(facet_markers=(rows, np.ones(len(rows), int)))


def unit_quad_mesh_moving(vertex, to):
    m = unit_quad_mesh()
    vertices = m.vertices.copy()
    vertices[vertex] = to
    return mm.Mesh(2, vertices, (m.cell_type_codes, m.cell_vertex_ids))


def entity_map(table):
    return mm.EntityMap(0, 1, "cell->cell", np.array(table))


INPUT_CHECKS = {
    "vertices-not-nv-by-2": (
        lambda: mm.Mesh(2, np.zeros((4, 3)),
                        conftest.cells_of(QUAD, [(0, 1, 2, 3)])),
        ValueError, r"vertices must be an \(nv, 2\) array"),
    "dimension-3": (
        lambda: mm.Mesh(3, np.zeros((0, 2)), (np.zeros(0, int),
                                              np.zeros((0, 0), int))),
        ValueError, "a mesh's dimension is 1 or 2, not 3"),
    "dimension-true": (
        lambda: mm.Mesh(True, np.zeros((2, 2)), conftest.cells_of(
            mm.CellType.INTERVAL, [(0, 1)])),
        TypeError, "a mesh's dimension is an integer, got True"),
    # a NaN vertex would fail a pullback as non-conforming; an infinite
    # one would give a NaN matrix
    "vertex-nan": (lambda: unit_quad_mesh_moving(2, (np.nan, 1.0)),
                   ValueError, "vertex coordinates must be finite"),
    "vertex-inf": (lambda: unit_quad_mesh_moving(3, (0.0, np.inf)),
                   ValueError, "vertex coordinates must be finite"),
    "cell-markers-length": (
        lambda: unit_quad_mesh_with(cell_markers=np.array([1, 2])),
        ValueError, "cell_markers length mismatch"),
    "marked-diagonal": (lambda: marked([[2, 0]]), ValueError,
                        r"marked facet \(2, 0\) not in mesh"),
    "marked-vertex-out-of-range": (lambda: marked([[0, 4]]), ValueError,
                                   r"marked facet \(0, 4\) not in mesh"),
    "marked-row-of-three": (lambda: marked([[0, 1, 2]]), ValueError,
                            r"marked facet \(0, 1, 2\) not in mesh"),
    "marked-row-of-one": (lambda: marked([[0]]), ValueError,
                          r"marked facet \(0,\) not in mesh"),
    "parent-argument": (lambda: unit_quad_mesh_with(parent=unit_quad_mesh()),
                        TypeError, "unexpected keyword argument 'parent'"),
    "vertex-map-argument": (
        lambda: unit_quad_mesh_with(vertex_to_parent=np.arange(4)),
        TypeError, "unexpected keyword argument 'vertex_to_parent'"),
    "hybrid-cell-type": (lambda: mm.build_hybrid_unit_square(0).cell_type,
                         ValueError, "mesh is hybrid, no unique cell type"),
    "map-table-2d": (lambda: entity_map([[0, 1]]), ValueError,
                     "entity map table must be one-dimensional"),
    "map-table-negative": (lambda: entity_map([0, -1]), ValueError,
                           "entity map table has negative entries"),
    "composed-image-too-large": (
        lambda: mm.compose_maps(entity_map([0, 3]), mm.EntityMap(
            1, 2, "cell->cell", np.arange(3))),
        ValueError, "first map's image exceeds second's domain"),
    "codim0-of-a-1d-parent": (
        lambda: mm.extract_codim0_submesh(interface_mesh(),
                                          mm.INTERFACE_MARKER),
        ValueError, "codim-0 extraction expects a 2D parent"),
    "codim1-of-a-1d-parent": (
        lambda: mm.extract_codim1_submesh(interface_mesh(), 0),
        ValueError, "codim-1 extraction expects a 2D parent"),
    "facets-of-a-codim1-submesh-in-the-root": (
        lambda: interface_mesh().root_entities("facet"), ValueError,
        "a codim-1 submesh's facets are no entities of its parent"),
}


@pytest.mark.parametrize("name", list(INPUT_CHECKS))
def test_input_checks_raise_with_their_rule(name):
    build, error, message = INPUT_CHECKS[name]
    with pytest.raises(error, match=message):
        build()
