"""Entity relations through nested submesh chains.

The studies extract every submesh straight from the background mesh, so
their chains are one map deep.  Here a codim-0 copy of the background's
cells marked 1 and 2 sits in between: quadrilaterals and triangles
extracted from the copy are two maps deep, as is the interface extracted
from it.  The background's first column of cells is marked 3 and left out
of the copy, so the copy renumbers cells, facets and vertices, and a table
that skipped it would point at the wrong entities.  The measures mix
participants of both depths; the brute-force oracle matches their
entities by physical coordinates alone.
"""

import numpy as np
import pytest

import conftest
from multifem import forms
from multifem import mesh as mm

LEVEL = 1
N = 10 * 2 ** LEVEL  # background cells per side, interface facets


@pytest.fixture(scope="module")
def chains():
    square = mm.build_hybrid_unit_square(LEVEL)
    first_x = square.vertices[square.cell_vertex_ids[:, 0], 0]
    bg = mm.Mesh(2, square.vertices,
                 (square.cell_type_codes, square.cell_vertex_ids),
                 cell_markers=np.where(first_x == 0.0, 3, square.cell_markers),
                 facet_markers=(square.facet_vertex_ids, square.facet_markers))
    copy, to_bg = mm.extract_codim0_submesh(bg, (1, 2))
    q1, _ = mm.extract_codim0_submesh(bg, 1)
    t1, _ = mm.extract_codim0_submesh(bg, 2)
    q2, q2_to_copy = mm.extract_codim0_submesh(copy, 1)
    t2, _ = mm.extract_codim0_submesh(copy, 2)
    interface, _ = mm.extract_codim1_submesh(copy, mm.INTERFACE_MARKER)
    return dict(bg=bg, copy=copy, to_bg=to_bg, q1=q1, t1=t1, q2=q2,
                q2_to_copy=q2_to_copy, t2=t2, interface=interface)


def _rows(coords):
    return [conftest._segment_key(row) for row in coords]


def test_the_root_relates_to_itself(chains):
    bg = chains["bg"]
    kind, table = bg.root_entities("cell")
    assert kind == "cell" and np.array_equal(table, np.arange(bg.num_cells))
    kind, table = bg.root_entities("facet")
    assert kind == "facet" and np.array_equal(table,
                                              np.arange(bg.num_facets))


def test_depth_two_cells_compose_both_parent_maps(chains):
    assert len(chains["to_bg"].table) == chains["bg"].num_cells - N
    kind, table = chains["q2"].root_entities("cell")
    composed = mm.compose_maps(chains["q2_to_copy"], chains["to_bg"])
    assert kind == "cell" and np.array_equal(table, composed.table)


@pytest.mark.parametrize("name", ["copy", "q1", "t2", "q2"])
def test_depth_two_facets_are_the_root_facets_at_their_place(chains, name):
    mesh, bg = chains[name], chains["bg"]
    kind, table = mesh.root_entities("facet")
    assert kind == "facet"
    assert (_rows(bg.coords_of_facets(table))
            == _rows(mesh.coords_of_facets(np.arange(mesh.num_facets))))


@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("problem", ["quad-tri", "split-interface"])
def test_study_submesh_facets_name_the_parent_facet_at_their_place(
        studies, problem, level):
    # an extraction reads facet_to_parent off its cell map; row f must name
    # the parent facet whose vertex coordinates are facet f's
    meshes = [mesh for mesh in studies.build_problem(
        problem, 1, level).space.meshes if mesh.dim == 2]
    assert len(meshes) == 2
    for mesh in meshes:
        own = mesh.coords_of_facets(np.arange(mesh.num_facets))
        theirs = mesh.parent.coords_of_facets(mesh.facet_to_parent)
        assert np.all(np.all(own == theirs, axis=(1, 2))
                      | np.all(own == theirs[:, ::-1], axis=(1, 2)))
        assert np.array_equal(mesh.facet_markers,
                              mesh.parent.facet_markers[mesh.facet_to_parent])


def test_codim1_cells_on_a_copy_are_root_facets(chains):
    # a cell->facet map below a cell->cell map: the interval cells are the
    # root's interface facets, decided by the map's kind
    interface, bg = chains["interface"], chains["bg"]
    kind, table = interface.root_entities("cell")
    assert kind == "facet"
    assert np.all(bg.facet_markers[table] == mm.INTERFACE_MARKER)
    assert (_rows(bg.coords_of_facets(table))
            == _rows(interface.vertices[interface.cell_vertex_ids]))


MEASURES = {
    "ds(q2)&ds(t2)": ("ds", "q2", [("ds", "t2")]),
    "ds(q2)&ds(t1)": ("ds", "q2", [("ds", "t1")]),
    "ds(q1)&ds(t2)": ("ds", "q1", [("ds", "t2")]),
    "dx(interface)&ds(q2)&ds(t2)": ("dx", "interface",
                                    [("ds", "q2"), ("ds", "t2")]),
    "dx(interface)&ds(q1)&ds(t2)": ("dx", "interface",
                                    [("ds", "q1"), ("ds", "t2")]),
    "dx(t2)&dx(t1)": ("dx", "t2", [("dx", "t1")]),
}


@pytest.mark.parametrize("name", list(MEASURES))
def test_mixed_depth_iteration_sets_match_brute_force(asm, chains, name):
    itype, primal, rest = MEASURES[name]
    measure = forms.Measure(itype, chains[primal], intersect_measures=tuple(
        forms.Measure(t, chains[m]) for t, m in rest))
    form = forms.Constant(1.0) * measure
    (integral,) = form.integrals
    entities = asm.iteration_set(integral)
    assert entities == conftest.brute_force_iteration_set(integral)
    if primal == "t2":  # two triangles per background cell of x > 0.5
        assert len(entities) == N * N
        assert asm.assemble(form) == pytest.approx(0.5, abs=1e-14)
    else:  # the interface x = 0.5
        assert len(entities) == N
        assert asm.assemble(form) == pytest.approx(1.0, abs=1e-14)
