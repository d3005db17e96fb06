"""Meshes and function spaces are read-only from construction.

Plans, geometry, dofmaps and Dirichlet closures are cached from a mesh's
arrays and a space's dofmaps, so those arrays must not change once they
exist.  Every array of both builders, both extractions and a mesh built
from lists is read-only as soon as it is built; so are a space's dofmaps
and dof coordinates.  Assembly changes none of their flags, and an
in-place edit of the vertices raises instead of leaving stale dof
coordinates behind.
"""

import numpy as np
import pytest

import conftest
from multifem import fe, forms
from multifem import mesh as mm

QUAD = mm.CellType.QUADRILATERAL
MESH_ARRAYS = ("vertices", "cell_type_codes", "cell_vertex_ids",
               "cell_markers", "facet_vertex_ids", "cell_facets",
               "facet_sides", "facet_local", "facet_exterior",
               "facet_markers")


def mesh_arrays(mesh):
    arrays = [getattr(mesh, name) for name in MESH_ARRAYS]
    if mesh.parent is not None:
        arrays += [mesh.parent_map.table, mesh.facet_to_parent]
    arrays += [value for value in vars(mesh).values()
               if isinstance(value, np.ndarray)]
    return [a for a in arrays if a is not None]


def space_arrays(space):
    return list(space.dofmaps) + [space.dof_coords]


def all_meshes():
    split = mm.build_split_unit_square(0)
    hybrid = mm.build_hybrid_unit_square(0)
    left, _ = mm.extract_codim0_submesh(split, 1)
    triangles, _ = mm.extract_codim0_submesh(hybrid, 2)
    interface, _ = mm.extract_codim1_submesh(split, mm.INTERFACE_MARKER)
    listed = mm.Mesh(2, [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]],
                     conftest.cells_of(QUAD, [(0, 1, 2, 3)]), cell_markers=[3],
                     facet_markers=(np.array([[1, 0]]),
                                    np.array([mm.BOUNDARY_MARKER])))
    return {"split": split, "hybrid": hybrid, "codim0": left,
            "codim0-triangles": triangles, "codim1": interface,
            "listed": listed}


def flags(arrays):
    return [a.flags.writeable for a in arrays]


@pytest.mark.parametrize("name", sorted(all_meshes()))
def test_mesh_and_space_arrays_are_read_only_from_construction(name):
    mesh = all_meshes()[name]
    arrays = mesh_arrays(mesh)
    assert len(arrays) >= len(MESH_ARRAYS)
    assert not any(flags(arrays))
    if mesh.cell_type_set == {QUAD, mm.CellType.TRIANGLE}:
        return  # no one element lives on a hybrid mesh
    family = "Q" if mesh.cell_type_set == {QUAD} else "P"
    space = conftest.make_space([mesh], [fe.make_element(
        mesh.cell_type, family, 2)])
    assert not any(flags(space_arrays(space)))
    with pytest.raises(ValueError, match="read-only"):
        space.dof_coords[0, 0] = 7.0


def test_caller_arrays_are_copied_not_frozen():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    cells = conftest.cells_of(mm.CellType.TRIANGLE, [(0, 1, 2)])
    markers = np.array([4])
    mesh = mm.Mesh(2, vertices, cells, cell_markers=markers)
    assert vertices.flags.writeable and markers.flags.writeable
    assert all(flags(cells))
    assert not any(flags(mesh_arrays(mesh)))
    vertices[0, 0], cells[1][0, 0], markers[0] = 7.0, 2, 5
    assert mesh.vertices[0, 0] == 0.0 and mesh.cell_markers.tolist() == [4]
    assert mesh.cell_vertex_ids[0].tolist() == [0, 1, 2]
    table = np.array([0])
    emap = mm.EntityMap(mesh.id, mesh.id, "cell->cell", table)
    assert table.flags.writeable and not emap.table.flags.writeable


def test_assembly_changes_no_flags(asm, studies):
    problem = studies.build_problem("split-interface", 1, 0)
    space, u = problem.space, problem.u
    meshes = {id(m): m for mesh in space.meshes
              for m in (mesh, mesh.parent, mesh.root()) if m is not None}
    arrays = space_arrays(space) + [a for m in meshes.values()
                                    for a in mesh_arrays(m)]
    before = flags(arrays)
    asm.assemble(problem.residual)
    asm.assemble(forms.derivative(problem.residual, u), problem.bcs)
    for component in problem.error_components:
        asm.error_norms(u, component, studies.exact_solution,
                        studies.exact_gradient)
    assert flags(arrays) == before
    assert u.values.flags.writeable


def test_scaling_the_vertices_in_place_raises(asm):
    mesh = mm.build_split_unit_square(0)
    V = conftest.scalar_space(mesh, "Q", 1)
    dx = forms.Measure("dx", mesh)
    with pytest.raises(ValueError, match="read-only"):
        mesh.vertices *= 2.0
    assert asm.assemble(forms.Constant(1.0) * dx) == pytest.approx(
        1.0, abs=1e-14)
    bc = asm.DirichletBC(0, mm.BOUNDARY_MARKER, lambda x, y: x)
    _, values = asm.dirichlet_dofs(V, [bc])
    assert values.max() == mesh.vertices[:, 0].max() == 1.0
