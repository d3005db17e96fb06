"""Conforming 2D meshes with markers, submesh extraction, and entity maps.

Meshes are immutable after construction.  Facets (codimension-1 entities of a
mesh) are derived from the cells and identified by sorted vertex tuples.  A
mesh may be a submesh of a parent, in which case it carries an entity map back
to the parent; chains of extractions share a common root mesh through which
unrelated submeshes can be connected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

BOUNDARY_MARKER = 1
INTERFACE_MARKER = 999

_mesh_counter = itertools.count()


class CellType(Enum):
    INTERVAL = "interval"
    TRIANGLE = "triangle"
    QUADRILATERAL = "quadrilateral"

    @property
    def num_vertices(self):
        return {CellType.INTERVAL: 2, CellType.TRIANGLE: 3,
                CellType.QUADRILATERAL: 4}[self]

    @property
    def dim(self):
        return 1 if self is CellType.INTERVAL else 2

    @property
    def local_facets(self):
        """Facets as tuples of local vertex indices, counterclockwise."""
        if self is CellType.INTERVAL:
            return ((0,), (1,))
        if self is CellType.TRIANGLE:
            return ((0, 1), (1, 2), (2, 0))
        return ((0, 1), (1, 2), (2, 3), (3, 0))


class Mesh:
    """An unstructured mesh of intervals, triangles, or quadrilaterals in 2D.

    Parameters
    ----------
    dim : topological dimension (1 or 2); the geometric dimension is always 2.
    vertices : (nv, 2) float array of coordinates.
    cells : list of (CellType, vertex-index tuple).
    cell_markers : per-cell integers (defaults to 0).
    facet_markers : dict mapping sorted vertex tuples to integers, or a
        per-facet integer array in facet-index order.
    """

    def __init__(self, dim, vertices, cells, cell_markers=None,
                 facet_markers=None, *, parent=None, parent_map=None,
                 vertex_to_parent=None, per_cell_normal=None):
        self.id = next(_mesh_counter)
        self.dim = int(dim)
        self.gdim = 2
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        self.cell_types = []
        self.cell_vertices = []
        for ctype, vids in cells:
            ctype = CellType(ctype)
            if ctype.dim != self.dim:
                raise ValueError(f"cell type {ctype} has wrong dimension for a "
                                 f"dim={self.dim} mesh")
            vids = tuple(int(v) for v in vids)
            if len(vids) != ctype.num_vertices:
                raise ValueError(f"{ctype} cell needs {ctype.num_vertices} "
                                 f"vertices, got {len(vids)}")
            if any(v < 0 or v >= len(self.vertices) for v in vids):
                raise ValueError(f"vertex index out of range in cell {vids!r}")
            self.cell_types.append(ctype)
            self.cell_vertices.append(vids)
        types = set(self.cell_types)
        self._cell_type = types.pop() if len(types) == 1 else None

        if cell_markers is None:
            self.cell_markers = np.zeros(self.num_cells, dtype=int)
        else:
            self.cell_markers = np.asarray(cell_markers, dtype=int).copy()
            if self.cell_markers.shape != (self.num_cells,):
                raise ValueError("cell_markers length mismatch")

        self._build_facets()
        self.facet_markers = np.zeros(self.num_facets, dtype=int)
        if isinstance(facet_markers, dict):
            for key, marker in facet_markers.items():
                idx = self.find_facet(key)
                if idx is None:
                    raise ValueError(f"marked facet {key!r} not in mesh")
                self.facet_markers[idx] = int(marker)
        elif facet_markers is not None:
            fm = np.asarray(facet_markers, dtype=int)
            if fm.shape != (self.num_facets,):
                raise ValueError("facet_markers length mismatch")
            self.facet_markers = fm.copy()

        self.parent = parent
        self.parent_map = parent_map
        self.vertex_to_parent = (None if vertex_to_parent is None
                                 else np.asarray(vertex_to_parent, dtype=int))
        if per_cell_normal is not None:
            per_cell_normal = np.asarray(per_cell_normal, dtype=float)
            if per_cell_normal.shape != (self.num_cells, 2):
                raise ValueError("per_cell_normal must be (ncells, 2)")
            norms = np.linalg.norm(per_cell_normal, axis=1)
            if not np.allclose(norms, 1.0, atol=1e-12):
                raise ValueError("per_cell_normal rows must be unit vectors")
        self.per_cell_normal = per_cell_normal
        self._facet_to_parent = None
        self._cell_vertex_ids = None
        self._facet_vertex_ids = None

    def _build_facets(self):
        self.facet_vertices = []
        self.facet_cells = []
        self._facet_index = {}
        for c, (ctype, vids) in enumerate(zip(self.cell_types,
                                              self.cell_vertices)):
            for lf, local in enumerate(ctype.local_facets):
                key = tuple(sorted(vids[l] for l in local))
                idx = self._facet_index.get(key)
                if idx is None:
                    idx = len(self.facet_vertices)
                    self._facet_index[key] = idx
                    self.facet_vertices.append(key)
                    self.facet_cells.append([])
                self.facet_cells[idx].append((c, lf))
        # Cells are visited in ascending order, so each facet's first
        # incident cell is its lower-index ('+') side.
        nf = len(self.facet_cells)
        counts = np.fromiter(map(len, self.facet_cells), dtype=int, count=nf)
        self.facet_exterior = counts == 1
        self.facet_sides = np.full((nf, 2), -1)
        self.facet_local = np.full((nf, 2), -1)
        for k in range(2):
            has = np.flatnonzero(counts > k)
            pairs = np.array([self.facet_cells[f][k] for f in has],
                             dtype=int).reshape(-1, 2)
            self.facet_sides[has, k], self.facet_local[has, k] = pairs.T
        self._facet_counts = counts

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cell_vertices)

    @property
    def num_facets(self):
        return len(self.facet_vertices)

    @property
    def cell_type(self):
        """The unique cell type; raises for hybrid meshes."""
        if self._cell_type is None:
            raise ValueError("mesh is hybrid, no unique cell type")
        return self._cell_type

    def coords_of_cells(self, cells):
        """(len(cells), num_vertices, 2) coordinates of an array of cells;
        the mesh must have a unique cell type."""
        if self._cell_vertex_ids is None:
            nv = self.cell_type.num_vertices
            self._cell_vertex_ids = np.array(
                self.cell_vertices, dtype=int).reshape(-1, nv)
        return self.vertices[self._cell_vertex_ids[cells]]

    def coords_of_facets(self, facets):
        """(len(facets), vertices per facet, 2) coordinates of facets."""
        if self._facet_vertex_ids is None:
            self._facet_vertex_ids = np.array(
                self.facet_vertices, dtype=int).reshape(self.num_facets, -1)
        return self.vertices[self._facet_vertex_ids[facets]]

    def find_facet(self, vids):
        """Facet index for a vertex tuple (any order), or None."""
        return self._facet_index.get(tuple(sorted(int(v) for v in vids)))

    def cell_coords(self, c):
        """(num_vertices, 2) coordinates of cell c."""
        return self.vertices[list(self.cell_vertices[c])]

    def facet_coords(self, f):
        return self.vertices[list(self.facet_vertices[f])]

    def cell_volume(self, c):
        """Length (dim 1) or area (dim 2) of cell c."""
        coords = self.cell_coords(c)
        if self.dim == 1:
            return float(np.linalg.norm(coords[1] - coords[0]))
        # shoelace formula, cells are counterclockwise simple polygons
        x, y = coords[:, 0], coords[:, 1]
        return float(0.5 * abs(np.dot(x, np.roll(y, -1))
                               - np.dot(y, np.roll(x, -1))))

    def total_volume(self):
        return sum(self.cell_volume(c) for c in range(self.num_cells))

    def root(self):
        """The top of the parent chain (self if not a submesh)."""
        m = self
        while m.parent is not None:
            m = m.parent
        return m

    def facet_to_parent(self):
        """Per-facet indices into the parent's facets (same-dimension parents).

        Computed from the vertex map; cached.
        """
        if self.parent is None:
            raise ValueError("mesh has no parent")
        if self.vertex_to_parent is None:
            raise ValueError("mesh carries no vertex map to its parent")
        if self._facet_to_parent is None:
            table = np.empty(self.num_facets, dtype=int)
            for f, key in enumerate(self.facet_vertices):
                pkey = tuple(sorted(int(self.vertex_to_parent[v]) for v in key))
                pidx = self.parent.find_facet(pkey)
                if pidx is None:
                    raise ValueError(f"facet {key!r} has no parent facet")
                table[f] = pidx
            self._facet_to_parent = table
        return self._facet_to_parent

    def __repr__(self):
        kinds = "+".join(sorted({t.value for t in self.cell_types}))
        return (f"Mesh(id={self.id}, dim={self.dim}, {self.num_cells} {kinds} "
                f"cells, {self.num_vertices} vertices)")


@dataclass(frozen=True, eq=False)
class EntityMap:
    """Injective map from entities of a source mesh into a target mesh.

    kind is 'cell->cell' or 'cell->facet'; table[e] is the target entity
    index of source entity e.
    """

    source_mesh_id: int
    target_mesh_id: int
    kind: str
    table: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.kind not in ("cell->cell", "cell->facet"):
            raise ValueError(f"unknown entity map kind {self.kind!r}")
        table = np.asarray(self.table, dtype=int)
        object.__setattr__(self, "table", table)
        if table.ndim != 1:
            raise ValueError("entity map table must be one-dimensional")
        if table.size and table.min() < 0:
            raise ValueError("entity map table has negative entries")
        if len(np.unique(table)) != len(table):
            raise ValueError("entity map is not injective")

    def __len__(self):
        return len(self.table)


def compose_maps(a, b):
    """Compose entity maps: apply a, then b.  (b o a).table[e] = b.table[a.table[e]]."""
    if a.target_mesh_id != b.source_mesh_id:
        raise ValueError("maps are not composable: target/source mesh mismatch")
    if a.kind != "cell->cell":
        raise ValueError(f"cannot compose: first map produces "
                         f"{a.kind.split('->')[1]}s, second consumes cells")
    if a.table.size and a.table.max() >= len(b.table):
        raise ValueError("cannot compose: first map's image exceeds second's domain")
    return EntityMap(a.source_mesh_id, b.target_mesh_id, b.kind,
                     b.table[a.table])


def classify_facets(mesh):
    """Partition facet indices into (exterior, interior) by incident cells.

    Raises for non-manifold configurations (a facet with more than two
    incident cells).
    """
    counts = mesh._facet_counts
    bad = np.flatnonzero(counts > 2)
    if len(bad):
        f = int(bad[0])
        raise ValueError(f"non-manifold facet {mesh.facet_vertices[f]!r} "
                         f"with {counts[f]} incident cells")
    return np.flatnonzero(counts == 1), np.flatnonzero(counts == 2)


def _renumber(parent, used_vertices):
    """Map parent vertex ids (in first-use order) to a fresh numbering."""
    v2new = {}
    new2parent = []
    for v in used_vertices:
        if v not in v2new:
            v2new[v] = len(new2parent)
            new2parent.append(v)
    return v2new, np.array(new2parent, dtype=int)


def extract_codim0_submesh(parent, marker):
    """Submesh of all parent cells whose marker matches.

    marker may be a single integer or a collection of integers.  Returns
    (submesh, entity_map) with a cell->cell map into the parent; vertex
    numbering follows first use, cell and facet markers are inherited.
    """
    if parent.dim != 2:
        raise ValueError("codim-0 extraction expects a 2D parent")
    markers = {int(marker)} if np.isscalar(marker) else {int(m) for m in marker}
    cell_ids = [c for c in range(parent.num_cells)
                if int(parent.cell_markers[c]) in markers]
    if not cell_ids:
        raise ValueError(f"no entities matched marker {marker!r}")
    order = [v for c in cell_ids for v in parent.cell_vertices[c]]
    v2new, new2parent = _renumber(parent, order)
    cells = [(parent.cell_types[c],
              tuple(v2new[v] for v in parent.cell_vertices[c]))
             for c in cell_ids]
    table = np.array(cell_ids, dtype=int)
    sub = Mesh(2, parent.vertices[new2parent], cells,
               cell_markers=parent.cell_markers[table],
               parent=parent, parent_map=None, vertex_to_parent=new2parent)
    emap = EntityMap(sub.id, parent.id, "cell->cell", table)
    sub.parent_map = emap
    # inherit facet markers through the vertex map
    for f, key in enumerate(sub.facet_vertices):
        pidx = parent.find_facet(tuple(new2parent[v] for v in key))
        if pidx is not None:
            sub.facet_markers[f] = parent.facet_markers[pidx]
    return sub, emap


def extract_codim1_submesh(parent, facet_marker):
    """Interval mesh of all parent facets whose marker matches.

    Returns (submesh, entity_map) with a cell->facet map into the parent.
    Each interval cell stores a unit normal of the underlying parent facet,
    oriented from the lower-cell-index incident cell toward the other (outward
    for exterior facets); the orientation is frozen at extraction time.
    """
    if parent.dim != 2:
        raise ValueError("codim-1 extraction expects a 2D parent")
    facet_ids = [f for f in range(parent.num_facets)
                 if int(parent.facet_markers[f]) == int(facet_marker)]
    if not facet_ids:
        raise ValueError(f"no entities matched marker {facet_marker!r}")
    order = [v for f in facet_ids for v in parent.facet_vertices[f]]
    v2new, new2parent = _renumber(parent, order)
    cells = []
    normals = np.empty((len(facet_ids), 2))
    for row, f in enumerate(facet_ids):
        key = parent.facet_vertices[f]
        cells.append((CellType.INTERVAL, tuple(v2new[v] for v in key)))
        p0, p1 = parent.vertices[key[0]], parent.vertices[key[1]]
        tang = p1 - p0
        nrm = np.array([tang[1], -tang[0]])
        nrm /= np.linalg.norm(nrm)
        low_cell = min(c for c, _ in parent.facet_cells[f])
        centroid = parent.cell_coords(low_cell).mean(axis=0)
        if np.dot(nrm, 0.5 * (p0 + p1) - centroid) < 0:
            nrm = -nrm
        normals[row] = nrm
    table = np.array(facet_ids, dtype=int)
    sub = Mesh(1, parent.vertices[new2parent], cells,
               cell_markers=parent.facet_markers[table],
               parent=parent, parent_map=None, vertex_to_parent=new2parent,
               per_cell_normal=normals)
    emap = EntityMap(sub.id, parent.id, "cell->facet", table)
    sub.parent_map = emap
    return sub, emap


def build_split_unit_square(n):
    """Unit square of quadrilaterals split at x = 0.5.

    The background grid has 10 * 2**n cells per side (spacing 0.10 / 2**n).
    Cells left of x = 0.5 are marked 1 and numbered before the right cells
    (marked 2); facets on x = 0.5 are marked 999 and the outer boundary 1.
    """
    N = 10 * 2 ** n
    xs = np.linspace(0.0, 1.0, N + 1)
    vid = lambda i, j: i * (N + 1) + j
    vertices = np.array([[xs[i], xs[j]] for i in range(N + 1)
                         for j in range(N + 1)])
    cells = []
    markers = []
    for i in range(N):
        for j in range(N):
            cells.append((CellType.QUADRILATERAL,
                          (vid(i, j), vid(i + 1, j),
                           vid(i + 1, j + 1), vid(i, j + 1))))
            markers.append(1 if i < N // 2 else 2)
    facet_markers = _unit_square_facet_markers(N, vid)
    return Mesh(2, vertices, cells, cell_markers=markers,
                facet_markers=facet_markers)


def build_hybrid_unit_square(n):
    """Unit square: quadrilaterals for x < 0.5, triangles for x > 0.5.

    Same background grid as build_split_unit_square.  Quadrilaterals are
    marked 1 and numbered first; each right-half background cell is split
    into two triangles marked 2.  Facets on x = 0.5 are marked 999 and the
    outer boundary 1.
    """
    N = 10 * 2 ** n
    xs = np.linspace(0.0, 1.0, N + 1)
    vid = lambda i, j: i * (N + 1) + j
    vertices = np.array([[xs[i], xs[j]] for i in range(N + 1)
                         for j in range(N + 1)])
    cells = []
    markers = []
    for i in range(N // 2):
        for j in range(N):
            cells.append((CellType.QUADRILATERAL,
                          (vid(i, j), vid(i + 1, j),
                           vid(i + 1, j + 1), vid(i, j + 1))))
            markers.append(1)
    for i in range(N // 2, N):
        for j in range(N):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            cells.append((CellType.TRIANGLE, (a, b, c)))
            cells.append((CellType.TRIANGLE, (a, c, d)))
            markers.extend([2, 2])
    facet_markers = _unit_square_facet_markers(N, vid)
    return Mesh(2, vertices, cells, cell_markers=markers,
                facet_markers=facet_markers)


def _unit_square_facet_markers(N, vid):
    markers = {}
    for i in range(N):
        markers[tuple(sorted((vid(i, 0), vid(i + 1, 0))))] = BOUNDARY_MARKER
        markers[tuple(sorted((vid(i, N), vid(i + 1, N))))] = BOUNDARY_MARKER
        markers[tuple(sorted((vid(0, i), vid(0, i + 1))))] = BOUNDARY_MARKER
        markers[tuple(sorted((vid(N, i), vid(N, i + 1))))] = BOUNDARY_MARKER
    for j in range(N):
        markers[tuple(sorted((vid(N // 2, j),
                              vid(N // 2, j + 1))))] = INTERFACE_MARKER
    return markers


def write_mesh(mesh, path):
    """Write a mesh in the plain-text format (see read_mesh)."""
    lines = [f"meshfmt 1", f"dim {mesh.dim} gdim {mesh.gdim}",
             f"vertices {mesh.num_vertices}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"cells {mesh.num_cells}")
    for ctype, vids, marker in zip(mesh.cell_types, mesh.cell_vertices,
                                   mesh.cell_markers):
        verts = " ".join(str(v) for v in vids)
        lines.append(f"{ctype.value} {verts} {int(marker)}")
    marked = [(key, int(m)) for key, m in zip(mesh.facet_vertices,
                                              mesh.facet_markers) if m != 0]
    lines.append(f"facet_markers {len(marked)}")
    for key, m in marked:
        verts = " ".join(str(v) for v in key)
        lines.append(f"{verts} {m}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_mesh(path):
    """Read a mesh written by write_mesh.

    Format:
        meshfmt 1
        dim D gdim G
        vertices N      followed by N lines "x y"
        cells M         followed by M lines "<celltype> v0 v1 ... marker"
        facet_markers K followed by K lines "v0 [v1] marker"
    """
    with open(path) as fh:
        tokens = [line.split() for line in fh if line.strip()]
    it = iter(tokens)
    section = "header"
    try:
        header = next(it)
        if header != ["meshfmt", "1"]:
            raise ValueError(f"unsupported mesh format header "
                             f"{' '.join(header)!r}")
        dims = next(it)
        if dims[0] != "dim" or dims[2] != "gdim" or dims[3] != "2":
            raise ValueError("malformed dim/gdim line")
        dim = int(dims[1])
        section = "vertices"
        nv = int(next(it)[1])
        coords = []
        for _ in range(nv):
            row = next(it)
            coords.append((float(row[0]), float(row[1])))
        vertices = np.array(coords)
        section = "cells"
        nc = int(next(it)[1])
        cells = []
        markers = []
        for _ in range(nc):
            row = next(it)
            ctype = CellType(row[0])
            k = ctype.num_vertices
            cells.append((ctype, tuple(int(v) for v in row[1:1 + k])))
            markers.append(int(row[1 + k]))
        section = "facet_markers"
        nf = int(next(it)[1])
        facet_markers = {}
        for _ in range(nf):
            row = next(it)
            facet_markers[tuple(int(v) for v in row[:-1])] = int(row[-1])
    except (StopIteration, IndexError) as exc:
        raise ValueError(f"truncated mesh file: section {section!r} is "
                         f"incomplete") from exc
    return Mesh(dim, vertices, cells, cell_markers=markers,
                facet_markers=facet_markers)
