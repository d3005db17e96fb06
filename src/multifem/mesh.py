"""Conforming 2D meshes with markers, submesh extraction, and entity maps.

Meshes are read-only from construction and stored as integer arrays: a
cell type code and a row of vertex ids per cell, and a row of sorted vertex
ids per facet (codimension-1 entity).  Facets are numbered by first
occurrence in cell order, so a facet's first incident cell is its
lower-index ('+') side.  A mesh may be a submesh of a parent, in which case
it carries an entity map back to the parent; chains of extractions share a
common root mesh through which unrelated submeshes can be connected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

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


# cell type code t stands for CELL_TYPES[t]
CELL_TYPES = tuple(CellType)
_CODE = {ctype: code for code, ctype in enumerate(CELL_TYPES)}
_NUM_VERTICES = np.array([ctype.num_vertices for ctype in CELL_TYPES])


def first_use_labels(keys):
    """Number the distinct values of a 1D integer array by first occurrence.

    Returns (labels, first): keys[i] is the labels[i]-th distinct value to
    appear, and first[k] is the index where the k-th one first appears.
    """
    _, first, inverse = np.unique(keys, return_index=True,
                                  return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(len(order), dtype=int)
    rank[order] = np.arange(len(order))
    return rank[inverse], first[order]


class Mesh:
    """An unstructured mesh of intervals, triangles, or quadrilaterals in 2D.

    Parameters
    ----------
    dim : topological dimension (1 or 2); the geometric dimension is always 2.
    vertices : (nv, 2) float array of coordinates.
    cells : a sequence of (CellType, vertex ids) pairs, or a pair of arrays
        (type codes (ncells,), vertex ids (ncells, k)), code t standing for
        CELL_TYPES[t] and rows of cells with fewer than k vertices padded
        with -1.
    cell_markers : per-cell integers (defaults to 0).
    facet_markers : dict mapping vertex tuples (any order) to integers, or a
        pair of arrays (vertex ids (m, dim), markers (m,)).

    Arrays, all read-only: cell_type_codes, cell_vertex_ids (padded with -1
    to the widest cell), facet_vertex_ids (sorted rows), cell_facets (padded
    with -1), facet_sides/facet_local (incident cells in ascending order and
    their local facets, -1 past the first on exterior facets), facet_exterior.
    """

    def __init__(self, dim, vertices, cells, cell_markers=None,
                 facet_markers=None, *, parent=None, parent_map=None,
                 vertex_to_parent=None):
        self.id = next(_mesh_counter)
        self.dim = int(dim)
        self.gdim = 2
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must be an (nv, 2) array")
        self._set_cells(cells)

        if cell_markers is None:
            self.cell_markers = np.zeros(self.num_cells, dtype=int)
        else:
            self.cell_markers = np.asarray(cell_markers, dtype=int).copy()
            if self.cell_markers.shape != (self.num_cells,):
                raise ValueError("cell_markers length mismatch")

        self._build_facets()
        self.facet_markers = np.zeros(self.num_facets, dtype=int)
        if isinstance(facet_markers, dict):
            facet_markers = (list(facet_markers), list(facet_markers.values()))
        if facet_markers is not None:
            ends, values = facet_markers
            found = self.locate_facets(ends)
            missing = np.flatnonzero(found < 0)
            if len(missing):
                key = tuple(np.asarray(ends)[missing[0]].tolist())
                raise ValueError(f"marked facet {key!r} not in mesh")
            # a facet given twice takes its last marker
            last = len(found) - 1 - np.unique(found[::-1],
                                              return_index=True)[1]
            self.facet_markers[found[last]] = np.asarray(values,
                                                         dtype=int)[last]

        self.parent = parent
        self.parent_map = parent_map
        self.vertex_to_parent = (None if vertex_to_parent is None
                                 else np.array(vertex_to_parent, dtype=int))
        self._facet_to_parent = None
        for value in vars(self).values():  # plans and dofmaps rely on them
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def _set_cells(self, cells):
        """Convert the cells to type codes and padded vertex ids, check
        them, and keep them trimmed to the widest cell."""
        if (isinstance(cells, tuple) and len(cells) == 2
                and isinstance(cells[0], np.ndarray)):
            codes, vids = (np.array(a, dtype=int) for a in cells)
        else:
            codes, vids = [], []
            for ctype, row in cells:
                ctype, row = CellType(ctype), [int(v) for v in row]
                if len(row) != ctype.num_vertices:
                    raise ValueError(f"{ctype} cell needs {ctype.num_vertices} "
                                     f"vertices, got {len(row)}")
                codes.append(_CODE[ctype])
                vids.append(row + [-1] * (4 - len(row)))
            codes = np.array(codes, dtype=int)
            vids = np.array(vids, dtype=int).reshape(-1, 4)
        self.cell_type_set = frozenset(CELL_TYPES[t] for t in np.unique(codes))
        for ctype in self.cell_type_set:
            if ctype.dim != self.dim:
                raise ValueError(f"cell type {ctype} has wrong dimension for "
                                 f"a dim={self.dim} mesh")
        nverts = _NUM_VERTICES[codes]
        width = int(nverts.max(initial=0))
        vids = vids[:, :width]
        slots = np.arange(width) < nverts[:, None]
        # distinct negative fillers keep the padding from repeating
        ordered = np.sort(np.where(slots, vids, -1 - np.arange(width)), axis=1)
        for bad, what in (
                (np.where(slots, (vids < 0) | (vids >= self.num_vertices),
                          vids != -1), "has a vertex index out of range"),
                (ordered[:, 1:] == ordered[:, :-1], "repeats a vertex")):
            cells = np.flatnonzero(np.any(bad, axis=1))
            if len(cells):
                c = int(cells[0])
                raise ValueError(f"cell {c} {what}: "
                                 f"{tuple(vids[c][slots[c]].tolist())!r}")
        self.cell_type_codes = codes
        self.cell_vertex_ids = vids

    def _build_facets(self):
        """Facets of all cells at once: sorted vertex ids per local facet,
        numbered by first occurrence in (cell, local facet) order."""
        codes = self.cell_type_codes
        nlocal = max((len(t.local_facets) for t in self.cell_type_set),
                     default=0)
        ends = np.full((self.num_cells, nlocal, self.dim), -1)
        for code in np.unique(codes):
            rows = codes == code
            local = np.array(CELL_TYPES[code].local_facets)
            ends[rows, :len(local)] = self.cell_vertex_ids[rows][:, local]
        ends = np.sort(ends, axis=2).reshape(-1, self.dim)
        slots = np.flatnonzero(ends[:, 0] >= 0)
        facet, first = first_use_labels(self._facet_keys(ends[slots]))
        nf = len(first)
        self.facet_vertex_ids = ends[slots[first]]
        self.cell_facets = np.full(len(ends), -1)
        self.cell_facets[slots] = facet
        self.cell_facets = self.cell_facets.reshape(self.num_cells, nlocal)
        counts = np.bincount(facet, minlength=nf)
        # slots grouped by facet, each group in cell order
        grouped = slots[np.argsort(facet, kind="stable")]
        start = np.cumsum(counts) - counts
        self.facet_sides = np.full((nf, 2), -1)
        self.facet_local = np.full((nf, 2), -1)
        for k in range(2):
            has = np.flatnonzero(counts > k)
            slot = grouped[start[has] + k]
            self.facet_sides[has, k] = slot // nlocal
            self.facet_local[has, k] = slot % nlocal
        self.facet_exterior = counts == 1
        self._facet_counts = counts
        if self.dim == 2:  # segment meshes may branch: they take dx only
            classify_facets(self)

    def _facet_keys(self, ends):
        """One integer per row of sorted facet vertex ids."""
        return ends[:, 0] * self.num_vertices + ends[:, -1]

    def locate_facets(self, vertex_ids):
        """Facet indices of (m, dim) rows of vertex ids in any order, -1
        where a row is no facet of this mesh."""
        ends = np.sort(np.asarray(vertex_ids, dtype=int), axis=-1)
        if ends.ndim != 2 or ends.shape[1] != self.dim:
            return np.full(len(ends), -1)
        valid = np.all((ends >= 0) & (ends < self.num_vertices), axis=1)
        # numbered by first use after the facets' own keys, a row that is
        # facet f gets label f, any other row a label past the facets
        labels, _ = first_use_labels(np.concatenate([
            self._facet_keys(self.facet_vertex_ids),
            np.where(valid, self._facet_keys(ends), -1)]))
        found = labels[self.num_facets:]
        return np.where(found < self.num_facets, found, -1)

    def find_facet(self, vids):
        """Facet index for a vertex tuple (any order), or None."""
        f = int(self.locate_facets([[int(v) for v in vids]])[0])
        return None if f < 0 else f

    # per-entity views of the arrays, for tests

    @cached_property
    def cell_types(self):
        return [CELL_TYPES[t] for t in self.cell_type_codes]

    @cached_property
    def cell_vertices(self):
        return [tuple(v for v in row if v >= 0)
                for row in self.cell_vertex_ids.tolist()]

    @cached_property
    def facet_vertices(self):
        return [tuple(row) for row in self.facet_vertex_ids.tolist()]

    @cached_property
    def facet_cells(self):
        """Per facet, its (cell, local facet) pairs in cell order."""
        incident = [[] for _ in range(self.num_facets)]
        for (c, lf), f in np.ndenumerate(self.cell_facets):
            if f >= 0:
                incident[f].append((c, lf))
        return incident

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cell_type_codes)

    @property
    def num_facets(self):
        return len(self.facet_vertex_ids)

    @property
    def cell_type(self):
        """The unique cell type; raises for hybrid meshes."""
        if len(self.cell_type_set) != 1:
            raise ValueError("mesh is hybrid, no unique cell type")
        return next(iter(self.cell_type_set))

    def coords_of_cells(self, cells):
        """(len(cells), num_vertices, 2) coordinates of an array of cells;
        the mesh must have a unique cell type."""
        nv = self.cell_type.num_vertices
        return self.vertices[self.cell_vertex_ids[cells, :nv]]

    def coords_of_facets(self, facets):
        """(len(facets), vertices per facet, 2) coordinates of facets."""
        return self.vertices[self.facet_vertex_ids[facets]]

    def cell_coords(self, c):
        """(num_vertices, 2) coordinates of cell c."""
        row = self.cell_vertex_ids[c]
        return self.vertices[row[row >= 0]]

    def facet_coords(self, f):
        return self.vertices[self.facet_vertex_ids[f]]

    def total_volume(self):
        """Total length (dim 1) or area (dim 2) of the cells."""
        ids = self.cell_vertex_ids
        xy = self.vertices[np.where(ids < 0, ids[:, :1], ids)]
        if self.dim == 1:
            return float(np.linalg.norm(xy[:, 1] - xy[:, 0], axis=1).sum())
        # shoelace formula over counterclockwise cells; padding repeats the
        # first vertex, which adds nothing
        x, y = xy[..., 0], xy[..., 1]
        return float(0.5 * np.abs(np.sum(x * np.roll(y, -1, axis=1)
                                         - y * np.roll(x, -1, axis=1),
                                         axis=1)).sum())

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
            table = self.parent.locate_facets(
                self.vertex_to_parent[self.facet_vertex_ids])
            missing = np.flatnonzero(table < 0)
            if len(missing):
                key = tuple(self.facet_vertex_ids[missing[0]].tolist())
                raise ValueError(f"facet {key!r} has no parent facet")
            table.setflags(write=False)
            self._facet_to_parent = table
        return self._facet_to_parent

    def root_entities(self, entity):
        """(kind, table): this mesh's cells (entity 'cell') or facets
        ('facet') as entities of the root mesh, of kind 'cell' or 'facet'.
        table[e] is entity e's root entity, composed up the parent chain;
        the cells of a cell->facet map are their parent's facets."""
        if self.parent is None:
            size = self.num_cells if entity == "cell" else self.num_facets
            return entity, np.arange(size)
        if entity == "facet":
            table = self.facet_to_parent()
        else:
            table = self.parent_map.table
            if self.parent_map.kind == "cell->facet":
                entity = "facet"
        kind, up = self.parent.root_entities(entity)
        return kind, up[table]

    def __repr__(self):
        kinds = "+".join(sorted(t.value for t in self.cell_type_set))
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
        table = np.array(self.table, dtype=int)
        table.setflags(write=False)
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
    incident cells), which a dim-2 mesh already does when it is built.
    """
    counts = mesh._facet_counts
    bad = np.flatnonzero(counts > 2)
    if len(bad):
        f = int(bad[0])
        key = tuple(mesh.facet_vertex_ids[f].tolist())
        raise ValueError(f"non-manifold facet {key!r} "
                         f"with {counts[f]} incident cells")
    return np.flatnonzero(counts == 1), np.flatnonzero(counts == 2)


def _renumber(vertex_ids):
    """Renumber parent vertex ids (-1 padding aside) in first-use order.

    Returns (the ids renumbered, new -> parent vertex ids).
    """
    used = vertex_ids >= 0
    labels, first = first_use_labels(vertex_ids[used])
    renumbered = np.full(vertex_ids.shape, -1)
    renumbered[used] = labels
    return renumbered, vertex_ids[used][first]


def extract_codim0_submesh(parent, marker):
    """Submesh of all parent cells whose marker matches.

    marker may be a single integer or a collection of integers.  Returns
    (submesh, entity_map) with a cell->cell map into the parent; vertex
    numbering follows first use, cell and facet markers are inherited.
    """
    if parent.dim != 2:
        raise ValueError("codim-0 extraction expects a 2D parent")
    markers = [int(marker)] if np.isscalar(marker) else [int(m) for m in marker]
    table = np.flatnonzero(np.isin(parent.cell_markers, markers))
    if not len(table):
        raise ValueError(f"no entities matched marker {marker!r}")
    cells, new2parent = _renumber(parent.cell_vertex_ids[table])
    sub = Mesh(2, parent.vertices[new2parent],
               (parent.cell_type_codes[table], cells),
               cell_markers=parent.cell_markers[table],
               parent=parent, vertex_to_parent=new2parent)
    emap = EntityMap(sub.id, parent.id, "cell->cell", table)
    sub.parent_map = emap
    sub.facet_markers = parent.facet_markers[sub.facet_to_parent()]
    sub.facet_markers.setflags(write=False)
    return sub, emap


def extract_codim1_submesh(parent, facet_marker):
    """Interval mesh of all parent facets whose marker matches.

    Returns (submesh, entity_map) with a cell->facet map into the parent;
    vertex numbering follows first use and each cell takes its facet's
    marker.  Normals are not stored: a kernel takes a FacetNormal from the
    codim-0 participant's facets.
    """
    if parent.dim != 2:
        raise ValueError("codim-1 extraction expects a 2D parent")
    table = np.flatnonzero(parent.facet_markers == int(facet_marker))
    if not len(table):
        raise ValueError(f"no entities matched marker {facet_marker!r}")
    cells, new2parent = _renumber(parent.facet_vertex_ids[table])
    sub = Mesh(1, parent.vertices[new2parent],
               (np.full(len(table), _CODE[CellType.INTERVAL]), cells),
               cell_markers=parent.facet_markers[table],
               parent=parent, vertex_to_parent=new2parent)
    emap = EntityMap(sub.id, parent.id, "cell->facet", table)
    sub.parent_map = emap
    return sub, emap


def _unit_square_grid(n):
    """Vertices, background cells and marked facets of the unit square grid
    with 10 * 2**n cells per side.

    Vertex (i, j) sits at (x_i, y_j) with id i * (N + 1) + j; background
    cell (i, j) has corners (i, j), (i+1, j), (i+1, j+1), (i, j+1) and comes
    in i-major order.  Facets on the outer boundary are marked 1, those on
    x = 0.5 are marked 999.
    """
    N = 10 * 2 ** n
    xs = np.linspace(0.0, 1.0, N + 1)
    x, y = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.stack([x.ravel(), y.ravel()], axis=1)
    vid = np.arange((N + 1) ** 2).reshape(N + 1, N + 1)
    corners = np.stack([vid[:-1, :-1], vid[1:, :-1], vid[1:, 1:],
                        vid[:-1, 1:]], axis=-1).reshape(-1, 4)
    lines = (vid[:, 0], vid[:, N], vid[0], vid[N], vid[N // 2])
    ends = np.concatenate([np.stack([v[:-1], v[1:]], axis=1) for v in lines])
    markers = np.repeat([BOUNDARY_MARKER, INTERFACE_MARKER], [4 * N, N])
    return N, vertices, corners, (ends, markers)


def build_split_unit_square(n):
    """Unit square of quadrilaterals split at x = 0.5.

    The background grid has 10 * 2**n cells per side (spacing 0.10 / 2**n).
    Cells left of x = 0.5 are marked 1 and numbered before the right cells
    (marked 2); facets on x = 0.5 are marked 999 and the outer boundary 1.
    """
    N, vertices, corners, facet_markers = _unit_square_grid(n)
    codes = np.full(len(corners), _CODE[CellType.QUADRILATERAL])
    markers = np.repeat(np.where(np.arange(N) < N // 2, 1, 2), N)
    return Mesh(2, vertices, (codes, corners), cell_markers=markers,
                facet_markers=facet_markers)


def build_hybrid_unit_square(n):
    """Unit square: quadrilaterals for x < 0.5, triangles for x > 0.5.

    Same background grid as build_split_unit_square.  Quadrilaterals are
    marked 1 and numbered first; each right-half background cell is split
    into two triangles marked 2.  Facets on x = 0.5 are marked 999 and the
    outer boundary 1.
    """
    N, vertices, corners, facet_markers = _unit_square_grid(n)
    quads, right = np.split(corners, 2)
    a, b, c, d = right.T
    triangles = np.stack([a, b, c, -np.ones_like(a), a, c, d,
                          -np.ones_like(a)], axis=1).reshape(-1, 4)
    cells = np.concatenate([quads, triangles])
    codes = np.repeat([_CODE[CellType.QUADRILATERAL], _CODE[CellType.TRIANGLE]],
                      [len(quads), len(triangles)])
    markers = np.repeat([1, 2], [len(quads), len(triangles)])
    return Mesh(2, vertices, (codes, cells), cell_markers=markers,
                facet_markers=facet_markers)
