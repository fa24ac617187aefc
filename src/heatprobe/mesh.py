"""Triangulations of the unit disk and transfer of cell fields between meshes.

Meshes are built from concentric vertex rings, which gives deterministic
element counts and bounded triangle quality without an external generator.
Two discrete function spaces live on a mesh: nodal fields (one value per
vertex, piecewise linear) and cell fields (one value per triangle, piecewise
constant).  The reconstruction pipeline uses two independently generated
meshes of the same disk, so this module also owns the cell-level restriction
and prolongation between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

BOUNDARY_TOL = 1e-8
LOCATE_CHUNK = 8192     # (cell, point) pairs per pass of locate_cells


class MeshError(ValueError):
    """Invalid mesh data or an unsatisfiable construction request."""


@dataclass(frozen=True)
class Mesh:
    """Triangle mesh with counterclockwise cells and an ordered boundary loop.

    The loop ``boundary_vertices`` walks the boundary counterclockwise, and
    boundary edge i runs from its vertex i to vertex i + 1 (cyclically), so
    there are as many boundary edges as boundary vertices.
    """

    vertices: np.ndarray            # (V, 2)
    triangles: np.ndarray           # (T, 3) vertex indices, CCW
    cell_areas: np.ndarray          # (T,)
    boundary_edge_lengths: np.ndarray  # (B,)
    centroids: np.ndarray           # (T, 2)
    basis_gradients: np.ndarray     # (T, 3, 2) gradients of the P1 hat functions
    boundary_vertices: np.ndarray   # (B,) ordered boundary vertex indices

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.triangles.shape[0]

    @property
    def num_boundary_vertices(self) -> int:
        return self.boundary_vertices.shape[0]


def _triangle_geometry(vertices: np.ndarray, triangles: np.ndarray):
    """Areas, centroids and P1 basis gradients for all cells at once."""
    p = vertices[triangles]                      # (T, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    doubled = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    areas = 0.5 * doubled
    centroids = p.mean(axis=1)
    # grad(lambda_i) = rot90(p_k - p_j) / (2A) with (i, j, k) cyclic
    grads = np.empty((triangles.shape[0], 3, 2))
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        d = p[:, k] - p[:, j]
        grads[:, i, 0] = -d[:, 1]
        grads[:, i, 1] = d[:, 0]
    grads /= (2.0 * areas)[:, None, None]
    return areas, centroids, grads


def _polygon_area_deficit(n: int) -> float:
    """Relative area lost by the inscribed regular n-gon versus the disk."""
    return 1.0 - (n / 2.0) * np.sin(2.0 * np.pi / n) / np.pi


def _ring_counts(target: int) -> list[int]:
    """Vertex count per concentric ring so the triangle total hits ``target``.

    A layout with rings of n_1, ..., n_R vertices produces exactly
    n_1 + sum_{k>=2} (n_{k-1} + n_k) triangles, so the outer ring absorbs the
    rounding slack.  Small targets fall back to fewer rings (down to a single
    fan) to keep the boundary polygon area close to the disk area.
    """
    r0 = max(1, round(np.sqrt(target / 6.0)))
    for rings in range(r0, 0, -1):
        if rings == 1:
            return [target]
        alpha = target / rings**2
        counts = [max(4, round(alpha * k)) for k in range(1, rings)]
        outer = target - 2 * sum(counts)
        if outer < max(8, counts[-1]):
            continue
        if _polygon_area_deficit(outer) > 0.04:
            continue
        return counts + [outer]


def _zip_rings(inner: np.ndarray, inner_ang: np.ndarray,
               outer: np.ndarray, outer_ang: np.ndarray) -> list[tuple]:
    """Triangulate the annulus between two vertex rings by an angular sweep."""
    na, nb = len(inner), len(outer)
    a_ext = np.append(inner_ang, inner_ang[0] + 2.0 * np.pi)
    b_ext = np.append(outer_ang, outer_ang[0] + 2.0 * np.pi)
    tris = []
    i = j = 0
    while i < na or j < nb:
        take_outer = j < nb and (i == na or b_ext[j + 1] <= a_ext[i + 1])
        if take_outer:
            tris.append((outer[j], outer[(j + 1) % nb], inner[i % na]))
            j += 1
        else:
            tris.append((inner[(i + 1) % na], inner[i % na], outer[j % nb]))
            i += 1
    return tris


def build_disk_mesh(target_triangles: int) -> Mesh:
    """Triangulate the unit disk with (exactly) ``target_triangles`` cells.

    Vertices sit on concentric rings at radii k/R plus the disk center;
    boundary vertices lie exactly on the unit circle.  Raises
    :class:`MeshError` when the request is too small to triangulate.
    """
    if target_triangles < 16:
        raise MeshError(f"target_triangles={target_triangles} is below the "
                        "minimum of 16 for a usable disk triangulation")
    counts = _ring_counts(int(target_triangles))
    rings = len(counts)
    verts = [np.zeros((1, 2))]
    ring_idx = []
    ring_ang = []
    offset = 0.0
    start = 1
    for k, n in enumerate(counts, start=1):
        ang = 2.0 * np.pi * (np.arange(n) + offset) / n
        r = k / rings
        verts.append(np.column_stack([r * np.cos(ang), r * np.sin(ang)]))
        ring_idx.append(np.arange(start, start + n, dtype=np.int64))
        ring_ang.append(ang)
        start += n
        offset = 0.5 - offset  # stagger alternate rings
    vertices = np.concatenate(verts)
    tris = [(0, ring_idx[0][j], ring_idx[0][(j + 1) % counts[0]])
            for j in range(counts[0])]
    for k in range(1, rings):
        tris.extend(_zip_rings(ring_idx[k - 1], ring_ang[k - 1],
                               ring_idx[k], ring_ang[k]))
    triangles = np.array(tris, dtype=np.int64)
    areas, centroids, grads = _triangle_geometry(vertices, triangles)
    # the outer ring is the boundary, walked counterclockwise: each of its
    # edges is (outer[j], outer[j+1]) of a counterclockwise triangle
    loop = ring_idx[-1]
    lengths = np.linalg.norm(vertices[np.roll(loop, -1)] - vertices[loop],
                             axis=1)
    return Mesh(vertices=vertices, triangles=triangles,
                cell_areas=areas, boundary_edge_lengths=lengths,
                centroids=centroids, basis_gradients=grads,
                boundary_vertices=loop)


def boundary_distance(mesh: Mesh) -> np.ndarray:
    """Distance 1 - |x| from each cell centroid to the unit circle.

    Raises :class:`MeshError` for a mesh whose boundary is not on the unit
    circle.
    """
    radii = np.linalg.norm(mesh.vertices[mesh.boundary_vertices], axis=1)
    if np.any(np.abs(radii - 1.0) > BOUNDARY_TOL):
        raise MeshError("boundary_distance needs a mesh of the unit disk")
    return 1.0 - np.linalg.norm(mesh.centroids, axis=1)


def boundary_vertex_weights(mesh: Mesh) -> np.ndarray:
    """Lumped quadrature weight per boundary vertex (half-sum of edge lengths)."""
    lens = mesh.boundary_edge_lengths
    return 0.5 * (lens + np.roll(lens, 1))


def locate_cells(mesh: Mesh, points: np.ndarray) -> np.ndarray:
    """Index of the cell containing each point (nearest cell if outside).

    The points are bucketed on a uniform grid of square bins over their
    bounding box, about one point per bin (Bentley, Weide & Yao 1980), and
    each cell tests the points of the bins that its bounding box overlaps.
    A point lies in a cell when the cell's three edge cross products at the
    point are at least ``-(1e-12 + 1e-10 * area)``.  Of the cells that
    contain a point, the one with the least squared centroid distance
    ``dx*dx + dy*dy`` takes it, and an exact tie goes to the lowest cell
    index.  A point that no cell contains (just outside the mesh polygon)
    goes to the nearest cell by true point-to-triangle distance, searched
    over the cells with a boundary vertex; a tie goes to the nearer
    centroid.  The (cell, point) pairs are tested ``LOCATE_CHUNK`` at a
    time, which bounds the temporaries.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(len(points), -1, dtype=np.intp)
    if not len(points):
        return out
    corners = mesh.vertices[mesh.triangles]              # (T, 3, 2)
    tol = 1e-12 + 1e-10 * mesh.cell_areas
    # a point that passes the tolerant test has barycentric coordinates of
    # at least -tol / (2 area), so it lies within tol * longest edge / area
    # of the cell: the bounding boxes are padded by twice that
    edges = corners - np.roll(corners, 1, axis=1)
    longest = np.sqrt((edges * edges).sum(axis=2)).max(axis=1)
    pad = (2.0 * tol * longest / mesh.cell_areas)[:, None]
    low = points.min(axis=0)
    extent = points.max(axis=0) - low
    width = max(np.sqrt(extent[0] * extent[1] / len(points)),
                extent.max() / len(points)) or 1.0
    shape = (extent // width).astype(np.intp) + 1       # bins along x, y

    def bins(x):
        return np.floor((x - low) / width).clip(-1, shape).astype(np.intp)

    # the points sorted by bin, row after row of bins
    ix, iy = np.minimum(bins(points), shape - 1).T
    key = iy * shape[0] + ix
    order = np.argsort(key, kind="stable")
    starts = np.concatenate(
        [[0], np.cumsum(np.bincount(key, minlength=shape.prod()))])
    # each cell's bins, one slice of the sorted points per row of them,
    # cell after cell
    first = np.maximum(bins(corners.min(axis=1) - pad), 0)
    last = np.minimum(bins(corners.max(axis=1) + pad), shape - 1)
    rows = np.maximum(last[:, 1] - first[:, 1] + 1, 0)
    cell = np.repeat(np.arange(mesh.num_cells), rows)
    row = first[cell, 1] + np.arange(len(cell)) \
        - np.repeat(np.cumsum(rows) - rows, rows)
    begin = starts[row * shape[0] + first[cell, 0]]
    size = starts[row * shape[0] + last[cell, 0] + 1] - begin
    cell, begin, size = cell[size > 0], begin[size > 0], size[size > 0]
    end = np.cumsum(size)
    best = np.full(len(points), np.inf)
    for pair in range(0, int(end[-1]) if len(end) else 0, LOCATE_CHUNK):
        g = np.arange(pair, min(pair + LOCATE_CHUNK, end[-1]))
        r = np.searchsorted(end, g, side="right")
        p, c = order[begin[r] + size[r] - end[r] + g], cell[r]
        inside = _contains(corners[c], tol[c], points[p])
        p, c = p[inside], c[inside]
        d = mesh.centroids[c] - points[p]
        d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        # each point's least distance in this pass, of a tie the lowest
        # cell (the pairs run cell after cell and both sorts are stable)
        k = np.lexsort((d2, p))
        k = k[np.unique(p[k], return_index=True)[1]]
        p, c, d2 = p[k], c[k], d2[k]
        nearer = d2 < best[p]           # an earlier pass had lower cells
        best[p[nearer]] = d2[nearer]
        out[p[nearer]] = c[nearer]
    missed = np.flatnonzero(out < 0)
    if missed.size:
        border = np.flatnonzero(
            np.isin(mesh.triangles, mesh.boundary_vertices).any(axis=1))
        step = max(1, LOCATE_CHUNK // len(border))
        for s in range(0, len(missed), step):
            part = missed[s:s + step]
            out[part] = border[_nearest(corners[border],
                                        mesh.centroids[border], points[part])]
    return out


def _contains(corners: np.ndarray, tol: np.ndarray,
              points: np.ndarray) -> np.ndarray:
    """Whether each point lies in its triangle, up to ``tol``."""
    a, b, c = corners[:, 0], corners[:, 1], corners[:, 2]

    def cross_to(u, v):
        return ((v[:, 0] - u[:, 0]) * (points[:, 1] - u[:, 1])
                - (v[:, 1] - u[:, 1]) * (points[:, 0] - u[:, 0]))

    return ((cross_to(a, b) >= -tol) & (cross_to(b, c) >= -tol)
            & (cross_to(c, a) >= -tol))


def _nearest(corners: np.ndarray, centroids: np.ndarray,
             points: np.ndarray) -> np.ndarray:
    """Per point, the index of the nearest of the triangles ``corners`` by
    true point-to-triangle distance; a tie goes to the nearer centroid,
    then to the lower index."""
    p = points[:, None, :]
    dist = np.full((len(points), len(corners)), np.inf)
    for i, j in ((0, 1), (1, 2), (2, 0)):
        u = corners[None, :, i]
        uv = corners[None, :, j] - u
        t = np.clip(np.einsum("...d,...d->...", p - u, uv)
                    / np.einsum("...d,...d->...", uv, uv), 0.0, 1.0)
        dist = np.minimum(dist, np.linalg.norm(p - (u + t[..., None] * uv),
                                               axis=2))
    d = centroids - p
    d2 = d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1]
    tied = dist == dist.min(axis=1, keepdims=True)
    return np.argmin(np.where(tied, d2, np.inf), axis=1)


@dataclass(frozen=True)
class TransferOps:
    """Cell-field maps between a fine and a coarse mesh of the same domain.

    Each fine cell is assigned to the coarse cell containing its centroid
    (``cell_map``); ``fine_to_coarse`` averages with fine-area weights over
    that assignment (rows sum to one), and ``prolong`` injects the assigned
    coarse value.  The composition restrict(prolong(.)) is the identity on
    coarse fields by construction.
    """

    fine_to_coarse: sparse.csr_array    # (Tc, Tf)
    cell_map: np.ndarray                # (Tf,) coarse cell per fine cell
    num_fine: int
    num_coarse: int


def build_transfer(fine: Mesh, coarse: Mesh) -> TransferOps:
    """Build :class:`TransferOps` for two meshes of the same domain: each
    fine centroid goes to its coarse cell by ``locate_cells``, so a centroid
    on a coarse edge goes to the cell with the nearer centroid, or, at equal
    distance, to the lower index."""
    cmap = locate_cells(coarse, fine.centroids)
    tf, tc = fine.num_cells, coarse.num_cells
    w = fine.cell_areas
    denom = np.bincount(cmap, weights=w, minlength=tc)
    if np.any(denom == 0):
        empty = int(np.flatnonzero(denom == 0)[0])
        raise MeshError(f"coarse cell {empty} received no fine centroid; "
                        "the fine mesh is not fine enough for this transfer")
    rows = sparse.csr_array((w / denom[cmap], (cmap, np.arange(tf))),
                            shape=(tc, tf))
    return TransferOps(fine_to_coarse=rows, cell_map=cmap, num_fine=tf,
                       num_coarse=tc)


def restrict(field: np.ndarray, ops: TransferOps) -> np.ndarray:
    """Average a fine cell field (last axis) onto the coarse mesh."""
    field = np.asarray(field, dtype=float)
    if field.shape[-1] != ops.num_fine:
        raise MeshError(f"field has {field.shape[-1]} cells, expected "
                        f"{ops.num_fine} fine cells")
    flat = field.reshape(-1, ops.num_fine)
    out = flat @ ops.fine_to_coarse.T
    return np.asarray(out).reshape(field.shape[:-1] + (ops.num_coarse,))


def prolong(field: np.ndarray, ops: TransferOps) -> np.ndarray:
    """Inject a coarse cell field (last axis) onto the fine mesh."""
    field = np.asarray(field, dtype=float)
    if field.shape[-1] != ops.num_coarse:
        raise MeshError(f"field has {field.shape[-1]} cells, expected "
                        f"{ops.num_coarse} coarse cells")
    return field[..., ops.cell_map]


def cell_adjacency(mesh: Mesh) -> sparse.csr_array:
    """Symmetric (T x T) matrix with a one for each pair of cells that
    share an edge: in a conforming mesh, those that share two vertices."""
    t = mesh.num_cells
    incidence = sparse.csr_array(
        (np.ones(3 * t), mesh.triangles.ravel(), np.arange(0, 3 * t + 1, 3)),
        shape=(t, mesh.num_vertices))
    shared = incidence @ incidence.T        # the vertices two cells share
    shared.data = (shared.data == 2).astype(float)
    shared.eliminate_zeros()
    shared.sort_indices()
    return shared
