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
from scipy.spatial import cKDTree

BOUNDARY_TOL = 1e-8
LOCATE_CHUNK = 4096     # points per pass of locate_cells


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


def locate_cells(mesh: Mesh, points: np.ndarray, k: int = 16) -> np.ndarray:
    """Index of the cell containing each point (nearest cell if outside).

    Candidates come from the k nearest cell centroids; a point contained in
    none of them (possible just outside the mesh polygon) is assigned to the
    candidate at the smallest true point-to-triangle distance.  Ties break
    toward the nearer centroid, deterministically.  Points are taken
    ``LOCATE_CHUNK`` at a time, which bounds the temporaries.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    k = min(k, mesh.num_cells)
    tree = cKDTree(mesh.centroids)
    out = np.empty(len(points), dtype=np.intp)
    for start in range(0, len(points), LOCATE_CHUNK):
        part = slice(start, start + LOCATE_CHUNK)
        out[part] = _locate_chunk(mesh, tree, points[part], k)
    return out


def _locate_chunk(mesh: Mesh, tree: cKDTree, points: np.ndarray,
                  k: int) -> np.ndarray:
    _, cand = tree.query(points, k=k)
    cand = cand.reshape(len(points), k)
    corners = mesh.vertices[mesh.triangles][cand]       # (N, k, 3, 2)
    p = points[:, None, :]

    def cross_to(a, b):
        return ((b[..., 0] - a[..., 0]) * (p[..., 1] - a[..., 1])
                - (b[..., 1] - a[..., 1]) * (p[..., 0] - a[..., 0]))

    a, b, c = corners[:, :, 0], corners[:, :, 1], corners[:, :, 2]
    tol = 1e-12 + 1e-10 * mesh.cell_areas[cand]
    inside = ((cross_to(a, b) >= -tol) & (cross_to(b, c) >= -tol)
              & (cross_to(c, a) >= -tol))
    first = np.argmax(inside, axis=1)
    out = cand[np.arange(len(points)), first]
    misses = ~inside.any(axis=1)
    if np.any(misses):
        dist = np.full((int(misses.sum()), k), np.inf)
        pm = points[misses][:, None, :]
        for u, v in ((a, b), (b, c), (c, a)):
            um, vm = u[misses], v[misses]
            uv = vm - um
            denom = np.einsum("nkd,nkd->nk", uv, uv)
            t = np.clip(np.einsum("nkd,nkd->nk", pm - um, uv) / denom, 0.0, 1.0)
            closest = um + t[..., None] * uv
            dist = np.minimum(dist, np.linalg.norm(pm - closest, axis=2))
        out[misses] = cand[misses][np.arange(len(dist)), np.argmin(dist, axis=1)]
    return out


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
    """Build :class:`TransferOps` for two meshes of the same domain."""
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
