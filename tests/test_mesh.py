"""Disk meshing, boundary queries, transfer operators, and mesh I/O."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatprobe import mesh as hm


def euler_characteristic(mesh):
    edges = np.concatenate([mesh.triangles[:, [0, 1]],
                            mesh.triangles[:, [1, 2]],
                            mesh.triangles[:, [2, 0]]])
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    return mesh.num_vertices - len(edges) + mesh.num_cells


def max_cell_diameter(mesh):
    p = mesh.vertices[mesh.triangles]
    return max(np.linalg.norm(p[:, i] - p[:, j], axis=1).max()
               for i, j in ((0, 1), (1, 2), (2, 0)))


class TestBuildDiskMesh:
    def test_benchmark_fine_mesh_size(self):
        mesh = hm.build_disk_mesh(7002)
        assert 6300 <= mesh.num_cells <= 7700
        assert euler_characteristic(mesh) == 1

    def test_minimal_mesh(self):
        mesh = hm.build_disk_mesh(16)
        assert np.all(mesh.cell_areas > 0)
        assert abs(mesh.cell_areas.sum() - np.pi) <= 0.05 * np.pi

    def test_coarse_mesh_boundary_on_circle(self):
        mesh = hm.build_disk_mesh(1120)
        radii = np.linalg.norm(mesh.vertices[mesh.boundary_vertices], axis=1)
        assert np.abs(radii - 1.0).max() <= 1e-8

    def test_too_small_rejected(self):
        with pytest.raises(hm.MeshError):
            hm.build_disk_mesh(8)

    @pytest.mark.parametrize("target", [16, 54, 300, 1120, 7002])
    def test_counts_within_ten_percent(self, target):
        mesh = hm.build_disk_mesh(target)
        assert abs(mesh.num_cells - target) <= 0.1 * target
        assert euler_characteristic(mesh) == 1

    def test_area_sum_tight_for_large_meshes(self):
        for target in (1120, 7002):
            mesh = hm.build_disk_mesh(target)
            assert abs(mesh.cell_areas.sum() - np.pi) <= 0.005 * np.pi

    def test_refinement_shrinks_cells(self):
        for target in (1000, 3000):
            d1 = max_cell_diameter(hm.build_disk_mesh(target))
            d2 = max_cell_diameter(hm.build_disk_mesh(2 * target))
            assert d1 / d2 >= 1.25

    def test_orientation_counterclockwise(self):
        mesh = hm.build_disk_mesh(500)
        assert np.all(mesh.cell_areas > 0)

    @pytest.mark.parametrize("target", [16, 100, 3000])
    def test_boundary_edges_are_the_unshared_edges(self, target):
        """The edges of the boundary loop (vertex i to i + 1, cyclically)
        are the triangle edges whose reverse lies in no triangle, in their
        triangles' orientation, and the loop starts at its smallest vertex."""
        mesh = hm.build_disk_mesh(target)
        tri = mesh.triangles
        edges = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]],
                                tri[:, [2, 0]]])
        key = edges[:, 0] * mesh.num_vertices + edges[:, 1]
        reverse = edges[:, 1] * mesh.num_vertices + edges[:, 0]
        unshared = edges[~np.isin(reverse, key)]
        loop = mesh.boundary_vertices
        assert sorted(map(tuple, unshared)) \
            == sorted(zip(loop, np.roll(loop, -1)))
        assert loop[0] == loop.min()


class TestBoundaryDistance:
    def test_matches_analytic_disk_formula(self):
        mesh = hm.build_disk_mesh(1120)
        d = hm.boundary_distance(mesh)
        expected = 1.0 - np.linalg.norm(mesh.centroids, axis=1)
        assert np.allclose(d, expected)

    def test_bounds_and_monotonicity(self):
        mesh = hm.build_disk_mesh(1120)
        d = hm.boundary_distance(mesh)
        assert np.all(d >= 0) and np.all(d <= 1)
        order = np.argsort(np.linalg.norm(mesh.centroids, axis=1))
        assert np.all(np.diff(d[order]) <= 1e-12)

    def test_boundary_adjacent_cells_small_positive(self):
        mesh = hm.build_disk_mesh(1120)
        d = hm.boundary_distance(mesh)
        h = max_cell_diameter(mesh)
        touching = np.isin(mesh.triangles,
                           mesh.boundary_vertices).any(axis=1)
        assert np.all(d[touching] > 0)
        assert np.all(d[touching] < h)

    def test_off_circle_boundary_rejected(self):
        mesh = hm.build_disk_mesh(1120)
        with pytest.raises(hm.MeshError):
            hm.boundary_distance(
                dataclasses.replace(mesh, vertices=2.0 * mesh.vertices))


class TestTransfer:
    def test_partition_of_unity(self, small_fine, small_coarse, small_transfer):
        ones = np.ones(small_fine.num_cells)
        assert np.abs(hm.restrict(ones, small_transfer) - 1).max() <= 1e-12
        onesc = np.ones(small_coarse.num_cells)
        assert np.abs(hm.prolong(onesc, small_transfer) - 1).max() <= 1e-12

    def test_restrict_preserves_constants(self, small_transfer, small_fine):
        out = hm.restrict(np.full(small_fine.num_cells, 3.0), small_transfer)
        assert np.allclose(out, 3.0, atol=1e-12)

    def test_restrict_zero(self, small_transfer, small_fine):
        out = hm.restrict(np.zeros(small_fine.num_cells), small_transfer)
        assert np.all(out == 0)

    def test_round_trip_identity(self, small_coarse, small_transfer):
        rng = np.random.default_rng(3)
        v = rng.normal(size=small_coarse.num_cells)
        rt = hm.restrict(hm.prolong(v, small_transfer), small_transfer)
        assert np.abs(rt - v).max() <= 1e-10

    def test_prolong_preserves_range(self, small_coarse, small_transfer):
        rng = np.random.default_rng(4)
        v = rng.normal(size=small_coarse.num_cells)
        p = hm.prolong(v, small_transfer)
        assert p.min() == v.min() and p.max() == v.max()

    def test_indicator_mass_conservation(self, small_fine, small_coarse,
                                         small_transfer):
        # interior-supported indicator: averaging preserves the integral in
        # the measure induced by the assignment (exactly), and agrees with
        # the raw coarse-cell measure up to the O(h) assignment mismatch
        ind = (np.linalg.norm(small_fine.centroids, axis=1) <= 0.2).astype(float)
        fine_mass = float(ind @ small_fine.cell_areas)
        rc = hm.restrict(ind, small_transfer)
        assert rc.min() >= 0 and rc.max() <= 1 + 1e-12
        assigned = np.bincount(small_transfer.cell_map,
                               weights=small_fine.cell_areas,
                               minlength=small_coarse.num_cells)
        assert abs(float(rc @ assigned) - fine_mass) <= 1e-10 * fine_mass
        assert abs(float(rc @ small_coarse.cell_areas) - fine_mass) \
            <= 0.1 * fine_mass

    def test_space_time_fields_transfer_along_last_axis(self, small_fine,
                                                        small_transfer):
        rng = np.random.default_rng(5)
        f = rng.normal(size=(4, 2, small_fine.num_cells))
        out = hm.restrict(f, small_transfer)
        assert out.shape == (4, 2, small_transfer.num_coarse)
        single = hm.restrict(f[2, 1], small_transfer)
        assert np.allclose(out[2, 1], single)

    def test_mismatched_sizes_rejected(self, small_transfer):
        with pytest.raises(hm.MeshError):
            hm.restrict(np.ones(17), small_transfer)
        with pytest.raises(hm.MeshError):
            hm.prolong(np.ones(17), small_transfer)

    def test_too_coarse_fine_mesh_rejected(self):
        fine = hm.build_disk_mesh(300)
        coarse = hm.build_disk_mesh(700)
        with pytest.raises(hm.MeshError):
            hm.build_transfer(fine, coarse)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_round_trip_random_fields(self, seed, small_coarse,
                                      small_transfer):
        v = np.random.default_rng(seed).normal(size=small_coarse.num_cells)
        rt = hm.restrict(hm.prolong(v, small_transfer), small_transfer)
        assert np.abs(rt - v).max() <= 1e-10


class TestLocateCells:
    def test_centroids_locate_to_self(self):
        mesh = hm.build_disk_mesh(400)
        found = hm.locate_cells(mesh, mesh.centroids)
        assert np.array_equal(found, np.arange(mesh.num_cells))

    def test_outside_point_pulls_nearest(self):
        mesh = hm.build_disk_mesh(400)
        cell = hm.locate_cells(mesh, np.array([[1.5, 0.0]]))[0]
        assert np.linalg.norm(mesh.centroids[cell] - [1.0, 0.0]) < 0.2

    def test_chunks_change_no_cell(self, monkeypatch):
        """Points inside, on and just outside the disk get the same cells
        when 7 or 1 (cell, point) pairs are tested per pass as in the
        default passes; the outside ones take the miss path."""
        mesh = hm.build_disk_mesh(600)
        points = disk_points(40)
        whole = hm.locate_cells(mesh, points)
        assert len(whole) == len(points)
        for chunk in (7, 1):
            monkeypatch.setattr(hm, "LOCATE_CHUNK", chunk)
            assert np.array_equal(hm.locate_cells(mesh, points), whole)

    @pytest.mark.parametrize("target", [300, 600])
    def test_matches_a_scan_over_all_cells(self, target):
        """Random points, every vertex and edge midpoint (which several
        cells contain), and points on and just outside the circle get the
        cell that a scan over all cells gives under the stated rule."""
        mesh = hm.build_disk_mesh(target)
        corners = mesh.vertices[mesh.triangles]
        points = np.concatenate([disk_points(97), mesh.vertices,
                                 0.5 * (corners + np.roll(corners, 1, axis=1))
                                 .reshape(-1, 2)])
        found = hm.locate_cells(mesh, points)
        assert np.array_equal(found, scan_cells(mesh, points))

    def test_an_exact_tie_goes_to_the_lower_cell(self, fine, coarse,
                                                 transfer):
        """Fine centroid 33 of 7002/1120 lies in coarse cells 1 and 2, at
        equal squared distance from their centroids: cell 1 takes it."""
        d = coarse.centroids[[1, 2]] - fine.centroids[33]
        d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        assert d2[0] == d2[1]
        assert transfer.cell_map[33] == 1


def disk_points(n):
    """Random points in [-0.7, 0.7]^2 and ``n`` points each on, 0.1% and
    5% outside the unit circle."""
    angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    ring = np.column_stack([np.cos(angles), np.sin(angles)])
    return np.concatenate([
        np.random.default_rng(4).uniform(-0.7, 0.7, size=(50, 2)),
        ring, 1.001 * ring, 1.05 * ring])


def scan_cells(mesh, points):
    """The cell of each point by a scan over all cells: of the cells that
    contain it up to the tolerance, the least squared centroid distance;
    for a point in none, the least point-to-triangle distance (the
    formula of ``mesh._nearest``), then the least centroid distance; an
    exact tie at the end goes to the lowest index."""
    corners = mesh.vertices[mesh.triangles]
    tol = 1e-12 + 1e-10 * mesh.cell_areas
    out = []
    for point in points:
        d = mesh.centroids - point
        d2 = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        inside = np.ones(mesh.num_cells, dtype=bool)
        dist = np.full(mesh.num_cells, np.inf)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            u, uv = corners[:, i], corners[:, j] - corners[:, i]
            pu = point - u
            inside &= uv[:, 0] * pu[:, 1] - uv[:, 1] * pu[:, 0] >= -tol
            t = np.clip(np.einsum("kd,kd->k", pu, uv)
                        / np.einsum("kd,kd->k", uv, uv), 0.0, 1.0)
            dist = np.minimum(dist, np.linalg.norm(
                point - (u + t[:, None] * uv), axis=1))
        pick = inside if inside.any() else dist == dist.min()
        out.append(np.flatnonzero(pick)[np.argmin(d2[pick])])
    return np.array(out)


def test_no_module_imports_scipy_spatial(run_python):
    """Importing the package and its command line loads no module of
    scipy.spatial (several MB and tens of ms a process)."""
    loaded = run_python("import sys, heatprobe, heatprobe.cli; "
                        "print([m for m in sys.modules "
                        "if m.startswith('scipy.spatial')])")
    assert loaded.strip() == "[]"
