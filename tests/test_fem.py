"""Assembly, time stepping, boundary handling, and the backward dual solve."""

import functools

import numpy as np
import pytest

from heatprobe import fem
from heatprobe import mesh as hm
from heatprobe import scenario, synth


@pytest.fixture(scope="module")
def disk1800():
    return hm.build_disk_mesh(1800)


@pytest.fixture(scope="module")
def mass1800(disk1800):
    return fem.assemble_mass(disk1800)


def no_load(mesh, grid):
    return fem.source_load(mesh, grid, None, None)


def l2(mass, v):
    return float(np.sqrt(v @ (mass @ v)))


class TestAssembly:
    def test_mass_total_area(self, disk1800, mass1800):
        ones = np.ones(disk1800.num_vertices)
        total = float(ones @ (mass1800 @ ones))
        assert abs(total - np.pi) <= 0.005 * np.pi

    def test_mass_symmetric_exact(self, mass1800):
        assert np.abs((mass1800 - mass1800.T)).max() == 0

    def test_mass_row_sums_are_patch_thirds(self, disk1800, mass1800):
        patch = np.zeros(disk1800.num_vertices)
        for c in range(3):
            np.add.at(patch, disk1800.triangles[:, c], disk1800.cell_areas)
        rows = np.asarray(mass1800 @ np.ones(disk1800.num_vertices))
        assert np.allclose(rows, patch / 3.0, atol=1e-14)

    def test_mass_constant_field_norm(self, disk1800, mass1800):
        c = np.full(disk1800.num_vertices, 2.5)
        assert abs(float(c @ (mass1800 @ c)) - 2.5**2 * np.pi) \
            <= 0.005 * 2.5**2 * np.pi

    def test_stiffness_kernel_contains_constants(self, disk1800):
        a = fem.assemble_stiffness(disk1800, np.ones(disk1800.num_cells))
        assert np.abs(a @ np.ones(disk1800.num_vertices)).max() <= 1e-12

    def test_stiffness_gradient_of_linear(self, disk1800):
        a = fem.assemble_stiffness(disk1800, np.ones(disk1800.num_cells))
        x1 = disk1800.vertices[:, 0]
        assert abs(float(x1 @ (a @ x1)) - np.pi) <= 0.01 * np.pi

    def test_stiffness_linear_in_coefficient(self, disk1800):
        one = fem.assemble_stiffness(disk1800, np.ones(disk1800.num_cells))
        two = fem.assemble_stiffness(disk1800, 2 * np.ones(disk1800.num_cells))
        assert np.abs(two - 2 * one).max() <= 1e-12

    def test_stiffness_rejects_nonpositive_coefficient(self, disk1800):
        bad = np.ones(disk1800.num_cells)
        bad[5] = 0.0
        with pytest.raises(fem.FemError):
            fem.assemble_stiffness(disk1800, bad)

    def test_reaction_zero_weight(self, disk1800):
        w = fem.assemble_reaction(disk1800, np.zeros(disk1800.num_cells))
        assert w.nnz == 0 or np.abs(w.data).max() == 0

    def test_assembled_pattern_cannot_change_later_ones(self, disk1800,
                                                        mass1800):
        w = fem.assemble_reaction(disk1800, np.zeros(disk1800.num_cells))
        with pytest.raises(ValueError):
            w.eliminate_zeros()     # would rewrite the mesh's shared pattern
        again = fem.assemble_mass(disk1800)
        assert again.nnz == mass1800.nnz
        assert np.abs(again - mass1800).max() == 0

    def test_reaction_unit_weight_is_mass(self, disk1800, mass1800):
        w = fem.assemble_reaction(disk1800, np.ones(disk1800.num_cells))
        assert np.abs(w - mass1800).max() <= 1e-12

    def test_reaction_indicator_measures_area(self, disk1800):
        half = (disk1800.centroids[:, 0] > 0).astype(float)
        w = fem.assemble_reaction(disk1800, half)
        ones = np.ones(disk1800.num_vertices)
        expected = disk1800.cell_areas[disk1800.centroids[:, 0] > 0].sum()
        assert abs(float(ones @ (w @ ones)) - expected) <= 1e-12

    def test_neumann_load_unit_flux(self, disk1800):
        load = fem.assemble_neumann_load(
            disk1800, np.ones(disk1800.num_boundary_vertices))
        assert abs(load.sum() - 2 * np.pi) <= 0.005 * 2 * np.pi

    def test_neumann_load_zero_flux(self, disk1800):
        load = fem.assemble_neumann_load(
            disk1800, np.zeros(disk1800.num_boundary_vertices))
        assert np.all(load == 0)

    def test_neumann_load_odd_flux_cancels(self, disk1800):
        flux = disk1800.vertices[disk1800.boundary_vertices, 0]
        load = fem.assemble_neumann_load(disk1800, flux)
        assert abs(load.sum()) <= 1e-3


class TestSegmentGrid:
    def test_exact_partition(self):
        grid = fem.segment_grid(0.3, 0.4, 0.0125)
        assert grid.steps == 8
        assert np.allclose(grid.times()[[0, -1]], [0.3, 0.4])

    def test_inexact_partition_rejected(self):
        with pytest.raises(ValueError):
            fem.segment_grid(0.0, 0.1, 0.03)

    def test_times_are_a_bitwise_prefix_of_longer_grids(self):
        """Sample grids of every horizon 0.1..2.0 agree bit for bit on their
        common times, and so do the segments of a run with its whole
        horizon, which all share one dt."""
        full = fem.segment_grid(0.0, 2.0, 0.01).times()
        for tenths in range(1, 21):
            times = fem.segment_grid(0.0, tenths / 10, 0.01).times()
            assert np.array_equal(times, full[:len(times)])
        whole = fem.segment_grid(0.0, 2.0, 0.0125).times()
        for n in range(20):
            grid = fem.SegmentGrid(0.0125, 8 * n, 8)
            assert grid.dt == 0.0125
            assert np.array_equal(grid.times(), whole[8 * n:8 * n + 9])

    def test_invalid_grids_rejected(self):
        with pytest.raises(ValueError):
            fem.SegmentGrid(0.0125, 0, 0)
        with pytest.raises(ValueError):
            fem.SegmentGrid(0.0, 0, 8)
        with pytest.raises(ValueError):
            fem.SegmentGrid(-0.0125, 0, 8)
        for t_end in (0.3, 0.2):
            with pytest.raises(ValueError):
                fem.segment_grid(0.3, t_end, 0.0125)
        for dt in (0.0, -0.0125):
            with pytest.raises(ValueError, match="positive"):
                fem.segment_grid(0.0, 0.1, dt)

    def test_power_requires_p_at_least_two(self):
        with pytest.raises(ValueError):
            fem.InhomogeneityOp(fem.POWER_POTENTIAL, 0, power=1.5)
        with pytest.raises(ValueError):
            fem.InhomogeneityOp("something")

    def test_trace_times_must_increase(self):
        with pytest.raises(ValueError):
            fem.BoundaryTrace(np.array([0.0, 0.0, 1.0]), np.zeros((3, 4)))


class TestForwardSolve:
    def test_constant_steady_state(self, disk1800):
        grid = fem.segment_grid(0.0, 0.1, 0.0125)
        init = np.full(disk1800.num_vertices, 4.0)
        traj = fem.forward_solve(disk1800, grid, None, [],
                                 no_load(disk1800, grid), init)
        assert np.abs(traj.values - 4.0).max() <= 1e-10

    def test_mass_conservation(self, disk1800, mass1800):
        grid = fem.segment_grid(0.0, 0.2, 0.0125)
        init = np.sin(2 * disk1800.vertices[:, 0])
        traj = fem.forward_solve(disk1800, grid, None, [],
                                 no_load(disk1800, grid), init)
        ones = np.ones(disk1800.num_vertices)
        masses = traj.values @ (mass1800 @ ones)
        assert np.abs(masses - masses[0]).max() <= 1e-8

    def test_energy_decay(self, disk1800, mass1800):
        grid = fem.segment_grid(0.0, 0.2, 0.0125)
        init = np.sin(3 * disk1800.vertices[:, 0]) \
            * np.cos(2 * disk1800.vertices[:, 1])
        traj = fem.forward_solve(disk1800, grid, None, [],
                                 no_load(disk1800, grid), init)
        norms = [l2(mass1800, v) for v in traj.values]
        assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))

    def test_maximum_principle_smoke(self, disk1800):
        grid = fem.segment_grid(0.0, 0.2, 0.0125)
        init = np.sin(3 * disk1800.vertices[:, 0]) \
            * np.cos(2 * disk1800.vertices[:, 1])
        traj = fem.forward_solve(disk1800, grid, None, [],
                                 no_load(disk1800, grid), init)
        assert traj.values.max() <= init.max() + 1e-8
        assert traj.values.min() >= init.min() - 1e-8

    def test_manufactured_solution_error_small(self, disk1800, mass1800):
        # y = exp(-t)(1 - r^2): f = exp(-t)(3 + r^2), normal flux -2 exp(-t)
        r2c = (disk1800.centroids**2).sum(axis=1)
        r2v = (disk1800.vertices**2).sum(axis=1)
        grid = fem.segment_grid(0.0, 0.5, 0.0125)
        traj = fem.forward_solve(
            disk1800, grid, None, [], fem.source_load(
                disk1800, grid, lambda t: np.exp(-t) * (3 + r2c),
                lambda t: np.full(disk1800.num_boundary_vertices,
                                  -2 * np.exp(-t))),
            1 - r2v)
        exact = np.exp(-0.5) * (1 - r2v)
        assert l2(mass1800, traj.values[-1] - exact) / l2(mass1800, exact) \
            < 5e-3

    def test_power_potential_p2_matches_potential(self, disk1800):
        grid = fem.segment_grid(0.0, 0.1, 0.0125)
        u = np.where(np.linalg.norm(disk1800.centroids - [0.3, 0.0], axis=1)
                     < 0.25, 5.0, 0.0)[None, :]
        init = np.full(disk1800.num_vertices, 2.0)
        lin = fem.forward_solve(disk1800, grid, u,
                                [fem.InhomogeneityOp(fem.POTENTIAL, 0)],
                                no_load(disk1800, grid), init)
        pw = fem.forward_solve(
            disk1800, grid, u,
            [fem.InhomogeneityOp(fem.POWER_POTENTIAL, 0, power=2.0)],
            no_load(disk1800, grid), init)
        assert np.abs(lin.values - pw.values).max() <= 1e-9

    def test_nonlinear_absorption_monotone(self, disk1800, mass1800):
        grid = fem.segment_grid(0.0, 0.2, 0.0125)
        u = np.where(np.linalg.norm(disk1800.centroids, axis=1) < 0.4,
                     10.0, 0.0)[None, :]
        ops = [fem.InhomogeneityOp(fem.POWER_POTENTIAL, 0, power=3.0)]
        init = np.full(disk1800.num_vertices, 3.0)
        load = no_load(disk1800, grid)
        one = fem.forward_solve(disk1800, grid, u, ops, load, init)
        two = fem.forward_solve(disk1800, grid, 2 * u, ops, load, init)
        assert l2(mass1800, two.values[-1]) <= l2(mass1800, one.values[-1]) \
            + 1e-12

    def test_shared_source_loads_change_no_bit(self, disk1800):
        """Marches that read one cached load, as a reconstruction segment
        shares it, equal those that assemble every load they read; a
        Dirichlet march given the flux too equals one given the source
        alone."""
        mesh = disk1800
        grid = fem.segment_grid(0.0, 0.1, 0.0125)
        f = lambda t: np.sin(3 * t) * mesh.centroids[:, 0]  # noqa: E731
        g = lambda t: np.full(mesh.num_boundary_vertices,  # noqa: E731
                              np.cos(t))
        init = np.ones(mesh.num_vertices)
        own = fem.forward_solve(mesh, grid, None, [],
                                fem.source_load(mesh, grid, f, g), init).values
        load = functools.cache(fem.source_load(mesh, grid, f, g))
        for _ in range(2):
            shared = fem.forward_solve(mesh, grid, None, [], load,
                                       init).values
            assert np.array_equal(shared, own)
        trace = own[:, mesh.boundary_vertices]
        assert np.array_equal(
            fem.dirichlet_solve(mesh, grid, None, [], load, trace,
                                init).values,
            fem.dirichlet_solve(mesh, grid, None, [],
                                fem.source_load(mesh, grid, f, None), trace,
                                init).values)

    def test_marches_share_the_mass_matrix(self, monkeypatch):
        """The mass matrix depends on the mesh only: two marches of one
        mesh and dt assemble it at most once."""
        mesh = hm.build_disk_mesh(1000)
        grid = fem.segment_grid(0.0, 0.05, 0.0125)
        calls = []
        assemble = fem.assemble_mass
        monkeypatch.setattr(fem, "assemble_mass",
                            lambda m: calls.append(m) or assemble(m))
        for _ in range(2):
            fem.forward_solve(mesh, grid, None, [], no_load(mesh, grid),
                              np.ones(mesh.num_vertices))
        assert len(calls) <= 1

    def test_ellipticity_violation_rejected(self, disk1800):
        grid = fem.segment_grid(0.0, 0.1, 0.0125)
        u = np.full((1, disk1800.num_cells), -1.5)
        with pytest.raises(fem.FemError):
            fem.forward_solve(disk1800, grid, u,
                              [fem.InhomogeneityOp(fem.CONDUCTIVITY, 0)],
                              no_load(disk1800, grid),
                              np.ones(disk1800.num_vertices))


class TestDirichletSolve:
    def test_reproduces_forward_solution(self, disk1800, mass1800):
        scn = scenario.builtin("ex1")
        f_fn, g_fn, h = scenario.samplers(disk1800)
        grid = fem.segment_grid(0.0, 0.1, 0.0125)
        u = scenario.eval_truth(scn, 0.05, disk1800)
        fw = fem.forward_solve(disk1800, grid, u, scn.ops, fem.source_load(
            disk1800, grid, f_fn, g_fn), h)
        trace = fem.boundary_trace(fw, disk1800)
        dw = fem.dirichlet_solve(disk1800, grid, u, scn.ops, fem.source_load(
            disk1800, grid, f_fn, None), trace.values, h)
        num = fem.domain_spacetime_inner(mass1800, grid,
                                         fw.values - dw.values,
                                         fw.values - dw.values)
        den = fem.domain_spacetime_inner(mass1800, grid, fw.values, fw.values)
        assert np.sqrt(num / den) < 0.01

    def test_constant_trace_constant_solution(self, disk1800):
        grid = fem.segment_grid(0.0, 0.1, 0.0125)
        tr = np.full((grid.num_times, disk1800.num_boundary_vertices), 4.0)
        traj = fem.dirichlet_solve(disk1800, grid, None, [],
                                   no_load(disk1800, grid), tr,
                                   np.full(disk1800.num_vertices, 4.0))
        assert np.abs(traj.values - 4.0).max() <= 1e-10

    def test_threading_with_measured_data_beats_neumann(self, small_fine):
        # with an imperfect coefficient estimate, pinning the boundary to the
        # measured values keeps the threaded terminal value near the truth,
        # while the pure Neumann march drifts by the unmodeled scattering
        scn = scenario.builtin("ex1")
        trace = synth.generate_reference(scn, small_fine, horizon=1.0)
        noisy = synth.add_noise(trace.values, 0.05, seed=3)
        mset = synth.MeasurementSet(trace.times, trace.values, noisy,
                                    0.05, 3, synth.REFERENCE_TRIANGLES)
        f_fn, g_fn, h = scenario.samplers(small_fine)

        def u_est(t):
            return 0.3 * scenario.eval_truth(scn, min(t, scn.horizon),
                                             small_fine)

        init_n, init_d = h.copy(), h.copy()
        for n in range(10):
            grid = fem.SegmentGrid(0.0125, 8 * n, 8)
            y_n = fem.forward_solve(small_fine, grid, u_est, scn.ops,
                                    fem.source_load(small_fine, grid, f_fn,
                                                    g_fn), init_n)
            y_d = synth.sample_measurement(mset, grid.times())
            y_dir = fem.dirichlet_solve(small_fine, grid, u_est, scn.ops,
                                        fem.source_load(small_fine, grid,
                                                        f_fn, None),
                                        y_d, init_d)
            init_n = y_n.values[-1].copy()
            init_d = y_dir.values[-1].copy()
        bw = hm.boundary_vertex_weights(small_fine)
        ref_end = trace.values[-1]

        def berr(v):
            d = v[small_fine.boundary_vertices] - ref_end
            return np.sqrt(np.sum(bw * d * d))

        assert berr(init_d) < berr(init_n)

    def test_trace_shape_mismatch_rejected(self, disk1800):
        grid = fem.segment_grid(0.0, 0.1, 0.0125)
        with pytest.raises(fem.FemError):
            fem.dirichlet_solve(disk1800, grid, None, [],
                                no_load(disk1800, grid), np.zeros((3, 4)),
                                np.zeros(disk1800.num_vertices))


class TestBackwardAdjoint:
    def test_zero_flux_zero_solution(self, disk1800):
        grid = fem.segment_grid(0.0, 0.1, 0.0125)
        flux = np.zeros((grid.num_times, disk1800.num_boundary_vertices))
        traj = fem.backward_adjoint_solve(disk1800, grid, flux)
        assert np.abs(traj.values).max() == 0

    def test_terminal_value_exactly_zero(self, disk1800):
        grid = fem.segment_grid(0.0, 0.1, 0.0125)
        rng = np.random.default_rng(0)
        flux = rng.normal(size=(grid.num_times,
                                disk1800.num_boundary_vertices))
        traj = fem.backward_adjoint_solve(disk1800, grid, flux)
        assert np.abs(traj.values[-1]).max() == 0

    def test_adjoint_identity(self, disk1800, mass1800):
        grid = fem.segment_grid(0.0, 0.1, 0.0125)
        bpts = disk1800.vertices[disk1800.boundary_vertices]
        theta = np.arctan2(bpts[:, 1], bpts[:, 0])
        for seed in (0, 1):
            rng = np.random.default_rng(seed)
            c0 = rng.uniform(0.5, 1.5)
            cv = rng.normal(size=2)
            kk = rng.integers(1, 4, size=(2, 2))

            def v_at(pts, t):
                out = np.full(len(pts), c0)
                for i in range(2):
                    out += cv[i] * np.cos(kk[i, 0] * pts[:, 0]) \
                        * np.cos(kk[i, 1] * pts[:, 1]) * np.cos(2 * t)
                return out

            d0 = rng.uniform(0.5, 1.5)
            flux = np.array([d0 + 0.5 * np.cos(2 * theta + seed)
                             * np.cos(3 * t) for t in grid.times()])
            z = fem.backward_adjoint_solve(disk1800, grid, flux)
            vmat = np.array([v_at(disk1800.vertices, t)
                             for t in grid.times()])
            lhs = fem.domain_spacetime_inner(mass1800, grid, z.values, vmat)
            w = fem.forward_solve(disk1800, grid, None, [], fem.source_load(
                disk1800, grid, lambda t: v_at(disk1800.centroids, t), None),
                np.zeros(disk1800.num_vertices))
            rhs = fem.boundary_spacetime_inner(
                disk1800, grid, flux, fem.boundary_trace(w, disk1800).values)
            assert abs(lhs - rhs) <= 0.02 * abs(rhs)


class TestTraceAndNorms:
    def test_constant_trajectory_constant_trace(self, disk1800):
        grid = fem.segment_grid(0.0, 0.1, 0.0125)
        traj = fem.Trajectory(grid, np.full((grid.num_times,
                                             disk1800.num_vertices), 7.0))
        tr = fem.boundary_trace(traj, disk1800)
        assert np.all(tr.values == 7.0)

    def test_trace_norm_bounded_by_trajectory_norm(self, disk1800, mass1800):
        grid = fem.segment_grid(0.0, 0.1, 0.0125)
        rng = np.random.default_rng(1)
        vals = rng.normal(size=(grid.num_times, disk1800.num_vertices))
        traj = fem.Trajectory(grid, vals)
        tr = fem.boundary_trace(traj, disk1800)
        num = fem.boundary_spacetime_inner(disk1800, grid, tr.values,
                                           tr.values)
        den = fem.domain_spacetime_inner(mass1800, grid, vals, vals)
        assert num <= 50.0 * den

    def test_rel_error_rejects_zero_reference(self, disk1800):
        grid = fem.segment_grid(0.0, 0.1, 0.0125)
        zero = np.zeros((grid.num_times, disk1800.num_boundary_vertices))
        with pytest.raises(fem.FemError):
            fem.boundary_rel_error(disk1800, grid, zero, zero)
