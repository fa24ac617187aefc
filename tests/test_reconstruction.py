"""Resolver kernel algebra, quasi-Newton updates, and the segment loop."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatprobe import fem, reconstruction as recon, synth
from heatprobe import mesh as hm
from heatprobe import scenario as sc


@pytest.fixture(scope="module")
def tiny():
    mesh = hm.build_disk_mesh(300)
    grid = fem.SegmentGrid(0.0125, 0, 8)
    return mesh, grid


def rand_field(rng, mesh, grid, n_comp=2):
    return rng.normal(size=(grid.num_times, n_comp, mesh.num_cells))


class TestKernelBasics:
    def test_initial_diagonal_shape(self, tiny):
        mesh, _ = tiny
        kernel = recon.make_kernel(mesh, 2, nu=1.4, eps_cut=0.05)
        d = hm.boundary_distance(mesh)
        expected = np.where(d >= 0.05, d**1.4, 0.0)
        assert kernel.diag.shape == (2, mesh.num_cells)
        assert np.allclose(kernel.diag[0], expected)
        assert np.allclose(kernel.diag[1], expected)
        assert np.any(expected == 0.0)

    def test_empty_lowrank_is_diagonal_product(self, tiny):
        mesh, grid = tiny
        kernel = recon.make_kernel(mesh, 2)
        zeta = rand_field(np.random.default_rng(0), mesh, grid)
        eta = recon.apply_kernel(kernel, zeta, mesh, grid)
        assert np.allclose(eta, kernel.diag[None] * zeta)

    def test_zero_dual_maps_to_zero(self, tiny):
        mesh, grid = tiny
        kernel = recon.make_kernel(mesh, 2)
        rng = np.random.default_rng(1)
        recon.update_dfp(kernel, rand_field(rng, mesh, grid),
                        rand_field(rng, mesh, grid), mesh, grid)
        zeta = np.zeros((grid.num_times, 2, mesh.num_cells))
        assert np.abs(recon.apply_kernel(kernel, zeta, mesh, grid)).max() == 0

    def test_linearity(self, tiny):
        mesh, grid = tiny
        rng = np.random.default_rng(2)
        kernel = recon.make_kernel(mesh, 2)
        recon.update_dfp(kernel, rand_field(rng, mesh, grid),
                        rand_field(rng, mesh, grid), mesh, grid)
        a, b = rand_field(rng, mesh, grid), rand_field(rng, mesh, grid)
        lhs = recon.apply_kernel(kernel, 2 * a + 3 * b, mesh, grid)
        rhs = 2 * recon.apply_kernel(kernel, a, mesh, grid) \
            + 3 * recon.apply_kernel(kernel, b, mesh, grid)
        assert np.abs(lhs - rhs).max() <= 1e-12 * max(1, np.abs(rhs).max())

    def test_stacked_apply_matches_term_by_term_sum(self, tiny):
        """The batched coefficients and the ordered sum of apply_kernel
        round exactly like one segment_inner and one add per term, and the
        result is C-ordered whatever zeta's memory order (the time average
        of the estimate rounds by it)."""
        mesh, grid = tiny
        rng = np.random.default_rng(20)
        kernel = recon.make_kernel(mesh, 2)
        for update in (recon.update_dfp, recon.update_bfg, recon.update_dfp):
            assert update(kernel, rand_field(rng, mesh, grid),
                          rand_field(rng, mesh, grid), mesh, grid)
        recon.damp_kernel(kernel, 0.6)
        assert kernel.rank == 7
        zeta = np.asfortranarray(rand_field(rng, mesh, grid))
        expected = kernel.diag[None] * zeta
        for r in range(kernel.rank):
            coef = kernel.weight[r] * kernel.damp[r] \
                * recon.segment_inner(mesh, grid, kernel.n[r], zeta)
            expected = expected + coef * kernel.m[r]
        eta = recon.apply_kernel(kernel, zeta, mesh, grid)
        assert np.array_equal(eta, expected)
        assert eta.flags.c_contiguous

    def test_symmetry_random_pairs(self, tiny):
        mesh, grid = tiny
        rng = np.random.default_rng(3)
        for scheme in (recon.update_dfp, recon.update_bfg):
            kernel = recon.make_kernel(mesh, 2)
            scheme(kernel, rand_field(rng, mesh, grid),
                   rand_field(rng, mesh, grid), mesh, grid)
            for _ in range(5):
                phi = rand_field(rng, mesh, grid)
                psi = rand_field(rng, mesh, grid)
                a = recon.segment_inner(
                    mesh, grid, recon.apply_kernel(kernel, phi, mesh, grid), psi)
                b = recon.segment_inner(
                    mesh, grid, phi, recon.apply_kernel(kernel, psi, mesh, grid))
                scale = recon.segment_norm(mesh, grid, phi) \
                    * recon.segment_norm(mesh, grid, psi)
                assert abs(a - b) <= 1e-10 * scale


class TestProjection:
    BOUNDS = np.array([[-0.99, 0.0], [0.0, 30.0]])

    def test_clamps(self, tiny):
        mesh, grid = tiny
        eta = np.zeros((grid.num_times, 2, mesh.num_cells))
        eta[:, 0] = -2.0
        eta[:, 1] = 35.0
        u = recon.project(eta, self.BOUNDS)
        assert np.all(u[:, 0] == -0.99)
        assert np.all(u[:, 1] == 30.0)

    def test_interior_unchanged(self, tiny):
        mesh, grid = tiny
        eta = np.zeros((grid.num_times, 2, mesh.num_cells))
        eta[:, 0] = -0.5
        eta[:, 1] = 12.0
        assert np.array_equal(recon.project(eta, self.BOUNDS), eta)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_idempotent(self, seed, tiny):
        mesh, grid = tiny
        eta = 40 * np.random.default_rng(seed).normal(
            size=(grid.num_times, 2, mesh.num_cells))
        once = recon.project(eta, self.BOUNDS)
        assert np.array_equal(recon.project(once, self.BOUNDS), once)


def test_memory_order_does_not_round(tiny):
    """A Fortran-ordered field projects and time-averages bitwise as its
    C-ordered copy, and the projection is C-ordered either way."""
    mesh, grid = tiny
    eta = 40 * np.random.default_rng(3).normal(
        size=(grid.num_times, 2, mesh.num_cells))
    fortran = np.asfortranarray(eta)
    bounds = TestProjection.BOUNDS
    projected = recon.project(fortran, bounds)
    assert projected.flags.c_contiguous
    assert np.array_equal(projected, recon.project(eta, bounds))
    assert np.array_equal(recon.time_average(fortran, grid),
                          recon.time_average(eta, grid))


# segment_inner and apply_kernel on 9 nodes x 2 components x 1120 cells,
# long enough for BLAS to split a dot product over two threads
INNER_PRODUCTS = """
import hashlib
import numpy as np
from heatprobe import fem, mesh as hm, reconstruction as recon
mesh, grid = hm.build_disk_mesh(1120), fem.SegmentGrid(0.0125, 0, 8)
rng = np.random.default_rng(7)
shape = (grid.num_times, 2, mesh.num_cells)
a, b = rng.normal(size=shape), rng.normal(size=shape)
kernel = recon.make_kernel(mesh, 2)
kernel.m, kernel.n = rng.normal(size=(2, 3) + shape)
kernel.weight, kernel.damp = rng.normal(size=3), np.ones(3)
eta = recon.apply_kernel(kernel, a, mesh, grid)
print(recon.segment_inner(mesh, grid, a, b).hex(),
      hashlib.sha256(eta.tobytes()).hexdigest())
"""


def test_inner_products_do_not_depend_on_the_blas_threads(run_python):
    """segment_inner and apply_kernel give the same bits under one and two
    BLAS threads."""
    one, two = (run_python(INNER_PRODUCTS, OPENBLAS_NUM_THREADS=threads,
                           OMP_NUM_THREADS=threads) for threads in "12")
    assert one == two


class TestEtaHat:
    BOUNDS = np.array([[-0.99, 0.0], [0.0, 30.0]])

    def test_interior_passthrough(self, tiny):
        mesh, grid = tiny
        rng = np.random.default_rng(4)
        u = np.empty((grid.num_times, 2, mesh.num_cells))
        u[:, 0] = rng.uniform(-0.9, -0.1, size=(grid.num_times, mesh.num_cells))
        u[:, 1] = rng.uniform(1.0, 29.0, size=(grid.num_times, mesh.num_cells))
        eh = recon.eta_hat(rand_field(rng, mesh, grid),
                          rand_field(rng, mesh, grid), u, self.BOUNDS)
        assert np.array_equal(eh, u)

    def test_active_lower_bound_uses_dual(self, tiny):
        mesh, grid = tiny
        rng = np.random.default_rng(5)
        zeta_hat = rand_field(rng, mesh, grid)
        u = np.zeros((grid.num_times, 2, mesh.num_cells))
        u[:, 0] = -0.99
        eh = recon.eta_hat(zeta_hat, zeta_hat, u, self.BOUNDS)
        assert np.array_equal(eh[:, 0], np.minimum(zeta_hat[:, 0], -0.99))
        # component 1 sits at its lower bound 0
        assert np.array_equal(eh[:, 1], np.minimum(zeta_hat[:, 1], 0.0))

    def test_projection_recovers_estimate(self, tiny):
        mesh, grid = tiny
        rng = np.random.default_rng(6)
        eta = 50 * rand_field(rng, mesh, grid)
        u = recon.project(eta, self.BOUNDS)
        for variant in ("zeta", "r_zeta"):
            eh = recon.eta_hat(rand_field(rng, mesh, grid),
                              rand_field(rng, mesh, grid), u, self.BOUNDS,
                              variant)
            assert np.array_equal(recon.project(eh, self.BOUNDS), u)

    def test_r_zeta_variant_uses_kernel_image(self, tiny):
        mesh, grid = tiny
        rng = np.random.default_rng(7)
        zeta_hat = rand_field(rng, mesh, grid)
        r_zeta = rand_field(rng, mesh, grid)
        u = np.zeros((grid.num_times, 2, mesh.num_cells))
        u[:, 0] = -0.99
        eh = recon.eta_hat(zeta_hat, r_zeta, u, self.BOUNDS, "r_zeta")
        assert np.array_equal(eh[:, 0], np.minimum(r_zeta[:, 0], -0.99))


class TestUpdates:
    def test_secant_identity_both_schemes(self, tiny):
        mesh, grid = tiny
        rng = np.random.default_rng(8)
        for update in (recon.update_dfp, recon.update_bfg):
            kernel = recon.make_kernel(mesh, 2)
            zeta_hat = rand_field(rng, mesh, grid)
            eta_hat = rand_field(rng, mesh, grid)
            assert update(kernel, eta_hat, zeta_hat, mesh, grid)
            err = recon.apply_kernel(kernel, zeta_hat, mesh, grid) - eta_hat
            assert recon.segment_norm(mesh, grid, err) \
                <= 1e-10 * recon.segment_norm(mesh, grid, eta_hat)

    def test_consistent_pair_is_noop(self, tiny):
        mesh, grid = tiny
        rng = np.random.default_rng(9)
        for update in (recon.update_dfp, recon.update_bfg):
            kernel = recon.make_kernel(mesh, 2)
            zeta_hat = rand_field(rng, mesh, grid)
            rz = recon.apply_kernel(kernel, zeta_hat, mesh, grid)
            update(kernel, rz, zeta_hat, mesh, grid)
            after = recon.apply_kernel(kernel, zeta_hat, mesh, grid)
            assert np.abs(after - rz).max() <= 1e-10 * np.abs(rz).max()

    def test_curvature_guard_skips(self, tiny, caplog):
        mesh, grid = tiny
        kernel = recon.make_kernel(mesh, 2)
        zero = np.zeros((grid.num_times, 2, mesh.num_cells))
        with caplog.at_level(logging.WARNING, logger="heatprobe.reconstruction"):
            accepted = recon.update_dfp(
                kernel, rand_field(np.random.default_rng(10), mesh, grid),
                zero, mesh, grid)
        assert not accepted
        assert not kernel.rank
        assert any("curvature" in r.message for r in caplog.records)

    def test_secant_check_rolls_back(self, tiny, caplog, monkeypatch):
        """An update whose secant residual exceeds SECANT_TOL is taken
        back: the kernel keeps the terms it had, and the update reports
        False."""
        mesh, grid = tiny
        rng = np.random.default_rng(12)
        kernel = recon.make_kernel(mesh, 2)
        assert recon.update_dfp(kernel, rand_field(rng, mesh, grid),
                                rand_field(rng, mesh, grid), mesh, grid)
        before = [kernel.m, kernel.n, kernel.weight, kernel.damp]
        monkeypatch.setattr(recon, "SECANT_TOL", -1.0)
        with caplog.at_level(logging.WARNING, logger="heatprobe.reconstruction"):
            accepted = recon.update_dfp(
                kernel, rand_field(rng, mesh, grid),
                rand_field(rng, mesh, grid), mesh, grid)
        assert not accepted
        assert kernel.rank == 2
        for kept, old in zip([kernel.m, kernel.n, kernel.weight,
                              kernel.damp], before):
            assert np.array_equal(kept, old)
        assert any("rolled back" in r.message for r in caplog.records)

    def test_rank_cap_respected_and_secant_kept(self, tiny):
        mesh, grid = tiny
        rng = np.random.default_rng(11)
        kernel = recon.make_kernel(mesh, 2, rank_cap=6)
        for _ in range(10):
            zeta_hat = rand_field(rng, mesh, grid)
            eta_hat = rand_field(rng, mesh, grid)
            assert recon.update_dfp(kernel, eta_hat, zeta_hat, mesh, grid)
            assert kernel.rank <= 6
            err = recon.apply_kernel(kernel, zeta_hat, mesh, grid) - eta_hat
            assert recon.segment_norm(mesh, grid, err) \
                <= 1e-8 * recon.segment_norm(mesh, grid, eta_hat)


class TestRescaleAndDamp:
    def test_consistent_scale_is_fixed_point(self, tiny):
        mesh, grid = tiny
        kernel = recon.make_kernel(mesh, 2)
        rng = np.random.default_rng(12)
        zeta_hat = rand_field(rng, mesh, grid)
        u = kernel.diag[None] * zeta_hat
        before = kernel.diag.copy()
        assert recon.rescale_diag(kernel, u, zeta_hat, mesh, grid)
        assert np.allclose(kernel.diag, before)

    def test_doubling_estimate_doubles_scale(self, tiny):
        mesh, grid = tiny
        rng = np.random.default_rng(13)
        zeta_hat = rand_field(rng, mesh, grid)
        u = rand_field(rng, mesh, grid)
        k1 = recon.make_kernel(mesh, 2)
        recon.rescale_diag(k1, u, zeta_hat, mesh, grid)
        k2 = recon.make_kernel(mesh, 2)
        recon.rescale_diag(k2, 2.0 * u, zeta_hat, mesh, grid)
        assert np.allclose(k2.diag, 2.0 * k1.diag)

    def test_vanishing_estimate_zeroes_diagonal(self, tiny, caplog):
        mesh, grid = tiny
        rng = np.random.default_rng(14)
        kernel = recon.make_kernel(mesh, 2)
        zero_u = np.zeros((grid.num_times, 2, mesh.num_cells))
        with caplog.at_level(logging.WARNING, logger="heatprobe.reconstruction"):
            recon.rescale_diag(kernel, zero_u, rand_field(rng, mesh, grid),
                              mesh, grid)
        assert np.abs(kernel.diag).max() == 0.0
        assert any("zeroed" in r.message for r in caplog.records)

    def test_degenerate_denominator_skips(self, tiny, caplog):
        mesh, grid = tiny
        kernel = recon.make_kernel(mesh, 2)
        before = kernel.diag.copy()
        zero = np.zeros((grid.num_times, 2, mesh.num_cells))
        with caplog.at_level(logging.WARNING, logger="heatprobe.reconstruction"):
            changed = recon.rescale_diag(
                kernel, rand_field(np.random.default_rng(15), mesh, grid),
                zero, mesh, grid)
        assert not changed
        assert np.array_equal(kernel.diag, before)

    def test_damping_scales_lowrank_only(self, tiny):
        mesh, grid = tiny
        rng = np.random.default_rng(16)
        kernel = recon.make_kernel(mesh, 2)
        recon.update_dfp(kernel, rand_field(rng, mesh, grid),
                        rand_field(rng, mesh, grid), mesh, grid)
        zeta = rand_field(rng, mesh, grid)
        diag_part = kernel.diag[None] * zeta
        low_before = recon.apply_kernel(kernel, zeta, mesh, grid) - diag_part
        diag_before = kernel.diag.copy()
        recon.damp_kernel(kernel, 0.6)
        low_after = recon.apply_kernel(kernel, zeta, mesh, grid) - diag_part
        assert np.allclose(low_after, 0.6 * low_before)
        assert np.array_equal(kernel.diag, diag_before)
        recon.damp_kernel(kernel, 0.6)
        low_twice = recon.apply_kernel(kernel, zeta, mesh, grid) - diag_part
        assert np.allclose(low_twice, 0.36 * low_before)

    def test_faded_terms_dropped(self, tiny):
        mesh, grid = tiny
        rng = np.random.default_rng(17)
        kernel = recon.make_kernel(mesh, 2)
        recon.update_dfp(kernel, rand_field(rng, mesh, grid),
                        rand_field(rng, mesh, grid), mesh, grid)
        for _ in range(40):
            recon.damp_kernel(kernel, 0.6)
        assert not kernel.rank

    def test_faded_terms_are_the_oldest(self, tiny):
        mesh, grid = tiny
        rng = np.random.default_rng(18)
        kernel = recon.make_kernel(mesh, 2)
        assert recon.update_dfp(kernel, rand_field(rng, mesh, grid),
                                rand_field(rng, mesh, grid), mesh, grid)
        for _ in range(20):
            recon.damp_kernel(kernel, 0.6)
        old = kernel.rank
        assert recon.update_dfp(kernel, rand_field(rng, mesh, grid),
                                rand_field(rng, mesh, grid), mesh, grid)
        newest = kernel.m[old:].copy(), kernel.n[old:].copy(), \
            kernel.weight[old:].copy()
        for _ in range(17):                 # 0.6**37 < DAMP_DROP < 0.6**36
            recon.damp_kernel(kernel, 0.6)
        assert kernel.rank == len(newest[2])
        for kept, new in zip((kernel.m, kernel.n, kernel.weight), newest):
            assert np.array_equal(kept, new)
        assert np.allclose(kernel.damp, 0.6 ** 17)

    def test_invalid_damping_rejected(self, tiny):
        mesh, _ = tiny
        kernel = recon.make_kernel(mesh, 2)
        with pytest.raises(ValueError):
            recon.damp_kernel(kernel, 1.0)


def plain_local_dual(z, y, ops, fine, transfer):
    """The dual field gathered onto cell corners, one ``einsum`` a term."""
    tri = fine.triangles
    zv, yv = z.values[:, tri], y.values[:, tri]     # (nt, T, 3)
    components = []
    for op in ops:
        if op.kind == fem.CONDUCTIVITY:
            gz = np.einsum("ntc,tcd->ntd", zv, fine.basis_gradients)
            gy = np.einsum("ntc,tcd->ntd", yv, fine.basis_gradients)
            comp = np.einsum("ntd,ntd->nt", gz, gy)
        elif op.kind == fem.POTENTIAL:
            comp = (zv * yv).mean(axis=2)
        else:
            comp = (zv * np.abs(yv) ** (op.power - 2.0) * yv).mean(axis=2)
        components.append(comp)
    return hm.restrict(np.stack(components, axis=1), transfer)


class TestLocalDual:
    def test_matches_plain_corner_gather(self, small_fine, small_transfer):
        grid = fem.SegmentGrid(0.0125, 0, 8)
        rng = np.random.default_rng(20)
        z, y = (fem.Trajectory(grid, rng.normal(
            size=(grid.num_times, small_fine.num_vertices)))
            for _ in range(2))
        ops = [fem.InhomogeneityOp(fem.CONDUCTIVITY, 0),
               fem.InhomogeneityOp(fem.POTENTIAL, 1),
               fem.InhomogeneityOp(fem.POWER_POTENTIAL, 2, power=3.0),
               fem.InhomogeneityOp(fem.POWER_POTENTIAL, 3, power=2.5)]
        fast = recon.local_dual(z, y, ops, small_fine, small_transfer)
        plain = plain_local_dual(z, y, ops, small_fine, small_transfer)
        for comp, op in enumerate(ops):
            err = np.linalg.norm(fast[:, comp] - plain[:, comp]) \
                / np.linalg.norm(plain[:, comp])
            assert err <= 1e-13, op.kind

    def test_constant_dual_kills_conductivity(self, small_fine,
                                              small_coarse, small_transfer):
        grid = fem.SegmentGrid(0.0125, 0, 8)
        const = fem.Trajectory(grid, np.full(
            (grid.num_times, small_fine.num_vertices), 2.0))
        rng = np.random.default_rng(18)
        y = fem.Trajectory(grid, rng.normal(
            size=(grid.num_times, small_fine.num_vertices)))
        ops = [fem.InhomogeneityOp(fem.CONDUCTIVITY, 0),
               fem.InhomogeneityOp(fem.POTENTIAL, 1)]
        zeta = recon.local_dual(const, y, ops, small_fine, small_transfer)
        assert np.abs(zeta[:, 0]).max() <= 1e-10
        assert np.abs(zeta[:, 1]).max() > 0

    def test_zero_dual_all_zero(self, small_fine, small_transfer):
        grid = fem.SegmentGrid(0.0125, 0, 8)
        zero = fem.Trajectory(grid, np.zeros(
            (grid.num_times, small_fine.num_vertices)))
        y = fem.Trajectory(grid, np.ones(
            (grid.num_times, small_fine.num_vertices)))
        ops = [fem.InhomogeneityOp(fem.CONDUCTIVITY, 0)]
        zeta = recon.local_dual(zero, y, ops, small_fine, small_transfer)
        assert np.abs(zeta).max() == 0

    def test_power_two_matches_potential(self, small_fine, small_transfer):
        grid = fem.SegmentGrid(0.0125, 0, 8)
        rng = np.random.default_rng(19)
        z = fem.Trajectory(grid, rng.normal(
            size=(grid.num_times, small_fine.num_vertices)))
        y = fem.Trajectory(grid, rng.normal(
            size=(grid.num_times, small_fine.num_vertices)))
        pot = recon.local_dual(z, y, [fem.InhomogeneityOp(fem.POTENTIAL, 0)],
                              small_fine, small_transfer)
        pw2 = recon.local_dual(
            z, y, [fem.InhomogeneityOp(fem.POWER_POTENTIAL, 0, power=2.0)],
            small_fine, small_transfer)
        assert np.allclose(pot, pw2, atol=1e-14)


class TestSegmentLoop:
    def _mset(self, small_fine, name="null", noise=0.05, horizon=1.0,
              seed=1):
        scn = sc.null_scenario() if name == "null" else sc.builtin(name)
        trace = synth.generate_reference(scn, small_fine, horizon=horizon)
        noisy = synth.add_noise(trace.values, noise, seed)
        return scn, synth.MeasurementSet(trace.times, trace.values, noisy,
                                         noise, seed,
                                         synth.REFERENCE_TRIANGLES)

    def _opts(self, **kw):
        base = dict(fine_triangles=3000, coarse_triangles=600, tol=0.10,
                    scheme="bfg", horizon=1.0)
        base.update(kw)
        return recon.Options(**base)

    def test_clean_segment_costs_four_solves(self, small_fine, small_coarse,
                                             small_transfer):
        scn, mset = self._mset(small_fine)
        res = recon.run(scn, mset, self._opts(), fine=small_fine,
                       coarse=small_coarse, transfer=small_transfer)
        assert len(res.segments) == 10
        for seg in res.segments:
            assert seg.counters.as_tuple() == (1, 1, 1, 1)
            assert seg.counters.total == 4

    def test_one_update_costs_six_solves(self, small_fine, small_coarse,
                                         small_transfer):
        # an unreachable tolerance at max_inner=2 forces exactly one
        # kernel-update iteration: one extra adjoint and one extra forward
        scn, mset = self._mset(small_fine, horizon=0.1)
        res = recon.run(scn, mset, self._opts(horizon=0.1, tol=1e-9,
                                             max_inner=2),
                       fine=small_fine, coarse=small_coarse,
                       transfer=small_transfer)
        seg = res.segments[0]
        assert seg.counters.as_tuple() == (1, 2, 2, 1)
        assert seg.counters.total == 6
        assert seg.warned

    def test_no_progress_stops_the_inner_loop(self, small_fine, small_coarse,
                                              small_transfer, monkeypatch,
                                              caplog):
        """With every update rejected and one estimate at every iteration,
        the inner loop stops at its second iteration, warned."""
        scn, mset = self._mset(small_fine, horizon=0.1)
        monkeypatch.setattr(recon, "update_bfg", lambda *args: False)
        monkeypatch.setattr(recon, "project",
                            lambda eta, bounds: np.zeros(eta.shape))
        with caplog.at_level(logging.WARNING, logger="heatprobe.reconstruction"):
            res = recon.run(scn, mset, self._opts(horizon=0.1, tol=1e-9),
                            fine=small_fine, coarse=small_coarse,
                            transfer=small_transfer)
        seg = res.segments[0]
        assert (seg.iterations, seg.warned) == (2, True)
        # the segment's adjoint solve and one auxiliary one per iteration
        assert seg.counters.as_tuple() == (1, 3, 2, 1)
        assert any("no kernel progress" in r.message for r in caplog.records)

    def test_segment_samples_each_source_node_once(
            self, small_fine, small_coarse, small_transfer, monkeypatch):
        """The background, forward and Dirichlet marches of a segment read
        one set of loads: f and g are sampled once per half-step node."""
        scn, mset = self._mset(small_fine, name="ex1", horizon=0.1)
        f_fn, g_fn, h = sc.samplers(small_fine)
        times = {"f": [], "g": []}

        def counted(name, fn):
            def sample(t):
                times[name].append(t)
                return fn(t)
            return sample

        monkeypatch.setattr(recon, "samplers", lambda mesh: (
            counted("f", f_fn), counted("g", g_fn), h))
        res = recon.run(scn, mset, self._opts(horizon=0.1), fine=small_fine,
                        coarse=small_coarse, transfer=small_transfer)
        assert res.segments[0].counters.forward >= 1
        steps = round(0.1 / recon.Options.dt)
        for name in times:
            assert len(times[name]) == len(set(times[name])) == steps + 1

    def test_run_determinism(self, small_fine, small_coarse, small_transfer):
        scn, mset = self._mset(small_fine, name="ex1", horizon=0.5)
        a = recon.run(scn, mset, self._opts(horizon=0.5), fine=small_fine,
                     coarse=small_coarse, transfer=small_transfer)
        b = recon.run(scn, mset, self._opts(horizon=0.5), fine=small_fine,
                     coarse=small_coarse, transfer=small_transfer)
        for sa, sb in zip(a.segments, b.segments):
            assert np.array_equal(sa.u, sb.u)
            assert sa.residual == sb.residual

    def test_inverse_crime_guards(self, small_fine, small_coarse,
                                  small_transfer):
        scn, mset = self._mset(small_fine, horizon=0.5)
        with pytest.raises(ValueError):
            recon.run(scn, mset, self._opts(horizon=0.5, dt=0.01),
                     fine=small_fine, coarse=small_coarse,
                     transfer=small_transfer)
        with pytest.raises(ValueError):
            recon.run(scn, mset, self._opts(horizon=2.0), fine=small_fine,
                     coarse=small_coarse, transfer=small_transfer)

    def _resume_matches_fresh(self, run_dir, fine, coarse, transfer, name,
                              min_rank=0, **kw):
        """Five checkpointed segments resumed to ten equal a fresh run."""
        scn, mset = self._mset(fine, name=name, horizon=1.0)
        partial = recon.run(scn, mset, self._opts(horizon=0.5, **kw),
                           fine=fine, coarse=coarse, transfer=transfer,
                           checkpoint_dir=run_dir)
        assert len(partial.segments) == 5
        assert partial.segments[-1].kernel_rank >= min_rank
        resumed = recon.run(scn, mset, self._opts(horizon=1.0, **kw),
                           fine=fine, coarse=coarse, transfer=transfer,
                           checkpoint_dir=run_dir, resume=True)
        fresh = recon.run(scn, mset, self._opts(horizon=1.0, **kw),
                         fine=fine, coarse=coarse, transfer=transfer)
        assert len(resumed.segments) == len(fresh.segments) == 10
        for sr, sf in zip(resumed.segments, fresh.segments):
            assert np.array_equal(sr.u, sf.u)
            assert sr.residual == sf.residual
            assert sr.counters.as_tuple() == sf.counters.as_tuple()
            assert sr.kernel_rank == sf.kernel_rank

    def test_checkpoint_resume_matches_fresh_run(self, tmp_path, small_fine,
                                                 small_coarse,
                                                 small_transfer):
        """ex1 keeps the kernel at rank 0."""
        self._resume_matches_fresh(str(tmp_path / "ckpt"), small_fine,
                                   small_coarse, small_transfer, "ex1")

    def test_checkpoint_resume_with_kernel_terms(self, tmp_path, small_fine,
                                                 small_coarse,
                                                 small_transfer):
        """ex2 at tol 0.03 checkpoints low-rank terms, whose arrays must
        survive the round trip."""
        self._resume_matches_fresh(str(tmp_path / "ckpt"), small_fine,
                                   small_coarse, small_transfer, "ex2",
                                   min_rank=1, scheme="dfp", tol=0.03)
