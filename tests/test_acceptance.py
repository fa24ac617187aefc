"""Acceptance gate: every criterion at its stated tolerance.

One test per criterion; each prints a PASS line with the measured values.
Full-scale reconstruction runs are session fixtures shared across criteria,
and the wall time of the showcase run is captured where it is produced.
"""

import time

import numpy as np
import pytest

from heatprobe import cli, fem, reconstruction as recon, synth
from heatprobe import mesh as hm
from heatprobe import scenario as sc

SEEDS = (1, 2, 3)


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


@pytest.fixture(scope="session")
def ex1_runs_5pct(fine, coarse, transfer, measurement_factory):
    runs = {}
    elapsed = None
    for seed in SEEDS:
        mset = measurement_factory("ex1", 0.05, seed)
        started = time.perf_counter()
        runs[seed] = recon.run(sc.builtin("ex1"), mset,
                              recon.Options(tol=0.10, scheme="bfg"),
                              fine=fine, coarse=coarse, transfer=transfer)
        if seed == SEEDS[0]:
            elapsed = time.perf_counter() - started
    return {"runs": runs, "seed1_seconds": elapsed}


@pytest.fixture(scope="session")
def ex1_runs_10pct(fine, coarse, transfer, measurement_factory):
    return {seed: recon.run(sc.builtin("ex1"),
                           measurement_factory("ex1", 0.10, seed),
                           recon.Options(tol=0.10, scheme="bfg"),
                           fine=fine, coarse=coarse, transfer=transfer)
            for seed in SEEDS}


@pytest.fixture(scope="session")
def ex3_runs(fine, coarse, transfer, measurement_factory):
    return {seed: recon.run(sc.builtin("ex3"),
                           measurement_factory("ex3", 0.05, seed),
                           recon.Options(tol=0.08, scheme="bfg"),
                           fine=fine, coarse=coarse, transfer=transfer)
            for seed in SEEDS}


@pytest.fixture(scope="session")
def ex2_run(fine, coarse, transfer, measurement_factory):
    return recon.run(sc.builtin("ex2"), measurement_factory("ex2", 0.05, 1),
                    recon.Options(tol=0.08, scheme="dfp"),
                    fine=fine, coarse=coarse, transfer=transfer)


@pytest.fixture(scope="session")
def ex5_run(fine, coarse, transfer, measurement_factory):
    return recon.run(sc.builtin("ex5"), measurement_factory("ex5", 0.05, 1),
                    recon.Options(tol=0.08, scheme="bfg"),
                    fine=fine, coarse=coarse, transfer=transfer)


def test_criterion_1_adjoint_identity(fine):
    """Lemma-style duality: (z, v) over the cylinder equals (flux, trace of
    the source response) over the lateral boundary, to < 2% for 5 pairs."""
    started = time.perf_counter()
    mass = fem.assemble_mass(fine)
    grid = fem.segment_grid(0.0, 0.1, 0.0125)
    bpts = fine.vertices[fine.boundary_vertices]
    theta = np.arctan2(bpts[:, 1], bpts[:, 0])
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        c0 = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        cv = rng.normal(size=2)
        kk = rng.integers(1, 4, size=(2, 2))
        om = rng.normal(size=2)

        def v_at(pts, t):
            out = np.full(len(pts), c0)
            for i in range(2):
                out += cv[i] * np.cos(kk[i, 0] * pts[:, 0]) \
                    * np.cos(kk[i, 1] * pts[:, 1]) * np.cos(om[i] * 2 * t)
            return out

        d0 = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        cy = rng.normal(size=2)
        mm = rng.integers(1, 4, size=2)
        ph = rng.normal(size=2)
        ps = rng.normal(size=2)

        def flux_at(t):
            out = np.full(len(theta), d0)
            for i in range(2):
                out += cy[i] * np.cos(mm[i] * theta + ph[i]) \
                    * np.cos(2 * t + ps[i])
            return out

        flux = np.array([flux_at(t) for t in grid.times()])
        z = fem.backward_adjoint_solve(fine, grid, flux)
        vmat = np.array([v_at(fine.vertices, t) for t in grid.times()])
        lhs = fem.domain_spacetime_inner(mass, grid, z.values, vmat)
        w = fem.forward_solve(fine, grid, None, [], fem.source_load(
            fine, grid, lambda t: v_at(fine.centroids, t), None),
            np.zeros(fine.num_vertices))
        rhs = fem.boundary_spacetime_inner(
            fine, grid, flux, fem.boundary_trace(w, fine).values)
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    elapsed = time.perf_counter() - started
    assert worst < 0.02
    assert elapsed < 30.0
    _report("criterion 1", f"adjoint identity worst rel err "
            f"{worst:.2e} < 2e-2 in {elapsed:.1f}s")


def test_criterion_2_manufactured_convergence():
    """Spatial and temporal orders of the marching scheme are both >= 1.8."""
    started = time.perf_counter()

    def solve_terminal(mesh, dt, t_end=0.5):
        r2c = (mesh.centroids**2).sum(axis=1)
        r2v = (mesh.vertices**2).sum(axis=1)
        grid = fem.segment_grid(0.0, t_end, dt)
        traj = fem.forward_solve(
            mesh, grid, None, [], fem.source_load(
                mesh, grid, lambda t: np.exp(-t) * (3 + r2c),
                lambda t: np.full(mesh.num_boundary_vertices,
                                  -2 * np.exp(-t))),
            1 - r2v)
        return traj.values[-1]

    spatial = []
    for target in (450, 1800, 7200):
        mesh = hm.build_disk_mesh(target)
        mass = fem.assemble_mass(mesh)
        exact = np.exp(-0.5) * (1 - (mesh.vertices**2).sum(axis=1))
        err = solve_terminal(mesh, 0.002) - exact
        spatial.append(float(np.sqrt(err @ (mass @ err))))
    spatial_orders = [np.log2(a / b) for a, b in zip(spatial, spatial[1:])]

    mesh = hm.build_disk_mesh(1800)
    mass = fem.assemble_mass(mesh)
    ref = solve_terminal(mesh, 0.5 / 512)
    temporal = []
    for dt in (0.125, 0.0625, 0.03125):
        err = solve_terminal(mesh, dt) - ref
        temporal.append(float(np.sqrt(err @ (mass @ err))))
    temporal_orders = [np.log2(a / b) for a, b in zip(temporal, temporal[1:])]

    elapsed = time.perf_counter() - started
    assert all(o >= 1.8 for o in spatial_orders), spatial_orders
    assert all(o >= 1.8 for o in temporal_orders), temporal_orders
    assert elapsed < 120.0
    _report("criterion 2", "spatial orders "
            + "/".join(f"{o:.2f}" for o in spatial_orders)
            + ", temporal orders "
            + "/".join(f"{o:.2f}" for o in temporal_orders)
            + f" (all >= 1.8) in {elapsed:.1f}s")


def test_criterion_3_secant_identities():
    """Both corrections satisfy their secant relation after every accepted
    update; near-degenerate pairings are rejected rather than installed.

    Each of the 100 randomized pairs updates its own kernel (mutually
    inconsistent random pairs accumulated into one kernel have no
    finite-precision secant for the scaled correction form; the production
    accumulation regime is exercised by the full-run criteria instead).
    """
    started = time.perf_counter()
    mesh = hm.build_disk_mesh(300)
    grid = fem.SegmentGrid(0.0125, 0, 8)
    rng = np.random.default_rng(0)

    def rand_field():
        return rng.normal(size=(grid.num_times, 2, mesh.num_cells))

    worst_secant = 0.0
    worst_sym = 0.0
    accepted = {}
    for update in (recon.update_dfp, recon.update_bfg):
        accepted[update.__name__] = 0
        for _ in range(100):
            kernel = recon.make_kernel(mesh, 2)
            eta_hat_f, zeta_hat = rand_field(), rand_field()
            if update(kernel, eta_hat_f, zeta_hat, mesh, grid):
                accepted[update.__name__] += 1
                err = recon.apply_kernel(kernel, zeta_hat, mesh, grid) \
                    - eta_hat_f
                worst_secant = max(
                    worst_secant, recon.segment_norm(mesh, grid, err)
                    / recon.segment_norm(mesh, grid, eta_hat_f))
            phi, psi = rand_field(), rand_field()
            a = recon.segment_inner(mesh, grid,
                                   recon.apply_kernel(kernel, phi, mesh, grid),
                                   psi)
            b = recon.segment_inner(mesh, grid, phi,
                                   recon.apply_kernel(kernel, psi, mesh, grid))
            worst_sym = max(worst_sym, abs(a - b)
                            / (recon.segment_norm(mesh, grid, phi)
                               * recon.segment_norm(mesh, grid, psi)))
    elapsed = time.perf_counter() - started
    assert worst_secant <= 1e-8
    assert worst_sym <= 1e-10
    assert min(accepted.values()) >= 90      # rejection is the rare exception
    assert elapsed < 10.0
    _report("criterion 3", f"secant residual {worst_secant:.2e} <= 1e-8 over "
            f"{accepted['update_dfp']}+{accepted['update_bfg']} accepted "
            f"updates, symmetry defect {worst_sym:.2e} <= 1e-10 "
            f"in {elapsed:.1f}s")


def test_criterion_4_null_scenario(fine, coarse, transfer):
    """Inclusion-free data: four solves per segment and a near-zero
    reconstruction, at the 5% noise level."""
    started = time.perf_counter()
    scn = sc.null_scenario()
    trace = synth.generate_reference(scn, fine)
    mset = synth.MeasurementSet(
        trace.times, trace.values, synth.add_noise(trace.values, 0.05, 1),
        0.05, 1, synth.REFERENCE_TRIANGLES)
    res = recon.run(scn, mset, recon.Options(tol=0.08, scheme="bfg"),
                   fine=fine, coarse=coarse, transfer=transfer)
    clean = sum(1 for s in res.segments
                if s.counters.as_tuple() == (1, 1, 1, 1))
    ex1 = sc.builtin("ex1")
    truth_l1 = np.mean([
        float(np.sum(np.abs(sc.eval_truth(ex1, s.t_mid, coarse))
                     * coarse.cell_areas[None, :]))
        for s in res.segments])
    l1 = [float(np.sum(np.abs(s.u) * coarse.cell_areas[None, :]))
          for s in res.segments]
    quiet = sum(1 for v in l1 if v < 0.1 * truth_l1)
    elapsed = time.perf_counter() - started
    assert len(res.segments) == 100
    assert clean >= 95
    assert quiet >= 90
    assert elapsed < 600.0
    _report("criterion 4", f"clean-counter segments {clean}/100 >= 95, "
            f"quiet-norm segments {quiet}/100 >= 90 "
            f"(max L1 {max(l1):.2e} vs truth {truth_l1:.2e}) "
            f"in {elapsed:.0f}s")


def test_criterion_5_solve_costs(ex1_runs_5pct, ex1_runs_10pct, ex3_runs):
    """Average PDE solves per segment in the published ballpark, 3 seeds."""
    mean_5 = np.mean([r.mean_counters()["total"]
                      for r in ex1_runs_5pct["runs"].values()])
    mean_10 = np.mean([r.mean_counters()["total"]
                       for r in ex1_runs_10pct.values()])
    mean_3 = np.mean([r.mean_counters()["total"] for r in ex3_runs.values()])
    assert 4.0 <= mean_5 <= 5.0
    assert 4.0 <= mean_10 <= 5.5
    assert 4.0 <= mean_3 <= 9.0
    _report("criterion 5", f"mean total solves: merge/split 5% {mean_5:.2f} "
            f"in [4,5] (reported 4.02), 10% {mean_10:.2f} in [4,5.5] "
            f"(reported 4.22), nonlinear {mean_3:.2f} in [4,9] "
            f"(reported 7.46); 3 seeds each")


def test_criterion_6_tracking_quality(ex1_runs_5pct, ex5_run, ex2_run):
    """Support and centroid tracking at desk scale for three scenarios."""
    coarse = ex1_runs_5pct["runs"][1].coarse

    # merge/split scenario: support overlap and centroid accuracy
    res1 = ex1_runs_5pct["runs"][1]
    rows = cli.compute_metrics(res1, sc.builtin("ex1"))
    window = [r for r in rows if 0.5 <= r.t_mid <= 9.5]
    med_j = float(np.median([r.jaccard[0] for r in window]))
    cents = [r.centroid_error[0] for r in window
             if np.isfinite(r.centroid_error[0])]
    med_c = float(np.median(cents)) if len(cents) == len(window) \
        else float("inf")
    assert med_j >= 0.2
    assert med_c <= 0.25

    # diminishing scenario: recovered support near the shrinking inclusion
    scn5 = sc.builtin("ex5")

    def near_area(seg, which):
        sup = cli.support_mask(seg.u[0])
        centers = [np.asarray(i.center(seg.t_mid)) for i in scn5.inclusions]
        d = np.stack([np.linalg.norm(coarse.centroids - c, axis=1)
                      for c in centers])
        return float(coarse.cell_areas[sup & (d.argmin(axis=0) == which)]
                     .sum())

    early = next(s for s in ex5_run.segments if abs(s.t_mid - 0.55) < 1e-9)
    late = next(s for s in ex5_run.segments if abs(s.t_mid - 9.55) < 1e-9)
    a_early = near_area(early, 1)
    a_late = near_area(late, 1)
    assert a_late < 0.25 * a_early

    # mixed scenario: each component matches its own truth more often than
    # the other component's truth
    scn2 = sc.builtin("ex2")
    c_ok = p_ok = 0
    for seg in ex2_run.segments:
        truth = sc.eval_truth(scn2, seg.t_mid, coarse)
        sup_c = cli.support_mask(seg.u[0])
        sup_p = cli.support_mask(seg.u[1])
        t_c, t_p = truth[0] != 0, truth[1] != 0
        c_ok += cli.area_jaccard(coarse, sup_c, t_p) \
            < cli.area_jaccard(coarse, sup_c, t_c)
        p_ok += cli.area_jaccard(coarse, sup_p, t_c) \
            < cli.area_jaccard(coarse, sup_p, t_p)
    n = len(ex2_run.segments)
    assert c_ok >= 0.6 * n
    assert p_ok >= 0.6 * n
    _report("criterion 6", f"merge/split median jaccard {med_j:.3f} >= 0.2, "
            f"median centroid err {med_c:.3f} <= 0.25; diminishing support "
            f"{a_late:.4f} < 25% of {a_early:.4f}; mixed-type separation "
            f"{c_ok}/{n} and {p_ok}/{n} >= 60%")


def test_criterion_7_noise_moments():
    values = np.full((1001, 120), 2.0)
    rel = synth.add_noise(values, 0.05, seed=11) / values - 1.0
    assert rel.size >= 1e5
    target = 0.05 / np.sqrt(3.0)
    dev = abs(rel.std() - target) / target
    assert dev <= 0.10
    _report("criterion 7", f"noise std {rel.std():.5f} vs eps/sqrt(3) "
            f"{target:.5f} (deviation {dev:.1%} <= 10%) "
            f"over {rel.size} samples")


def test_criterion_8_runtimes(ex1_runs_5pct, tmp_path):
    """Full showcase run under 30 minutes; reduced CI profile under 4."""
    full_seconds = ex1_runs_5pct["seed1_seconds"]
    assert full_seconds < 1800.0

    started = time.perf_counter()
    cfg = cli.RunConfig(scenario="ex1", noise=0.05, seed=1, horizon=2.0,
                        fine_triangles=3000, coarse_triangles=600,
                        outdir=str(tmp_path))
    cli.cmd_reconstruct(cfg)
    ci_seconds = time.perf_counter() - started
    assert ci_seconds < 240.0
    _report("criterion 8", f"full run {full_seconds:.0f}s < 1800s "
            f"(reconstruction only), CI profile {ci_seconds:.0f}s < 240s "
            f"(including data generation)")
