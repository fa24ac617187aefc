"""Workload definitions shared by run.py and its job process.

Every workload is a generate + reconstruct job at 5% noise; the workload
seed is the noise seed.  ``cli`` workloads go through ``heatprobe.cli`` and
its files, the others call ``synth`` and ``reconstruction`` directly on a
window [0, horizon] with meshes built once per process.  An untraced job
reconstructs ``repeats`` times from its one measurement, so that the short
reconstruct phase fills about as much of a run as generation does; a traced
job reconstructs once.
"""

WORKLOADS = {
    # ROADMAP CI profile: generation (one fresh splu per reference step)
    # dominates; the only workload that writes and reads trace files,
    # checkpoints, heatmaps and metrics.csv, and resumes a finished run.
    "ci_ex1": dict(scenario="ex1", tol=0.10, scheme="bfg", horizon=2.0,
                   fine=3000, coarse=600, cli=True, band=(4.0, 5.0),
                   repeats=6),
    # Linear, static operators: 4 splu per segment, two of them identical
    # every segment; the kernel stays at rank 0.
    "window_ex1": dict(scenario="ex1", tol=0.10, scheme="bfg", horizon=0.5,
                       fine=7002, coarse=1120, cli=False, band=(4.0, 5.0),
                       repeats=4),
    # p = 3 power potential: the lagged weight forces a factorization at
    # every step of the background, forward and Dirichlet marches.
    "window_ex3": dict(scenario="ex3", tol=0.08, scheme="bfg", horizon=0.3,
                       fine=7002, coarse=1120, cli=False, band=(4.0, 9.0),
                       repeats=3),
    # Two components with tol just above the 5%-noise residual floor: the
    # inner loop and DFP kernel updates run in most segments.
    "adapt_ex2": dict(scenario="ex2", tol=0.03, scheme="dfp", horizon=1.0,
                      fine=7002, coarse=1120, cli=False, band=(4.0, 9.0),
                      repeats=3),
}

NOISE = 0.05
REFERENCE_TRIANGLES = 13870

# Spans every traced job of a workload must record, as (name, calling
# module or None for any).  A rename in the program that bypasses a wrapper
# then fails the run instead of silently zeroing a layer.
_COMMON = [
    ("mesh.build_disk_mesh", "heatprobe.synth"),
    ("mesh.build_transfer", None),
    ("mesh.restrict", "heatprobe.reconstruction"),
    ("fem.splu", None), ("fem.lu_solve", None),
    ("fem.assemble", None), ("fem.load", None),
    ("synth.sample_measurement", "heatprobe.reconstruction"),
    ("scenario.eval_truth", None),
    ("reconstruction.run_segment", None),
    ("reconstruction.local_dual", None),
    ("reconstruction.apply_kernel", None),
] + [(f"fem.march.{kind}", None) for kind in
     ("background", "adjoint", "forward", "dirichlet", "reference")]

EXPECTED_SPANS = {
    "ci_ex1": _COMMON + [
        ("mesh.build_disk_mesh", "heatprobe.cli"),
        ("mesh.build_disk_mesh", "heatprobe.reconstruction"),
        ("synth.save", None), ("synth.load", None),
        ("reconstruction.checkpoint", None), ("reconstruction.resume", None),
        ("cli.compute_metrics", None), ("cli.heatmap", None)],
    "window_ex1": _COMMON,
    "window_ex3": _COMMON + [("reconstruction.kernel_update", None)],
    "adapt_ex2": _COMMON + [("reconstruction.kernel_update", None)],
}
