"""Command-line harness: data generation, reconstruction, metrics, sweeps.

One process per run.  A reconstruction writes per-segment estimates as CSV,
normalized heatmaps as portable graymaps, a metrics table with one row per
segment, and a cost summary next to the values reported for the benchmark
scenarios.  Everything downstream of the (scenario, seed) pair is
deterministic, so reruns produce byte-identical metrics files.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import time
import typing
from dataclasses import dataclass, fields, replace

import numpy as np
from scipy.sparse import csgraph

from . import reconstruction, synth
from .fem import FemError
from .mesh import Mesh, build_disk_mesh, cell_adjacency, locate_cells
from .reconstruction import param
from .scenario import Scenario, ScenarioError, eval_truth, resolve_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_IO = 4

# Per-scenario defaults (tolerance and correction scheme) used when the
# command line leaves them unset, and the published average solve counts the
# summary compares against.
EXAMPLE_DEFAULTS = {
    "ex1": {"tol": 0.10, "scheme": "bfg"},
    "ex2": {"tol": 0.08, "scheme": "dfp"},
    "ex3": {"tol": 0.08, "scheme": "bfg"},
    "ex4": {"tol": 0.08, "scheme": "dfp"},
    "ex5": {"tol": 0.08, "scheme": "bfg"},
}
PUBLISHED_SOLVES = {("ex1", 0.05): 4.02, ("ex1", 0.10): 4.22, ("ex2", None): 4.02,
                    ("ex3", None): 7.46, ("ex4", None): 4.04, ("ex5", None): 4.02}

SUPPORT_THRESHOLD = 0.5     # of the segment's max |u| per component
RASTER_SIZE = 256
NEUTRAL_GRAY = 128


def _per_scenario(name: str):
    """Redeclare option ``name``, with its help and test, with a None
    default, which ``RunConfig.__post_init__`` resolves from
    EXAMPLE_DEFAULTS."""
    (spec,) = (f for f in fields(reconstruction.Options) if f.name == name)
    return param(None, spec.metadata["help"] + " (default: per scenario)",
                 spec.metadata["valid"])


@dataclass
class RunConfig(reconstruction.Options):
    """Everything one reconstruction run depends on: the algorithm's options
    plus the data and output settings.  Each field is one command-line flag.
    ``tol`` and ``scheme`` left at None take the scenario's EXAMPLE_DEFAULTS
    entry when the config is made, and a reconstruction takes the data
    settings (noise, seed, reference mesh, sample step) from its data, so
    ``config.txt`` records the values used.  ``Options.__post_init__``
    checks every field.
    """

    tol: float | None = _per_scenario("tol")
    scheme: str | None = _per_scenario("scheme")
    scenario: str = param("ex1", "ex1..ex5, null, or a scenario config file")
    noise: float = param(0.05, "multiplicative noise level of the data; "
                               "must be nonnegative", lambda v: v >= 0)
    seed: int = param(1, "noise seed; from 0 to 2**128 - 1",
                      lambda v: 0 <= v < 2**128)
    reference_triangles: int = param(synth.REFERENCE_TRIANGLES,
                                     "triangles of the reference mesh the "
                                     "data is generated on; at least 16",
                                     lambda v: v >= 16)
    sample_dt: float = param(synth.SAMPLE_DT, "time step of the reference "
                                              "data; must be positive",
                             lambda v: v > 0)
    outdir: str = param("runs", "output directory", flag="--out")

    def __post_init__(self):
        example = EXAMPLE_DEFAULTS.get(self.scenario, {})
        if self.tol is None:
            self.tol = example.get("tol", reconstruction.Options.tol)
        if self.scheme is None:
            self.scheme = example.get("scheme", reconstruction.Options.scheme)
        super().__post_init__()


@dataclass
class MetricsRow(reconstruction.SegmentReport):
    """One segment's report scored against the ground truth."""

    jaccard: list[float]        # per component
    centroid_error: list[float]  # per component; nan when truth is empty
    truth: np.ndarray           # (components, cells) support of the truth


def support_mask(u_comp: np.ndarray) -> np.ndarray:
    peak = np.abs(u_comp).max()
    if peak == 0:
        return np.zeros_like(u_comp, dtype=bool)
    return np.abs(u_comp) >= SUPPORT_THRESHOLD * peak


def area_jaccard(mesh: Mesh, a: np.ndarray, b: np.ndarray) -> float:
    union = a | b
    if not union.any():
        return 1.0
    return float(mesh.cell_areas[a & b].sum() / mesh.cell_areas[union].sum())


def connected_components(mesh: Mesh, mask: np.ndarray,
                         adjacency=None) -> list[np.ndarray]:
    """Split a cell mask into edge-connected components: sorted cell
    arrays, in the order of their smallest cell."""
    adjacency = adjacency if adjacency is not None else cell_adjacency(mesh)
    cells = np.flatnonzero(mask)
    if not cells.size:
        return []
    _, labels = csgraph.connected_components(adjacency[cells][:, cells],
                                             directed=False)
    _, first = np.unique(labels, return_index=True)
    return [cells[labels == labels[i]] for i in np.sort(first)]


def _blob_centroids(mesh: Mesh, comps) -> np.ndarray:
    out = np.empty((len(comps), 2))
    for i, cells in enumerate(comps):
        w = mesh.cell_areas[cells]
        out[i] = (mesh.centroids[cells] * w[:, None]).sum(0) / w.sum()
    return out


def centroid_errors(mesh: Mesh, recon_mask: np.ndarray,
                    truth_mask: np.ndarray, adjacency=None) -> float:
    """Worst truth-blob centroid distance to the nearest recovered blob.

    Returns nan when the truth has no support at this time, and inf when the
    truth is nonempty but nothing was recovered.
    """
    truth_comps = connected_components(mesh, truth_mask, adjacency)
    if not truth_comps:
        return float("nan")
    recon_comps = connected_components(mesh, recon_mask, adjacency)
    if not recon_comps:
        return float("inf")
    t_cent = _blob_centroids(mesh, truth_comps)
    r_cent = _blob_centroids(mesh, recon_comps)
    dists = np.linalg.norm(t_cent[:, None, :] - r_cent[None, :, :], axis=2)
    return float(dists.min(axis=1).max())


def compute_metrics(result: reconstruction.RunResult, scn: Scenario) -> list[MetricsRow]:
    """Per segment and component, the Jaccard index and the centroid error
    of the estimate's support against the truth's."""
    coarse = result.coarse
    adjacency = cell_adjacency(coarse)
    rows = []
    for seg in result.segments:
        truth = eval_truth(scn, seg.t_mid, coarse) != 0
        jac, cent = [], []
        for comp in range(len(seg.u)):
            recon = support_mask(seg.u[comp])
            jac.append(area_jaccard(coarse, recon, truth[comp]))
            cent.append(centroid_errors(coarse, recon, truth[comp],
                                        adjacency))
        rows.append(MetricsRow(**vars(seg), jaccard=jac, centroid_error=cent,
                               truth=truth))
    return rows


def write_metrics_csv(path, rows: list[MetricsRow], n_components: int) -> None:
    with open(path, "w") as fh:
        head = ["segment", "t_mid", "residual", *reconstruction.SOLVE_KINDS,
                "iterations", "warned"]
        head += [f"jaccard_{c}" for c in range(n_components)]
        head += [f"centroid_error_{c}" for c in range(n_components)]
        fh.write(",".join(head) + "\n")
        for r in rows:
            cells = [str(r.index), f"{r.t_mid:.6f}", f"{r.residual:.8e}",
                     *map(str, r.counters.as_tuple()), str(r.iterations),
                     str(int(r.warned))]
            cells += [f"{j:.6f}" for j in r.jaccard]
            cells += [f"{c:.6f}" for c in r.centroid_error]
            fh.write(",".join(cells) + "\n")


class _Raster:
    """Pixel-to-cell map for the fixed [-1, 1]^2 grid (built once per mesh).

    Each pixel center in the unit disk takes the cell that ``locate_cells``
    gives it; those between the mesh polygon and the circle take the
    nearest boundary cell."""

    def __init__(self, mesh: Mesh, size: int = RASTER_SIZE):
        self.size = size
        ticks = -1.0 + (np.arange(size) + 0.5) * (2.0 / size)
        gx, gy = np.meshgrid(ticks, ticks)
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        self.inside = np.linalg.norm(pts, axis=1) <= 1.0
        self.cells = locate_cells(mesh, pts[self.inside])

    def render(self, values: np.ndarray) -> np.ndarray:
        """Map normalized cell values in [-1, 1] to a gray image."""
        img = np.full(self.size * self.size, NEUTRAL_GRAY, dtype=np.uint8)
        gray = np.clip(np.round(127.5 + 127.5 * values[self.cells]), 0, 255)
        img[self.inside] = gray.astype(np.uint8)
        # image rows run top to bottom
        return img.reshape(self.size, self.size)[::-1]


def write_pgm(path, image: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(f"P5\n{image.shape[1]} {image.shape[0]}\n255\n".encode())
        fh.write(image.tobytes())


def render_heatmap(raster: _Raster, u_comp: np.ndarray,
                   truth_mask: np.ndarray | None = None) -> np.ndarray:
    peak = np.abs(u_comp).max()
    normalized = u_comp / peak if peak > 0 else np.zeros_like(u_comp)
    img = raster.render(normalized)
    if truth_mask is not None:
        member = np.zeros(raster.size * raster.size, dtype=bool)
        member[raster.inside] = truth_mask[raster.cells]
        grid = member.reshape(raster.size, raster.size)[::-1]
        edge = np.zeros_like(grid)
        edge[:-1] |= grid[:-1] != grid[1:]
        edge[:, :-1] |= grid[:, :-1] != grid[:, 1:]
        img = img.copy()
        img[edge] = 0
    return img


def _write_heatmaps(map_dir: str, raster: _Raster,
                    seg: reconstruction.SegmentReport,
                    truth: np.ndarray | None = None) -> None:
    """One image per component of the segment's estimate, each outlining
    that component's support in ``truth`` (components x cells) if given."""
    for comp, u_comp in enumerate(seg.u):
        img = render_heatmap(raster, u_comp, truth_mask=None if truth is None
                             else truth[comp])
        write_pgm(os.path.join(map_dir, f"seg{seg.index:04d}_c{comp}.pgm"),
                  img)


def _config_items(cfg: RunConfig) -> dict[str, str]:
    return {f.name: str(getattr(cfg, f.name)) for f in fields(cfg)}


def _write_manifest(path, cfg: RunConfig, extra: dict | None = None) -> None:
    """Write the ``key = value`` entries of ``cfg`` and ``extra`` whole
    (``reconstruction._write_whole``), so that a crash never leaves a cut
    manifest or ``config.txt`` for a resume to refuse."""
    def write(part):
        with open(part, "w") as fh:
            for key, value in {**_config_items(cfg), **(extra or {})}.items():
                fh.write(f"{key} = {value}\n")
    reconstruction._write_whole(path, write)


# parameters a resumed run may change: extending the horizon appends segments
RESUMABLE_CHANGES = ("horizon", "outdir")


# The format tag of the measurement digest, changed whenever a
# reconstruction from the same data moves in its last bits.  This one keeps
# runs begun before the step systems on the mesh's pattern were factorized
# by band Cholesky from resuming.
DIGEST_TAG = b"band Cholesky steps\n"


def _measurement_digest(mset: synth.MeasurementSet, end: float) -> str:
    """Digest of DIGEST_TAG and the samples on [0, end], times bit for bit:
    sample times are lattice nodes, so data made for a longer horizon has
    the same ones."""
    kept = mset.sample_times <= end + 1e-9
    return hashlib.sha256(DIGEST_TAG + mset.sample_times[kept].tobytes()
                          + mset.noisy[kept].tobytes()).hexdigest()


def _check_resume_config(path: str, cfg: RunConfig, scn: Scenario,
                         mset: synth.MeasurementSet) -> None:
    """Refuse to resume a run made from other samples on its horizon than
    ``mset``'s, with other parameters than ``cfg`` (but RESUMABLE_CHANGES)
    or to a shorter horizon: a resume extends a run, never shortens it."""
    stored = _read_config(path)
    horizon = stored.get("horizon", "None")     # "None": the scenario's
    try:
        end = scn.horizon if horizon == "None" else float(horizon)
    except ValueError as exc:
        raise OSError(f"cannot resume: {path} has a bad horizon") from exc
    if (scn.horizon if cfg.horizon is None else cfg.horizon) < end - 1e-9:
        raise OSError(f"cannot resume: {path} has horizon = {horizon}, this "
                      f"run {cfg.horizon}; a resume cannot shorten a run")
    digest = _measurement_digest(mset, end)
    for name, value in {"measurement": digest, **_config_items(cfg)}.items():
        if name not in RESUMABLE_CHANGES and stored.get(name) != value:
            raise OSError(f"cannot resume: {path} has {name} = "
                          f"{stored.get(name)}, this run {value}")


def _measurement_base(cfg: RunConfig, directory: str) -> str:
    return os.path.join(directory,
                        f"{os.path.basename(cfg.scenario)}_eps{cfg.noise:g}"
                        f"_seed{cfg.seed}")


def cmd_generate(cfg: RunConfig) -> str:
    """Generate and persist one measurement set; returns the base path."""
    scn = resolve_scenario(cfg.scenario)
    mesh = build_disk_mesh(cfg.fine_triangles)
    mset = synth.build_measurement_set(
        scn, mesh, cfg.noise, cfg.seed,
        reference_triangles=cfg.reference_triangles,
        sample_dt=cfg.sample_dt, horizon=cfg.horizon)
    os.makedirs(cfg.outdir, exist_ok=True)
    base = _measurement_base(cfg, cfg.outdir)
    synth.save_measurement_set(mset, base)
    _write_manifest(base + "_manifest.txt", cfg, {
        "samples": len(mset.sample_times),
        "boundary_vertices": mset.clean.shape[1]})
    return base


def cmd_reconstruct(cfg: RunConfig, measurement_base: str | None = None,
                    resume: bool = False,
                    mset: synth.MeasurementSet | None = None) -> str:
    """Run the reconstruction and write the full run directory.

    The data are read from ``measurement_base``, taken as ``mset``, or
    generated from ``cfg``; their noise, seed, reference mesh and sample
    step replace ``cfg``'s, and stored data whose setting its field
    refuses are corrupt (OSError).  A run that ``reconstruction.check_run``
    refuses creates nothing, and data are generated only for settings that
    ``reconstruction.check_settings`` accepts and for meshes that a
    transfer joins; else ``config.txt`` is written before the first
    segment.  With ``resume=True`` an interrupted run restarts after its
    last fully checkpointed segment instead of from scratch; its
    ``config.txt`` must match ``cfg`` and the measurement, see
    ``_check_resume_config``.
    """
    scn = resolve_scenario(cfg.scenario)
    fine = build_disk_mesh(cfg.fine_triangles)
    coarse, transfer = reconstruction.coarse_mesh(cfg, fine)
    if measurement_base is not None:
        # the inverse-crime guard needs the mesh the data was made on
        reference = _read_config_int(measurement_base + "_manifest.txt",
                                     "reference_triangles")
        mset = synth.load_measurement_set(measurement_base, reference)
    elif mset is None:
        # refuse bad settings before paying for the data
        reconstruction.check_settings(scn, cfg, fine, cfg.sample_dt,
                                      cfg.reference_triangles)
        mset = synth.build_measurement_set(
            scn, fine, cfg.noise, cfg.seed,
            reference_triangles=cfg.reference_triangles,
            sample_dt=cfg.sample_dt, horizon=cfg.horizon)
    # the run is named and recorded by the data it inverts
    try:
        cfg = replace(cfg, noise=mset.noise_level, seed=mset.seed,
                      reference_triangles=mset.reference_triangles,
                      sample_dt=mset.sample_dt)
    except ScenarioError as exc:
        if measurement_base is None:
            raise
        raise OSError(f"corrupt measurement {measurement_base}: {exc}") \
            from exc
    reconstruction.check_run(scn, mset, cfg, fine)

    run_dir = _measurement_base(cfg, cfg.outdir) + f"_{cfg.scheme}"
    seg_dir = os.path.join(run_dir, "segments")
    map_dir = os.path.join(run_dir, "heatmaps")
    config = os.path.join(run_dir, "config.txt")
    if resume and os.path.exists(os.path.join(seg_dir, "segments.csv")):
        _check_resume_config(config, cfg, scn, mset)

    os.makedirs(seg_dir, exist_ok=True)
    os.makedirs(map_dir, exist_ok=True)
    _write_manifest(config, cfg, {"measurement": _measurement_digest(
        mset, scn.horizon if cfg.horizon is None else cfg.horizon)})

    started = time.perf_counter()
    result = reconstruction.run(scn, mset, cfg, fine, coarse, transfer,
                                checkpoint_dir=seg_dir, resume=resume)
    elapsed = time.perf_counter() - started

    raster = _Raster(result.coarse)
    for seg in result.segments:
        _write_heatmaps(map_dir, raster, seg)

    rows = compute_metrics(result, scn)
    write_metrics_csv(os.path.join(run_dir, "metrics.csv"), rows,
                      scn.num_components)
    _write_summary(os.path.join(run_dir, "summary.txt"), cfg, result, rows,
                   elapsed)
    return run_dir


def _write_summary(path, cfg: RunConfig, result: reconstruction.RunResult,
                   rows: list[MetricsRow], elapsed: float) -> None:
    means = result.mean_counters()
    published = PUBLISHED_SOLVES.get((cfg.scenario, cfg.noise),
                                     PUBLISHED_SOLVES.get((cfg.scenario, None)))
    with open(path, "w") as fh:
        fh.write(f"scenario = {cfg.scenario}\n")
        fh.write(f"segments = {len(result.segments)}\n")
        fh.write("\naverage PDE solves per segment\n")
        fh.write(f"  forward background solves   {means['background']:.2f}\n")
        fh.write(f"  backward adjoint solves     {means['adjoint']:.2f}\n")
        fh.write(f"  forward inhomogeneous solves {means['forward']:.2f}\n")
        fh.write(f"  dirichlet verification solves {means['dirichlet']:.2f}\n")
        fh.write(f"  total solves                {means['total']:.2f}\n")
        if published is not None:
            fh.write(f"  reported benchmark total    {published:.2f}\n")
        warned = sum(r.warned for r in rows)
        fh.write("\nsegments stopped by a warning (iteration cap or no "
                 f"kernel progress) = {warned}\n")
        med_res = float(np.median([r.residual for r in rows]))
        fh.write(f"median boundary residual = {med_res:.4f}\n")
        for comp in range(len(rows[0].jaccard) if rows else 0):
            med_j = float(np.median([r.jaccard[comp] for r in rows]))
            cents = [r.centroid_error[comp] for r in rows
                     if np.isfinite(r.centroid_error[comp])]
            med_c = float(np.median(cents)) if cents else float("nan")
            fh.write(f"component {comp}: median jaccard = {med_j:.3f}, "
                     f"median centroid error = {med_c:.3f}\n")
        fh.write(f"\nwall time seconds = {elapsed:.1f}\n")


def _read_config(path: str) -> dict[str, str]:
    """The ``key = value`` entries of a manifest or config file."""
    with open(path) as fh:
        return {name.strip(): value.strip() for name, _, value in
                (line.partition("=") for line in fh)}


def _read_config_int(path: str, key: str) -> int:
    """The integer entry ``key`` of a manifest or config file."""
    value = _read_config(path).get(key)
    try:
        return int(value)
    except (TypeError, ValueError):
        raise OSError(f"{path} has no integer {key} entry") from None


def cmd_metrics(run_dir: str) -> str:
    """Score the finished segments of a run directory (those that
    ``--resume`` restores) against the exact truth of the scenario its
    ``config.txt`` records."""
    config = os.path.join(run_dir, "config.txt")
    name = _read_config(config).get("scenario")
    if not name:
        raise OSError(f"{config} has no scenario entry")
    scn = resolve_scenario(name)
    seg_dir = os.path.join(run_dir, "segments")
    coarse = build_disk_mesh(_read_config_int(config, "coarse_triangles"))
    reports, _ = reconstruction.read_reports(
        seg_dir, (scn.num_components, coarse.num_cells))
    if not reports:
        raise OSError(f"{seg_dir} holds no finished segment")
    rows = compute_metrics(reconstruction.RunResult(reports, coarse), scn)
    out_path = os.path.join(run_dir, "metrics_truth.csv")
    write_metrics_csv(out_path, rows, scn.num_components)
    raster = _Raster(coarse)
    map_dir = os.path.join(run_dir, "heatmaps_truth")
    os.makedirs(map_dir, exist_ok=True)
    for row in rows:
        _write_heatmaps(map_dir, raster, row, row.truth)
    for comp in range(scn.num_components):
        print(f"component {comp}: median jaccard "
              f"{np.median([r.jaccard[comp] for r in rows]):.3f} "
              f"over {len(rows)} segments")
    return out_path


def cmd_sweep(cfg: RunConfig, noises: list[float], dampings: list[float],
              schemes: list[str]) -> list[str]:
    """Grid of reconstructions over noise level, damping and scheme.

    The config of every run is made first, so a bad entry stops the sweep
    before any work.  The clean reference depends on none of them, so it
    is generated once, for settings that ``reconstruction.check_settings``
    accepts and meshes that a transfer joins, and perturbed per noise
    level.
    """
    def combo(eps, lam, scheme):
        sub = f"sweep_eps{eps:g}_lam{lam:g}_{scheme}"
        return replace(cfg, noise=eps, damping=lam, scheme=scheme,
                       outdir=os.path.join(cfg.outdir, sub))

    grid = [(eps, [combo(eps, lam, scheme) for lam in dampings
                   for scheme in schemes]) for eps in noises]
    scn = resolve_scenario(cfg.scenario)
    fine = build_disk_mesh(cfg.fine_triangles)
    reconstruction.check_settings(scn, cfg, fine, cfg.sample_dt,
                                  cfg.reference_triangles)
    reconstruction.coarse_mesh(cfg, fine)   # refused if no transfer joins
    clean = synth.generate_reference(scn, fine, cfg.reference_triangles,
                                     cfg.sample_dt, cfg.horizon)
    out = []
    for eps, combos in grid:
        mset = synth.measure(clean, eps, cfg.seed, cfg.reference_triangles)
        out += [cmd_reconstruct(combo, mset=mset) for combo in combos]
    return out


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    """One flag per RunConfig field; the dataclass validates the values."""
    hints = typing.get_type_hints(RunConfig)
    for f in fields(RunConfig):
        kind = hints[f.name]
        kind = next(t for t in typing.get_args(kind) or (kind,)
                    if t is not type(None))
        flag = f.metadata.get("flag", "--" + f.name.replace("_", "-"))
        p.add_argument(flag, dest=f.name, type=kind, default=f.default,
                       help=f.metadata["help"])


def _config_from_args(args) -> RunConfig:
    names = {f.name for f in fields(RunConfig)}
    return RunConfig(**{k: v for k, v in vars(args).items() if k in names})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatprobe",
        description="Track moving inhomogeneities in a 2D parabolic problem "
                    "from one pair of lateral boundary measurements.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="synthesize measurement files")
    _add_run_flags(p_gen)

    p_rec = sub.add_parser("reconstruct", help="run the full reconstruction")
    _add_run_flags(p_rec)
    p_rec.add_argument("--measurement", default=None,
                       help="base path of stored measurement files "
                            "(default: generate in memory)")
    p_rec.add_argument("--resume", action="store_true",
                       help="continue an interrupted run from its last "
                            "checkpointed segment")

    p_met = sub.add_parser("metrics", help="score a run directory")
    p_met.add_argument("--run", required=True)

    p_sweep = sub.add_parser("sweep", help="grid over noise/damping/scheme")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--noises", default=None,
                         help="comma-separated noise levels")
    p_sweep.add_argument("--dampings", default=None)
    p_sweep.add_argument("--schemes", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "generate":
            base = cmd_generate(_config_from_args(args))
            print(f"wrote measurement files at {base}_*")
        elif args.command == "reconstruct":
            run_dir = cmd_reconstruct(_config_from_args(args),
                                      measurement_base=args.measurement,
                                      resume=args.resume)
            print(f"run directory: {run_dir}")
        elif args.command == "metrics":
            out = cmd_metrics(args.run)
            print(f"metrics written to {out}")
        elif args.command == "sweep":
            cfg = _config_from_args(args)
            noises = [float(x) for x in args.noises.split(",")] \
                if args.noises else [cfg.noise]
            dampings = [float(x) for x in args.dampings.split(",")] \
                if args.dampings else [cfg.damping]
            schemes = args.schemes.split(",") if args.schemes \
                else [cfg.scheme]
            for run_dir in cmd_sweep(cfg, noises, dampings, schemes):
                print(f"run directory: {run_dir}")
    except (ScenarioError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FemError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
