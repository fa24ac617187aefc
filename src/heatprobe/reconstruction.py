"""Segment-by-segment reconstruction of moving inhomogeneities.

Each time segment runs one cycle: background solve, scattering trace, one
backward dual solve, then an inner loop that maps the local dual field
through the resolver kernel, projects onto the admissible box, and checks
the boundary residual.  When the residual is too large the kernel gains a
symmetric quasi-Newton correction (DFP or BFGS form) built from an auxiliary
scattering pair, so the kernel adapts to the data on the fly.  A Dirichlet
re-solve of the segment provides the next segment's initial value, and the
low-rank terms are damped so stale corrections fade.
"""

from __future__ import annotations

import csv
import functools
import logging
import os
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from . import fem
from .fem import SegmentGrid, Trajectory
from .mesh import (Mesh, TransferOps, boundary_distance, build_disk_mesh,
                   build_transfer, prolong, restrict)
from .scenario import Scenario, ScenarioError, samplers
from .synth import MeasurementSet, read_lines, sample_measurement

logger = logging.getLogger(__name__)

CURVATURE_GUARD = 1e-12
SECANT_TOL = 1e-8
DAMP_DROP = 1e-8
INSTALLED_TERMS = {"dfp": 2, "bfg": 3}     # terms one update installs


def param(default, help: str, valid=None, **metadata):
    """A parameter field: its default, the one help string of its flag,
    which states the values it may take, and their test ``valid``."""
    return field(default=default,
                 metadata={"help": help, "valid": valid, **metadata})


@dataclass
class Options:
    """Algorithm parameters (defaults follow the benchmark setup).

    The only declaration of each parameter: the CLI's flags are derived from
    these fields (see ``cli.RunConfig``).  A float must be finite, and a
    field with a test ``valid`` must pass it.
    """

    segment_length: float = param(0.1, "length of one reconstruction "
                                       "segment; must be positive",
                                  lambda v: v > 0)
    dt: float = param(0.0125, "inversion time step; must be positive and "
                              "divide the segment length", lambda v: v > 0)
    fine_triangles: int = param(7002, "triangles of the fine (state) mesh; "
                                      "at least 16", lambda v: v >= 16)
    coarse_triangles: int = param(1120, "triangles of the coarse "
                                        "(inhomogeneity) mesh; at least 16",
                                  lambda v: v >= 16)
    nu: float = param(1.4, "exponent of the kernel's boundary-distance "
                           "weight; any finite number")
    eps_cut: float = param(0.05, "boundary distance below which the kernel "
                                 "weight is zero; any finite number")
    damping: float = param(0.6, "per-segment fading of the kernel's "
                                "low-rank terms; must lie in (0, 1)",
                           lambda v: 0 < v < 1)
    tol: float = param(0.08, "boundary residual that ends the inner loop; "
                             "must be positive", lambda v: v > 0)
    scheme: str = param("dfp", "kernel correction scheme; dfp or bfg",
                        lambda v: v in INSTALLED_TERMS)
    rank_cap: int = param(24, "most low-rank kernel terms kept; at least "
                              "the 2 (dfp) or 3 (bfg) terms one update "
                              "installs")
    max_inner: int = param(8, "inner-iteration cap per segment; at least 1",
                           lambda v: v >= 1)
    eta_hat_variant: str = param("zeta", "preimage at active bounds; zeta or "
                                         "r_zeta",
                                 lambda v: v in ("zeta", "r_zeta"))
    horizon: float | None = param(None, "end time of the reconstruction; "
                                        "must be positive (default: the "
                                        "scenario's horizon)",
                                  lambda v: v is None or v > 0)

    def __post_init__(self):
        for f in fields(self):
            value, valid = getattr(self, f.name), f.metadata["valid"]
            if isinstance(value, float) and not np.isfinite(value) \
                    or valid is not None and not valid(value):
                raise ScenarioError(f"{f.name} = {value!r} refused: "
                                    f"{f.metadata['help']}")
        if self.rank_cap < INSTALLED_TERMS[self.scheme]:
            raise ScenarioError(
                f"rank cap {self.rank_cap} is below the "
                f"{INSTALLED_TERMS[self.scheme]} terms one {self.scheme} "
                f"update installs")
        steps = round(self.segment_length / self.dt)
        if abs(steps * self.dt - self.segment_length) > 1e-12:
            raise ScenarioError("segment length is not divisible by dt")


@dataclass
class ResolverKernel:
    """Diagonal boundary-distance part plus a capped stack of rank-1 terms.

    Term ``r`` adds ``weight[r] * damp[r] * <n[r], zeta> * m[r]``.  The
    stacks hold the terms oldest first (the compact form of Byrd, Nocedal &
    Schnabel 1994); empty ones have shape ``(0, L, Tc)``, as checkpointed.
    """

    diag: np.ndarray        # (L, Tc)
    m: np.ndarray           # (rank, nt, L, Tc)
    n: np.ndarray           # (rank, nt, L, Tc)
    weight: np.ndarray      # (rank,)
    damp: np.ndarray        # (rank,) fading since each term's install
    rank_cap: int = Options.rank_cap

    @property
    def rank(self) -> int:
        return len(self.weight)

    def keep(self, index) -> None:
        """Keep the terms a slice or boolean mask selects, in their order."""
        self.weight, self.damp = self.weight[index], self.damp[index]
        if self.rank:
            self.m, self.n = self.m[index], self.n[index]
        else:
            self.m = self.n = np.zeros((0,) + self.diag.shape)


def make_kernel(coarse: Mesh, n_components: int, nu: float = Options.nu,
                eps_cut: float = Options.eps_cut,
                rank_cap: int = Options.rank_cap) -> ResolverKernel:
    """Initial kernel: distance-to-boundary weight, cut off near the boundary."""
    d = boundary_distance(coarse)
    diag = np.tile(np.where(d >= eps_cut, d**nu, 0.0), (n_components, 1))
    empty = np.zeros((0,) + diag.shape)
    return ResolverKernel(diag, empty, empty, np.zeros(0), np.zeros(0),
                          rank_cap)


def _quadrature(coarse: Mesh, grid: SegmentGrid) -> np.ndarray:
    """Trapezoid weight times cell area, (time nodes, 1, coarse cells): the
    weights of the space-time inner product over one segment."""
    return fem.trapezoid_weights(grid)[:, None, None] * coarse.cell_areas


def segment_inner(coarse: Mesh, grid: SegmentGrid, a: np.ndarray,
                  b: np.ndarray) -> float:
    """Space-time L2 inner product of coarse vector fields over one segment.

    numpy's pairwise sum adds in one fixed order; BLAS ``ddot`` (``np.vdot``)
    splits long vectors over its threads, so its rounding would depend on
    the thread count."""
    return float(np.sum(a * (_quadrature(coarse, grid) * b)))


def segment_norm(coarse: Mesh, grid: SegmentGrid, a: np.ndarray) -> float:
    return float(np.sqrt(max(segment_inner(coarse, grid, a, a), 0.0)))


def local_dual(z: Trajectory, y: Trajectory, ops, fine: Mesh,
               transfer: TransferOps) -> np.ndarray:
    """Dual field pairing the backward solution with the forward iterate.

    Per component: grad(z).grad(y) for conductivity, z*y for potential and
    z*|y|^(p-2)*y for the power potential, evaluated cellwise on the fine
    mesh and averaged onto the coarse mesh.  On the fine mesh that is
    sum_d (G_d z)(G_d y) with the cell-gradient operator G, and A(z y) or
    A(z |y|^(p-2) y) with the corner-average operator A: the products are
    vertexwise.
    """
    if z.values.shape != y.values.shape:
        raise ValueError("dual factors live on different grids")
    zt, yt = z.values.T, y.values.T             # (V, nt)
    components = []
    for op in ops:
        if op.kind == fem.CONDUCTIVITY:
            grad = fem.cell_gradient(fine)
            prod = (grad @ zt) * (grad @ yt)    # (2 Tf, nt)
            comp = prod[:fine.num_cells] + prod[fine.num_cells:]
        elif op.kind == fem.POTENTIAL:
            comp = fem.corner_average(fine) @ (zt * yt)
        else:
            comp = fem.corner_average(fine) @ (
                zt * np.abs(yt) ** (op.power - 2.0) * yt)
        components.append(comp.T)
    fine_field = np.stack(components, axis=1)   # (nt, L, Tf)
    return restrict(fine_field, transfer)


def apply_kernel(kernel: ResolverKernel, zeta: np.ndarray, coarse: Mesh,
                 grid: SegmentGrid) -> np.ndarray:
    """Index field: diagonal product plus the separable low-rank sum."""
    eta = kernel.diag[None, :, :] * zeta
    if kernel.rank:
        # each coefficient rounds as segment_inner(n, zeta) does
        weighted = _quadrature(coarse, grid) * zeta
        inner = np.array([np.sum(n * weighted) for n in kernel.n])
        # one term at a time, oldest first, into a new C-ordered array: a
        # batched or in-place sum rounds the estimate's time average apart
        for coef, m in zip(kernel.weight * kernel.damp * inner, kernel.m):
            eta = eta + coef * m
    return eta


def project(eta: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Componentwise clamp onto the admissible box, into a C-ordered array
    whatever the memory order of ``eta``."""
    out = np.empty(eta.shape)
    for comp, (lo, hi) in enumerate(bounds):
        out[:, comp] = np.clip(eta[:, comp], lo, hi)
    return out


def eta_hat(zeta_hat: np.ndarray, r_zeta_hat: np.ndarray, u: np.ndarray,
            bounds: np.ndarray, variant: str = "zeta") -> np.ndarray:
    """Constrained preimage of ``u`` under the projection.

    Where ``u`` is strictly inside the box it is its own preimage; where a
    bound is active the preimage is pushed past the bound, using the dual
    field itself (default) or the kernel image of it (``r_zeta`` variant).
    Projecting the result returns ``u`` exactly.
    """
    base = zeta_hat if variant == "zeta" else r_zeta_hat
    out = u.copy()
    for comp, (lo, hi) in enumerate(bounds):
        uc = u[:, comp]
        at_lo = uc == lo
        at_hi = uc == hi
        out[:, comp][at_lo] = np.minimum(base[:, comp][at_lo], lo)
        out[:, comp][at_hi] = np.maximum(base[:, comp][at_hi], hi)
    return out


def prune_for(kernel: ResolverKernel, incoming: int) -> None:
    """Drop oldest terms until ``incoming`` more fit under the rank cap."""
    kernel.keep(slice(max(kernel.rank + incoming - kernel.rank_cap, 0), None))


def _correct(kernel: ResolverKernel, scheme: str, divisors: tuple[str, ...],
             table, eta_hat_field: np.ndarray, zeta_hat: np.ndarray,
             coarse: Mesh, grid: SegmentGrid,
             r_zeta_hat: np.ndarray | None) -> bool:
    """Install the (m, n, weight) rows of ``table(e, rz, d1, d2)``, with
    e = eta_hat, rz = R zeta_hat, d1 = <zeta_hat, e>, d2 = <zeta_hat, rz>,
    if each pairing in ``divisors`` is well-conditioned.  Keep them only if
    the secant relation then holds: near-degenerate pairings amplify
    round-off, and such terms would poison later index fields."""
    prune_for(kernel, INSTALLED_TERMS[scheme])
    rz = apply_kernel(kernel, zeta_hat, coarse, grid) \
        if r_zeta_hat is None else r_zeta_hat
    d1 = segment_inner(coarse, grid, zeta_hat, eta_hat_field)
    d2 = segment_inner(coarse, grid, zeta_hat, rz)
    nz = segment_norm(coarse, grid, zeta_hat)
    for d, b, name in ((d1, eta_hat_field, "eta"), (d2, rz, "R zeta")):
        if name in divisors and abs(d) < CURVATURE_GUARD * max(
                nz * segment_norm(coarse, grid, b), 1e-300):
            logger.warning("curvature breakdown in %s (zeta, %s) pairing; "
                           "update skipped", scheme.upper(), name)
            return False
    m, n, weight = map(np.array, zip(*table(eta_hat_field, rz, d1, d2)))
    if kernel.rank:
        m, n = np.concatenate((kernel.m, m)), np.concatenate((kernel.n, n))
    kernel.m, kernel.n = m, n
    kernel.weight = np.append(kernel.weight, weight)
    kernel.damp = np.append(kernel.damp, np.ones(len(weight)))

    err = apply_kernel(kernel, zeta_hat, coarse, grid) - eta_hat_field
    rel = segment_norm(coarse, grid, err) \
        / max(segment_norm(coarse, grid, eta_hat_field), 1e-300)
    if rel > SECANT_TOL:
        kernel.keep(slice(None, -len(weight)))
        logger.warning("%s update rolled back: secant residual %.2e exceeds "
                       "%.0e (ill-conditioned pairing)", scheme.upper(), rel,
                       SECANT_TOL)
        return False
    return True


def update_dfp(kernel: ResolverKernel, eta_hat_field: np.ndarray,
               zeta_hat: np.ndarray, coarse: Mesh, grid: SegmentGrid,
               r_zeta_hat: np.ndarray | None = None) -> bool:
    """Symmetric rank-2 correction enforcing kernel(zeta_hat) = eta_hat."""
    return _correct(kernel, "dfp", ("eta", "R zeta"),
                    lambda e, rz, d1, d2: ((e, e, 1.0 / d1),
                                           (rz, rz, -1.0 / d2)),
                    eta_hat_field, zeta_hat, coarse, grid, r_zeta_hat)


def update_bfg(kernel: ResolverKernel, eta_hat_field: np.ndarray,
               zeta_hat: np.ndarray, coarse: Mesh, grid: SegmentGrid,
               r_zeta_hat: np.ndarray | None = None) -> bool:
    """BFGS-form correction (scaled outer product plus symmetric cross terms)."""
    return _correct(kernel, "bfg", ("eta",),
                    lambda e, rz, d1, d2: ((e, e, (1.0 + d2 / d1) / d1),
                                           (e, rz, -1.0 / d1),
                                           (rz, e, -1.0 / d1)),
                    eta_hat_field, zeta_hat, coarse, grid, r_zeta_hat)


def rescale_diag(kernel: ResolverKernel, u_first: np.ndarray,
                 zeta_hat_first: np.ndarray, coarse: Mesh,
                 grid: SegmentGrid) -> bool:
    """Match the diagonal part's scale to the first estimate of the segment.

    Norms are cell-area-weighted L1 sums at the segment midpoint time node.
    The factor is computed per component: with mixed inhomogeneity types the
    dual fields carry very different physical scales, and one shared factor
    would calibrate only the dominant component.
    """
    mid = grid.steps // 2
    changed = False
    for comp in range(kernel.diag.shape[0]):
        num = float(np.sum(np.abs(u_first[mid, comp]) * coarse.cell_areas))
        den = float(np.sum(np.abs(kernel.diag[comp] * zeta_hat_first[mid, comp])
                           * coarse.cell_areas))
        if den <= 1e-14:
            logger.warning("diagonal rescale skipped for component %d: "
                           "degenerate denominator", comp)
            continue
        if num == 0.0:
            logger.warning("diagonal rescale zeroed component %d (first "
                           "estimate vanished at the segment midpoint)", comp)
        kernel.diag[comp] = kernel.diag[comp] * (num / den)
        changed = True
    return changed


def damp_kernel(kernel: ResolverKernel, damping: float) -> None:
    """Geometrically fade the low-rank terms; drop terms that fell below
    a fixed fraction of their birth magnitude."""
    if not 0.0 < damping < 1.0:
        raise ValueError("damping factor must lie in (0, 1)")
    kernel.damp = kernel.damp * damping
    # every term fades alike and new ones start at 1, so the dropped terms
    # are the oldest and the kept ones a suffix, taken as a view
    kernel.keep(slice(np.count_nonzero(kernel.damp < DAMP_DROP), None))


def time_average(field_st: np.ndarray, grid: SegmentGrid) -> np.ndarray:
    """Trapezoid-weighted time average of a space-time field.

    The nodes are summed one at a time in time order, so the rounding does
    not depend on the memory order of ``field_st``.
    """
    w = fem.trapezoid_weights(grid)
    total = w[0] * field_st[0]
    for k in range(1, len(w)):
        total = total + w[k] * field_st[k]
    return total / (grid.steps * grid.dt)


@dataclass
class Counters:
    """Linear-system sweep counts, one per solver category."""

    background: int = 0
    adjoint: int = 0
    forward: int = 0
    dirichlet: int = 0

    @property
    def total(self) -> int:
        return sum(self.as_tuple())

    def as_tuple(self) -> tuple[int, int, int, int]:
        return tuple(getattr(self, k) for k in SOLVE_KINDS)


# the solver categories, in the order of every file that lists them
SOLVE_KINDS = tuple(f.name for f in fields(Counters))


@dataclass
class SegmentReport:
    index: int
    t_mid: float
    u: np.ndarray               # (L, Tc) time-averaged final estimate
    residual: float
    counters: Counters
    iterations: int
    warned: bool
    kernel_rank: int


@dataclass
class RunResult:
    segments: list[SegmentReport]
    coarse: Mesh

    def mean_counters(self) -> dict[str, float]:
        n = max(len(self.segments), 1)
        out = {k: sum(getattr(s.counters, k) for s in self.segments) / n
               for k in SOLVE_KINDS}
        out["total"] = sum(out.values())
        return out


def run_segment(index: int, grid: SegmentGrid, init: np.ndarray,
                kernel: ResolverKernel, mset: MeasurementSet, scn: Scenario,
                opts: Options, fine: Mesh, coarse: Mesh,
                transfer: TransferOps, f_fn, g_fn):
    """One reconstruction cycle; returns (report, terminal nodal field)."""
    counters = Counters()
    ops, bounds = scn.ops, scn.bounds
    # the four marches of the segment read one set of source loads
    load = functools.cache(fem.source_load(fine, grid, f_fn, g_fn))
    y_bg = fem.forward_solve(fine, grid, None, ops, load, init)
    counters.background += 1
    bg_trace = fem.boundary_trace(y_bg, fine).values
    y_d = sample_measurement(mset, grid.times())
    scatter = bg_trace - y_d

    z = fem.backward_adjoint_solve(fine, grid, scatter)
    counters.adjoint += 1

    y_cur = y_bg
    best = None
    prev_u = None
    warned = False
    iterations = 0
    for k in range(1, opts.max_inner + 1):
        iterations = k
        zeta = local_dual(z, y_cur, ops, fine, transfer)
        eta = apply_kernel(kernel, zeta, coarse, grid)
        u_st = project(eta, bounds)
        u_avg = time_average(u_st, grid)
        y_cur = fem.forward_solve(fine, grid, prolong(u_avg, transfer), ops,
                                  load, init)
        counters.forward += 1
        residual = fem.boundary_rel_error(
            fine, grid, fem.boundary_trace(y_cur, fine).values, y_d)
        if best is None or residual < best[0]:
            best = (residual, y_cur)
        if residual <= opts.tol:
            break
        if k == opts.max_inner:
            warned = True
            logger.warning("segment %d: inner-iteration cap reached "
                           "(best residual %.4f)", index, best[0])
            break

        aux_scatter = bg_trace - fem.boundary_trace(y_cur, fine).values
        z_hat = fem.backward_adjoint_solve(fine, grid, aux_scatter)
        counters.adjoint += 1
        zeta_hat = local_dual(z_hat, y_cur, ops, fine, transfer)
        rescaled = False
        if k == 1:
            # calibrate the diagonal before installing the correction, so the
            # new terms' secant relation holds for the kernel as stored
            rescaled = rescale_diag(kernel, u_st, zeta_hat, coarse, grid)
        prune_for(kernel, INSTALLED_TERMS[opts.scheme])
        r_zeta_hat = apply_kernel(kernel, zeta_hat, coarse, grid)
        eh = eta_hat(zeta_hat, r_zeta_hat, u_st, bounds, opts.eta_hat_variant)
        update = update_dfp if opts.scheme == "dfp" else update_bfg
        accepted = update(kernel, eh, zeta_hat, coarse, grid, r_zeta_hat)
        if not (accepted or rescaled) and prev_u is not None \
                and np.array_equal(u_st, prev_u):
            warned = True
            logger.warning("segment %d: no kernel progress possible; "
                           "stopping inner loop", index)
            break
        prev_u = u_st

    residual, y_fin = best
    zeta_fin = local_dual(z, y_fin, ops, fine, transfer)
    u_fin = time_average(project(
        apply_kernel(kernel, zeta_fin, coarse, grid), bounds), grid)

    y_dir = fem.dirichlet_solve(fine, grid, prolong(u_fin, transfer), ops,
                                load, y_d, init)
    counters.dirichlet += 1
    damp_kernel(kernel, opts.damping)

    report = SegmentReport(index=index,
                           t_mid=0.5 * (grid.t_start + grid.t_end),
                           u=u_fin, residual=residual, counters=counters,
                           iterations=iterations, warned=warned,
                           kernel_rank=kernel.rank)
    return report, y_dir.values[-1].copy()


def check_settings(scn: Scenario, opts: Options, fine: Mesh,
                   sample_dt: float, reference_triangles: int) -> int:
    """Refuse, with ValueError, settings that no data can mend: a segment
    length that does not partition the horizon, or an inversion on the
    data's time step or mesh (inverse-crime guards).  Returns the number
    of segments."""
    horizon = scn.horizon if opts.horizon is None else opts.horizon
    if abs(opts.dt - sample_dt) < 1e-12:
        raise ValueError("inversion time step equals the reference sampling "
                         "step (inverse-crime guard)")
    n_segments = round(horizon / opts.segment_length)
    if abs(n_segments * opts.segment_length - horizon) > 1e-9:
        raise ValueError("segment length does not partition the horizon")
    if fine.num_cells == reference_triangles:
        raise ValueError("inversion mesh equals the reference mesh "
                         "(inverse-crime guard)")
    return n_segments


def check_run(scn: Scenario, mset: MeasurementSet, opts: Options,
              fine: Mesh) -> int:
    """Refuse, with ValueError, a run that cannot start: data that do not
    cover the horizon or do not fit the fine mesh's boundary, or settings
    that ``check_settings`` refuses for the data's own sample step and
    reference mesh.  Returns the number of segments."""
    horizon = scn.horizon if opts.horizon is None else opts.horizon
    if mset.horizon < horizon - 1e-9:
        raise ValueError(f"measurement horizon {mset.horizon} does not cover "
                         f"[0, {horizon}]")
    n_segments = check_settings(scn, opts, fine, mset.sample_dt,
                                mset.reference_triangles)
    if mset.noisy.shape[1] != fine.num_boundary_vertices:
        raise ValueError(f"measurement has {mset.noisy.shape[1]} boundary "
                         f"values per sample but the inversion mesh has "
                         f"{fine.num_boundary_vertices} boundary vertices")
    return n_segments


def coarse_mesh(opts: Options, fine: Mesh) -> tuple[Mesh, TransferOps]:
    """The coarse mesh of ``opts`` and the transfer onto it from ``fine``;
    MeshError (a ValueError) if a coarse cell holds no fine centroid."""
    coarse = build_disk_mesh(opts.coarse_triangles)
    return coarse, build_transfer(fine, coarse)


def run(scn: Scenario, mset: MeasurementSet, opts: Options | None = None,
        fine: Mesh | None = None, coarse: Mesh | None = None,
        transfer: TransferOps | None = None,
        checkpoint_dir: str | None = None, resume: bool = False) -> RunResult:
    """Reconstruct over the full horizon, threading terminal fields.

    With ``checkpoint_dir`` set, every finished segment is persisted (final
    estimate, terminal field, kernel arrays) and ``resume=True`` continues an
    interrupted run from its last complete segment.
    """
    opts = opts or Options()
    fine = fine or build_disk_mesh(opts.fine_triangles)
    n_segments = check_run(scn, mset, opts, fine)
    steps = round(opts.segment_length / opts.dt)
    if coarse is None:
        coarse, transfer = coarse_mesh(opts, fine)
    transfer = transfer or build_transfer(fine, coarse)
    f_fn, g_fn, h = samplers(fine)

    kernel = make_kernel(coarse, scn.num_components, opts.nu, opts.eps_cut,
                         opts.rank_cap)
    init = h
    reports: list[SegmentReport] = []
    start = 0
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)
        if resume:
            start, init, kernel, reports = _load_checkpoint(
                checkpoint_dir, scn, coarse, steps, init, kernel)

    for n in range(start, n_segments):
        # every segment on the one lattice of step opts.dt
        grid = SegmentGrid(opts.dt, n * steps, steps)
        report, init = run_segment(n, grid, init, kernel, mset, scn, opts,
                                   fine, coarse, transfer, f_fn, g_fn)
        reports.append(report)
        if checkpoint_dir:
            _save_checkpoint(checkpoint_dir, report, init, kernel)
    return RunResult(reports, coarse)


def _write_whole(path: str, write) -> None:
    """``write(part)`` a file under the temporary name ``part``, in the
    same directory, then rename it to ``path``: a crash leaves ``path``
    as it was or whole, never cut.  Nothing reads a stale ``part-`` file,
    and the next write of ``path`` replaces it."""
    head, name = os.path.split(path)
    part = os.path.join(head, "part-" + name)
    write(part)
    os.replace(part, path)


def _write_rows(path: str, lines: list[str], rows=()) -> None:
    """Write a text file whole: its ``lines``, each with its line end
    (``segments.csv``'s read with ``newline=""``), then the CSV ``rows``."""
    def write(part):
        with open(part, "w", newline="") as fh:
            fh.writelines(lines)
            csv.writer(fh).writerows(rows)
    _write_whole(path, write)


def _save_checkpoint(run_dir: str, report: SegmentReport,
                     terminal: np.ndarray, kernel: ResolverKernel) -> None:
    """Write a finished segment's files, each whole (``_write_whole``),
    then its ``segments.csv`` row."""
    n = report.index
    header = ",".join(f"component_{c}" for c in range(len(report.u)))
    arrays = {f.name: getattr(kernel, f.name) for f in fields(kernel)}
    # "%.18e": 19 significant digits read back every double exactly
    line = ",".join(["%.18e"] * len(report.u)) + "\n"
    _write_rows(os.path.join(run_dir, f"u_{n:04d}.csv"), [header + "\n"]
                + [line % tuple(r) for r in report.u.T.tolist()])
    _write_rows(os.path.join(run_dir, f"terminal_{n:04d}.txt"),
                ["%.18e\n" % v for v in terminal.tolist()])
    _write_whole(os.path.join(run_dir, f"kernel_{n:04d}.npz"),
                 lambda part: np.savez(part, **arrays))
    row = [n, f"{report.t_mid:.17g}", f"{report.residual:.17g}",
           *report.counters.as_tuple(), report.iterations,
           int(report.warned), report.kernel_rank]
    path = os.path.join(run_dir, "segments.csv")
    lines, rows = [], [["segment", "t_mid", "residual", *SOLVE_KINDS,
                        "iterations", "warned", "kernel_rank"], row]
    if n and os.path.exists(path):
        with open(path, newline="") as fh:
            lines, rows = fh.readlines(), [row]
    _write_rows(path, lines, rows)


def _expect_shape(array: np.ndarray, shape: tuple, what: str) -> None:
    if array.shape != shape:
        raise ValueError(f"{what} has shape {array.shape}, expected {shape}")


def _expect_finite(array: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(array)):
        raise ValueError(f"{what} has a non-finite entry")


def read_reports(run_dir: str,
                 shape: tuple) -> tuple[list[SegmentReport], list[str]]:
    """The reports of a run's finished segments, and the lines of its
    ``segments.csv``.  A segment is finished if it and every one before it
    have their files and their ``segments.csv`` row; a last row without its
    line end was cut short and counts as not written.  An estimate that
    does not parse or holds a non-finite number raises OSError, and so
    does one whose (components, coarse cells) are not ``shape``: the run
    does not fit the scenario."""
    path = os.path.join(run_dir, "segments.csv")
    lines = []
    if os.path.exists(path):
        with open(path, newline="") as fh:
            lines = fh.readlines()
    whole = lines if not lines or lines[-1].endswith("\n") else lines[:-1]
    reports = []
    try:
        for n, row in enumerate(csv.DictReader(whole)):
            names = [f"u_{n:04d}.csv", f"terminal_{n:04d}.txt",
                     f"kernel_{n:04d}.npz"]
            if int(row["segment"]) != n or not all(
                    os.path.exists(os.path.join(run_dir, p)) for p in names):
                break
            u = np.loadtxt(read_lines(os.path.join(run_dir, names[0])),
                           delimiter=",", skiprows=1, ndmin=2).T
            _expect_finite(u, names[0])
            if u.shape != shape:
                raise OSError(
                    f"the run in {run_dir} does not fit the scenario: "
                    f"{names[0]} has (components, cells) {u.shape}, where "
                    f"the scenario and mesh give {shape}")
            reports.append(SegmentReport(
                index=n, t_mid=float(row["t_mid"]), u=u,
                residual=float(row["residual"]),
                counters=Counters(*(int(row[k]) for k in SOLVE_KINDS)),
                iterations=int(row["iterations"]),
                warned=bool(int(row["warned"])),
                kernel_rank=int(row["kernel_rank"])))
    except (ValueError, LookupError, TypeError) as exc:
        raise OSError(f"corrupt checkpoint in {run_dir}: {exc}") from exc
    return reports, lines


def _load_checkpoint(run_dir: str, scn: Scenario, coarse: Mesh, steps: int,
                     init: np.ndarray, kernel: ResolverKernel):
    """Restore the finished segments (see ``read_reports``).  Rows after
    them are dropped, so the first unfinished segment and every later one
    run again.  A restored file that does not parse, does not fit this run
    or holds a non-finite number raises OSError."""
    shape = (scn.num_components, coarse.num_cells)
    reports, lines = read_reports(run_dir, shape)
    if not reports:
        return 0, init, kernel, []
    last = len(reports) - 1
    try:
        terminal = np.loadtxt(read_lines(
            os.path.join(run_dir, f"terminal_{last:04d}.txt")))
        _expect_shape(terminal, init.shape, f"terminal_{last:04d}.txt")
        with np.load(os.path.join(run_dir, f"kernel_{last:04d}.npz")) as data:
            kernel = ResolverKernel(*(data[k] for k in ("diag", "m", "n",
                                                        "weight", "damp")),
                                    int(data["rank_cap"]))
        _expect_shape(kernel.diag, shape, "kernel diagonal")
        nodes = (steps + 1,) if kernel.rank else ()
        _expect_shape(kernel.m, (kernel.rank,) + nodes + shape, "kernel m")
        _expect_shape(kernel.n, kernel.m.shape, "kernel n")
        _expect_shape(kernel.damp, kernel.weight.shape, "kernel damping")
        _expect_finite(terminal, f"terminal_{last:04d}.txt")
        for name in ("diag", "m", "n", "weight", "damp"):
            _expect_finite(getattr(kernel, name), f"kernel {name}")
    except (ValueError, LookupError, TypeError, EOFError,
            zipfile.BadZipFile) as exc:
        raise OSError(f"corrupt checkpoint in {run_dir}: {exc}") from exc
    if len(lines) > last + 2:           # the header plus one row a segment
        _write_rows(os.path.join(run_dir, "segments.csv"), lines[:last + 2])
    logger.info("resuming after segment %d (%d reports restored)",
                last, len(reports))
    return last + 1, terminal, kernel, reports
