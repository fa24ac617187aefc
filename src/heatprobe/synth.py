"""Reference boundary data on an independent discretization, plus noise.

The measured trace is produced on its own fine mesh and time step, mapped to
the inversion mesh's boundary vertices by angular interpolation on the unit
circle, and perturbed with multiplicative uniform noise from a counter-based
generator (Philox), so the same seed reproduces the data bit for bit.
Generating and inverting on distinct discretizations is asserted, never
assumed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .mesh import Mesh, build_disk_mesh
from .scenario import Scenario, eval_truth, samplers

REFERENCE_TRIANGLES = 13870
SAMPLE_DT = 0.01


class SynthError(ValueError):
    """Invalid synthetic-data request (including inverse-crime guards)."""


@dataclass
class MeasurementSet:
    """Clean and noisy boundary samples on the inversion mesh's boundary;
    the sample step is read off the sample times."""

    sample_times: np.ndarray        # (S,)
    clean: np.ndarray               # (S, B)
    noisy: np.ndarray               # (S, B)
    noise_level: float
    seed: int
    reference_triangles: int

    @property
    def horizon(self) -> float:
        return float(self.sample_times[-1])

    @property
    def sample_dt(self) -> float:
        """The step between the first two samples (0.0 for one sample)."""
        t = self.sample_times
        return float(t[1] - t[0]) if len(t) > 1 else 0.0


def boundary_angles(mesh: Mesh) -> np.ndarray:
    pts = mesh.vertices[mesh.boundary_vertices]
    return np.arctan2(pts[:, 1], pts[:, 0])


def generate_reference(scn: Scenario, inversion_mesh: Mesh,
                       reference_triangles: int = REFERENCE_TRIANGLES,
                       sample_dt: float = SAMPLE_DT,
                       horizon: float | None = None) -> fem.BoundaryTrace:
    """Solve the true problem on a dedicated mesh and sample its trace.

    The trace is interpolated onto the inversion mesh's boundary vertices
    linearly in the boundary angle (exact up to trace smoothness since both
    boundaries lie on the same circle).  The first row is the initial value
    itself, which is known exactly.
    """
    if reference_triangles == inversion_mesh.num_cells:
        raise SynthError("reference and inversion meshes must differ "
                         "(inverse-crime guard)")
    horizon = scn.horizon if horizon is None else float(horizon)
    grid = fem.segment_grid(0.0, horizon, sample_dt)
    ref_mesh = build_disk_mesh(reference_triangles)
    f_fn, g_fn, h = samplers(ref_mesh)

    def truth(t: float) -> np.ndarray:
        return eval_truth(scn, min(t, scn.horizon), ref_mesh)

    u_arg = None if not scn.inclusions else truth
    ref_values = fem.forward_solve(ref_mesh, grid, u_arg, scn.ops,
                                   fem.source_load(ref_mesh, grid, f_fn, g_fn),
                                   h, picard_sweeps=1,
                                   rows=ref_mesh.boundary_vertices).values

    src = boundary_angles(ref_mesh)
    order = np.argsort(src)
    dst = boundary_angles(inversion_mesh)
    values = np.empty((grid.num_times, inversion_mesh.num_boundary_vertices))
    for k in range(grid.num_times):
        values[k] = np.interp(dst, src[order], ref_values[k][order],
                              period=2.0 * np.pi)
    _, _, h_inv = samplers(inversion_mesh)
    values[0] = h_inv[inversion_mesh.boundary_vertices]
    return fem.BoundaryTrace(grid.times(), values)


def add_noise(values: np.ndarray, noise_level: float, seed: int) -> np.ndarray:
    """Pointwise multiplicative uniform noise, reproducible across platforms.

    Draws come from a Philox stream keyed by the seed; entry (i, j) always
    consumes the same counter position for a fixed array shape, so the noise
    field is a pure function of (seed, shape).
    """
    if not 0 <= noise_level < np.inf:
        raise SynthError("noise level must be finite and nonnegative")
    values = np.asarray(values, dtype=float)
    if noise_level == 0:
        return values.copy()
    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    delta = rng.uniform(-1.0, 1.0, size=values.shape)
    return values * (1.0 + noise_level * delta)


def build_measurement_set(scn: Scenario, inversion_mesh: Mesh,
                          noise_level: float, seed: int,
                          reference_triangles: int = REFERENCE_TRIANGLES,
                          sample_dt: float = SAMPLE_DT,
                          horizon: float | None = None) -> MeasurementSet:
    """Generate, perturb and package the measured data for one scenario."""
    return measure(generate_reference(scn, inversion_mesh,
                                      reference_triangles, sample_dt, horizon),
                   noise_level, seed, reference_triangles)


def measure(trace: fem.BoundaryTrace, noise_level: float, seed: int,
            reference_triangles: int = REFERENCE_TRIANGLES) -> MeasurementSet:
    """Perturb a clean reference trace and package it as measured data."""
    noisy = add_noise(trace.values, noise_level, seed)
    return MeasurementSet(sample_times=trace.times, clean=trace.values,
                          noisy=noisy, noise_level=noise_level, seed=seed,
                          reference_triangles=reference_triangles)


def sample_measurement(mset: MeasurementSet, t, noisy: bool = True) -> np.ndarray:
    """Linear-in-time interpolation of the stored samples at time(s) ``t``.

    A time within 1e-9 sample steps of a sample reads that sample exactly.
    So a time reads the same value from the data of every horizon that
    covers it: a lattice node that rounds past the last sample of shorter
    data reads that sample, as longer data give it.
    """
    times = mset.sample_times
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if t_arr.min() < times[0] - 1e-12 or t_arr.max() > times[-1] + 1e-12:
        raise SynthError(f"time {t} outside the measured horizon "
                         f"[{times[0]}, {times[-1]}]")
    values = mset.noisy if noisy else mset.clean
    idx = np.clip(np.searchsorted(times, t_arr, side="right") - 1,
                  0, len(times) - 2)
    w = (t_arr - times[idx]) / (times[idx + 1] - times[idx])
    w = np.where(w < 1e-9, 0.0, np.where(w > 1.0 - 1e-9, 1.0, w))[:, None]
    out = (1.0 - w) * values[idx] + w * values[idx + 1]
    return out[0] if np.isscalar(t) or np.ndim(t) == 0 else out


def save_trace_text(path, times: np.ndarray, values: np.ndarray,
                    noise_level: float, seed: int) -> None:
    """Plain-text trace: header ``S B noise seed``, then ``t v_1..v_B`` rows."""
    with open(path, "w") as fh:
        fh.write(f"{len(times)} {values.shape[1]} {noise_level:.17g} {seed}\n")
        for t, row in zip(times, values):
            fh.write(" ".join(f"{x:.17g}" for x in (t, *row)) + "\n")


def read_lines(path) -> list[str]:
    """The lines of a whole text file.  Every writer here ends each line
    with a newline, so a file that does not end with one was cut short."""
    with open(path) as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise ValueError(f"{path} is truncated")
    return text.splitlines()


def load_trace_text(path):
    """A trace written by ``save_trace_text``: (times, values, noise level,
    seed).  A file that is cut short, does not parse, does not fit its
    header or holds a non-finite number raises OSError."""
    try:
        lines = read_lines(path)
        head = lines[0].split()
        if len(head) != 4:
            raise ValueError("malformed trace header")
        s, b = int(head[0]), int(head[1])
        noise_level, seed = float(head[2]), int(head[3])
        data = np.loadtxt(lines[1:], ndmin=2)
        if data.shape != (s, b + 1):
            raise ValueError(f"expected {s} rows of {b + 1} columns")
        if not (np.all(np.isfinite(data)) and np.isfinite(noise_level)):
            raise ValueError("non-finite entry")
    except ValueError as exc:
        raise OSError(f"corrupt trace file {path}: {exc}") from exc
    return data[:, 0].copy(), data[:, 1:].copy(), noise_level, seed


def save_measurement_set(mset: MeasurementSet, base_path):
    """Write the clean/noisy pair next to each other; returns the two paths."""
    clean_path = f"{base_path}_clean.txt"
    noisy_path = f"{base_path}_noisy.txt"
    save_trace_text(clean_path, mset.sample_times, mset.clean, 0.0, mset.seed)
    save_trace_text(noisy_path, mset.sample_times, mset.noisy,
                    mset.noise_level, mset.seed)
    return clean_path, noisy_path


def load_measurement_set(base_path, reference_triangles: int) -> MeasurementSet:
    """The pair that ``save_measurement_set`` wrote.  Besides what
    ``load_trace_text`` refuses, sample times that differ between the two
    files, or that are not the nodes 0, dt, 2 dt, ... of their first step
    dt (to 1e-9 relative), as ``generate_reference`` gives them, raise
    OSError."""
    times, clean, _, _ = load_trace_text(f"{base_path}_clean.txt")
    times_n, noisy, noise_level, seed = load_trace_text(f"{base_path}_noisy.txt")
    if len(times) != len(times_n) or not np.array_equal(times, times_n):
        raise OSError(f"{base_path}: clean and noisy traces disagree on "
                      f"sample times")
    try:
        fem.BoundaryTrace(times, clean)         # strictly increasing
        dt = times[1] if len(times) > 1 else 1.0
        nodes = np.arange(len(times)) * dt
        if times[0] != 0.0 or np.any(np.abs(times - nodes)
                                     > 1e-9 * np.maximum(nodes, dt)):
            raise ValueError(f"sample times are not the nodes 0, dt, "
                             f"2 dt, ... of dt = {dt}")
    except ValueError as exc:
        raise OSError(f"corrupt measurement {base_path}: {exc}") from exc
    return MeasurementSet(sample_times=times, clean=clean, noisy=noisy,
                          noise_level=noise_level, seed=seed,
                          reference_triangles=reference_triangles)
