"""Shared fixtures: meshes at two scales and cached reference traces.

The full-scale fixtures (7002/1120 meshes, horizon-10 references) are
session-scoped and built lazily, so unit-test-only runs never pay for them.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from heatprobe import mesh as hpmesh
from heatprobe import scenario, synth


@pytest.fixture(scope="session")
def run_python():
    """Run ``code`` in a fresh interpreter that imports this checkout's
    heatprobe, with the variables ``env`` set; returns its stdout."""
    src = os.path.dirname(os.path.dirname(hpmesh.__file__))

    def run(code, **env):
        env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        return subprocess.run([sys.executable, "-c", code], env=env,
                              check=True, capture_output=True,
                              text=True).stdout

    return run


@pytest.fixture(scope="session")
def small_fine():
    return hpmesh.build_disk_mesh(3000)


@pytest.fixture(scope="session")
def small_coarse():
    return hpmesh.build_disk_mesh(600)


@pytest.fixture(scope="session")
def small_transfer(small_fine, small_coarse):
    return hpmesh.build_transfer(small_fine, small_coarse)


@pytest.fixture(scope="session")
def fine():
    return hpmesh.build_disk_mesh(7002)


@pytest.fixture(scope="session")
def coarse():
    return hpmesh.build_disk_mesh(1120)


@pytest.fixture(scope="session")
def transfer(fine, coarse):
    return hpmesh.build_transfer(fine, coarse)


@pytest.fixture(scope="session")
def reference_cache(fine):
    """Clean reference traces keyed by (scenario name, horizon)."""
    cache = {}

    def get(name: str, horizon: float | None = None):
        key = (name, horizon)
        if key not in cache:
            scn = scenario.null_scenario() if name == "null" \
                else scenario.builtin(name)
            cache[key] = synth.generate_reference(scn, fine, horizon=horizon)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def measurement_factory(reference_cache):
    """Measurement sets built from cached references plus seeded noise."""

    def make(name: str, noise: float, seed: int, horizon: float | None = None):
        trace = reference_cache(name, horizon)
        noisy = synth.add_noise(trace.values, noise, seed)
        return synth.MeasurementSet(
            sample_times=trace.times, clean=trace.values, noisy=noisy,
            noise_level=noise, seed=seed,
            reference_triangles=synth.REFERENCE_TRIANGLES)

    return make


def area_jaccard(mesh, a, b):
    union = a | b
    if not union.any():
        return 1.0
    return float(mesh.cell_areas[a & b].sum() / mesh.cell_areas[union].sum())


def support_of(u_comp):
    peak = np.abs(u_comp).max()
    if peak == 0:
        return np.zeros_like(u_comp, dtype=bool)
    return np.abs(u_comp) >= 0.5 * peak
