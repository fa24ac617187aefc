"""Synthetic measurement pipeline: reference data, noise, sampling, files."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatprobe import fem
from heatprobe import scenario as sc
from heatprobe import synth


class TestNoise:
    def test_zero_level_is_identity(self):
        vals = np.linspace(1.0, 2.0, 50).reshape(5, 10)
        assert np.array_equal(synth.add_noise(vals, 0.0, seed=9), vals)

    def test_deterministic_given_seed(self):
        vals = np.full((100, 50), 1.5)
        a = synth.add_noise(vals, 0.05, seed=42)
        b = synth.add_noise(vals, 0.05, seed=42)
        assert np.array_equal(a, b)
        c = synth.add_noise(vals, 0.05, seed=43)
        assert not np.array_equal(a, c)

    def test_entrywise_bound(self):
        vals = np.full((1001, 120), 2.0)
        noisy = synth.add_noise(vals, 0.05, seed=1)
        assert np.abs(noisy - vals).max() <= 0.05 * 2.0

    def test_moments(self):
        vals = np.full((1001, 120), 3.0)
        rel = synth.add_noise(vals, 0.05, seed=7) / vals - 1.0
        n = rel.size
        assert n >= 1e5
        target = 0.05 / np.sqrt(3.0)
        assert abs(rel.std() - target) <= 0.1 * target
        assert abs(rel.mean()) < 3.0 * target / np.sqrt(n)

    def test_negative_level_rejected(self):
        """So is a non-finite level, which would make the data NaN or
        infinite."""
        for level in (-0.1, np.nan, np.inf):
            with pytest.raises(synth.SynthError):
                synth.add_noise(np.ones((2, 2)), level, seed=0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
           eps=st.floats(min_value=0.001, max_value=0.3))
    def test_relative_bound_random(self, seed, eps):
        vals = np.linspace(-2.0, 2.0, 64).reshape(8, 8)
        noisy = synth.add_noise(vals, eps, seed)
        assert np.all(np.abs(noisy - vals) <= eps * np.abs(vals) + 1e-15)


class TestSampling:
    def _mset(self):
        times = np.arange(0.0, 1.0001, 0.01)
        values = np.outer(np.sin(times), np.ones(7))
        return synth.MeasurementSet(times, values, values, 0.0, 0, 13870)

    def test_exact_instants(self):
        m = self._mset()
        assert np.allclose(synth.sample_measurement(m, 0.13),
                           m.clean[13], atol=0)

    def test_midpoint_is_mean(self):
        m = self._mset()
        got = synth.sample_measurement(m, 0.135)
        assert np.allclose(got, 0.5 * (m.clean[13] + m.clean[14]))

    def test_outside_horizon_rejected(self):
        m = self._mset()
        with pytest.raises(synth.SynthError):
            synth.sample_measurement(m, 1.5)
        with pytest.raises(synth.SynthError):
            synth.sample_measurement(m, -0.1)

    def test_interpolation_second_order(self):
        # halving the sample spacing cuts the worst reconstruction error ~4x
        def build(spacing):
            times = np.arange(0.0, 1.0 + spacing / 2, spacing)
            vals = np.cos(3 * times)[:, None]
            return synth.MeasurementSet(times, vals, vals, 0.0, 0, 13870)

        probe = np.linspace(0.0, 1.0, 1117)
        errs = []
        for spacing in (0.04, 0.02, 0.01):
            m = build(spacing)
            got = synth.sample_measurement(m, probe)[:, 0]
            errs.append(np.abs(got - np.cos(3 * probe)).max())
        assert errs[0] / errs[1] >= 3.0
        assert errs[1] / errs[2] >= 3.0


class TestReference:
    def test_initial_row_is_exact_initial_trace(self, small_fine):
        scn = sc.null_scenario()
        trace = synth.generate_reference(scn, small_fine, horizon=0.2)
        _, _, h = sc.samplers(small_fine)
        assert np.array_equal(trace.values[0],
                              h[small_fine.boundary_vertices])

    def test_cross_mesh_gap_below_one_percent(self, small_fine):
        scn = sc.null_scenario()
        trace = synth.generate_reference(scn, small_fine, horizon=1.0)
        grid = fem.segment_grid(0.0, 1.0, 0.0125)
        f_fn, g_fn, h = sc.samplers(small_fine)
        bg = fem.forward_solve(small_fine, grid, None, scn.ops,
                               fem.source_load(small_fine, grid, f_fn, g_fn),
                               h)
        mset = synth.MeasurementSet(trace.times, trace.values, trace.values,
                                    0.0, 0, synth.REFERENCE_TRIANGLES)
        sampled = synth.sample_measurement(mset, grid.times(), noisy=False)
        gap = fem.boundary_rel_error(
            small_fine, grid, sampled,
            fem.boundary_trace(bg, small_fine).values)
        assert gap < 0.01

    def test_inclusions_visible_above_discretization_gap(self, small_fine):
        null_trace = synth.generate_reference(sc.null_scenario(), small_fine,
                                              horizon=1.0)
        ex1_trace = synth.generate_reference(sc.builtin("ex1"), small_fine,
                                             horizon=1.0)
        grid = fem.segment_grid(0.0, 1.0, 0.0125)
        scn = sc.null_scenario()
        f_fn, g_fn, h = sc.samplers(small_fine)
        bg = fem.forward_solve(small_fine, grid, None, scn.ops,
                               fem.source_load(small_fine, grid, f_fn, g_fn),
                               h)
        bg_vals = fem.boundary_trace(bg, small_fine).values

        def gap(trace):
            mset = synth.MeasurementSet(trace.times, trace.values,
                                        trace.values, 0.0, 0,
                                        synth.REFERENCE_TRIANGLES)
            sampled = synth.sample_measurement(mset, grid.times(),
                                               noisy=False)
            return fem.boundary_rel_error(small_fine, grid, sampled, bg_vals)

        assert gap(ex1_trace) > 10 * gap(null_trace)
        assert gap(ex1_trace) > 0.002

    def test_inverse_crime_guard(self, small_fine):
        with pytest.raises(synth.SynthError):
            synth.generate_reference(sc.null_scenario(), small_fine,
                                     reference_triangles=small_fine.num_cells,
                                     horizon=0.1)


class TestPersistence:
    def _mset(self, small_fine):
        scn = sc.null_scenario()
        trace = synth.generate_reference(scn, small_fine, horizon=0.1)
        noisy = synth.add_noise(trace.values, 0.03, seed=5)
        return synth.MeasurementSet(trace.times, trace.values, noisy, 0.03,
                                    5, synth.REFERENCE_TRIANGLES)

    def test_text_round_trip_exact(self, tmp_path, small_fine):
        m = self._mset(small_fine)
        base = str(tmp_path / "m")
        synth.save_measurement_set(m, base)
        back = synth.load_measurement_set(base, synth.REFERENCE_TRIANGLES)
        assert np.array_equal(back.sample_times, m.sample_times)
        assert np.array_equal(back.clean, m.clean)
        assert np.array_equal(back.noisy, m.noisy)
        assert back.noise_level == m.noise_level and back.seed == m.seed

    def test_malformed_text_header_rejected(self, tmp_path):
        path = tmp_path / "x_clean.txt"
        path.write_text("1 2\n0 1 2\n")
        with pytest.raises(OSError):
            synth.load_trace_text(path)
