"""CLI subcommands, metrics computation, heatmaps, and exit codes."""

import argparse
import dataclasses
import hashlib
import os
import pathlib
import shutil
import typing

import numpy as np
import pytest

from heatprobe import cli, fem, synth
from heatprobe import mesh as hm
from heatprobe import reconstruction as recon
from heatprobe import scenario as sc

MICRO = dict(fine_triangles=1000, coarse_triangles=300, horizon=0.5,
             noise=0.02, seed=1)


def micro_config(tmp_path, **kw):
    merged = {**MICRO, **kw, "outdir": str(tmp_path / "runs")}
    return cli.RunConfig(scenario=merged.pop("scenario", "null"), **merged)


def resume_argv(out):
    """``reconstruct --resume`` of ``micro_config`` on the null scenario."""
    return ["reconstruct", "--scenario", "null", "--noise", "0.02",
            "--seed", "1", "--fine-triangles", "1000",
            "--coarse-triangles", "300", "--horizon", "0.5",
            "--out", str(out), "--resume"]


def retoken(text, row, col, token):
    """``text`` with token ``col`` of line ``row`` replaced."""
    lines = text.splitlines(keepends=True)
    tokens = lines[row].split()
    tokens[col] = token
    lines[row] = " ".join(tokens) + "\n"
    return "".join(lines)


def swap_rows(text):
    """``text`` with its third and fourth lines swapped."""
    lines = text.splitlines(keepends=True)
    lines[2], lines[3] = lines[3], lines[2]
    return "".join(lines)


def file_bytes(directory):
    return {path.relative_to(directory): path.read_bytes()
            for path in pathlib.Path(directory).rglob("*") if path.is_file()}


class Crash(Exception):
    """A crash injected into a file write."""


class _CutOnClose:
    """A file whose ``on_close`` runs once its writes are done."""

    def __init__(self, fh, on_close):
        self.fh, self.on_close = fh, on_close

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, kind, *_):
        self.fh.close()
        if kind is None:
            self.on_close()


def crash_in_write(monkeypatch, name, skip=0):
    """Crash in the middle of the write after the ``skip`` first of a file
    whose name ends with ``name`` (its own, or a temporary one): the file
    keeps the first half of the bytes that write added, and nothing after
    it runs.  Checkpoints are written through ``np.savez`` and the
    reconstruction module's ``open``, ``config.txt`` through the cli
    module's."""
    left = [skip]

    def cut(path, start):
        if not os.fspath(path).endswith(name):
            return
        if left[0]:
            left[0] -= 1
            return
        os.truncate(path, start + (os.path.getsize(path) - start) // 2)
        raise Crash(path)

    def saving(save):
        def wrapped(file, *args, **kwargs):
            save(file, *args, **kwargs)
            cut(file, 0)
        return wrapped

    def opening(path, mode="r", **kwargs):
        if "w" not in mode and "a" not in mode:
            return open(path, mode, **kwargs)
        start = os.path.getsize(path) if "a" in mode \
            and os.path.exists(path) else 0
        return _CutOnClose(open(path, mode, **kwargs),
                           lambda: cut(path, start))

    monkeypatch.setattr(np, "savez", saving(np.savez))
    monkeypatch.setattr(recon, "open", opening, raising=False)
    monkeypatch.setattr(cli, "open", opening, raising=False)


def assert_none_cut(files, before, finished):
    """Each of ``files`` (``file_bytes``) that has a name of the finished
    run's is as it was ``before``, as the finished run has it, or, for
    ``segments.csv``, that file's first whole lines: no crash leaves a cut
    file under a name that a reader trusts."""
    for path, data in files.items():
        if path in finished:
            rows = path.name == "segments.csv" and data.endswith(b"\n") \
                and finished[path].startswith(data)
            assert rows or data in (before.get(path), finished[path]), path


# every run flag at a value other than its default
NON_DEFAULT_FLAGS = {
    "--scenario": "ex3", "--noise": "0.1", "--seed": "7",
    "--segment-length": "0.2", "--dt": "0.025",
    "--reference-triangles": "9000", "--sample-dt": "0.02",
    "--fine-triangles": "3000", "--coarse-triangles": "600", "--nu": "1.2",
    "--eps-cut": "0.1", "--damping": "0.3", "--tol": "0.05",
    "--scheme": "dfp", "--rank-cap": "12", "--max-inner": "4",
    "--eta-hat-variant": "r_zeta", "--horizon": "1.5", "--out": "elsewhere"}


class TestRunConfig:
    def test_per_scenario_defaults(self):
        cfg = cli.RunConfig(scenario="ex1")
        assert cfg.tol == 0.10
        assert cfg.scheme == "bfg"
        cfg3 = cli.RunConfig(scenario="ex3")
        assert cfg3.tol == 0.08
        assert cfg3.scheme == "bfg"
        cfg2 = cli.RunConfig(scenario="ex2")
        assert cfg2.scheme == "dfp"

    def test_explicit_overrides_win(self):
        cfg = cli.RunConfig(scenario="ex1", tol=0.05, scheme="dfp")
        assert cfg.tol == 0.05
        assert cfg.scheme == "dfp"

    def test_flags_parse_to_the_config(self):
        parser = argparse.ArgumentParser()
        cli._add_run_flags(parser)
        argv = [word for pair in NON_DEFAULT_FLAGS.items() for word in pair]
        cfg = cli._config_from_args(parser.parse_args(argv))
        assert cfg == cli.RunConfig(
            scenario="ex3", noise=0.1, seed=7, segment_length=0.2, dt=0.025,
            reference_triangles=9000, sample_dt=0.02, fine_triangles=3000,
            coarse_triangles=600, nu=1.2, eps_cut=0.1, damping=0.3, tol=0.05,
            scheme="dfp", rank_cap=12, max_inner=4, eta_hat_variant="r_zeta",
            horizon=1.5, outdir="elsewhere")
        default = cli.RunConfig()
        assert all(getattr(cfg, f.name) != getattr(default, f.name)
                   for f in dataclasses.fields(cli.RunConfig))
        assert cli._config_from_args(parser.parse_args([])) == default

    def test_invalid_flag_value_is_config_error(self, capsys):
        assert cli.main(["reconstruct", "--scheme", "xyz"]) == cli.EXIT_CONFIG
        assert "scheme = 'xyz' refused" in capsys.readouterr().err

    def test_validation(self):
        with pytest.raises(sc.ScenarioError):
            cli.RunConfig(noise=-0.1)
        with pytest.raises(sc.ScenarioError):
            cli.RunConfig(damping=1.5)
        with pytest.raises(sc.ScenarioError):
            cli.RunConfig(segment_length=0.1, dt=0.03)


class TestMetricsHelpers:
    def test_support_threshold(self):
        u = np.array([0.0, 0.1, 0.4, 0.5, 1.0, -0.9])
        mask = cli.support_mask(u)
        assert mask.tolist() == [False, False, False, True, True, True]
        assert not cli.support_mask(np.zeros(4)).any()

    def test_jaccard_extremes(self):
        mesh = hm.build_disk_mesh(300)
        truth = np.linalg.norm(mesh.centroids - [0.3, 0.0], axis=1) <= 0.25
        assert cli.area_jaccard(mesh, truth, truth) == 1.0
        assert cli.area_jaccard(mesh, np.zeros_like(truth), truth) == 0.0
        empty = np.zeros_like(truth)
        assert cli.area_jaccard(mesh, empty, empty) == 1.0

    def test_connected_components(self):
        mesh = hm.build_disk_mesh(600)
        blob1 = np.linalg.norm(mesh.centroids - [0.4, 0.0], axis=1) <= 0.2
        blob2 = np.linalg.norm(mesh.centroids - [-0.4, 0.0], axis=1) <= 0.2
        comps = cli.connected_components(mesh, blob1 | blob2)
        assert len(comps) == 2
        assert sum(len(c) for c in comps) == (blob1 | blob2).sum()

    def test_connected_components_match_a_flood_fill(self):
        """Sorted cell arrays in the order of their smallest cell, as a
        flood fill over shared edges from each cell in turn gives them."""
        mesh = hm.build_disk_mesh(600)
        owners = {}
        for cell, tri in enumerate(mesh.triangles.tolist()):
            for edge in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
                owners.setdefault(frozenset(edge), []).append(cell)
        neighbors = [[] for _ in range(mesh.num_cells)]
        for pair in owners.values():
            if len(pair) == 2:
                neighbors[pair[0]].append(pair[1])
                neighbors[pair[1]].append(pair[0])

        def flood_fill(mask):
            seen, comps = set(), []
            for seed in np.flatnonzero(mask):
                if seed in seen:
                    continue
                stack, comp = [seed], {seed}
                while stack:
                    for nb in neighbors[stack.pop()]:
                        if mask[nb] and nb not in comp:
                            comp.add(nb)
                            stack.append(nb)
                seen |= comp
                comps.append(sorted(comp))
            return comps

        rng = np.random.default_rng(3)
        for _ in range(10):
            mask = rng.random(mesh.num_cells) < 0.4
            assert [c.tolist() for c in cli.connected_components(mesh, mask)] \
                == flood_fill(mask)
        assert cli.connected_components(mesh, np.zeros(mesh.num_cells,
                                                       dtype=bool)) == []

    def test_centroid_errors(self):
        mesh = hm.build_disk_mesh(600)
        truth = np.linalg.norm(mesh.centroids - [0.4, 0.1], axis=1) <= 0.2
        offset = np.linalg.norm(mesh.centroids - [0.3, 0.1], axis=1) <= 0.2
        err = cli.centroid_errors(mesh, offset, truth)
        assert err == pytest.approx(0.1, abs=0.03)
        assert np.isnan(cli.centroid_errors(mesh, offset,
                                            np.zeros_like(truth)))
        assert np.isinf(cli.centroid_errors(mesh, np.zeros_like(truth),
                                            truth))

    def test_exact_truth_scores_perfectly(self):
        mesh = hm.build_disk_mesh(600)
        scn = sc.builtin("ex1")
        truth = sc.eval_truth(scn, 1.0, mesh)
        mask = cli.support_mask(truth[0])
        assert cli.area_jaccard(mesh, mask, truth[0] != 0) == 1.0
        assert cli.centroid_errors(mesh, mask, truth[0] != 0) \
            == pytest.approx(0.0, abs=1e-12)


class TestHeatmaps:
    def test_zero_field_renders_neutral(self):
        mesh = hm.build_disk_mesh(300)
        raster = cli._Raster(mesh, size=64)
        img = cli.render_heatmap(raster, np.zeros(mesh.num_cells))
        assert img.shape == (64, 64)
        assert np.all(img == cli.NEUTRAL_GRAY)

    def test_normalization_and_range(self):
        # the peak-magnitude cell maps to an extreme gray, background stays
        # neutral, regardless of the field's absolute scale
        mesh = hm.build_disk_mesh(300)
        raster = cli._Raster(mesh, size=64)
        u = np.zeros(mesh.num_cells)
        u[raster.cells[0]] = -2.0
        img = cli.render_heatmap(raster, u)
        assert img.min() == 0
        assert (img == cli.NEUTRAL_GRAY).sum() > 0.5 * img.size
        img_scaled = cli.render_heatmap(raster, 100.0 * u)
        assert np.array_equal(img, img_scaled)

    def test_truth_overlay_draws_black_contour(self):
        mesh = hm.build_disk_mesh(600)
        raster = cli._Raster(mesh, size=128)
        truth = np.linalg.norm(mesh.centroids - [0.3, 0.0], axis=1) <= 0.25
        img = cli.render_heatmap(raster, np.zeros(mesh.num_cells),
                                 truth_mask=truth)
        assert (img == 0).sum() > 20

    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(32, 32), dtype=np.uint8)
        path = tmp_path / "x.pgm"
        cli.write_pgm(path, img)
        with open(path, "rb") as fh:
            assert fh.readline().strip() == b"P5"
            assert fh.readline().split() == [b"32", b"32"]
            assert fh.readline().strip() == b"255"
            back = np.frombuffer(fh.read(), dtype=np.uint8).reshape(32, 32)
        assert np.array_equal(back, img)


class TestCommands:
    def test_generate_writes_files_and_manifest(self, tmp_path):
        cfg = micro_config(tmp_path, noise=0.0)
        base = cli.cmd_generate(cfg)
        clean = np.loadtxt(f"{base}_clean.txt", skiprows=1)
        noisy = np.loadtxt(f"{base}_noisy.txt", skiprows=1)
        assert np.array_equal(clean, noisy)
        manifest = open(f"{base}_manifest.txt").read()
        assert "reference_triangles = 13870" in manifest
        assert "sample_dt = 0.01" in manifest

    def test_generate_deterministic(self, tmp_path):
        cfg = micro_config(tmp_path, noise=0.03)
        base = cli.cmd_generate(cfg)
        first = open(f"{base}_noisy.txt").read()
        base2 = cli.cmd_generate(cfg)
        assert open(f"{base2}_noisy.txt").read() == first

    def test_reconstruct_run_directory(self, tmp_path):
        cfg = micro_config(tmp_path)
        run_dir = cli.cmd_reconstruct(cfg)
        assert os.path.exists(os.path.join(run_dir, "config.txt"))
        assert os.path.exists(os.path.join(run_dir, "summary.txt"))
        metrics = open(os.path.join(run_dir, "metrics.csv")).read().splitlines()
        assert len(metrics) == 1 + 5     # header + one row per segment
        assert metrics[0].startswith("segment,t_mid,residual,background")
        maps = os.listdir(os.path.join(run_dir, "heatmaps"))
        assert len(maps) == 5
        segs = [f for f in os.listdir(os.path.join(run_dir, "segments"))
                if f.startswith("u_")]
        assert len(segs) == 5
        summary = open(os.path.join(run_dir, "summary.txt")).read()
        assert "total solves" in summary

    def test_reconstruct_from_stored_measurement(self, tmp_path):
        cfg = micro_config(tmp_path)
        base = cli.cmd_generate(cfg)
        run_dir = cli.cmd_reconstruct(cfg, measurement_base=base)
        assert os.path.exists(os.path.join(run_dir, "metrics.csv"))

    def test_reconstruct_resume_completes_run(self, tmp_path):
        short = micro_config(tmp_path, horizon=0.2)
        run_dir = cli.cmd_reconstruct(short)
        full = micro_config(tmp_path, horizon=0.5)
        resumed = cli.cmd_reconstruct(full, resume=True)
        assert resumed == run_dir
        rows = open(os.path.join(run_dir, "metrics.csv")).read().splitlines()
        assert len(rows) == 1 + 5
        fresh = cli.cmd_reconstruct(micro_config(tmp_path / "fresh",
                                                 horizon=0.5))
        a = np.loadtxt(os.path.join(run_dir, "segments", "u_0004.csv"),
                       delimiter=",", skiprows=1)
        b = np.loadtxt(os.path.join(fresh, "segments", "u_0004.csv"),
                       delimiter=",", skiprows=1)
        assert np.allclose(a, b, atol=1e-12)

    def test_resume_to_a_longer_horizon_is_the_fresh_run(self, tmp_path):
        """A run to 0.7 resumed to 1.0 writes byte for byte the files of a
        fresh run to 1.0; ex2 at tol 0.03 checkpoints kernel terms."""
        kw = dict(scenario="ex2", scheme="dfp", tol=0.03,
                  reference_triangles=1200)
        short = micro_config(tmp_path / "resumed", horizon=0.7, **kw)
        run_dir = cli.cmd_reconstruct(short)
        cli.cmd_reconstruct(dataclasses.replace(short, horizon=1.0),
                            resume=True)
        fresh = cli.cmd_reconstruct(micro_config(tmp_path / "fresh",
                                                 horizon=1.0, **kw))
        resumed_files = file_bytes(os.path.join(run_dir, "segments"))
        assert len(resumed_files) == 1 + 3 * 10
        assert resumed_files == file_bytes(os.path.join(fresh, "segments"))
        for path in (run_dir, fresh):
            with open(os.path.join(path, "metrics.csv"), "rb") as fh:
                metrics = fh.read()
            assert metrics.count(b"\n") == 1 + 10
        with open(os.path.join(run_dir, "metrics.csv"), "rb") as fh:
            assert fh.read() == metrics

    @pytest.mark.parametrize("short, long", [(0.3, 0.5), (0.6, 0.8)])
    def test_resume_past_a_node_beyond_the_last_sample(self, tmp_path, short,
                                                       long):
        """The last lattice node of a run to ``short`` lies a rounding past
        the last sample of its data (24 * 0.0125 = 0.30000000000000004).
        Resumed to ``long``, the run writes byte for byte the files of a
        fresh run to ``long``, which reads that node from longer data."""
        kw = dict(scenario="ex1", reference_triangles=1200)
        cfg = micro_config(tmp_path / "resumed", horizon=short, **kw)
        run_dir = cli.cmd_reconstruct(cfg)
        cli.cmd_reconstruct(dataclasses.replace(cfg, horizon=long),
                            resume=True)
        fresh = cli.cmd_reconstruct(micro_config(tmp_path / "fresh",
                                                 horizon=long, **kw))
        resumed_files = file_bytes(os.path.join(run_dir, "segments"))
        assert len(resumed_files) == 1 + 3 * round(long / 0.1)
        assert resumed_files == file_bytes(os.path.join(fresh, "segments"))
        metrics = [pathlib.Path(path, "metrics.csv").read_bytes()
                   for path in (run_dir, fresh)]
        assert metrics[0] == metrics[1]

    def test_pipeline_determinism(self, tmp_path):
        cfg_a = micro_config(tmp_path / "a", scenario="ex1", noise=0.05)
        cfg_b = micro_config(tmp_path / "b", scenario="ex1", noise=0.05)
        run_a = cli.cmd_reconstruct(cfg_a)
        run_b = cli.cmd_reconstruct(cfg_b)
        bytes_a = open(os.path.join(run_a, "metrics.csv"), "rb").read()
        bytes_b = open(os.path.join(run_b, "metrics.csv"), "rb").read()
        assert bytes_a == bytes_b

    def test_metrics_command(self, tmp_path, capsys):
        cfg = micro_config(tmp_path, scenario="ex1", noise=0.05)
        run_dir = cli.cmd_reconstruct(cfg)
        out = cli.cmd_metrics(run_dir, "ex1")
        assert os.path.exists(out)
        lines = open(out).read().splitlines()
        assert len(lines) == 1 + 5
        assert os.listdir(os.path.join(run_dir, "heatmaps_truth"))
        assert "median jaccard" in capsys.readouterr().out
        # the same scoring as the run's own metrics.csv
        run = np.genfromtxt(os.path.join(run_dir, "metrics.csv"),
                            delimiter=",", names=True)
        truth = np.genfromtxt(out, delimiter=",", names=True)
        for col in ("jaccard_0", "centroid_error_0"):
            assert np.array_equal(truth[col], run[col])

    def test_sweep(self, tmp_path):
        """Each sweep run is the separate ``reconstruct`` with its flags,
        byte for byte but for the wall time in ``summary.txt``."""
        cfg = micro_config(tmp_path)
        noises, dampings = [0.0, 0.02], [0.6, 0.3]
        dirs = cli.cmd_sweep(cfg, noises=noises, dampings=dampings,
                             schemes=["dfp"])
        assert len(dirs) == 4
        combos = [(eps, lam) for eps in noises for lam in dampings]
        for d, (eps, lam) in zip(dirs, combos):
            assert os.path.exists(os.path.join(d, "summary.txt"))
            swept = file_bytes(d)
            shutil.rmtree(os.path.dirname(d))
            alone = cli.cmd_reconstruct(dataclasses.replace(
                cfg, noise=eps, damping=lam, scheme="dfp",
                outdir=os.path.dirname(d)))
            assert alone == d
            again = file_bytes(d)
            assert swept.keys() == again.keys()
            for name in swept:
                if name.name == "summary.txt":
                    swept[name], again[name] = (
                        [line for line in data.splitlines()
                         if not line.startswith(b"wall time")]
                        for data in (swept[name], again[name]))
                assert swept[name] == again[name], name


class TestCheckpoints:
    def test_resume_reruns_a_segment_without_its_row(self, tmp_path):
        """A crash between a segment's files and its segments.csv row."""
        cfg = micro_config(tmp_path, scenario="ex1", noise=0.05)
        base = cli.cmd_generate(cfg)
        run_dir = cli.cmd_reconstruct(cfg, measurement_base=base)
        with open(os.path.join(run_dir, "metrics.csv"), "rb") as fh:
            fresh = fh.read()
        table = os.path.join(run_dir, "segments", "segments.csv")
        with open(table, newline="") as fh:
            lines = fh.readlines()
        with open(table, "w", newline="") as fh:
            fh.writelines(lines[:3] + lines[4:])       # drop segment 2's row
        cli.cmd_reconstruct(cfg, measurement_base=base, resume=True)
        with open(os.path.join(run_dir, "metrics.csv"), "rb") as fh:
            assert fh.read() == fresh
        with open(table, newline="") as fh:
            assert [row.split(",")[0] for row in fh.readlines()[1:]] \
                == ["0", "1", "2", "3", "4"]

    @pytest.fixture(scope="class")
    def short_run(self, tmp_path_factory):
        """Outdir of a finished two-segment run (segments 0 and 1)."""
        out = tmp_path_factory.mktemp("short")
        cli.cmd_reconstruct(micro_config(out, horizon=0.2))
        return out / "runs"

    @pytest.mark.parametrize("cut", ["line_end", "mid_number"])
    def test_truncated_terminal_field_is_io_error(self, cut, short_run,
                                                  tmp_path, capsys):
        out = tmp_path / "runs"
        shutil.copytree(short_run, out)
        (run_dir,) = os.listdir(out)
        path = out / run_dir / "segments" / "terminal_0001.txt"
        text = path.read_text()
        # a cut inside the last number leaves a shorter one that still parses
        path.write_text(text[:text.rindex("\n", 0, -1) + 1]
                        if cut == "line_end" else text[:-8])
        assert cli.main(resume_argv(out)) == cli.EXIT_IO
        assert "corrupt checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["u_0001.csv", "terminal_0001.txt",
                                      "kernel_0001.npz"],
                             ids=["estimate", "terminal", "kernel"])
    def test_non_finite_checkpoint_is_io_error(self, name, short_run,
                                               tmp_path, capsys):
        """A checkpoint that parses to a NaN is corrupt: resuming from it
        would score or march on a number no segment wrote."""
        out = tmp_path / "runs"
        shutil.copytree(short_run, out)
        (run_dir,) = os.listdir(out)
        path = out / run_dir / "segments" / name
        if path.suffix == ".npz":
            with np.load(path) as data:
                arrays = dict(data)
            arrays["diag"][0, 0] = np.nan
            np.savez(path, **arrays)
        else:
            path.write_text(retoken(path.read_text(), 1, 0, "nan"))
        assert cli.main(resume_argv(out)) == cli.EXIT_IO
        assert "corrupt checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("cut", ["line_end", "mid_row"])
    def test_resume_reruns_a_row_cut_short(self, cut, short_run, tmp_path):
        """A crash while appending segment 1's ``segments.csv`` row cuts
        it short, at its line end or mid-row: resume runs segment 1 again
        and writes the finished run's files."""
        out = tmp_path / "runs"
        shutil.copytree(short_run, out)
        (run_dir,) = os.listdir(out)
        segments = out / run_dir / "segments"
        fresh = file_bytes(segments)
        table = segments / "segments.csv"
        text = table.read_bytes()
        table.write_bytes(text.rstrip(b"\r\n") if cut == "line_end"
                          else text[:text.rindex(b",")])
        assert cli.main(resume_argv(out) + ["--horizon", "0.2"]) \
            == cli.EXIT_OK
        assert file_bytes(segments) == fresh

    @pytest.mark.parametrize("name, skip", [
        ("u_0001.csv", 0), ("terminal_0001.txt", 0), ("kernel_0001.npz", 0),
        ("segments.csv", 1)], ids=["estimate", "terminal", "kernel", "row"])
    def test_crash_in_a_checkpoint_write_resumes_to_the_finished_run(
            self, name, skip, short_run, tmp_path, monkeypatch):
        """A crash cuts one of segment 1's four checkpoint writes in its
        middle: no file is left cut under its name, and resume writes the
        finished run's files."""
        (run_dir,) = os.listdir(short_run)
        finished = file_bytes(short_run / run_dir / "segments")
        crash_in_write(monkeypatch, name, skip)
        with pytest.raises(Crash):
            cli.cmd_reconstruct(micro_config(tmp_path, horizon=0.2))
        monkeypatch.undo()
        out = tmp_path / "runs"
        segments = out / run_dir / "segments"
        assert_none_cut(file_bytes(segments), {}, finished)
        assert cli.main(resume_argv(out) + ["--horizon", "0.2"]) \
            == cli.EXIT_OK
        assert file_bytes(segments) == finished

    def test_crash_in_the_resume_rewrite_resumes_to_the_finished_run(
            self, short_run, tmp_path, monkeypatch):
        """Resume rewrites ``segments.csv`` without the rows after the
        finished segments, here a row cut short; a crash cuts that rewrite
        in its middle.  The file is left as it was, and the next resume
        writes the finished run's files."""
        out = tmp_path / "runs"
        shutil.copytree(short_run, out)
        (run_dir,) = os.listdir(out)
        segments = out / run_dir / "segments"
        finished = file_bytes(segments)
        table = segments / "segments.csv"
        table.write_bytes(table.read_bytes()[:-5])
        before = file_bytes(segments)
        crash_in_write(monkeypatch, "segments.csv")
        with pytest.raises(Crash):
            cli.cmd_reconstruct(micro_config(tmp_path, horizon=0.2),
                                resume=True)
        monkeypatch.undo()
        assert_none_cut(file_bytes(segments), before, finished)
        assert cli.main(resume_argv(out) + ["--horizon", "0.2"]) \
            == cli.EXIT_OK
        assert file_bytes(segments) == finished

    def test_crash_in_the_config_write_resumes_to_the_finished_run(
            self, short_run, tmp_path, monkeypatch):
        """Every run, resumes included, rewrites ``config.txt``; a crash
        cuts that write of a finished run in its middle.  The file is left
        whole, and the next resume writes the finished run's files."""
        out = tmp_path / "runs"
        shutil.copytree(short_run, out)
        (run_dir,) = os.listdir(out)
        argv = resume_argv(out) + ["--horizon", "0.2"]

        def run_files():
            # all but the wall time, which summary.txt records
            files = file_bytes(out / run_dir)
            files[pathlib.Path("summary.txt")] = [
                line for line in files[pathlib.Path("summary.txt")]
                .splitlines() if not line.startswith(b"wall time")]
            return files

        assert cli.main(argv) == cli.EXIT_OK    # config.txt names this out
        finished = run_files()
        crash_in_write(monkeypatch, "config.txt")
        with pytest.raises(Crash):
            cli.cmd_reconstruct(micro_config(tmp_path, horizon=0.2),
                                resume=True)
        monkeypatch.undo()
        assert cli.main(argv) == cli.EXIT_OK
        assert run_files() == finished

    def test_metrics_refuses_a_cut_estimate(self, short_run, tmp_path,
                                            capsys):
        """An estimate cut inside its last number still parses, to another
        number; ``metrics`` rejects it as ``--resume`` does."""
        out = tmp_path / "runs"
        shutil.copytree(short_run, out)
        (run_dir,) = os.listdir(out)
        path = out / run_dir / "segments" / "u_0001.csv"
        path.write_bytes(path.read_bytes()[:-5])
        assert cli.main(["metrics", "--run", str(out / run_dir),
                         "--scenario", "null"]) == cli.EXIT_IO
        assert "u_0001.csv is truncated" in capsys.readouterr().err

    def test_metrics_refuses_a_bad_coarse_mesh_entry(self, short_run,
                                                     tmp_path, capsys):
        """A ``coarse_triangles`` entry that is not an integer is a corrupt
        run directory, not a configuration error."""
        out = tmp_path / "runs"
        shutil.copytree(short_run, out)
        (run_dir,) = os.listdir(out)
        config = out / run_dir / "config.txt"
        config.write_text(config.read_text().replace(
            "coarse_triangles = 300", "coarse_triangles = 3x0"))
        assert cli.main(["metrics", "--run", str(out / run_dir),
                         "--scenario", "null"]) == cli.EXIT_IO
        assert "coarse_triangles" in capsys.readouterr().err

    def test_metrics_refuses_a_run_of_another_shape(self, short_run,
                                                    tmp_path, capsys):
        """The one-component run does not fit ex2's two components."""
        out = tmp_path / "runs"
        shutil.copytree(short_run, out)
        (run_dir,) = os.listdir(out)
        assert cli.main(["metrics", "--run", str(out / run_dir),
                         "--scenario", "ex2"]) == cli.EXIT_IO
        err = capsys.readouterr().err
        assert "(1, 300)" in err and "(2, 300)" in err
        assert "does not fit the scenario" in err and "corrupt" not in err
        assert not os.path.exists(out / run_dir / "metrics_truth.csv")

    def test_metrics_evaluates_each_truth_once(self, short_run, tmp_path,
                                               monkeypatch):
        """The truth of a segment both scores it and outlines its
        ``heatmaps_truth/`` images."""
        out = tmp_path / "runs"
        shutil.copytree(short_run, out)
        (run_dir,) = os.listdir(out)
        times = []

        def truth(scn, t, mesh):
            times.append(t)
            return sc.eval_truth(scn, t, mesh)

        monkeypatch.setattr(cli, "eval_truth", truth)
        cli.cmd_metrics(str(out / run_dir), "ex1")
        assert len(times) == len(set(times)) == 2
        assert len(os.listdir(out / run_dir / "heatmaps_truth")) == 2

    def test_metrics_scores_the_finished_segments(self, short_run, tmp_path):
        """A segment without its ``segments.csv`` row is not finished, so
        ``metrics`` does not score it; the finished one scores as in the
        run's own ``metrics.csv``, byte for byte."""
        out = tmp_path / "runs"
        shutil.copytree(short_run, out)
        (run_dir,) = os.listdir(out)
        run_dir = out / run_dir
        table = run_dir / "segments" / "segments.csv"
        table.write_text("".join(table.read_text().splitlines(True)[:2]))
        path = cli.cmd_metrics(str(run_dir), "null")
        with open(run_dir / "metrics.csv") as fh:
            run = fh.readlines()
        with open(path) as fh:
            assert fh.readlines() == run[:2]
        assert sorted(os.listdir(run_dir / "heatmaps_truth")) \
            == ["seg0000_c0.pgm"]

    def test_kernel_with_other_time_nodes_is_io_error(self, tmp_path,
                                                      capsys):
        """A kernel checkpoint must hold one slice per time node of a
        segment; ex2 at tol 0.03 checkpoints a kernel with terms."""
        kw = dict(scenario="ex2", scheme="dfp", tol=0.03)
        run_dir = cli.cmd_reconstruct(micro_config(tmp_path, horizon=0.2,
                                                   **kw))
        path = os.path.join(run_dir, "segments", "kernel_0001.npz")
        with np.load(path) as data:
            arrays = dict(data)
        assert len(arrays["weight"]) > 0
        arrays["m"], arrays["n"] = arrays["m"][:, 1:], arrays["n"][:, 1:]
        np.savez(path, **arrays)
        assert cli.main(resume_argv(tmp_path / "runs") + [
            "--scenario", "ex2", "--scheme", "dfp", "--tol", "0.03"]) \
            == cli.EXIT_IO
        assert "corrupt checkpoint" in capsys.readouterr().err

    def test_resume_refuses_another_measurement(self, tmp_path, capsys):
        """A run begun on data made on one reference mesh does not go on
        with data made on another."""
        first, other = (cli.cmd_generate(micro_config(
            tmp_path / f"data{ref}", reference_triangles=ref))
            for ref in (960, 1200))
        cli.cmd_reconstruct(micro_config(tmp_path, horizon=0.2),
                            measurement_base=first)
        out = tmp_path / "runs"
        before = file_bytes(out)
        assert cli.main(resume_argv(out) + ["--measurement", other]) \
            == cli.EXIT_IO
        assert "measurement" in capsys.readouterr().err
        assert file_bytes(out) == before
        assert cli.main(resume_argv(out) + ["--measurement", first]) \
            == cli.EXIT_OK

    @pytest.mark.parametrize("tag", [
        # before every march added its perturbed cells' change to the
        # unperturbed operator
        pytest.param(b"snapped samples\n", id="snapped"),
        # before the lowest-index locator ties and the fixed-order CG
        pytest.param(b"fixed-order inner products\n", id="inner-products"),
        # before band Cholesky factorized the steps on the mesh's pattern
        pytest.param(b"lowest-index ties, fixed-order CG\n",
                     id="superlu-steps"),
    ])
    def test_resume_refuses_a_run_of_the_earlier_steps(self, tmp_path,
                                                       capsys, tag):
        """A run whose measurement digest has the tag of earlier code does
        not resume: its results differ in their last bits."""
        base = cli.cmd_generate(micro_config(tmp_path / "data",
                                             reference_triangles=960))
        run_dir = cli.cmd_reconstruct(micro_config(tmp_path, horizon=0.2),
                                      measurement_base=base)
        mset = synth.load_measurement_set(base, 960)
        kept = mset.sample_times <= 0.2 + 1e-9
        earlier = hashlib.sha256(tag
                                 + mset.sample_times[kept].tobytes()
                                 + mset.noisy[kept].tobytes()).hexdigest()
        config = pathlib.Path(run_dir) / "config.txt"
        text = config.read_text()
        digest = cli._read_config(config)["measurement"]
        assert digest != earlier
        config.write_text(text.replace(digest, earlier))
        argv = resume_argv(tmp_path / "runs") + ["--measurement", base]
        assert cli.main(argv) == cli.EXIT_IO
        assert "measurement" in capsys.readouterr().err
        config.write_text(text)
        assert cli.main(argv) == cli.EXIT_OK

    def test_readme_quotes_the_digest_tag(self):
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        tag = cli.DIGEST_TAG.decode().strip()
        assert f"tag (`cli.DIGEST_TAG`) is now `{tag}`" \
            in " ".join(readme.read_text().split())

    def test_resume_refuses_a_shorter_horizon(self, tmp_path, capsys):
        """A run to 0.5 is not resumed to 0.3: a resume extends a run and
        never shortens it, and the refusal writes nothing."""
        base = cli.cmd_generate(micro_config(
            tmp_path / "data", scenario="ex1", reference_triangles=1200))
        cli.cmd_reconstruct(micro_config(tmp_path, scenario="ex1"),
                            measurement_base=base)
        out = tmp_path / "runs"
        before = file_bytes(out)
        argv = resume_argv(out) + ["--scenario", "ex1", "--measurement", base]
        assert cli.main(argv + ["--horizon", "0.3"]) == cli.EXIT_IO
        assert "shorten" in capsys.readouterr().err
        assert file_bytes(out) == before

    def test_resume_refuses_changed_parameters(self, short_run, tmp_path,
                                               capsys):
        """Only the horizon may change when a run resumes."""
        out = tmp_path / "runs"
        shutil.copytree(short_run, out)
        (run_dir,) = os.listdir(out)
        before = file_bytes(out)
        assert cli.main(resume_argv(out) + ["--damping", "0.3"]) \
            == cli.EXIT_IO
        assert "damping" in capsys.readouterr().err
        assert file_bytes(out) == before
        os.remove(out / run_dir / "config.txt")
        assert cli.main(resume_argv(out)) == cli.EXIT_IO
        assert "config.txt" in capsys.readouterr().err


def float_flags():
    """The flag of every float field of RunConfig, read off the type hints
    as ``cli._add_run_flags`` reads them."""
    hints = typing.get_type_hints(cli.RunConfig)
    return [f.metadata.get("flag", "--" + f.name.replace("_", "-"))
            for f in dataclasses.fields(cli.RunConfig)
            if float in (typing.get_args(hints[f.name]) or (hints[f.name],))]


# a run that the settings below spoil; each later flag overrides its own
PROBE = ["--scenario", "ex1", "--fine-triangles", "1000",
         "--coarse-triangles", "300", "--reference-triangles", "3000",
         "--horizon", "0.2"]
BAD_SETTINGS = [("reconstruct", f"{flag}={value}") for flag in float_flags()
                for value in ("nan", "inf", "-inf")] + [
    ("generate", "--noise=nan"), ("generate", "--noise=inf"),
    ("sweep", "--noises=0.05,nan"), ("sweep", "--dampings=0.5,1.5"),
    ("sweep", "--schemes=dfp,xyz"), ("sweep", "--coarse-triangles=3000"),
    ("reconstruct", "--coarse-triangles=3000"),
    ("reconstruct", "--coarse-triangles=10"), ("reconstruct", "--seed=-1"),
    # grids past fem.MAX_STEPS
    ("reconstruct", "--dt=1e-9"),
    ("reconstruct", "--dt=1e-300 --segment-length=1e-300")]


class TestMainExitCodes:
    @pytest.mark.parametrize("command, setting", BAD_SETTINGS,
                             ids=[" ".join(case) for case in BAD_SETTINGS])
    def test_bad_setting_is_refused_before_any_data_or_file(
            self, command, setting, tmp_path, capsys, monkeypatch):
        """Every float flag at nan, inf and -inf, a bad sweep entry, a
        coarse mesh that the fine one cannot cover (or below the mesh
        builder's minimum) and a run of more steps than ``fem.MAX_STEPS``
        exit 2 before the reference is generated and with no file under
        --out."""
        def never(*args, **kwargs):
            raise AssertionError("generated data for refused settings")

        monkeypatch.setattr(synth, "generate_reference", never)
        out = tmp_path / "runs"
        assert cli.main([command, *PROBE, *setting.split(),
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err
        assert not out.exists()

    def test_sample_grid_past_the_step_limit_is_config_error(self, tmp_path,
                                                             capsys):
        """A reference of more steps than ``fem.MAX_STEPS`` is refused
        before its arrays are made, with no file under --out."""
        out = tmp_path / "data"
        assert cli.main(["generate", *PROBE, "--sample-dt", "1e-12",
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert "MAX_STEPS" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_scenario_is_config_error(self, capsys):
        assert cli.main(["reconstruct", "--scenario", "doesnotexist"]) \
            == cli.EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("text, named", [
        ("[scenario]\nops = potential\n[inclusion.1]\ncontrast = 5\n"
         "[bounds]\n0 = 0, 30\n", "'trajectory' in section: 'inclusion.1'"),
        ("[scenario]\nops = potential\n[inclusion.1]\n"
         "trajectory = (0.3, 0)\n[bounds]\n0 = 0, 30\n",
         "'contrast' in section: 'inclusion.1'"),
        ("name = custom\n", "no section headers"),
        ("[scenario]\nname = custom\n[scenario]\nhorizon = 2\n",
         "section 'scenario' already exists"),
    ], ids=["no-trajectory", "no-contrast", "no-header", "duplicate-section"])
    def test_malformed_scenario_file_is_config_error(self, tmp_path, capsys,
                                                     text, named):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        assert cli.main(["reconstruct", "--scenario", str(path),
                         "--out", str(tmp_path / "r")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err

    @pytest.mark.parametrize("contrast", ["-0.5 + 0.0 / (t - 0.005)",
                                          "1e999 - 1e999"],
                             ids=["division-by-zero", "not-a-number"])
    def test_unevaluable_scenario_is_config_error(self, contrast, tmp_path,
                                                  capsys):
        """A contrast that cannot be evaluated at a reference step's
        midpoint (t = 0.005) is a configuration error, not a crash or a
        solver failure."""
        path = tmp_path / "bad.cfg"
        path.write_text("[scenario]\nops = conductivity\n[inclusion.1]\n"
                        "trajectory = (0.3, 0)\ncontrast = " + contrast
                        + "\n[bounds]\n0 = -0.9, 0\n")
        assert cli.main(["generate", "--scenario", str(path),
                         "--fine-triangles", "1000",
                         "--coarse-triangles", "300", "--horizon", "0.2",
                         "--out", str(tmp_path / "data")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and "contrast" in err

    def test_deeply_nested_expression_is_config_error(self, tmp_path,
                                                      capsys):
        path = tmp_path / "deep.cfg"
        path.write_text("[scenario]\nops = potential\n[inclusion.1]\n"
                        "trajectory = (0.3, 0)\ncontrast = " + "-" * 1200
                        + "5\n[bounds]\n0 = 0, 30\n")
        assert cli.main(["reconstruct", "--scenario", str(path),
                         "--out", str(tmp_path / "r")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and "nested deeper" in err

    @pytest.mark.parametrize("flags, named", [
        (["--dt", "0"], "must be positive"),
        (["--segment-length", "0"], "must be positive"),
        (["--segment-length", "-0.1"], "must be positive"),
        (["--max-inner", "0"], "inner-iteration cap"),
        (["--scheme", "dfp", "--rank-cap", "1"], "below the 2 terms"),
        (["--scheme", "bfg", "--rank-cap", "2"], "below the 3 terms"),
    ], ids=["zero-dt", "zero-segment", "negative-segment", "no-inner",
            "dfp-rank-cap", "bfg-rank-cap"])
    def test_bad_parameter_is_config_error(self, flags, named, tmp_path,
                                           capsys):
        assert cli.main(["reconstruct", "--scenario", "null", *flags,
                         "--out", str(tmp_path / "r")]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and named in err

    def test_missing_measurement_is_io_error(self, tmp_path, capsys):
        code = cli.main(["reconstruct", "--scenario", "null",
                         "--measurement", str(tmp_path / "nope"),
                         "--fine-triangles", "1000",
                         "--coarse-triangles", "300",
                         "--horizon", "0.5",
                         "--out", str(tmp_path / "r")])
        assert code == cli.EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    @pytest.fixture(scope="class")
    def null_data(self, tmp_path_factory):
        """Measurement files of the null scenario for 1000 triangles."""
        return cli.cmd_generate(micro_config(
            tmp_path_factory.mktemp("data"), horizon=0.2,
            reference_triangles=960))

    @pytest.mark.parametrize("damage", [
        lambda text: text[:-8],
        lambda text: text.split("\n", 1)[1],
        lambda text: text[:text.rindex("\n", 0, -1) + 1],
        lambda text: retoken(text, 2, 3, "abc"),
        lambda text: retoken(text, 2, 0, "0.0105"),
        lambda text: retoken(text, 2, 3, "nan"),
    ], ids=["cut-in-last-number", "malformed-header", "rows-missing",
            "not-a-number", "times-disagree", "not-finite"])
    def test_corrupt_measurement_is_io_error(self, damage, null_data,
                                             tmp_path, capsys):
        base = str(tmp_path / "m")
        for suffix in ("_clean.txt", "_noisy.txt", "_manifest.txt"):
            shutil.copy(null_data + suffix, base + suffix)
        noisy = pathlib.Path(base + "_noisy.txt")
        noisy.write_text(damage(noisy.read_text()))
        assert cli.main(["reconstruct", "--scenario", "null",
                         "--measurement", base, "--fine-triangles", "1000",
                         "--coarse-triangles", "300", "--horizon", "0.2",
                         "--out", str(tmp_path / "runs")]) == cli.EXIT_IO
        assert "i/o error" in capsys.readouterr().err

    @pytest.mark.parametrize("files, damage", [
        (("_clean.txt", "_noisy.txt"), swap_rows),
        (("_clean.txt", "_noisy.txt"), lambda text: retoken(text, 1, 0,
                                                            "0.0125")),
        (("_clean.txt", "_noisy.txt"), lambda text: retoken(text, 3, 0,
                                                            "0.025")),
        (("_noisy.txt",), lambda text: retoken(text, 0, 2, "-0.5")),
        (("_noisy.txt",), lambda text: retoken(text, 0, 3, "-3")),
        (("_manifest.txt",), lambda text: text.replace(
            "reference_triangles = 960", "reference_triangles = 5")),
    ], ids=["rows-swapped", "first-time-not-zero", "time-off-the-lattice",
            "negative-noise", "negative-seed", "tiny-reference-mesh"])
    def test_data_that_generate_never_writes_is_io_error(
            self, files, damage, null_data, tmp_path, capsys):
        """Sample times out of order, not from 0 or off the lattice of
        their first step, and a noise level, seed or reference mesh that
        its field refuses make the data corrupt, not the flags: exit 4,
        with no run directory."""
        base = str(tmp_path / "m")
        for suffix in ("_clean.txt", "_noisy.txt", "_manifest.txt"):
            shutil.copy(null_data + suffix, base + suffix)
        for suffix in files:
            path = pathlib.Path(base + suffix)
            path.write_text(damage(path.read_text()))
        out = tmp_path / "runs"
        assert cli.main(["reconstruct", "--scenario", "null",
                         "--measurement", base, "--fine-triangles", "1000",
                         "--coarse-triangles", "300", "--horizon", "0.2",
                         "--out", str(out)]) == cli.EXIT_IO
        assert "corrupt measurement" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("horizon", ["0", "-0.5"])
    def test_nonpositive_horizon_is_config_error(self, horizon, null_data,
                                                 tmp_path, capsys):
        out = tmp_path / "runs"
        assert cli.main(["reconstruct", "--scenario", "null",
                         "--measurement", null_data, "--fine-triangles",
                         "1000", "--coarse-triangles", "300",
                         "--horizon", horizon, "--out", str(out)]) \
            == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and "horizon" in err
        assert not out.exists()

    def test_bad_reference_mesh_entry_is_io_error(self, null_data, tmp_path,
                                                  capsys):
        """A manifest whose ``reference_triangles`` is not an integer is
        corrupt data, not a configuration error."""
        base = str(tmp_path / "m")
        for suffix in ("_clean.txt", "_noisy.txt", "_manifest.txt"):
            shutil.copy(null_data + suffix, base + suffix)
        manifest = pathlib.Path(base + "_manifest.txt")
        manifest.write_text(manifest.read_text().replace(
            "reference_triangles = 960", "reference_triangles = 9.6e2"))
        assert cli.main(["reconstruct", "--scenario", "null",
                         "--measurement", base, "--fine-triangles", "1000",
                         "--coarse-triangles", "300", "--horizon", "0.2",
                         "--out", str(tmp_path / "runs")]) == cli.EXIT_IO
        assert "reference_triangles" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["generate", "reconstruct"])
    def test_inverse_crime_at_generation_is_config_error(self, command,
                                                         tmp_path, capsys):
        assert cli.main([command, "--scenario", "null",
                         "--fine-triangles", "960",
                         "--reference-triangles", "960",
                         "--coarse-triangles", "300", "--horizon", "0.2",
                         "--out", str(tmp_path)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and "inverse-crime" in err

    def test_refused_run_creates_no_directory(self, tmp_path, capsys):
        """A horizon that the segments do not partition is refused before
        the run directory is made."""
        out = tmp_path / "runs"
        assert cli.main(["reconstruct", "--scenario", "null",
                         "--fine-triangles", "1000",
                         "--coarse-triangles", "300", "--horizon", "0.05",
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert "partition" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["reconstruct", "sweep"])
    def test_bad_settings_are_refused_before_generating(
            self, command, tmp_path, capsys, monkeypatch):
        """Settings that no data can mend are refused before the reference
        is generated."""
        def never(*args, **kwargs):
            raise AssertionError("generated data for refused settings")

        monkeypatch.setattr(synth, "generate_reference", never)
        out = tmp_path / "runs"
        assert cli.main([command, "--scenario", "ex1",
                         "--fine-triangles", "1000",
                         "--coarse-triangles", "300", "--horizon", "1.05",
                         "--out", str(out)]) == cli.EXIT_CONFIG
        assert "partition" in capsys.readouterr().err
        assert not out.exists()

    def test_run_is_named_and_recorded_by_its_data(self, tmp_path):
        """Data made with other noise, seed, reference mesh and sample step
        than the reconstruct flags name the run and fill its config.txt."""
        data = tmp_path / "data"
        assert cli.main(["generate", "--scenario", "null", "--noise", "0.02",
                         "--seed", "3", "--reference-triangles", "1200",
                         "--sample-dt", "0.02", "--fine-triangles", "1000",
                         "--coarse-triangles", "300", "--horizon", "0.2",
                         "--out", str(data)]) == cli.EXIT_OK
        out = tmp_path / "runs"
        assert cli.main(["reconstruct", "--scenario", "null",
                         "--measurement", str(data / "null_eps0.02_seed3"),
                         "--fine-triangles", "1000",
                         "--coarse-triangles", "300", "--horizon", "0.2",
                         "--out", str(out)]) == cli.EXIT_OK
        assert os.listdir(out) == ["null_eps0.02_seed3_dfp"]
        config = cli._read_config(
            out / "null_eps0.02_seed3_dfp" / "config.txt")
        assert (config["noise"], config["seed"], config["reference_triangles"],
                config["sample_dt"]) == ("0.02", "3", "1200", "0.02")

    def test_reference_mesh_comes_from_the_manifest(self, tmp_path, capsys):
        """Data made on 960 triangles cannot be inverted on 960, whatever
        --reference-triangles says.  Both 960 and 1000 triangles give 76
        boundary vertices, so the stored trace fits the inversion mesh."""
        out = str(tmp_path / "runs")
        base = cli.cmd_generate(micro_config(tmp_path, horizon=0.2,
                                             reference_triangles=960))
        argv = ["reconstruct", "--scenario", "null", "--measurement", base,
                "--fine-triangles", "960", "--coarse-triangles", "300",
                "--horizon", "0.2", "--out", out]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert "inverse-crime" in capsys.readouterr().err
        os.remove(base + "_manifest.txt")
        assert cli.main(argv) == cli.EXIT_IO

    def test_measurement_on_another_mesh_is_config_error(self, tmp_path,
                                                         capsys):
        """Data interpolated onto 1000 triangles' 76 boundary vertices does
        not fit the 136 of a 3000-triangle inversion mesh."""
        base = cli.cmd_generate(micro_config(tmp_path, horizon=0.2,
                                             reference_triangles=960))
        code = cli.main(["reconstruct", "--scenario", "null",
                         "--measurement", base, "--fine-triangles", "3000",
                         "--coarse-triangles", "300", "--horizon", "0.2",
                         "--out", str(tmp_path / "runs")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "76 boundary values" in err
        assert "136 boundary vertices" in err

    def test_solver_failure_maps_to_exit_3(self, monkeypatch, capsys):
        def boom(*a, **k):
            raise fem.FemError("factorization failed")
        monkeypatch.setattr(cli, "cmd_reconstruct", boom)
        assert cli.main(["reconstruct", "--scenario", "null"]) \
            == cli.EXIT_SOLVER
        assert "solver error" in capsys.readouterr().err

    def test_missing_run_dir_for_metrics(self, capsys):
        assert cli.main(["metrics", "--run", "absent", "--scenario", "ex1"]) \
            == cli.EXIT_IO

    def test_generate_ok(self, tmp_path, capsys):
        code = cli.main(["generate", "--scenario", "null", "--noise", "0",
                         "--fine-triangles", "1000",
                         "--coarse-triangles", "300", "--horizon", "0.2",
                         "--out", str(tmp_path)])
        assert code == cli.EXIT_OK
        assert "wrote measurement" in capsys.readouterr().out
