"""Check that two source trees of heatprobe give bit-identical results.

Usage:
    python3 tools/bitwise_compare.py PARENT_SRC CHANGE_SRC WORKDIR

PARENT_SRC and CHANGE_SRC are ``src`` directories (for the parent commit,
e.g. of a ``git archive`` export).  Each tree runs in its own process and
writes to WORKDIR:

- the measurement set (sample times, clean and noisy traces) of each
  window's scenario, and the ``SegmentReport`` fields of micro windows
  (3000/600 triangles, seed 1, 5% noise): ex2 DFP and BFGS with rank cap 5
  and the r_zeta variant at tol 0.03, ex2 DFP at tol 0.03 with damping 0.1
  (kernel terms fade below ``DAMP_DROP`` after 9 damps and are dropped),
  ex3 BFGS at tol 0.03, ex1 at tol 0.10, ex4 restated as a scenario
  config file (written to WORKDIR, so the expression compiler and the
  config loader run end to end) with DFP at tol 0.03, and ex2's
  trajectories restated as a mixed-type config file (``ops =
  conductivity, power_potential:3``, also written to WORKDIR) with DFP at
  tol 0.03, whose forward marches factorize a conductivity with a lagged
  power weight at every step and sweep (its reference march condenses
  that operator on windows, as every sampler march does);
- the CLI profile run directory (ex1, horizon 2, 3000/600, seed 1, through
  ``cmd_generate`` and ``cmd_reconstruct --measurement``);
- the checkpoints of an ex2 DFP run at tol 0.03 over [0, 0.5];
- every field and the cell adjacency (``mesh.cell_adjacency``) of the
  disk meshes in ``MESH_SIZES``: those of the runs above (3000, 600 and
  the 13870-triangle reference), of the tests and of the acceptance scale;
- the coarse cell of each fine centroid (``mesh.locate_cells``, the
  ``cell_map`` of a transfer) for the pairs in ``TRANSFERS``, and the
  heatmap raster's pixel cells (``cli._Raster``) of the meshes in
  ``RASTERS``.

The script then compares meshes on the fields both trees hold (a parent's
``boundary_edges`` must be the change's loop ``boundary_vertices[i] ->
boundary_vertices[i + 1]``, row for row), located cells index for index
(each one that moved is printed), measurement sets and reports bit for bit
and files byte for byte (``summary.txt`` but its wall-time line;
``config.txt`` and the manifest are listed, as they record the output
directory), and resumes the parent's checkpoints with the change's code to
[0, 1], which must equal the change's fresh run.  Exit status 0 when
everything matches.  For a change that moves results by rounding, every
measured array, report field, file column or array that differs is
printed with its maximum relative difference, max|a - b| / max|b|.
"""

import os
import pickle
import subprocess
import sys

HERE = os.path.abspath(__file__)

# ex4 restated; it evaluates bitwise as the builtin ex4 does
EX4_CONFIG = """\
[scenario]
name = custom
horizon = 10
ops = potential
[inclusion.1]
trajectory = (0.7*cos(pi*t/8), 0.6*sin(pi*t/8))
contrast = max(15 - 2.5*t, 0)
[inclusion.2]
trajectory = (0.5*cos(pi*t/8 + 4*pi/5), 0.6*cos(pi*t/8 + 4*pi/5))
contrast = min(2.5*t, 15)
[bounds]
0 = 0, 30
"""

# ex2's inclusions, the potential one raised to a power law
MIXED_CONFIG = """\
[scenario]
name = custom
horizon = 10
ops = conductivity, power_potential:3
[inclusion.1]
trajectory = (0.65*cos(pi*t/8 - 7*pi/6), 0.65*sin(pi*t/8 - 7*pi/6))
contrast = -0.9
[inclusion.2]
trajectory = (0.6*cos(pi*t/8 - pi/3), 0.7*sin(pi*t/8 - pi/3))
contrast = -0.9
[inclusion.3]
component = 1
trajectory = (0.7*cos(pi*t/8 - pi/3), 0.5*sin(pi*t/8 - pi/3))
contrast = 15
[bounds]
0 = -0.99, 0
1 = 0, 30
"""


def _reports(result):
    return [(s.index, s.t_mid, s.u, s.residual, s.counters.as_tuple(),
             s.iterations, s.warned, s.kernel_rank) for s in result.segments]


def _same(a, b):
    import numpy as np
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype \
            and a.shape == b.shape and np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and a == b


def _max_rel(a, b):
    """max|a - b| / max|b| of two numeric arrays, or None when they are not
    comparable (shape, type)."""
    import numpy as np
    try:
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    except (TypeError, ValueError):
        return None
    if a.shape != b.shape:
        return None
    scale = np.max(np.abs(b), initial=0.0)
    diff = np.max(np.abs(a - b), initial=0.0)
    return diff / scale if scale > 0 else diff


def _diff(name, a, b):
    """How ``a`` differs from ``b``: by its max rel, when comparable."""
    rel = _max_rel(a, b)
    return f"{name} differs" if rel is None else f"{name} max rel {rel:.1e}"


MEASURED = ("sample_times", "clean", "noisy")
MESH_SIZES = (300, 600, 1000, 1120, 1200, 3000, 7002, 13870)
# (fine, coarse) pairs whose fine centroids are located on the coarse mesh
TRANSFERS = ((1000, 300), (3000, 600), (7002, 1120), (13870, 7002))
RASTERS = (300, 600, 1120)      # meshes whose heatmap raster is compared
REPORT_FIELDS = ("index", "t_mid", "u", "residual", "counters", "iterations",
                 "warned", "kernel_rank")


def _report_diffs(a, b):
    """``field: max rel`` for each report field that differs over the
    segments of two windows."""
    if len(a) != len(b):
        return [f"{len(a)} against {len(b)} segments"]
    out = []
    for i, name in enumerate(REPORT_FIELDS):
        pa, pb = [seg[i] for seg in a], [seg[i] for seg in b]
        if not _same(pa, pb):
            out.append(_diff(name, pa, pb))
    return out


def _file_arrays(path):
    """The named numeric arrays of an output file, or None for text."""
    import numpy as np
    if path.endswith(".npz"):
        with np.load(path) as data:
            return dict(data)
    if path.endswith(".csv"):
        table = np.genfromtxt(path, delimiter=",", names=True)
        return {name: table[name] for name in table.dtype.names}
    if path.endswith(".pgm"):
        with open(path, "rb") as fh:
            return {"pixels": np.frombuffer(fh.read(), dtype=np.uint8)}
    if os.path.basename(path).startswith("terminal_"):
        return {"values": np.loadtxt(path)}
    return None


def _file_diffs(path_a, path_b):
    arrays_a, arrays_b = _file_arrays(path_a), _file_arrays(path_b)
    if arrays_a is None or arrays_b is None \
            or arrays_a.keys() != arrays_b.keys():
        return "differs"
    return ", ".join(_diff(name, arrays_a[name], arrays_b[name])
                     for name in arrays_a
                     if not _same(arrays_a[name], arrays_b[name]))


def dump(src, out):
    """Runs in the child process: everything one tree produces."""
    sys.path.insert(0, src)
    from heatprobe import cli, mesh, reconstruction as recon, scenario, synth
    fine, coarse = mesh.build_disk_mesh(3000), mesh.build_disk_mesh(600)
    transfer = mesh.build_transfer(fine, coarse)
    scenarios = {name: scenario.builtin(name) for name in ("ex1", "ex2", "ex3")}
    for name, text in (("ex4_config", EX4_CONFIG), ("mixed", MIXED_CONFIG)):
        config = os.path.join(out, f"{name}.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(text)
        scenarios[name] = scenario.load_scenario_config(config)
    data = {}

    def window(name, horizon, **kw):
        if name not in data:
            data[name] = synth.build_measurement_set(
                scenarios[name], fine, 0.05, 1, horizon=1.0)
        opts = recon.Options(fine_triangles=3000, coarse_triangles=600,
                             horizon=horizon, **kw)
        return recon.run(scenarios[name], data[name], opts,
                         fine=fine, coarse=coarse, transfer=transfer)

    windows = {
        "ex2_dfp": window("ex2", 1.0, tol=0.03, scheme="dfp"),
        "ex2_bfg_cap5": window("ex2", 1.0, tol=0.03, scheme="bfg",
                               rank_cap=5),
        "ex2_dfp_r_zeta": window("ex2", 1.0, tol=0.03, scheme="dfp",
                                 eta_hat_variant="r_zeta"),
        "ex2_dfp_damp0.1": window("ex2", 1.0, tol=0.03, scheme="dfp",
                                  damping=0.1),
        "ex3_bfg": window("ex3", 0.5, tol=0.03, scheme="bfg"),
        "ex1_bfg": window("ex1", 1.0, tol=0.10, scheme="bfg"),
        "ex4_config_dfp": window("ex4_config", 1.0, tol=0.03, scheme="dfp"),
        "mixed_dfp": window("mixed", 1.0, tol=0.03, scheme="dfp"),
    }
    with open(os.path.join(out, "windows.pkl"), "wb") as fh:
        pickle.dump({k: _reports(v) for k, v in windows.items()}, fh)
    meshes, built = {}, {}
    for n in MESH_SIZES:
        m = built[n] = mesh.build_disk_mesh(n)
        adjacency = mesh.cell_adjacency(m)
        meshes[n] = {**vars(m), "cell_adjacency": [
            adjacency.indptr, adjacency.indices, adjacency.data]}
    with open(os.path.join(out, "meshes.pkl"), "wb") as fh:
        pickle.dump(meshes, fh)
    located = {f"{f}/{c} cell_map": mesh.locate_cells(built[c],
                                                      built[f].centroids)
               for f, c in TRANSFERS}
    located.update({f"raster {c} cells": cli._Raster(built[c]).cells
                    for c in RASTERS})
    with open(os.path.join(out, "located.pkl"), "wb") as fh:
        pickle.dump(located, fh)
    with open(os.path.join(out, "measurements.pkl"), "wb") as fh:
        pickle.dump({k: [getattr(m, name) for name in MEASURED]
                     for k, m in data.items()}, fh)
    cfg = cli.RunConfig(scenario="ex1", horizon=2.0, fine_triangles=3000,
                        coarse_triangles=600, seed=1,
                        outdir=os.path.join(out, "cli"))
    cli.cmd_reconstruct(cfg, measurement_base=cli.cmd_generate(cfg))
    opts = recon.Options(fine_triangles=3000, coarse_triangles=600,
                         horizon=0.5, tol=0.03, scheme="dfp")
    recon.run(scenario.builtin("ex2"), data["ex2"], opts, fine=fine,
              coarse=coarse, transfer=transfer,
              checkpoint_dir=os.path.join(out, "ckpt"))


def resume(src, parent_ckpt, out):
    """Runs in the child process: the change resumes the parent's run."""
    sys.path.insert(0, src)
    import shutil
    from heatprobe import mesh, reconstruction as recon, scenario, synth
    fine, coarse = mesh.build_disk_mesh(3000), mesh.build_disk_mesh(600)
    transfer = mesh.build_transfer(fine, coarse)
    scn = scenario.builtin("ex2")
    mset = synth.build_measurement_set(scn, fine, 0.05, 1, horizon=1.0)
    opts = recon.Options(fine_triangles=3000, coarse_triangles=600,
                         horizon=1.0, tol=0.03, scheme="dfp")
    shutil.copytree(parent_ckpt, os.path.join(out, "resumed"))
    resumed = recon.run(scn, mset, opts, fine=fine, coarse=coarse,
                        transfer=transfer, resume=True,
                        checkpoint_dir=os.path.join(out, "resumed"))
    fresh = recon.run(scn, mset, opts, fine=fine, coarse=coarse,
                      transfer=transfer)
    ranks = [s.kernel_rank for s in resumed.segments]
    same = _same(_reports(resumed), _reports(fresh))
    diffs = "" if same else \
        f" ({'; '.join(_report_diffs(_reports(resumed), _reports(fresh)))})"
    print(f"resume of the parent's checkpoints (ranks {ranks}) equals a "
          f"fresh run: {same}{diffs}")
    sys.exit(0 if same else 1)


def _files(root):
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _read(path):
    with open(path, "rb") as fh:
        data = fh.read()
    # the last line of summary.txt is the wall time
    return data.rsplit(b"\n", 2)[0] if path.endswith("summary.txt") else data


def _load(path):
    with open(path, "rb") as fh:
        return pickle.load(fh)


def compare(parent, change):
    import numpy as np
    meshes_a, meshes_b = (_load(os.path.join(side, "meshes.pkl"))
                          for side in (parent, change))
    differ = [f"{n} {name}" for n in meshes_a for name in meshes_a[n]
              if name in meshes_b[n]
              and not _same(meshes_a[n][name], meshes_b[n][name])]
    for n in meshes_a:
        # a field one tree stores and the other derives from its loop
        edges = meshes_a[n].get("boundary_edges")
        if edges is not None and "boundary_edges" not in meshes_b[n]:
            loop = meshes_b[n]["boundary_vertices"]
            if not _same(edges, np.column_stack([loop, np.roll(loop, -1)])):
                differ.append(f"{n} boundary_edges against the loop")
    ok = not differ
    print(f"meshes: {'; '.join(differ) or 'bit-identical'}")
    la, lb = (_load(os.path.join(side, "located.pkl"))
              for side in (parent, change))
    for key in la:
        moved = np.flatnonzero(la[key] != lb[key])
        ok &= not moved.size
        print(f"{key}: " + ("; ".join(
            f"{i}: {la[key][i]} -> {lb[key][i]}" for i in moved)
            or "bit-identical"))
    ma, mb = (_load(os.path.join(side, "measurements.pkl"))
              for side in (parent, change))
    for key in ma:
        differ = [_diff(name, b, a)
                  for name, a, b in zip(MEASURED, ma[key], mb[key])
                  if not _same(a, b)]
        ok &= not differ
        print(f"{key} measurement set: "
              f"{'; '.join(differ) or 'bit-identical'}")
    wa, wb = (_load(os.path.join(side, "windows.pkl"))
              for side in (parent, change))
    for key in wa:
        same = _same(wa[key], wb.get(key))
        ok &= same
        ranks = [r[-1] for r in wa[key]]
        diffs = "" if same or key not in wb else \
            f": {'; '.join(_report_diffs(wb[key], wa[key]))}"
        print(f"{key}: ranks {ranks}, reports "
              f"{'bit-identical' if same else 'DIFFER'}{diffs}")
    for sub in ("cli", "ckpt"):
        fa = _files(os.path.join(parent, sub))
        fb = _files(os.path.join(change, sub))
        differ = sorted(fa ^ fb) + sorted(
            f for f in fa & fb if _read(os.path.join(parent, sub, f))
            != _read(os.path.join(change, sub, f)))
        expected = [f for f in differ
                    if f.endswith(("config.txt", "manifest.txt"))]
        ok &= len(differ) == len(expected)
        print(f"{sub}/: {len(fa & fb)} files, differing: "
              f"{differ or 'none'} (expected: config.txt, manifest)")
        for f in differ:
            if f in fa & fb and f not in expected:
                print(f"  {f}: " + _file_diffs(os.path.join(change, sub, f),
                                              os.path.join(parent, sub, f)))
    return ok


def main(parent_src, change_src, workdir):
    dirs = [os.path.join(workdir, side) for side in ("parent", "change")]
    for src, out in zip((parent_src, change_src), dirs):
        os.makedirs(out)
        subprocess.run([sys.executable, HERE, "--dump", src, out],
                       check=True)
    ok = compare(*dirs)
    ok &= subprocess.run([sys.executable, HERE, "--resume", change_src,
                          os.path.join(dirs[0], "ckpt"), dirs[1]]
                         ).returncode == 0
    print("all bit-identical" if ok else "DIFFERENCES FOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    if sys.argv[1] == "--dump":
        dump(*sys.argv[2:4])
    elif sys.argv[1] == "--resume":
        resume(*sys.argv[2:5])
    else:
        sys.exit(main(*sys.argv[1:4]))
