"""One benchmark job in a fresh process: set up, generate, reconstruct, check.

Usage: python3 perfbench/job.py SPEC.json RESULT.json

SPEC holds the checkout root, workload, seed, work directory, whether to
trace, ``setup_only`` and how many times to reconstruct from the one
measurement.  The job writes RESULT as JSON: phase times, peak memory, the
program's own counters and quality figures, the output checks, and (when
traced) every recorded span.  Times are wall-clock
``perf_counter`` seconds; scoring and checks run outside the timed phases.
"""

import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

from tracer import Tracer
from workloads import NOISE, REFERENCE_TRIANGLES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
CLEAN_TRACE_RTOL = 1e-10


class Job:
    def __init__(self, spec):
        self.spec = spec
        self.w = WORKLOADS[spec["workload"]]
        self.tracer = None
        self.out = {"workload": spec["workload"], "seed": spec["seed"],
                    "traced": spec["trace"], "checks": [],
                    "ops": {"generation": [0, 0], "segments": [0, 0],
                            "resume": [0, 0]}}

    def check(self, name, ok, detail=""):
        self.out["checks"].append({"name": name, "ok": bool(ok),
                                   "detail": detail})
        return ok

    def op(self, kind, attempted, failed):
        self.out["ops"][kind][0] += attempted
        self.out["ops"][kind][1] += failed

    # -- phases ------------------------------------------------------------

    def setup(self):
        t0 = time.perf_counter()
        import heatprobe
        from heatprobe import cli, fem, mesh, reconstruction, scenario, synth
        self.hp = dict(cli=cli, fem=fem, mesh=mesh, scenario=scenario,
                       reconstruction=reconstruction, synth=synth)
        self.tracer = Tracer().install(self.hp) if self.spec["trace"] \
            else None
        if not self.w["cli"]:
            self.fine = mesh.build_disk_mesh(self.w["fine"])
            self.coarse = mesh.build_disk_mesh(self.w["coarse"])
            self.transfer = mesh.build_transfer(self.fine, self.coarse)
        self.out["setup_s"] = time.perf_counter() - t0
        import numpy
        import scipy
        self.out["heatprobe_file"] = heatprobe.__file__
        self.out["versions"] = {"python": sys.version.split()[0],
                                "numpy": numpy.__version__,
                                "scipy": scipy.__version__}

    def run(self):
        if self.w["cli"]:
            self._run_cli()
        else:
            self._run_window()

    def _run_window(self):
        hp, w = self.hp, self.w
        scn = hp["scenario"].builtin(w["scenario"])
        started = time.perf_counter()
        mset = hp["synth"].build_measurement_set(
            scn, self.fine, NOISE, self.spec["seed"],
            reference_triangles=REFERENCE_TRIANGLES, horizon=w["horizon"])
        generated = time.perf_counter() - started
        opts = hp["reconstruction"].Options(
            tol=w["tol"], scheme=w["scheme"], horizon=w["horizon"],
            fine_triangles=w["fine"], coarse_triangles=w["coarse"])
        times, prints, result = [], set(), None
        for _ in range(self.spec["repeats"]):
            result = None           # one result alive at a time
            t0 = time.perf_counter()
            result = hp["reconstruction"].run(
                scn, mset, opts, fine=self.fine, coarse=self.coarse,
                transfer=self.transfer)
            times.append(time.perf_counter() - t0)
            prints.add(_fingerprint(result))
        self._finish_timing(generated, times)
        self.check("reconstruction: repeats agree exactly", len(prints) == 1,
                   f"{len(times)} runs")

        import numpy as np
        rows = hp["cli"].compute_metrics(result, scn)
        self._check_clean(mset.clean)
        self._score(
            counters=[s.counters.as_tuple() for s in result.segments],
            residuals=[s.residual for s in result.segments],
            jaccards=[r.jaccard for r in rows],
            estimates_finite=[bool(np.all(np.isfinite(s.u)))
                              for s in result.segments],
            ranks=[s.kernel_rank for s in result.segments],
            iterations=[s.iterations for s in result.segments])

    def _run_cli(self):
        import numpy as np
        cli, w = self.hp["cli"], self.w
        cfg = cli.RunConfig(scenario=w["scenario"], noise=NOISE,
                            seed=self.spec["seed"], tol=w["tol"],
                            scheme=w["scheme"], horizon=w["horizon"],
                            fine_triangles=w["fine"],
                            coarse_triangles=w["coarse"],
                            reference_triangles=REFERENCE_TRIANGLES,
                            outdir=self.spec["workdir"])
        started = time.perf_counter()
        base = cli.cmd_generate(cfg)
        generated = time.perf_counter() - started
        # each repeat writes its own run directory; the first is checked
        rep_cfgs = [dataclasses.replace(
            cfg, outdir=os.path.join(self.spec["workdir"], f"rep{k}"))
            for k in range(self.spec["repeats"])]
        times, run_dirs, fresh = [], [], []
        for rep_cfg in rep_cfgs:
            t0 = time.perf_counter()
            run_dirs.append(cli.cmd_reconstruct(rep_cfg,
                                                measurement_base=base))
            times.append(time.perf_counter() - t0)
            with open(os.path.join(run_dirs[-1], "metrics.csv"), "rb") as fh:
                fresh.append(fh.read())
        self.check("reconstruction: repeats agree exactly",
                   len(set(fresh)) == 1,
                   f"{len(times)} runs, metrics.csv compared")
        run_dir, fresh_metrics = run_dirs[0], fresh[0]
        seg_dir = os.path.join(run_dir, "segments")
        self.out["checkpoint_bytes"] = sum(
            os.path.getsize(os.path.join(seg_dir, f))
            for f in os.listdir(seg_dir))
        cli.cmd_reconstruct(rep_cfgs[0], measurement_base=base, resume=True)
        self._finish_timing(generated, times)

        _, clean, _, _ = self.hp["synth"].load_trace_text(base + "_clean.txt")
        self._check_clean(clean)
        table = np.genfromtxt(os.path.join(run_dir, "metrics.csv"),
                              delimiter=",", names=True)
        n = len(table)
        with open(os.path.join(run_dir, "metrics.csv"), "rb") as fh:
            same = fh.read() == fresh_metrics
        missing = _missing_outputs(run_dir, n)
        resume_ok = self.check("resume: metrics.csv byte-identical", same)
        resume_ok &= self.check("resume: run directory complete",
                                not missing, ", ".join(missing[:5]))
        self.op("resume", 1, 0 if resume_ok else 1)
        estimates = [np.loadtxt(os.path.join(seg_dir, f"u_{i:04d}.csv"),
                                delimiter=",", skiprows=1, ndmin=2)
                     for i in range(n)]
        seg_table = np.genfromtxt(os.path.join(seg_dir, "segments.csv"),
                                  delimiter=",", names=True)
        comps = [c for c in table.dtype.names if c.startswith("jaccard_")]
        self._score(
            counters=[tuple(int(r[k]) for k in ("background", "adjoint",
                                                 "forward", "dirichlet"))
                      for r in table],
            residuals=[float(r) for r in table["residual"]],
            jaccards=[[float(r[c]) for c in comps] for r in table],
            estimates_finite=[bool(np.all(np.isfinite(u))) for u in estimates],
            ranks=[int(r) for r in seg_table["kernel_rank"]],
            iterations=[int(r) for r in table["iterations"]])

    def _finish_timing(self, generate_s, reconstruct_times):
        if self.tracer is not None:
            self.tracer.uninstall()
        self.out["generate_s"] = generate_s
        self.out["reconstruct_runs_s"] = reconstruct_times
        self.out["reconstruct_s"] = statistics.median(reconstruct_times)
        self.out["total_s"] = generate_s + self.out["reconstruct_s"]
        self.out["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- checks ------------------------------------------------------------

    def _check_clean(self, clean):
        import numpy as np
        ref = np.load(os.path.join(HERE, "reference",
                                   f"{self.spec['workload']}.npy"))
        if clean.shape != ref.shape:
            ok = self.check("generation: clean trace matches stored copy",
                            False, f"shape {clean.shape} vs {ref.shape}")
        else:
            rel = float(np.linalg.norm(clean - ref) / np.linalg.norm(ref))
            ok = self.check("generation: clean trace matches stored copy",
                            rel <= CLEAN_TRACE_RTOL,
                            f"relative L2 {rel:.3e} <= {CLEAN_TRACE_RTOL:g}")
        self.op("generation", 1, 0 if ok else 1)

    def _score(self, counters, residuals, jaccards, estimates_finite, ranks,
               iterations):
        n = len(counters)
        solves = sum(sum(c) for c in counters) / max(n, 1)
        lo, hi = self.w["band"]
        in_band = self.check("reconstruction: solves per segment in band",
                             lo <= solves <= hi,
                             f"{solves:.3f} in [{lo:g}, {hi:g}]")
        finite = [f and math.isfinite(residual)
                  for f, residual in zip(estimates_finite, residuals)]
        self.check("reconstruction: estimates and residuals finite",
                   all(finite), f"{sum(finite)}/{n} segments")
        # an out-of-band solve count fails every segment of the run
        failed = n if not in_band else sum(not f for f in finite)
        self.op("segments", n, failed)
        worst = min(statistics.median([j[c] for j in jaccards])
                    for c in range(len(jaccards[0])))
        self.out.update(
            segments=n, counters=counters, solves_per_segment=solves,
            residual_median=statistics.median(residuals),
            jaccard_median=worst,
            kernel_rank_mean=sum(ranks) / n,
            inner_iterations_mean=sum(iterations) / n)


def _fingerprint(result):
    """Digest of everything a reconstruction returns per segment."""
    digest = hashlib.sha256()
    for seg in result.segments:
        digest.update(repr((seg.counters.as_tuple(), seg.residual,
                            seg.kernel_rank, seg.iterations)).encode())
        digest.update(seg.u.tobytes())
    return digest.hexdigest()


def _missing_outputs(run_dir, n):
    needed = ["config.txt", "metrics.csv", "summary.txt",
              "segments/segments.csv"]
    for i in range(n):
        needed += [f"segments/u_{i:04d}.csv", f"segments/terminal_{i:04d}.txt",
                   f"segments/kernel_{i:04d}.npz",
                   f"heatmaps/seg{i:04d}_c0.pgm"]
    return [p for p in needed if not os.path.isfile(os.path.join(run_dir, p))]


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    job = Job(spec)
    try:
        job.setup()
        if not spec["setup_only"]:
            job.run()
    except Exception:
        job.out["error"] = traceback.format_exc()
    if job.tracer is not None and not spec["setup_only"]:
        job.out["spans"] = job.tracer.spans
        job.out["aliases"] = job.tracer.aliases
    with open(result_path, "w") as fh:
        json.dump(job.out, fh)
    return 0 if "error" not in job.out else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
