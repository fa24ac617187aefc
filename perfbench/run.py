"""heatprobe benchmark: a batch closed loop of generate + reconstruct jobs.

Usage (from the checkout root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one job at a time, each in a fresh process
(``perfbench/job.py``); there is no request rate.  A run first starts a few
processes that only set up, then runs jobs back to back while the next one,
if it lasts as long as the last, still ends within ``--seconds``.  The seed
is the noise seed, so a seed fixes every input and every job of a run does
identical work.  With ``--trace 0`` the run reports the end-to-end metrics:
``setup_s`` is the median over every process, ``generate_s`` over jobs and
``reconstruct_s`` over every reconstruction (an untraced job reconstructs
several times, see ``workloads.py``).  With ``--trace 1`` traced and
untraced jobs alternate, each reconstructing once, and the run reports
per-layer metrics from the traced ones plus the tracing overhead.  Every
job's outputs are checked; the last stdout line is the JSON result.  Job
outputs go to a temporary directory under ``.bench_work/`` in the checkout,
removed at exit.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from layers import LAYER_UNITS, cross_check, layer_metrics
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = {"setup_s": "s", "generate_s": "s", "reconstruct_s": "s",
              "total_s": "s", "peak_rss_mb": "MB",
              "solves_per_segment": "count", "residual.median": "ratio",
              "jaccard.median": "ratio"}
# One BLAS/OpenMP thread per job: the solvers are single-threaded, and one
# thread keeps the other core free for the rest of the machine.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_CAP = 1
MIN_SETUP_SAMPLES = 5
DEADLINE_S = 170.0          # every run must end within 180 s


def _provenance():
    sha = "unavailable"     # a checkout without .git has no commit
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "heatprobe",
                                              "*.py"))):
        with open(path, "rb") as fh:
            digest.update(fh.read())
    nproc = os.cpu_count() or 1
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "nproc": nproc, "affinity": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(),
            "thread_caps": {v: min(THREAD_CAP, nproc) for v in THREAD_VARS}}


class Runner:
    def __init__(self, args, work, prov):
        self.args, self.work = args, work
        self.w = WORKLOADS[args.workload]
        self.env = dict(os.environ, PYTHONPATH="",
                        **{k: str(v) for k, v in prov["thread_caps"].items()})
        self.started = time.perf_counter()
        self.count = 0

    def expected_ops(self):
        """Operations of one job: its generation, its segments (of the
        program's default length 0.1) and, on the CLI, the resume check."""
        segments = round(self.w["horizon"] / 0.1)
        return 1 + segments + (1 if self.w["cli"] else 0)

    def job(self, traced, setup_only=False):
        self.count += 1
        tag = os.path.join(self.work, f"job{self.count:03d}")
        spec = {"root": ROOT, "workload": self.args.workload,
                "seed": self.args.seed, "trace": traced,
                "setup_only": setup_only, "workdir": tag,
                "repeats": 1 if self.args.trace else self.w["repeats"]}
        with open(tag + ".spec.json", "w") as fh:
            json.dump(spec, fh)
        left = DEADLINE_S - (time.perf_counter() - self.started)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "job.py"),
                 tag + ".spec.json", tag + ".json"],
                env=self.env, cwd=ROOT, capture_output=True, text=True,
                timeout=max(left, 1.0))
            with open(tag + ".json") as fh:
                out = json.load(fh)
            if proc.returncode != 0 and "error" not in out:
                out["error"] = proc.stderr[-2000:]
        except subprocess.TimeoutExpired:
            out = {"error": "job exceeded the run deadline"}
        except (OSError, ValueError) as exc:
            out = {"error": f"job produced no result: {exc}"}
        out["traced"] = traced
        shutil.rmtree(tag, ignore_errors=True)
        return out

    def measure(self):
        """Set-up probes, then a closed loop of jobs: at least one (with
        tracing two, one traced and one untraced), and another only while
        it would end within ``--seconds`` if it lasted as long as the last."""
        probes = []
        for _ in range(0 if self.args.trace else MIN_SETUP_SAMPLES - 1):
            probes.append(self.job(False, setup_only=True))
            if "setup_s" not in probes[-1]:
                return [], probes
        jobs = []
        min_jobs = 2 if self.args.trace else 1
        while True:
            began = time.perf_counter()
            jobs.append(self.job(bool(self.args.trace) and len(jobs) % 2 == 0))
            ended = time.perf_counter()
            if "error" in jobs[-1] and "setup_s" not in jobs[-1]:
                break
            if len(jobs) >= min_jobs and \
                    ended + (ended - began) - self.started > self.args.seconds:
                break
            if ended - self.started >= DEADLINE_S / 2:
                break
        return jobs, probes


def _median(values):
    return statistics.median(values) if values else float("nan")


def summarize(runner, jobs, probes):
    """Checks, operation counts and metrics of one run."""
    checks, attempted, failed = [], 0, 0
    for job in jobs:
        ops = job.get("ops", {})
        done = sum(a for a, _ in ops.values())
        bad = sum(f for _, f in ops.values())
        if "error" in job:
            checks.append(("job completed", False, job["error"].strip()
                           .splitlines()[-1] if job["error"].strip() else ""))
            expected = runner.expected_ops()
            bad += max(expected - done, 0)
            done = max(expected, done)
        attempted += done
        failed += bad
        checks += [(c["name"], c["ok"], c["detail"])
                   for c in job.get("checks", [])]
        if "heatprobe_file" in job:
            checks.append(("job imported heatprobe from the checkout",
                           job["heatprobe_file"].startswith(
                               os.path.join(ROOT, "src") + os.sep),
                           job["heatprobe_file"]))
        if job["traced"] and "spans" in job:
            checks += cross_check(job)
    for probe in probes:
        if "error" in probe:
            checks.append(("setup probe completed", False,
                           probe["error"].strip().splitlines()[-1]))
    scored = [j for j in jobs if "error" not in j]
    outcomes = {json.dumps([j["counters"], j["residual_median"],
                            j["jaccard_median"]]) for j in scored}
    checks.append(("jobs of one run agree exactly", len(outcomes) <= 1,
                   f"{len(scored)} jobs"))

    plain = [j for j in scored if not j["traced"]]
    traced = [j for j in scored if j["traced"]]
    metrics = {}
    if not runner.args.trace:
        setups = [j["setup_s"] for j in jobs + probes if "setup_s" in j]
        metrics["setup_s"] = _median(setups)
        for name in ("generate_s", "peak_rss_mb", "solves_per_segment"):
            metrics[name] = _median([j[name] for j in plain])
        metrics["reconstruct_s"] = _median(
            [t for j in plain for t in j["reconstruct_runs_s"]])
        metrics["total_s"] = metrics["generate_s"] + metrics["reconstruct_s"]
        metrics["residual.median"] = _median([j["residual_median"]
                                              for j in plain])
        metrics["jaccard.median"] = _median([j["jaccard_median"]
                                             for j in plain])
        units = END_TO_END
    else:
        per_job = [layer_metrics(j) for j in traced]
        for name in LAYER_UNITS:
            values = [m[name] for m in per_job if name in m]
            metrics[name] = _median(values)
        metrics["trace.overhead_s"] = \
            _median([j["total_s"] for j in traced]) \
            - _median([j["total_s"] for j in plain])
        metrics["fail_ratio"] = failed / max(attempted, 1)
        units = LAYER_UNITS
    unmeasured = [name for name, value in metrics.items() if value != value]
    checks.append(("every metric measured", not unmeasured,
                   ", ".join(unmeasured)))
    metrics = {k: v for k, v in metrics.items() if k not in unmeasured}
    return checks, attempted, failed, metrics, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (os.path.join(ROOT, "src", "heatprobe", "__init__.py"),
                   os.path.join(HERE, "reference", f"{args.workload}.npy")):
        if not os.path.isfile(needed):
            print(f"missing {os.path.relpath(needed, ROOT)}: run from a "
                  "heatprobe checkout", file=sys.stderr)
            return 2

    prov = _provenance()
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        runner = Runner(args, work, prov)
        jobs, probes = runner.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(base)
        except OSError:
            pass
    if not any("setup_s" in j for j in jobs):
        print("no process could set up heatprobe:\n"
              + (jobs + probes)[0].get("error", ""), file=sys.stderr)
        return 1

    checks, attempted, failed, metrics, units = summarize(runner, jobs,
                                                          probes)
    versions = next((j["versions"] for j in jobs if "versions" in j), {})
    print("provenance " + json.dumps({**prov, **versions}))
    for i, job in enumerate(jobs, 1):
        if "error" in job:
            print(f"job {i}: error\n{job['error']}")
            continue
        runs = " ".join(f"{t:.3f}" for t in job["reconstruct_runs_s"])
        print(f"job {i}: traced={int(job['traced'])} "
              f"setup {job['setup_s']:.3f} s, generate "
              f"{job['generate_s']:.3f} s, reconstruct {runs} s, "
              f"total {job['total_s']:.3f} s, "
              f"peak rss {job['peak_rss_mb']:.1f} MB, "
              f"{job['segments']} segments")
    print(f"setup samples: {sum('setup_s' in j for j in jobs + probes)}")
    aliases = next((j["aliases"] for j in jobs if "aliases" in j), {})
    for name, holders in aliases.items():
        print(f"traced {name} as {', '.join(holders)}")
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"fail_ratio {failed / max(attempted, 1):g} "
          f"({failed}/{attempted} operations)")
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": all(ok for _, ok, _ in checks),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
