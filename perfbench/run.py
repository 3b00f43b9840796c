#!/usr/bin/env python3
"""sweepout benchmark: closed-loop batch workloads with checked answers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lambda-arrangement --seed 1 \
        --seconds 25 --trace 0

One process with one thread runs the seeded, fixed job list of a
workload (see workloads.py) in sequence, and repeats the whole list
until about --seconds have been measured. A short fixed calibration
routine, which does not call sweepout, runs before every job; each pass's
job times are scaled to a host on which that routine takes
CALIBRATION_REFERENCE_S (calibration.py), and each job's time is the
median of its scaled passes. The host is shared, and its speed drifts by
20% and more over minutes; the scaling takes that drift out of the
metrics, and the raw wall times stay in the result record. Every answer is
digested outside the timed region and compared with the reference
recorded in catalog.json; the first pass also runs each job's
independent oracle. A mismatch, an exception or a
nonzero exit code counts as a failed job.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes over the same list and prints the per-layer metrics of
tracing.py, with the tracing overhead. The last line of standard output
is the result object; the full record, with run metadata and per-job
times, goes to .perfbench/results/, and traced spans to .perfbench/spans/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 6
SETUP_CALIBRATIONS = 25  # calibration runs that scale one setup time

sys.path.insert(0, HERE)
import calibration  # noqa: E402
import workloads  # noqa: E402


def import_sweepout():
    """Import the package from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "sweepout", "__init__.py")):
        raise SystemExit(f"benchmark: no sweepout sources under {src}")
    sys.path.insert(0, src)
    import sweepout
    import sweepout.cli  # noqa: F401  (every layer the jobs reach)

    if not os.path.abspath(sweepout.__file__).startswith(src + os.sep):
        raise SystemExit(f"benchmark: sweepout imported from {sweepout.__file__}, not {src}")


def load_catalog():
    with open(os.path.join(HERE, "catalog.json"), encoding="utf-8") as fh:
        return json.load(fh)


def warm_up(workload, work_dir):
    """A small fixed job per workload, so lazy imports finish before timing."""
    from fractions import Fraction

    from sweepout import cli, lambda_search, lattice
    from sweepout.exactreal import GeneratorBasis
    from sweepout.measures import DiscreteMeasure

    basis = GeneratorBasis.from_specs(["sqrt:2", "sqrt:3"])
    if workload == "lambda-arrangement":
        mu = DiscreteMeasure([basis.point(["0", "1/8", "0"])], [Fraction(1)])
        lambda_search.find_lambda(mu, Fraction(1, 4), Fraction(1, 2), floor_scale=200)
    elif workload == "lattice-density":
        spec = lattice.decompose([basis.point(["0", "1/8", "0"]), basis.point(["0", "0", "1/4"])])
        lattice.interval_count_ratio(spec, 40, (basis.rational(0), basis.rational(Fraction(2, 5))))
        lattice.shift_closure_check(spec, 4)
    else:
        out = os.path.join(work_dir, "warm")
        cli.main(["decompose", "--config", os.path.join(ROOT, "configs", "demo.json"), "--out", out])


def setup(workload, seed, work_dir, job_limit=None):
    """Import, input generation and warm-up; returns (jobs, seconds,
    scaled seconds). The scale is measured right after the setup."""
    t0 = time.perf_counter()
    import_sweepout()
    os.makedirs(work_dir, exist_ok=True)
    jobs = workloads.build_jobs(load_catalog(), workload, seed, ROOT, work_dir)
    if job_limit:
        jobs = jobs[:job_limit]
    warm_up(workload, work_dir)
    seconds = time.perf_counter() - t0
    return jobs, seconds, seconds * calibration.scale(calibration.sample(SETUP_CALIBRATIONS))


def probe_setup(args):
    """(raw, scaled) setup time of a fresh interpreter doing the whole setup."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--probe-setup"]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if res.returncode != 0:
        raise RuntimeError(f"setup probe failed: {res.stderr.strip()[-400:]}")
    raw, scaled = res.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


class Runner:
    """Runs passes over the job list, timing each job and checking answers.

    `times` holds each job's raw wall time per pass, `scaled` the same
    times scaled by the median calibration time of their pass."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.times = [[] for _ in jobs]
        self.scaled = [[] for _ in jobs]
        self.calibrations = []  # median calibration time per pass
        self.attempted = 0
        self.failures = []
        self.oracle_done = set()

    def check(self, job, answer):
        if job.reference is None:
            return "no recorded reference"
        got = workloads.digest(job.summary(answer))
        if got != job.reference:
            return f"digest {got[:12]} differs from reference {job.reference[:12]}"
        if job.oracle is not None and job.key not in self.oracle_done:
            self.oracle_done.add(job.key)
            return job.oracle(answer)
        return None

    def run_pass(self, tracer=None) -> float:
        clock = time.perf_counter
        wall = 0.0
        pass_times, pass_cal = [], []
        for i, job in enumerate(self.jobs):
            args = job.prepare()
            pass_cal.append(calibration.run_once())
            if tracer is not None:
                tracer.job = i
            error = None
            t0 = clock()
            try:
                answer = job.call(*args)
            except Exception as exc:  # a failed job is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            dt = clock() - t0
            if tracer is not None:
                tracer.job = None
            wall += dt
            self.times[i].append(dt)
            pass_times.append(dt)
            self.attempted += 1
            problem = error or self.check(job, answer)
            if problem:
                self.failures.append({"job": i, "key": job.key, "label": job.label,
                                      "problem": str(problem)[:300]})
        cal = statistics.median(pass_cal)
        self.calibrations.append(cal)
        factor = calibration.scale(cal)
        for i, dt in enumerate(pass_times):
            self.scaled[i].append(dt * factor)
        return wall


def tail(values):
    """(value, percentile): the highest percentile with at least ten
    values beyond it, by nearest rank; the median when there are fewer
    than eleven values."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return statistics.median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def metadata(args, jobs):
    from sweepout import kernel

    sha = None
    try:
        # the ceiling keeps git from searching directories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=20, env=env)
        lines = res.stdout.split()
        if res.returncode == 0 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
            sha = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    src = hashlib.sha256()
    src_dir = os.path.join(ROOT, "src", "sweepout")
    for name in sorted(os.listdir(src_dir)):
        if name.endswith((".py", ".pyx")):
            with open(os.path.join(src_dir, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {
        "git_sha": sha,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "job_count": len(jobs),
        "kernel_backend": kernel.BACKEND,
        "pure_kernel_env": bool(os.environ.get("SWEEPOUT_PURE_KERNEL")),
        "calibration_reference_s": calibration.CALIBRATION_REFERENCE_S,
    }


def measure(runner, seconds, traced, between):
    """Whole passes, at least two, until about `seconds` of job time are
    measured (checks and oracles between jobs do not count); in traced
    mode the passes alternate untraced and traced, at least one of each.
    `between` runs after every pass, untimed. Returns the untraced and
    traced pass walls and the tracer."""
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
    plain, with_trace = [], []
    while True:
        plain.append(runner.run_pass())
        if traced:
            tracer.install()
            try:
                with_trace.append(runner.run_pass(tracer))
            finally:
                tracer.uninstall()
        between()
        measured = sum(plain) + sum(with_trace)
        enough = traced or len(plain) >= 3  # a median of passes needs three
        if enough and measured + measured / len(plain) / 2 >= seconds:
            return plain, with_trace, tracer


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=None,
                    help="run only the first N jobs of the list (smoke tests)")
    ap.add_argument("--probe-setup", action="store_true",
                    help="do the setup only and print its seconds")
    args = ap.parse_args(argv)

    if args.probe_setup:
        _, seconds, scaled = setup(args.workload, args.seed, os.path.join(WORK, "probe"))
        print(repr(seconds), repr(scaled))
        return 0

    work_dir = os.path.join(WORK, "run")
    jobs, first_setup, first_scaled = setup(args.workload, args.seed, work_dir, args.jobs)
    # setup is timed again in fresh interpreters between passes, so the
    # samples spread over the run like the job times do
    setup_times = [(first_setup, first_scaled)]

    def probe():
        if not args.trace and len(setup_times) <= SETUP_PROBES:
            setup_times.append(probe_setup(args))

    runner = Runner(jobs)
    plain, traced, tracer = measure(runner, args.seconds, bool(args.trace), probe)
    for _ in range(SETUP_PROBES):  # top up after a run with few passes
        probe()

    per_job = [statistics.median(t) for t in runner.scaled]
    tail_value, tail_pct = tail(per_job)
    failed = len(runner.failures)
    extra = {
        "fail_ratio": failed / runner.attempted,
        "passes": len(plain),
        "pass_walls_s": plain,
        "pass_calibration_s": runner.calibrations,
        "tail_percentile": tail_pct,
        "tail_job_count": len(per_job),
        "setup_samples_s": [raw for raw, _ in setup_times],
        "setup_scaled_s": [scaled for _, scaled in setup_times],
        "raw_wall": {
            "jobs_per_s": len(jobs) / sum(min(t) for t in runner.times),
            "job_s.p50": statistics.median(min(t) for t in runner.times),
            "setup_s": statistics.median(raw for raw, _ in setup_times),
        },
        "failures": runner.failures[:50],
        "jobs": [{"key": j.key, "label": j.label, "slot": workloads.slot_id(j.slot),
                  "scaled_s": t, "best_raw_s": min(raw)}
                 for j, t, raw in zip(jobs, per_job, runner.times)],
    }
    if args.trace:
        metrics = tracer.metrics(traced, plain)
        units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
        extra["traced_pass_walls_s"] = traced
    else:
        metrics = {
            "jobs_per_s": len(per_job) / sum(per_job),
            "job_s.p50": statistics.median(per_job),
            "job_s.tail": tail_value,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(scaled for _, scaled in setup_times),
        }
        units = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
    result = {
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    record = {"meta": metadata(args, jobs), "result": result, "extra": extra}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(WORK, "results", stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
        tracer.dump(os.path.join(WORK, "spans", stem + ".json"))
    print(json.dumps({"meta": record["meta"], "fail_ratio": extra["fail_ratio"],
                      "passes": extra["passes"], "tail_percentile": tail_pct,
                      "job_count": len(per_job)}))
    print(json.dumps(result))
    return 0


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
