#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on a few jobs per workload.

    python3 perfbench/smoke.py

For each workload it checks that the same seed builds the same job list
twice and that every job the catalog can produce has a reference; then
it runs a short untraced and a short traced run and checks that every
metric named in BENCHMARK.json is emitted, that no job fails (fail_ratio
is 0 at the commit the references were recorded at), and that the
per-layer self times sum to no more than the traced wall time.
Exits 1 and names the failed checks if any fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 3
JOBS = 6


def bench_run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
           "--jobs", str(JOBS)]
    res = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=run.ROOT)
    if res.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {res.returncode}: {res.stderr[-600:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main():
    run.import_sweepout()
    catalog = run.load_catalog()
    bench = run.load_benchmark()
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what, flush=True)
        if not ok:
            problems.append(what)

    expect([m["name"] for m in bench["per_layer"]] == tracing.metric_names(),
           "BENCHMARK.json per_layer lists exactly the traced metrics")
    for workload in workloads.WORKLOADS:
        work = os.path.join(run.WORK, "smoke")
        lists = [[(j.key, j.label) for j in
                  workloads.build_jobs(catalog, workload, SEED, run.ROOT, work)]
                 for _ in range(2)]
        expect(lists[0] == lists[1], f"{workload}: seed {SEED} gives the same job list twice")
        keys = set()
        for entries in catalog[workload].values():
            for entry in entries:
                jobs = workloads.spec_jobs(workload, entry["spec"], entry["key"], None, work)
                keys.update(j.key for j in jobs)
        missing = sorted(k for k in keys if k not in catalog["references"])
        expect(not missing, f"{workload}: every catalog job has a reference ({len(keys)} jobs)")

        plain = bench_run(workload, 0)
        expect(set(plain["metrics"]) == {m["name"] for m in bench["end_to_end"]},
               f"{workload}: every end-to-end metric is emitted")
        expect(plain["failed"] == 0 and plain["correct"],
               f"{workload}: fail_ratio is 0 ({plain['failed']}/{plain['attempted']})")
        traced = bench_run(workload, 1)
        values = {k: v["value"] for k, v in traced["metrics"].items()}
        expect(set(values) == {m["name"] for m in bench["per_layer"]},
               f"{workload}: every per-layer metric is emitted")
        expect(traced["failed"] == 0, f"{workload}: traced run has no failed job")
        self_sum = sum(values[f"layer.{layer}.self_s"] for layer in tracing.LAYERS)
        expect(self_sum <= values["trace.wall_s"] * (1 + 1e-9),
               f"{workload}: layer self times {self_sum:.4f}s <= traced wall "
               f"{values['trace.wall_s']:.4f}s")
    if problems:
        print(f"{len(problems)} check(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
