#!/usr/bin/env python3
"""Record the benchmark catalog: kept inputs per slot and reference digests.

    python3 perfbench/record.py [--workload NAME ...]

For every slot of every workload this generates candidate inputs from a
fixed generator seed, runs each candidate twice, and keeps those that
succeed, pass their oracle, and cost closest to the slot median. The
kept inputs and the digest of every job's certified output go to
catalog.json. Run it at the commit whose answers are the reference;
later commits are checked against that file, so re-recording after a
change to src/ would hide the change's effect on answers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import workloads  # noqa: E402

GENERATOR_SEED = 1210


def run_jobs(jobs, refs):
    """Run jobs in order twice; returns the cheaper run's seconds or a
    problem string."""
    costs = [0.0, 0.0]
    for rep in range(2):
        for job in jobs:
            args = job.prepare()
            t0 = time.perf_counter()
            try:
                answer = job.call(*args)
            except Exception as exc:
                return f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            got = workloads.digest(job.summary(answer))
            if rep == 0:
                problem = job.oracle(answer) if job.oracle else None
                if problem:
                    return problem
                refs[job.key] = got
            elif refs[job.key] != got:
                return "answer differs between two runs"
            costs[rep] += dt
    return min(costs)


def record_workload(workload, catalog, work_dir):
    refs = catalog["references"]
    multiplicity = Counter(workloads.slot_id(s) for s in workloads.slots(workload))
    entries = {}
    for slot in workloads.slots(workload):
        sid = workloads.slot_id(slot)
        if sid in entries:
            continue
        # whole CLI configs vary more in cost than single calls, so fewer
        # of them are kept around the median
        keep = max(3 if workload == "witness-pipeline" else 5, 2 * multiplicity[sid])
        kept = []
        for spec in workloads.candidates(workload, slot, keep + 6, GENERATOR_SEED):
            key = workloads.spec_key(spec)
            trial = {}
            cost = run_jobs(workloads.spec_jobs(workload, spec, key, slot, work_dir), trial)
            if isinstance(cost, str):
                print(f"  drop {sid} {key}: {cost[:120]}", flush=True)
                continue
            refs.update(trial)
            kept.append({"key": key, "spec": spec, "seconds": round(cost, 4)})
        if len(kept) < multiplicity[sid] + 1:
            raise SystemExit(f"slot {sid}: only {len(kept)} usable candidates")
        mid = statistics.median(e["seconds"] for e in kept)
        kept.sort(key=lambda e: abs(math.log(e["seconds"] / mid)))
        entries[sid] = kept[:keep]
        print(f"{workload} {sid}: median {mid:.3f}s, kept "
              f"{[e['seconds'] for e in entries[sid]]}", flush=True)
    catalog[workload] = entries


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = ap.parse_args(argv)
    run.import_sweepout()
    path = os.path.join(HERE, "catalog.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            catalog = json.load(fh)
    else:
        catalog = {"generator_seed": GENERATOR_SEED, "references": {}}
    work_dir = os.path.join(run.WORK, "record")
    os.makedirs(work_dir, exist_ok=True)
    for workload in args.workload or workloads.WORKLOADS:
        if workload == "witness-pipeline":
            demo = workloads.demo_jobs(run.ROOT, work_dir)
            cost = run_jobs(demo, catalog["references"])
            if isinstance(cost, str):
                raise SystemExit(f"demo config failed: {cost}")
        record_workload(workload, catalog, work_dir)
    # keep only the references of kept inputs
    live = {"demo/" + c for c in workloads.DEMO_COMMANDS}
    for workload in workloads.WORKLOADS:
        for entries in catalog.get(workload, {}).values():
            live.update(e["key"] for e in entries)
    catalog["references"] = {k: v for k, v in sorted(catalog["references"].items())
                             if k.split("/")[0] in live or k in live}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(catalog, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
