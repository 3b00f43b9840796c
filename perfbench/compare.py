#!/usr/bin/env python3
"""Compare two benchmark result records from .perfbench/results/.

    python3 perfbench/compare.py BASE.json NEW.json

Prints every metric of both records with the relative change. Refuses,
with exit code 2, to compare records that ran on different kernel
backends or SWEEPOUT_PURE_KERNEL settings, or that differ in workload,
trace mode or calibration reference, because their numbers measure
different programs or are scaled to different reference hosts.
"""

from __future__ import annotations

import json
import sys

MUST_MATCH = ("kernel_backend", "pure_kernel_env", "workload", "trace",
              "calibration_reference_s")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    base, new = records
    for field in MUST_MATCH:
        b, n = base["meta"].get(field), new["meta"].get(field)
        if b != n:
            print(f"refusing to compare: {field} differs ({b!r} vs {n!r})", file=sys.stderr)
            return 2
    for who, rec in (("base", base), ("new", new)):
        meta = rec["meta"]
        print(f"{who}: sha {meta['git_sha']} src {meta['source_sha256'][:12]} "
              f"seed {meta['seed']} jobs {meta['job_count']} "
              f"failed {rec['result']['failed']}/{rec['result']['attempted']}")
    print(f"{'metric':44s} {'base':>14s} {'new':>14s} {'change':>9s}")
    for name, b in base["result"]["metrics"].items():
        n = new["result"]["metrics"].get(name)
        if n is None:
            print(f"{name:44s} {b['value']:14.6g} {'-':>14s}")
            continue
        change = (n["value"] - b["value"]) / b["value"] if b["value"] else float("nan")
        print(f"{name:44s} {b['value']:14.6g} {n['value']:14.6g} {change:+9.1%}  {b['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
