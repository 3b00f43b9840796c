"""Workloads of the sweepout benchmark: slot ladders, candidate inputs and jobs.

A workload is a ladder of slots. Each slot fixes the kind of job and its
size (lambda pieces, lattice tuples, or a CLI config family); record.py
generates several candidate inputs per slot, runs each twice, and keeps
the ones that succeed and cost closest to the slot median, together with
a digest of their certified output, in catalog.json. A workload seed then
picks one kept candidate per slot and the order of the jobs. Different
seeds therefore run different inputs with the same cost profile, and
every job that a seed can produce has a recorded reference answer.

A job is one public library call, or one in-process ``sweepout.cli.main``
call. ``prepare`` builds its inputs outside the timed region, ``call``
is the timed work, ``summary`` reduces the answer to the certified part
that is digested, and ``oracle`` runs an independent check where one
exists (it returns a problem description, or None).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from fractions import Fraction

WORKLOADS = ("lambda-arrangement", "lattice-density", "witness-pipeline")

# Brute-force lattice oracles enumerate every tuple as an exact Point;
# beyond these many tuples they would dominate a run. A closure sweep is
# checked at its largest level whose next level fits CLOSURE_ORACLE_TUPLES.
ORACLE_TUPLES = 11_000
CLOSURE_ORACLE_TUPLES = 3_000

# ---------------------------------------------------------------------------
# slot ladders
# ---------------------------------------------------------------------------
# lambda-arrangement: (op, floor_scale, shape, target pieces). Pieces of a
# profile are predicted as 2 F sum_i x_i / r, which is exact up to the
# clipping at r and the floor; "one" and "ap" shapes have their piece
# count fixed by eps alone. The smallest sizes are one-atom counts
# 512 (32 - n) / n at eps = n/32. Every job runs once per pass, so a job
# that takes a large share of a pass is timed in few passes: the library
# default floor 10^4 (at least 80k pieces, ~1.8 s) is left out of the
# ladder, and its catalog slot is kept for reference. Here and for the
# lattice ladder, the slot counts place the median and the tail job inside
# clusters of like cost (see DESIGN.md, "Job lists").
LAMBDA_SLOTS = (
    [("find", 1000, "free", t) for t in (21000, 17000)]
    + [("find", 200, "ap", None)] * 2
    + [("find", 200, "free", t) for t in (12000, 8500, 6500, 6500, 5500, 4500, 4500, 3500)]
    + [("cert", 128, "ap", None)] * 2
    + [("cert", 128, "free", t) for t in
       (6000, 6000, 5000, 5000, 5000, 4000, 3584, 3200, 2219, 1829, 1829,
        1536, 1536, 1308, 1308, 1126, 1126, 1126)]
)

# lattice-density: (op, nu, size). Counts are sized by tuple count (nu = 3
# grids grow in coarse steps, so those sizes are exact counts of tau = 1
# levels); a closure sweep checks levels 1..size. For short passes the
# ladder stops at 1.8M tuples (nu = 2, m ~ 475) and nu = 3 sweeps at
# level 7; the catalog also holds the larger slots.
LATTICE_SLOTS = (
    [("count", 2, t) for t in
     (1_800_000, 1_200_000, 800_000, 500_000, 300_000, 200_000, 120_000,
      120_000, 60_000, 20_000)]
    + [("count", 3, t) for t in
       (446_631, 273_375, 151_959, 73_167, 46_875, 10_125, 10_125, 6_591)]
    + [("closure", 2, m) for m in (28, 24, 22, 22, 22, 20, 18, 18, 16, 14, 10, 8, 6, 4)]
    + [("closure", 3, m) for m in (7, 7, 6, 5, 4, 3, 2, 1)]
)

# witness-pipeline: config families by Delta (delta = 1/2 throughout, so
# the factor count is m = floor(24 Delta) + 1). Repeated slots draw
# distinct configs from one pool. The counts place the median job among
# the build-eg jobs and the tail job (ten jobs beyond it) among the m = 3
# build-witness jobs, each inside a cluster of similar cost rather than
# between two clusters. The catalog also holds the m = 9, 13 and 25
# families, which the list leaves out so that a pass stays short (one
# m = 9 config alone takes 2.3 s).
WITNESS_FAMILIES = {
    "m3": "1/12",
    "m7": "1/4",
    "m9": "1/3",
    "m13": "1/2",
    "m25": "1",
}
WITNESS_SLOTS = ("m3",) * 5 + ("m7",)
DEMO_COMMANDS = ("decompose", "lattice-count", "find-lambda", "build-eg",
                 "build-witness", "verify", "trace", "check-conditions")


def slots(workload):
    """The slot ladder of a workload, as a tuple of JSON-able keys."""
    if workload == "lambda-arrangement":
        return [list(s) for s in LAMBDA_SLOTS]
    if workload == "lattice-density":
        return [list(s) for s in LATTICE_SLOTS]
    if workload == "witness-pipeline":
        return [[s] for s in WITNESS_SLOTS]
    raise ValueError(f"unknown workload {workload!r}")


def slot_id(slot) -> str:
    return ":".join(str(x) for x in slot)


def spec_key(spec) -> str:
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def digest(summary) -> str:
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def fstr(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 else str(q.numerator)


# ---------------------------------------------------------------------------
# candidate generation (record time only)
# ---------------------------------------------------------------------------

SURDS = (2, 3, 5)


def _random_atom(rng, hi=0.95):
    """(surd radicand or 1, rational coefficient) with value in (0.02, hi)."""
    while True:
        k = rng.choice((1,) + SURDS)
        c = Fraction(rng.randint(1, 99), rng.choice((16, 25, 36, 49, 64, 100)))
        v = float(c) * math.sqrt(k)
        if 0.02 < v < hi:
            return k, c


def _measure_spec(atoms, masses):
    """JSON spec of a measure given (radicand, coeff) atoms."""
    radicands = sorted({k for k, _ in atoms if k != 1})
    basis = [f"sqrt:{k}" for k in radicands]
    index = {k: i + 1 for i, k in enumerate(radicands)}
    coeffs = []
    for k, c in atoms:
        row = ["0"] * (len(radicands) + 1)
        row[0 if k == 1 else index[k]] = fstr(c)
        coeffs.append(row)
    return {"basis": basis, "atoms": coeffs, "masses": [fstr(m) for m in masses]}


def predicted_pieces(atoms, eps: Fraction, delta: Fraction, floor: int) -> float:
    vals = sorted(float(c) * math.sqrt(k) for k, c in atoms)
    e = float(eps)
    r = min(e * vals[0] / (2 * (1 - e)), float(delta))
    return 2 * floor * sum(vals) / r


def _lambda_candidate(rng, op, floor, shape, target):
    while True:
        if shape == "ap":
            k, c = _random_atom(rng, hi=0.32)
            atoms = [(k, c), (k, 2 * c), (k, 3 * c)]
            masses = [Fraction(1, 3)] * 3
            eps = rng.choice((Fraction(3, 10), Fraction(5, 16)))
        elif shape == "one":
            atoms = [_random_atom(rng)]
            masses = [Fraction(1)]
            eps = rng.choice((Fraction(3, 10), Fraction(5, 16)))
        else:
            atoms = [_random_atom(rng) for _ in range(rng.randint(1, 3))]
            vals = [float(c) * math.sqrt(k) for k, c in atoms]
            if len(set(round(v, 9) for v in vals)) != len(vals):
                continue
            masses = [Fraction(rng.randint(1, 12), 12) for _ in atoms]
            eps = Fraction(rng.randint(4, 10), 32)
        delta = Fraction(rng.randint(6, 10), 20)
        pieces = predicted_pieces(atoms, eps, delta, floor)
        if target is not None and abs(pieces / target - 1) > 0.04:
            continue
        spec = {"op": op, "floor": floor, "eps": fstr(eps), "delta": fstr(delta)}
        spec.update(_measure_spec(atoms, masses))
        return spec


def _support(rng, nu):
    """Support spec over nu surd generators, maybe with a dependent atom."""
    while True:
        radicands = sorted(rng.sample(SURDS, nu))
        base = [(k, Fraction(rng.randint(5, 60), 100)) for k in radicands]
        vals = [float(c) * math.sqrt(k) for k, c in base]
        if not all(0.05 < v < 0.95 for v in vals):
            continue
        rows = []
        for i, (_, c) in enumerate(base):
            row = ["0"] * (nu + 1)
            row[i + 1] = fstr(c)
            rows.append(row)
        extra = rng.choice(("none", "none", "sum", "half-sum", "double"))
        if extra != "none":
            f = {"sum": Fraction(1), "half-sum": Fraction(1, 2), "double": Fraction(2)}[extra]
            parts = (0, 1) if extra != "double" else (0,)
            v = sum(vals[i] for i in parts) * float(f)
            if not 0.05 < v < 0.95:
                continue
            row = ["0"] * (nu + 1)
            for i in parts:
                row[i + 1] = fstr(base[i][1] * f)
            rows.append(row)
        return {"basis": [f"sqrt:{k}" for k in radicands], "support": rows}


def _lattice_candidate(rng, op, nu, size):
    from sweepout.exactreal import GeneratorBasis
    from sweepout.lattice import decompose

    while True:
        spec = _support(rng, nu)
        basis = GeneratorBasis.from_specs(spec["basis"])
        lspec = decompose([basis.point(r) for r in spec["support"]])
        if lspec.nu != nu:
            continue
        if op == "closure":
            return dict(op="closure", m_max=size, **spec)
        m = 1
        while lspec.tuple_count(m + 1) <= size:
            m += 1
        if lspec.tuple_count(m + 1) - size < size - lspec.tuple_count(m):
            m += 1
        if abs(lspec.tuple_count(m) / size - 1) > 0.05:
            continue
        # interval of length at most y_nu / p, one edge maybe on a lattice point
        y_top = float(lspec.Y[-1]) / lspec.p
        length = Fraction(rng.randint(30, 95), 100) * Fraction(y_top).limit_denominator(1000)
        if float(length) * lspec.p >= float(lspec.Y[-1]) * 0.999:
            continue
        mode = rng.choice(("rational", "lo-on-lattice", "hi-on-lattice"))
        zero = ["0"] * (nu + 1)
        if mode == "rational":
            lo_val = Fraction(rng.randint(-60, 30), 100)
            lo = [fstr(lo_val)] + zero[1:]
            hi = [fstr(lo_val + length)] + zero[1:]
        else:
            # a tuple whose point lands near a random target in (-0.6, 0.3)
            bounds = lspec.bounds(m)
            prefix = [rng.randint(-b, b) for b in bounds[:-1]]
            rest = float(Fraction(rng.randint(-60, 30), 100)) * lspec.p - sum(
                n * float(y) for n, y in zip(prefix, lspec.Y))
            last = round(rest / float(lspec.Y[-1]))
            if abs(last) > bounds[-1]:
                continue
            pt = lspec.point_of(tuple(prefix) + (last,))
            edge = [fstr(c) for c in pt.coeffs]
            shifted = list(pt.coeffs)
            shifted[0] += length if mode == "lo-on-lattice" else -length
            other = [fstr(c) for c in shifted]
            lo, hi = (edge, other) if mode == "lo-on-lattice" else (other, edge)
        lo_f = float(basis.point(lo))
        hi_f = float(basis.point(hi))
        if not (-0.95 < lo_f and hi_f < 0.95):
            continue
        return dict(op="count", m=m, lo=lo, hi=hi, edge=mode, **spec)


def _witness_candidate(rng, family):
    p, q = rng.choice(((2, 3), (2, 5), (3, 5)))
    while True:
        a = Fraction(rng.randint(2, 6), rng.randint(2, 6))
        c = Fraction(rng.randint(2, 6), rng.randint(2, 6))
        if float(a) * math.sqrt(p) < 3.6 and float(c) * math.sqrt(q) < 3.6:
            break
    Delta = WITNESS_FAMILIES[family]
    m = int(Fraction(Delta) * 24) + 1
    # the greedy gap-separated selection takes about every third measure;
    # long witnesses get more slack, since it varies with a and c
    count = 3 * m + 8 if m < 10 else 5 * m + 8
    return {"op": "cli-config", "family": family, "generators": [p, q],
            "a": fstr(a), "c": fstr(c), "count": count, "Delta": Delta}


def candidates(workload, slot, count, seed):
    """count candidate specs for one slot, from a fixed generator seed."""
    rng = random.Random(f"{workload}|{slot_id(slot)}|{seed}")
    out = []
    seen = set()
    for _ in range(100 * count):
        if len(out) == count:
            break
        if workload == "lambda-arrangement":
            spec = _lambda_candidate(rng, *slot)
        elif workload == "lattice-density":
            spec = _lattice_candidate(rng, *slot)
        else:
            spec = _witness_candidate(rng, slot[0])
        key = spec_key(spec)
        if key not in seen:
            seen.add(key)
            out.append(spec)
    if len(out) < count:
        raise RuntimeError(f"slot {slot_id(slot)}: only {len(out)} distinct candidates")
    return out


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

class Job:
    """One step of the closed loop; see the module docstring."""

    def __init__(self, key, slot, label, prepare, call, summary, oracle=None):
        self.key = key
        self.slot = slot
        self.label = label
        self.prepare = prepare
        self.call = call
        self.summary = summary
        self.oracle = oracle
        self.reference = None  # digest recorded in catalog.json


def _measure(spec):
    from sweepout.exactreal import GeneratorBasis
    from sweepout.measures import DiscreteMeasure

    basis = GeneratorBasis.from_specs(spec["basis"])
    return DiscreteMeasure([basis.point(r) for r in spec["atoms"]],
                           [Fraction(m) for m in spec["masses"]])


def lambda_job(spec, key, slot):
    from sweepout import lambda_search as ls
    from sweepout.exactreal import compare

    eps, delta, floor = Fraction(spec["eps"]), Fraction(spec["delta"]), spec["floor"]

    if spec["op"] == "find":
        def call(mu):
            return ls.find_lambda(mu, eps, delta, floor_scale=floor)

        def summary(res):
            return res.to_json()

        def oracle(res):
            mu = _measure(spec)
            direct = ls.window_value(mu, eps, res.lam)
            lam = mu.basis.rational(res.lam)
            lo, hi, val = res.piece
            if direct != res.value or val != res.value:
                return f"window_value {direct} != reported {res.value}"
            if not direct > (1 - 3 * eps) * mu.total_mass:
                return "value not above (1 - 3 eps)|mu|"
            if not (compare(lo, lam) < 0 < compare(hi, lam)):
                return "lambda outside its piece"
            return None

        label = f"find_lambda F={floor}"
    else:
        def call(mu):
            prof = ls.lambda_profile(mu, eps, delta, floor_scale=floor)
            return prof.integral_at_least(prof.r * ((1 - 3 * eps) * mu.total_mass))

        def summary(ok):
            return {"integral_at_least": ok}

        def oracle(ok):
            # the averaging bound is a theorem for eps >= 3/31 at floor 128
            return None if ok is True else "averaging bound not certified"

        label = f"integral_at_least F={floor}"
    return Job(key, slot, label, lambda: (_measure(spec),), call, summary, oracle)


def _lattice_spec(spec):
    from sweepout.exactreal import GeneratorBasis

    basis = GeneratorBasis.from_specs(spec["basis"])
    return basis, [basis.point(r) for r in spec["support"]]


def lattice_job(spec, key, slot):
    from sweepout import lattice

    if spec["op"] == "count":
        m = spec["m"]

        def prepare():
            basis, support = _lattice_spec(spec)
            return support, basis.point(spec["lo"]), basis.point(spec["hi"])

        def call(support, lo, hi):
            return lattice.interval_count_ratio(lattice.decompose(support), m, (lo, hi))

        def summary(rep):
            return rep.to_json()

        def oracle(rep):
            support, lo, hi = prepare()
            ls = lattice.decompose(support)
            if ls.tuple_count(m) > ORACLE_TUPLES:
                return None
            from sweepout.exactreal import IntervalSet

            window = IntervalSet.single(ls.basis, lo, hi)
            brute = sum(1 for pt in lattice.enumerate_lattice(ls, m) if window.contains(pt))
            return None if brute == rep.count else f"brute count {brute} != {rep.count}"

        label = f"interval_count_ratio nu={len(spec['basis'])}"
    else:
        m_max = spec["m_max"]

        def prepare():
            return (_lattice_spec(spec)[1],)

        def call(support):
            ls = lattice.decompose(support)
            return [lattice.shift_closure_check(ls, m) for m in range(1, m_max + 1)]

        def summary(certs):
            return [c.to_json() for c in certs]

        def oracle(certs):
            return _closure_oracle(prepare()[0], certs)

        label = f"shift_closure_check nu={len(spec['basis'])}"
    return Job(key, slot, label, prepare, call, summary, oracle)


def _closure_oracle(support, certs):
    """Brute-force A_m cap (-x_l, 0) + X inside A_{m+1} cap (-x_l, x_l)."""
    from sweepout import lattice
    from sweepout.exactreal import IntervalSet

    ls = lattice.decompose(support)
    x_l = ls.x_l
    left = IntervalSet.single(ls.basis, -x_l, ls.basis.rational(0))
    both = IntervalSet.single(ls.basis, -x_l, x_l)
    small = [c for c in certs if ls.tuple_count(c.m + 1) <= CLOSURE_ORACLE_TUPLES]
    for cert in small[-1:]:
        m = cert.m
        upper = {p.coeffs for p in lattice.enumerate_lattice(ls, m + 1)}
        pts = [p for p in lattice.enumerate_lattice(ls, m) if left.contains(p)]
        ok = all((p + x).coeffs in upper and both.contains(p + x)
                 for p in pts for x in ls.X)
        if ok != cert.ok or len(pts) != cert.checked_points:
            return f"brute closure at m={m}: ok={ok}, points={len(pts)}"
    return None


# --- CLI jobs --------------------------------------------------------------

OUTPUTS = {
    "decompose": ("lattice_spec.json",),
    "lattice-count": ("lattice_count.csv",),
    "find-lambda": ("lambda_profile.csv",),
    "build-eg": ("eg_pair.json",),
    "build-witness": ("witness.json", "witness_trimmed.json"),
    "verify": ("verification.json",),
    "trace": ("trace.csv",),
    "check-conditions": ("condition1.csv",),
}


def witness_config(spec):
    """The CLI config of a geometric-type family: mu_n = (d[a sqrt p / 4^n]
    + d[c sqrt q / 4^n]) / 2 for n = 1..count."""
    a, c = Fraction(spec["a"]), Fraction(spec["c"])
    measures = []
    for n in range(1, spec["count"] + 1):
        s = Fraction(1, 4**n)
        measures.append({"atoms": [{"coeffs": ["0", fstr(a * s), "0"]},
                                   {"coeffs": ["0", "0", fstr(c * s)]}],
                         "masses": ["1/2", "1/2"]})
    p, q = spec["generators"]
    return {"basis": {"generators": [f"sqrt:{p}", f"sqrt:{q}"]},
            "measures": measures,
            "params": {"Delta": spec["Delta"], "delta": "1/2", "epsilon": "1/6",
                       "trim_points": 4, "samples": 10, "max_sample_points": 8,
                       "schedule": [[spec["Delta"], "1/2"]]}}


def witness_steps(family):
    """(step, command, verify mode, witness file) in order for one config.

    The step number is part of the job's reference key, so it keeps the
    numbering the references in catalog.json were recorded with."""
    steps = [("build-witness", None, None),
             ("verify", "factor-exact", "witness.json"),
             ("verify", "sampled", "witness.json"),
             ("verify", "explicit-brute-force", "witness_trimmed.json"),
             ("build-eg", None, None),
             ("trace", None, None)]
    if family == "m25":
        return [(0,) + steps[0], (1,) + steps[1]]
    if family == "m13":
        return [(0,) + steps[0], (1,) + steps[2]]
    if family == "m9":
        # the m = 9 references were recorded without the explicit step
        steps = [s for s in steps if s[1] != "explicit-brute-force"]
    numbered = [(i,) + step for i, step in enumerate(steps)]
    if family == "m7":
        # explicit verify (1.3 s) and trace (0.6 s) are the costliest steps
        # at m = 7; the m = 3 configs and the demo config run both
        numbered = [s for s in numbered if s[2] != "explicit-brute-force" and s[1] != "trace"]
    return numbered


def _report_summary(path):
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    # the artifact block names the kernel backend, which is not an answer
    return {"status": rep.get("status"), "results": rep.get("results")}


def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def cli_job(key, slot, command, config_path, out_dir, witness=None):
    from sweepout import cli

    argv = [command, "--config", config_path, "--out", out_dir]
    if witness:
        argv += ["--witness", os.path.join(out_dir, witness)]
    written = OUTPUTS[command] + (f"report-{command}.json",)

    def prepare():
        for name in written:
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                os.remove(path)
        return (argv,)

    def call(args):
        return cli.main(args)

    def summary(code):
        out = {"exit_code": code}
        for name in written:
            path = os.path.join(out_dir, name)
            if not os.path.exists(path):
                continue
            out[name] = _report_summary(path) if name.startswith("report-") else _file_digest(path)
        return out

    def oracle(code):
        if code != 0:
            return f"exit code {code}"
        rep = _report_summary(os.path.join(out_dir, f"report-{command}.json"))
        if rep["status"] != "ok":
            return f"report status {rep['status']}"
        if command == "verify":
            with open(os.path.join(out_dir, "verification.json"), encoding="utf-8") as fh:
                if json.load(fh).get("passed") is not True:
                    return "verification report did not pass"
        return None

    mode = ""
    if command == "verify":
        with open(config_path, encoding="utf-8") as fh:
            mode = " " + json.load(fh)["params"].get("mode", "factor-exact")
    return Job(key, slot, f"cli {command}{mode}", prepare, call, summary, oracle)


def witness_jobs(spec, key, slot, work_dir):
    """Write the config files of one family and return its jobs in order."""
    cfg = witness_config(spec)
    cfg_dir = os.path.join(work_dir, "configs", key)
    out_dir = os.path.join(work_dir, "out", key)
    os.makedirs(cfg_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    jobs = []
    for i, command, mode, witness in witness_steps(spec["family"]):
        params = dict(cfg["params"])
        if mode:
            params["mode"] = mode
        path = os.path.join(cfg_dir, f"{i}-{command}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(cfg, params=params), fh)
        jobs.append(cli_job(f"{key}/{i}", slot, command, path, out_dir, witness))
    return jobs


def demo_jobs(root, work_dir):
    """All eight commands on configs/demo.json, in pipeline order."""
    config = os.path.join(root, "configs", "demo.json")
    out_dir = os.path.join(work_dir, "out", "demo")
    os.makedirs(out_dir, exist_ok=True)
    return [cli_job(f"demo/{c}", ["demo"], c, config, out_dir,
                    "witness.json" if c == "verify" else None)
            for c in DEMO_COMMANDS]


def spec_jobs(workload, spec, key, slot, work_dir):
    if workload == "lambda-arrangement":
        return [lambda_job(spec, key, slot)]
    if workload == "lattice-density":
        return [lattice_job(spec, key, slot)]
    return witness_jobs(spec, key, slot, work_dir)


def select(catalog, workload, seed):
    """Seeded choice of one kept candidate per slot, in seeded order.

    Slots with the same key draw distinct candidates."""
    rng = random.Random(f"{workload}#{seed}")
    entries = catalog[workload]
    picks = []
    used = set()
    for slot in slots(workload):
        pool = [e for e in entries[slot_id(slot)] if e["key"] not in used]
        if not pool:
            raise RuntimeError(f"catalog has no candidate left for slot {slot_id(slot)}")
        entry = rng.choice(pool)
        used.add(entry["key"])
        picks.append((slot, entry))
    rng.shuffle(picks)
    return picks


def build_jobs(catalog, workload, seed, root, work_dir):
    """The fixed job list of one workload seed, with reference digests."""
    jobs = demo_jobs(root, work_dir) if workload == "witness-pipeline" else []
    for slot, entry in select(catalog, workload, seed):
        jobs += spec_jobs(workload, entry["spec"], entry["key"], slot, work_dir)
    refs = catalog["references"]
    for job in jobs:
        job.reference = refs.get(job.key)
    return jobs
