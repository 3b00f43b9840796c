"""Batch front-end: one JSON config, one subcommand per pipeline stage.

Commands: decompose, lattice-count, find-lambda, build-eg, build-witness,
verify, trace, check-conditions. Each writes a JSON report with the full
parameter echo plus the artifact version into the output directory;
table-producing commands also emit CSV. Reports carry no timestamps and
all sampling is seeded, so identical configs yield byte-identical output.

Exit codes: 0 success, 1 a certified inequality failed (the report names
it), 2 a resource cap was hit, 3 bad input (a ConfigError, raised where the
input is checked), 4 any other exception: a fault of the program, reported
with status internal-error even when it is a ValueError.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, kernel
from .builder import (SweepOutWitness, build_eg, build_witness,
                      oscillation_trace, trim_witness, verify_witness)
from .errors import (CapExceeded, ConfigError, GrowthExhausted,
                     LambdaNotFound, PrecisionExhausted, SequenceExhausted,
                     VerificationFailed)
from .exactreal import (GeneratorBasis, IntervalSet, Point, compare,
                        fraction_str, parse_fraction)
from .lambda_search import find_lambda, lambda_profile
from .lattice import decompose, interval_count_ratio
from .measures import MeasureSequence, chebyshev_check, check_condition_one


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}")
    except ValueError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if type(cfg) is not dict:
        raise ConfigError("config must be a JSON object")
    if type(cfg.get("basis", {})) not in (dict, list):
        raise ConfigError("config basis must be a JSON object or list")
    if type(cfg.get("params", {})) is not dict:
        raise ConfigError("config params must be a JSON object")
    return cfg


def _basis_from_config(cfg: dict, precision_bits: int | None) -> GeneratorBasis:
    spec = cfg.get("basis", {})
    if isinstance(spec, list):
        spec = {"generators": spec}
    gens = spec.get("generators", [])
    if type(gens) is not list or not all(type(g) is str for g in gens):
        raise ConfigError("basis generators must be a list of strings")
    kw = {"assert_independent": bool(spec.get("assert_independent", False))}
    if precision_bits:
        kw["precision_cap"] = precision_bits
    return GeneratorBasis.from_specs(gens, **kw)


def _param(params: dict, name: str, parse, default=None, required=False):
    """params.<name> through parse, or the default, parsed too, when it is
    absent or null; "a.b" names field b of the object params.a. A
    ValueError (ConfigError among them), TypeError or KeyError of parse
    becomes a ConfigError naming params.<name> and the raw value."""
    *outer, key = name.split(".")
    for part in outer:
        params = params[part]
    raw = params.get(key)
    if raw is None:
        if required:
            raise ConfigError(f"missing required parameter: params.{name}")
        raw = default
    try:
        return None if raw is None else parse(raw)
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"params.{name} = {raw!r}: {exc}") from None


def _each(parse):
    """A parse function for a JSON list: parse applied to every item."""
    def parse_list(raw) -> list:
        if type(raw) is not list:
            raise TypeError(f"not a list but {type(raw).__name__}")
        return [parse(item) for item in raw]
    return parse_list


def _object(raw) -> dict:
    if type(raw) is not dict:
        raise TypeError(f"not an object but {type(raw).__name__}")
    return raw


def _fraction_pair(raw) -> tuple[Fraction, Fraction]:
    a, b = raw
    return parse_fraction(a), parse_fraction(b)


def _int(raw) -> int:
    """An integer parameter: a JSON integer or integer text. A JSON float
    or bool is refused, where int() would truncate it or read it as 0/1."""
    if type(raw) is float or type(raw) is bool:
        raise TypeError(f"not an integer but {type(raw).__name__}")
    return int(raw)


def _measure_index(seq: MeasureSequence, raw) -> int:
    """A measure_index parameter, checked against the config's measures (a
    negative index would silently count from the end)."""
    idx = _int(raw)
    if not 0 <= idx < len(seq):
        raise ConfigError(f"must lie in [0, {len(seq)})")
    return idx


def _trim_points(raw) -> int:
    """A trim_points parameter: a factor is trimmed to at least one point."""
    n = _int(raw)
    if n < 1:
        raise ConfigError("must be a positive integer")
    return n


def _interval(basis: GeneratorBasis, params: dict, prefix: str = "") -> tuple[Point, Point]:
    """params.<prefix>interval_lo and interval_hi, checked lo < hi here:
    the interval sets that take them reject lo >= hi as a ValueError."""
    point = functools.partial(Point.from_json, basis)
    lo = _param(params, prefix + "interval_lo", point, required=True)
    hi = _param(params, prefix + "interval_hi", point, required=True)
    if compare(lo, hi) >= 0:
        raise ConfigError(f"params.{prefix}interval_lo must lie below "
                          f"params.{prefix}interval_hi")
    return lo, hi


def _witness_caps(params: dict) -> dict:
    """params.m_cap, m_max and enumeration_cap as build_witness keywords."""
    return {"m_cap": _param(params, "m_cap", _int, 64),
            "m_max": _param(params, "m_max", _int, 64),
            "tuple_cap": _param(params, "enumeration_cap", _int, 10**7)}


_encode_str = json.encoder.encode_basestring_ascii  # the C encoder where built
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj, nl: str = "\n") -> str:
    """What json.dumps writes for obj with sorted keys and an indent of 2,
    byte for byte, without the pure-Python encoder that an indent selects.
    Types dispatch exactly: dict with str keys, list, tuple, str, int,
    bool, None and float; anything else raises TypeError. nl is the
    newline and indent of obj's level."""
    kind = type(obj)
    if kind is str:
        return _encode_str(obj)
    if kind is dict:
        if not obj:
            return "{}"
        inner = nl + "  "
        items = []
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{_encode_str(key)}: {_json_text(obj[key], inner)}")
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        inner = nl + "  "
        return ("[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj])
                + nl + "]")
    if obj is None:
        return "null"
    if kind is bool:
        return "true" if obj else "false"
    if kind is int:
        return repr(obj)
    if kind is float:
        text = repr(obj)
        return _NONFINITE.get(text, text)
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(payload) + "\n")


def _write_csv(path: Path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _report(command: str, args, cfg: dict, results: dict, status: str) -> dict:
    return {
        "artifact": {"name": "sweepout", "version": __version__,
                     "kernel_backend": kernel.BACKEND},
        "command": command,
        "status": status,
        "seed": args.seed,
        "config_echo": cfg,
        "results": results,
    }


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_decompose(args, cfg, basis, seq, params, out):
    idx = _param(params, "measure_index", functools.partial(_measure_index, seq), 0)
    spec = decompose(seq[idx].support())
    _write_json(out / "lattice_spec.json", spec.to_json())
    return {"measure_index": idx, "nu": spec.nu, "p": spec.p, "tau": spec.tau,
            "spec": spec.to_json()}


def _cmd_lattice_count(args, cfg, basis, seq, params, out):
    idx = _param(params, "measure_index", functools.partial(_measure_index, seq), 0)
    lo, hi = _interval(basis, params)
    ms = (_param(params, "m_values", _each(_int))
          or [_param(params, "m", _int, required=True)])
    cap = _param(params, "enumeration_cap", _int, 10**7)
    spec = decompose(seq[idx].support())
    rows = [interval_count_ratio(spec, m, (lo, hi), cap=cap) for m in ms]
    _write_csv(out / "lattice_count.csv",
               [("m", "count", "predicted", "ratio")] +
               [(r.m, r.count, repr(float((r.predicted_lo + r.predicted_hi) / 2)),
                 repr(r.ratio)) for r in rows])
    return {"measure_index": idx, "rows": [r.to_json() for r in rows]}


def _cmd_find_lambda(args, cfg, basis, seq, params, out):
    idx = _param(params, "measure_index", functools.partial(_measure_index, seq), 0)
    mu = seq[idx]
    eps = _param(params, "epsilon", parse_fraction, required=True)
    delta = _param(params, "delta", parse_fraction, required=True)
    floor_scale = _param(params, "floor_scale", _int, 10**4)
    res = find_lambda(mu, eps, delta, floor_scale=floor_scale)
    profile = lambda_profile(mu, eps, delta, floor_scale=floor_scale)
    _write_csv(out / "lambda_profile.csv", profile.csv_rows())
    return {"measure_index": idx, "lambda": res.to_json(),
            "profile_pieces": profile.piece_count}


def _cmd_build_eg(args, cfg, basis, seq, params, out):
    idx = _param(params, "measure_index", functools.partial(_measure_index, seq), 0)
    mu = seq[idx]
    eps = _param(params, "epsilon", parse_fraction, required=True)
    pair = build_eg(mu, eps, m_max=_param(params, "m_max", _int, 64), mu_index=idx,
                    tuple_cap=_param(params, "enumeration_cap", _int, 10**7))
    cert = pair.certify(mu)
    _write_json(out / "eg_pair.json", pair.to_json())
    if not cert["ok"]:
        raise VerificationFailed("pair certification failed", report=cert)
    return {"measure_index": idx, "m": pair.m, "lambda": fraction_str(pair.lam),
            "count_E": len(pair.E), "count_G": len(pair.G), "certificate": cert}


def _cmd_build_witness(args, cfg, basis, seq, params, out):
    # 0, the default: no trimming
    trim_to = _param(params, "trim_points", lambda raw: _int(raw) and _trim_points(raw), 0)
    w = build_witness(seq, _param(params, "Delta", parse_fraction, required=True),
                      _param(params, "delta", parse_fraction, required=True),
                      **_witness_caps(params))
    _write_json(out / "witness.json", w.to_json())
    results = {"m": w.m, "indices": w.indices, "count_E": w.count_E,
               "count_G": w.count_G,
               "ratio": repr(float(Fraction(w.count_E, w.count_G)))}
    if trim_to:
        wt = trim_witness(w, seq, max_points=trim_to)
        _write_json(out / "witness_trimmed.json", wt.to_json())
        results["trimmed"] = {"count_E": wt.count_E, "count_G": wt.count_G}
    return results


def _cmd_verify(args, cfg, basis, seq, params, out):
    path = args.witness or _param(params, "witness_path", os.fspath)
    if not path:
        raise ConfigError("verify needs --witness or params.witness_path")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            w = SweepOutWitness.from_json(basis, json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read witness file {path}: {exc.strerror}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad witness file: {exc}")
    for idx in w.indices:
        if not 0 <= idx < len(seq):
            raise ConfigError(f"bad witness file: index {idx} is outside the "
                              f"{len(seq)} measures of the config")
    report = verify_witness(
        w, seq, mode=_param(params, "mode", str, "factor-exact"),
        explicit_cap=args.explicit_cap or _param(params, "explicit_cap", _int, 10**6),
        samples=_param(params, "samples", _int, 100), seed=args.seed)
    _write_json(out / "verification.json", report.to_json())
    if not report.passed:
        raise VerificationFailed(
            "; ".join(c.name for c in report.failing()), report=report.to_json())
    return report.to_json()


def _cmd_trace(args, cfg, basis, seq, params, out):
    traces = oscillation_trace(
        seq, _param(params, "schedule", _each(_fraction_pair), required=True),
        trim_points=_param(params, "trim_points", _trim_points, 4),
        max_sample_points=_param(params, "max_sample_points", _int, 24),
        m_cap=_param(params, "m_cap", _int, 64))
    rows = [("entry", "n", "point_id", "value", "running_max", "running_min")]
    for j, tr in enumerate(traces):
        for row in list(tr.csv_rows())[1:]:
            rows.append((j,) + row)
    _write_csv(out / "trace.csv", rows)
    return {"entries": [t.to_json() for t in traces]}


def _cmd_check_conditions(args, cfg, basis, seq, params, out):
    cheb = _param(params, "chebyshev", _object)
    if cheb:
        cheb_idx = _param(params, "chebyshev.measure_index",
                          functools.partial(_measure_index, seq), 0)
        lo, hi = _interval(basis, params, "chebyshev.")
        if (hi - lo - 1).sign() >= 0:  # chebyshev_check maps G onto the circle
            raise ConfigError("params.chebyshev.interval_hi must lie below interval_lo + 1")
        G = IntervalSet.single(basis, lo, hi)
        cheb_eps = _param(params, "chebyshev.epsilon", parse_fraction, required=True)
    deltas = _param(params, "deltas", _each(parse_fraction), ["1/10", "1/100"])
    tail = _param(params, "tail_ratio", parse_fraction, "999/1000")
    mass_tol = _param(params, "mass_tol", parse_fraction, "1/1000")
    rep = check_condition_one(seq, deltas, tail_ratio=tail, mass_tol=mass_tol)
    rows = [("delta", "n", "value", "mass")]
    for r in rep.rows:
        for n, v in enumerate(r.values):
            rows.append((fraction_str(r.delta), n, repr(float(v)),
                         repr(float(rep.masses[n]))))
    _write_csv(out / "condition1.csv", rows)
    results = {"condition_1": rep.to_json()}
    if cheb:
        crep = chebyshev_check(seq[cheb_idx], G, cheb_eps)
        results["chebyshev"] = crep.to_json()
        if not crep.passed():
            raise VerificationFailed("chebyshev bound failed", report=crep.to_json())
    # unbounded sup-ratio demonstration: a certified witness per target
    sweep = _param(params, "sup_ratio_targets", _each(parse_fraction))
    if sweep:
        delta = _param(params, "delta", parse_fraction, "1/2")
        caps = _witness_caps(params)
        rows = []
        for Delta in sweep:
            w = build_witness(seq, Delta, delta, **caps)
            rows.append({"Delta": fraction_str(Delta), "m": w.m,
                         "indices": w.indices,
                         "ratio": repr(float(Fraction(w.count_E, w.count_G)))})
        results["sup_ratio_witnesses"] = rows
    return results


_HANDLERS = {
    "decompose": _cmd_decompose,
    "lattice-count": _cmd_lattice_count,
    "find-lambda": _cmd_find_lambda,
    "build-eg": _cmd_build_eg,
    "build-witness": _cmd_build_witness,
    "verify": _cmd_verify,
    "trace": _cmd_trace,
    "check-conditions": _cmd_check_conditions,
}


def run(args) -> int:
    cfg = _load_config(args.config)
    basis = _basis_from_config(cfg, args.precision_bits)
    seq = MeasureSequence.from_json(basis, cfg.get("measures"))
    params = dict(cfg.get("params", {}))
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc.strerror}") from None
    command = args.command
    try:
        results = _HANDLERS[command](args, cfg, basis, seq, params, out)
        status = "ok"
        code = 0
    except VerificationFailed as exc:
        results = {"error": str(exc), "report": getattr(exc, "report", None)}
        status = "verification-failed"
        code = 1
    except (LambdaNotFound, GrowthExhausted, SequenceExhausted) as exc:
        results = {"error": str(exc), "diagnostics": exc.diagnostics}
        status = "verification-failed"
        code = 1
    except (CapExceeded, PrecisionExhausted) as exc:
        results = {"error": str(exc)}
        status = "resource-cap"
        code = 2
    except ConfigError:
        raise
    except Exception as exc:
        # a fault of the program itself, such as a failed self-check
        import traceback  # only on this path: it pulls in tokenize

        results = {"error": f"{type(exc).__name__}: {exc}",
                   "traceback": traceback.format_exc().splitlines()}
        status = "internal-error"
        code = 4
    _write_json(out / f"report-{command}.json",
                _report(command, args, cfg, results, status))
    if code:
        print(f"{command}: {status}: {results.get('error')}", file=sys.stderr)
    return code


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; built once per process, main parses every
    call with it."""
    ap = argparse.ArgumentParser(
        prog="sweepout",
        description="exact construction and verification of sweep-out "
                    "witness sets for convolutions of discrete measures")
    ap.add_argument("command", choices=tuple(_HANDLERS))
    ap.add_argument("--config", required=True, help="experiment config (JSON)")
    ap.add_argument("--out", default="out", help="output directory")
    ap.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    ap.add_argument("--precision-bits", type=int, default=None,
                    help="certified comparison precision cap")
    ap.add_argument("--explicit-cap", type=int, default=None,
                    help="explicit enumeration cap")
    ap.add_argument("--witness", default=None, help="witness file for verify")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
