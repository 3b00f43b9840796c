import argparse
import hashlib
import json
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sweepout import __version__, cli
from sweepout.cli import main
from sweepout.measures import DiscreteMeasure


def write_config(directory: Path, n_measures=12, params=None):
    def frac(x):
        return f"{x.numerator}/{x.denominator}"

    measures = []
    for n in range(1, n_measures + 1):
        s = F(1, 4**n)
        measures.append({
            "atoms": [{"coeffs": ["0", frac(s), "0"]},
                      {"coeffs": ["0", "0", frac(s)]}],
            "masses": ["1/2", "1/2"],
        })
    cfg = {
        "basis": {"generators": ["sqrt:2", "sqrt:3"]},
        "measures": measures,
        "params": {
            "measure_index": 0,
            "interval_lo": "0", "interval_hi": "2/5",
            "m_values": [20, 50],
            "epsilon": "1/6", "delta": "1/10",
            "Delta": "1/12",
            "deltas": ["1/10", "1/100"],
            "schedule": [["1/12", "1/2"]],
            "trim_points": 4,
            "floor_scale": 200,
            "chebyshev": {"measure_index": 0, "interval_lo": "1/10",
                          "interval_hi": "1/5", "epsilon": "1/4"},
            **(params or {}),
        },
    }
    (directory / "config.json").write_text(json.dumps(cfg, indent=1))
    return cfg


@pytest.fixture()
def config(tmp_path):
    write_config(tmp_path)
    return tmp_path


def run(config_dir, command, out="out", extra=()):
    return main([command, "--config", str(config_dir / "config.json"),
                 "--out", str(config_dir / out), *extra])


def report(config_dir, command, out="out"):
    with open(config_dir / out / f"report-{command}.json") as fh:
        return json.load(fh)


def test_decompose_command(config):
    assert run(config, "decompose") == 0
    rep = report(config, "decompose")
    assert rep["artifact"]["version"] == __version__
    assert rep["status"] == "ok"
    assert rep["results"]["nu"] == 2 and rep["results"]["p"] == 1
    assert "config_echo" in rep
    assert (config / "out" / "lattice_spec.json").exists()


def test_lattice_count_command(config):
    assert run(config, "lattice-count") == 0
    rows = (config / "out" / "lattice_count.csv").read_text().splitlines()
    assert rows[0] == "m,count,predicted,ratio"
    assert len(rows) == 3
    rep = report(config, "lattice-count")
    for row in rep["results"]["rows"]:
        assert abs(row["ratio"] - 1) < 0.3


def test_find_lambda_command(config):
    assert run(config, "find-lambda") == 0
    rep = report(config, "find-lambda")
    assert "lambda" in rep["results"]
    assert (config / "out" / "lambda_profile.csv").exists()


def test_find_lambda_floor_at_r(tmp_path):
    # floor_scale 1 puts the floor at r: the profile has no pieces, and the
    # search lowers its floor until it finds lam
    write_config(tmp_path, params={"floor_scale": 1})
    assert run(tmp_path, "find-lambda") == 0
    assert "lambda" in report(tmp_path, "find-lambda")["results"]
    rows = (tmp_path / "out" / "lambda_profile.csv").read_text().splitlines()
    assert rows == ["piece_lo,piece_hi,value"]


def test_build_eg_command(config):
    assert run(config, "build-eg") == 0
    rep = report(config, "build-eg")
    assert rep["results"]["certificate"]["ok"]
    assert (config / "out" / "eg_pair.json").exists()


def test_build_eg_exhausted_reports_best_ratio(tmp_path):
    # a level cap below the first passing level: the report's diagnostics
    # carry the best #E / #G ratio reached
    cfg = write_config(tmp_path, params={"m_max": 2, "epsilon": "1/7"})
    cfg["measures"] = [{
        "atoms": [{"coeffs": ["1/20", "0", "0"]}, {"coeffs": ["0", "1/26", "0"]},
                  {"coeffs": ["0", "0", "1/37"]}],
        "masses": ["1/7", "4/7", "2/7"],
    }]
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert run(tmp_path, "build-eg") == 1
    rep = report(tmp_path, "build-eg")
    assert rep["status"] == "verification-failed"
    assert rep["results"]["diagnostics"] == {"best_ratio": "1/41"}


def test_build_verify_trace_pipeline(config):
    assert run(config, "build-witness") == 0
    assert (config / "out" / "witness.json").exists()
    assert (config / "out" / "witness_trimmed.json").exists()
    assert run(config, "verify",
               extra=("--witness", str(config / "out" / "witness.json"))) == 0
    rep = report(config, "verify")
    assert rep["results"]["passed"]
    assert run(config, "trace") == 0
    lines = (config / "out" / "trace.csv").read_text().splitlines()
    assert lines[0] == "entry,n,point_id,value,running_max,running_min"
    assert len(lines) > 10


def test_check_conditions_command(config):
    assert run(config, "check-conditions") == 0
    rep = report(config, "check-conditions")
    rows = rep["results"]["condition_1"]["rows"]
    assert rows[0]["tail_index"] == 3   # sqrt3/4^n < 1/10 from n = 3
    assert rows[1]["tail_index"] == 4   # sqrt3/4^n < 1/100 from n = 4
    assert all(rep["results"]["condition_1"]["condition_a_ok"])
    assert rep["results"]["chebyshev"]["identity_ok"]


def test_check_conditions_sup_ratio_sweep(tmp_path):
    write_config(tmp_path, n_measures=24,
                 params={"sup_ratio_targets": ["1/12", "1/4"],
                         "delta": "1/2"})
    assert run(tmp_path, "check-conditions") == 0
    rep = report(tmp_path, "check-conditions")
    rows = rep["results"]["sup_ratio_witnesses"]
    assert [r["m"] for r in rows] == [3, 7]
    for r, target in zip(rows, (F(1, 12), F(1, 4))):
        assert float(r["ratio"]) > target


def test_config_validation_exit_3(tmp_path, capsys):
    write_config(tmp_path, params={"delta": "3/2", "Delta": "1/12"})
    assert run(tmp_path, "build-witness") == 3
    err = capsys.readouterr().err
    assert "(0, 1)" in err

    (tmp_path / "config.json").write_text("{ not json")
    assert run(tmp_path, "decompose") == 3

    missing = tmp_path / "nope.json"
    assert main(["decompose", "--config", str(missing), "--out",
                 str(tmp_path / "o")]) == 3


def _zero_mass(cfg):
    cfg["measures"][0]["masses"][0] = "1/0"


def _zero_coefficient(cfg):
    cfg["measures"][0]["atoms"][0]["coeffs"][1] = "1/0"


def _zero_point_param(cfg):
    cfg["params"]["interval_hi"] = "1/0"


def _zero_rational_param(cfg):
    cfg["params"]["epsilon"] = "1/0"


@pytest.mark.parametrize("tamper, command", [
    (_zero_mass, "decompose"), (_zero_coefficient, "decompose"),
    (_zero_point_param, "lattice-count"), (_zero_rational_param, "find-lambda")])
def test_zero_denominator_exit_3(tmp_path, capsys, tamper, command):
    # a zero denominator anywhere in the config is a config error that
    # names the text, never a traceback with the exit code of a failure
    cfg = write_config(tmp_path)
    tamper(cfg)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run(tmp_path, command) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "1/0" in err


@pytest.mark.parametrize("m", [0, -3])
def test_lattice_count_level_below_one_exit_3(tmp_path, capsys, m):
    # the density law needs m >= 1; the message names the level
    write_config(tmp_path, params={"m_values": [m]})
    capsys.readouterr()
    assert run(tmp_path, "lattice-count") == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert f"m = {m}" in err


@pytest.mark.parametrize("floor_scale", [0, -3])
def test_find_lambda_floor_scale_below_one_exit_3(tmp_path, capsys, floor_scale):
    # floor_scale 0 or below is a config error: not a division by zero
    # (exit 4), nor a negative floor whose window search never ends
    write_config(tmp_path, params={"floor_scale": floor_scale})
    capsys.readouterr()
    assert run(tmp_path, "find-lambda") == 3
    err = capsys.readouterr().err
    assert err == f"config error: floor_scale must be a positive integer, got {floor_scale}\n"


def test_corrupted_witness_exit_1(config):
    assert run(config, "build-witness") == 0
    blob = json.loads((config / "out" / "witness.json").read_text())
    # the last G point, so that G stays ascending (see the reversed-G case
    # of test_malformed_witness_exit_3)
    blob["factors"][0]["G"][-1] = {"coeffs": ["9/10", "0", "0"]}
    bad = config / "out" / "bad_witness.json"
    bad.write_text(json.dumps(blob))
    code = run(config, "verify", extra=("--witness", str(bad)))
    assert code == 1
    rep = report(config, "verify")
    assert rep["status"] == "verification-failed"
    assert "factor[0]" in json.dumps(rep["results"])


def test_precision_bits_flag(tmp_path):
    # the flag threads through to the comparison escalation cap; well
    # separated values are still decided by the certified float filter
    from sweepout.cli import _basis_from_config

    cfg = write_config(tmp_path)
    basis = _basis_from_config(cfg, None)
    assert basis.precision_cap == 1024
    basis = _basis_from_config(cfg, 256)
    assert basis.precision_cap == 256
    assert run(tmp_path, "build-eg", extra=("--precision-bits", "256")) == 0


def test_byte_identical_reports(config):
    for out in ("outA", "outB"):
        assert run(config, "build-witness", out=out, extra=("--seed", "0")) == 0
        assert run(config, "check-conditions", out=out, extra=("--seed", "0")) == 0
    for name in ("report-build-witness.json", "witness.json",
                 "report-check-conditions.json", "condition1.csv"):
        a = (config / "outA" / name).read_bytes()
        b = (config / "outB" / name).read_bytes()
        assert a == b, name


# sha256 of the artifacts the CLI writes on the write_config config: a
# refactor of the pipeline must not change a byte of them (report-*.json
# embed the package version and are left out)
GOLDEN_DIGESTS = {
    "out/lambda_profile.csv":
        "4b5ae8c2b15198caee6f7f7f6de8e32631411adbc273b7d11ec0a35d1ff3f7b7",
    "out/eg_pair.json":
        "d5591c29e8a782e4126eaa1455fe5bb2489ab24753de6c7cbcba713ce5d2b04f",
    "out/witness.json":
        "e6a4fe83c5a9444284717a882970c9df066db04c478453c63f3a0be0f792f5e6",
    "out/witness_trimmed.json":
        "b1257960bbfbbc8c6d6fcdcac06c62a925474e9579f396744dc094519a497bca",
    "verify-factor-exact/verification.json":
        "eaa48049baf831bbc35bc872e10e814fcfbe8cc357c537118abc9da3007f8235",
    "verify-explicit-brute-force/verification.json":
        "e19799a3037e001db11a8d2923112e7f209949b091bca4459e034e78b945c7aa",
    "verify-sampled/verification.json":
        "e2f92a5575384535b2224d0f4c9b8d769ffe77b2e3d74602d3b56572d894ccd9",
}


def test_golden_artifact_digests(tmp_path):
    write_config(tmp_path)
    for command in ("find-lambda", "build-eg", "build-witness"):
        assert run(tmp_path, command) == 0, command
    for mode, witness in (("factor-exact", "witness.json"),
                          ("explicit-brute-force", "witness_trimmed.json"),
                          ("sampled", "witness.json")):
        write_config(tmp_path, params={"mode": mode})
        assert run(tmp_path, "verify", out=f"verify-{mode}",
                   extra=("--witness", str(tmp_path / "out" / witness))) == 0
    for name, digest in GOLDEN_DIGESTS.items():
        got = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert got == digest, name


def test_golden_artifact_digests_with_filter_off(tmp_path, filter_off):
    # find-lambda, build-eg, build-witness and verify in all three modes
    # with apart's margin off, so that every decision is exact: the same
    # artifacts
    filter_off()
    test_golden_artifact_digests(tmp_path)


# sha256 of the nine artifacts the eight CLI commands write on
# configs/demo.json (the reports are left out, as above)
DEMO_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "demo.json"
DEMO_DIGESTS = {
    "lattice_spec.json":
        "27cf493697b5d7d8598f7d1f1ca6027c437930c5befb4f152f4e0c9fbd666781",
    "lattice_count.csv":
        "2e17d8ba140866cb61c3b083f36533a0e42b964e8b3f3b16ce57abd7354f607a",
    "lambda_profile.csv":
        "4b5ae8c2b15198caee6f7f7f6de8e32631411adbc273b7d11ec0a35d1ff3f7b7",
    "eg_pair.json":
        "d5591c29e8a782e4126eaa1455fe5bb2489ab24753de6c7cbcba713ce5d2b04f",
    "witness.json":
        "bd50cdc3df4b42464571566d25b8c4bcd4341b94f19b8b7881da2256be1f807c",
    "witness_trimmed.json":
        "80c7c1821ef1c8792fc8a48ae90208b57887320122dab6b20cf1da0c89ed8079",
    "trace.csv":
        "1c7d63f78d4be309b8e0d10c247e138298e230c44caa11293659a55f4dc3beba",
    "condition1.csv":
        "aa03a31b4a26d0a0a69674f0c94d2405b17e80f42f9cd49cbb6f2e0b26f30eef",
    "verification.json":
        "5e409b68b79043dbb13132970bfd2bbbe4d4af90838e79684bf30a18e7fd4b69",
}


def test_demo_artifact_digests(tmp_path):
    out = tmp_path / "out"
    base = ["--config", str(DEMO_CONFIG), "--out", str(out)]
    for command in ("decompose", "lattice-count", "find-lambda", "build-eg",
                    "build-witness", "trace", "check-conditions"):
        assert main([command, *base]) == 0, command
    assert main(["verify", *base, "--witness", str(out / "witness.json")]) == 0
    for name, digest in DEMO_DIGESTS.items():
        got = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert got == digest, name


def test_demo_artifact_digests_with_filter_off(tmp_path, filter_off):
    # the float filter only saves time: with apart's margin off, so that
    # every decision of exactreal and the builder is exact, the demo
    # writes the same artifacts
    filter_off()
    test_demo_artifact_digests(tmp_path)


def _drop_last_index(blob):
    blob["indices"].pop()


def _shift_first_index(blob):
    blob["indices"][0] += 1


def _empty_E(blob):
    blob["factors"][-1]["E"] = []


def _empty_G(blob):
    blob["factors"][-1]["G"] = []


def _m_too_large(blob):
    blob["m"] += 1


def _index_out_of_range(blob):
    blob["indices"][-1] = blob["factors"][-1]["mu_index"] = 99
    return "bad witness file: index 99 is outside the 12 measures of the config"


def _reversed_G(blob):
    # decode_near bisects G: a file that lists it descending is malformed,
    # not sorted silently into another certificate
    blob["factors"][0]["G"].reverse()
    return "bad witness file: pair for measure 0: G is not strictly ascending"


def _zero_E_and_G(blob):
    # E u G = {0} has no gap for the separation chain to read
    blob["factors"][0]["E"] = blob["factors"][0]["G"] = ["0"]
    return "bad witness file: pair for measure 0: E and G are both {0}"


def _zero_counts(blob):
    # sampled verification draws the E factor with these weights
    blob["count_F"] = [0] * len(blob["count_F"])
    return "holds a count below 1"


@pytest.mark.parametrize("tamper", [_drop_last_index, _shift_first_index,
                                    _empty_E, _empty_G, _m_too_large,
                                    _index_out_of_range, _reversed_G,
                                    _zero_E_and_G, _zero_counts])
def test_malformed_witness_exit_3(config, capsys, tamper):
    assert run(config, "build-witness") == 0
    blob = json.loads((config / "out" / "witness.json").read_text())
    # a failing last factor must not pass unchecked when its index is gone
    # (G = {E[0]} is not disjoint from E, and stays ascending)
    blob["factors"][-1]["G"] = blob["factors"][-1]["E"][:1]
    expected = tamper(blob) or "bad witness file"
    bad = config / "out" / "bad_witness.json"
    bad.write_text(json.dumps(blob))
    capsys.readouterr()
    assert run(config, "verify", extra=("--witness", str(bad))) == 3
    assert expected in capsys.readouterr().err


def test_find_lambda_builds_one_profile(config, monkeypatch):
    from sweepout import cli, lambda_search

    calls = []
    original = lambda_search.lambda_profile

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(lambda_search, "lambda_profile", counted)
    # a name the CLI imported itself would bypass the patch above
    monkeypatch.setattr(cli, "lambda_profile", counted, raising=False)
    assert run(config, "find-lambda") == 0
    assert len(calls) == 1


def test_internal_error_exit_4(config, capsys, monkeypatch):
    # a failed self-check is a fault of the program: a report with status
    # internal-error and one line on stderr, not a traceback
    from sweepout import lambda_search

    monkeypatch.setattr(lambda_search, "window_value",
                        lambda mu, eps, lam: F(-1))
    capsys.readouterr()
    assert run(config, "find-lambda") == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("find-lambda: internal-error: AssertionError: ")
    assert "disagrees with direct evaluation" in err
    rep = report(config, "find-lambda")
    assert rep["status"] == "internal-error"
    assert rep["results"]["error"].startswith("AssertionError: ")
    assert "in find_lambda" in "\n".join(rep["results"]["traceback"])


_CHEBYSHEV = {"interval_lo": "1/10", "interval_hi": "1/5", "epsilon": "1/4"}


@pytest.mark.parametrize("command, params, index", [
    ("decompose", {"measure_index": -12}, -12),
    ("lattice-count", {"measure_index": -2}, -2),
    ("find-lambda", {"measure_index": -1}, -1),
    ("build-eg", {"measure_index": -1}, -1),
    ("build-eg", {"measure_index": 12}, 12),
    ("decompose", {"measure_index": 99}, 99),
    ("check-conditions", {"chebyshev": {**_CHEBYSHEV, "measure_index": -1}}, -1),
])
def test_measure_index_out_of_range_exit_3(tmp_path, capsys, command, params, index):
    # a negative index must not pick a measure from the end, and one past
    # the end must say which index is wrong
    write_config(tmp_path, params=params)
    key = "chebyshev.measure_index" if "chebyshev" in params else "measure_index"
    capsys.readouterr()
    assert run(tmp_path, command) == 3
    err = capsys.readouterr().err
    assert err == f"config error: params.{key} = {index}: must lie in [0, 12)\n"


@pytest.mark.parametrize("command, trim", [
    ("build-witness", -1), ("trace", 0), ("trace", -1)])
def test_trim_points_below_one_exit_3(tmp_path, capsys, command, trim):
    # no factor trims to fewer than one point: a config error, not a
    # failed certificate
    write_config(tmp_path, params={"trim_points": trim})
    capsys.readouterr()
    assert run(tmp_path, command) == 3
    err = capsys.readouterr().err
    assert err == f"config error: params.trim_points = {trim}: must be a positive integer\n"


def _demo_witness_to_verify(tmp_path, name, tamper):
    """Build the demo witnesses, write file name tampered by tamper, and
    return a function that verifies it in a mode (into out-<mode>)."""
    assert run_demo(tmp_path / "out", "build-witness") == 0
    blob = json.loads((tmp_path / "out" / name).read_text())
    tamper(blob)
    bad = tmp_path / "bad_witness.json"
    bad.write_text(json.dumps(blob))
    cfg = json.loads(DEMO_CONFIG.read_text())

    def verify(mode):
        cfg["params"]["mode"] = mode
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        return run(tmp_path, "verify", out=f"out-{mode}", extra=("--witness", str(bad)))

    return verify


def _reverse_factors(blob):
    for key in ("factors", "indices", "count_F"):
        blob[key].reverse()


def test_reversed_factors_verify_reports_failed_checks(tmp_path, capsys):
    # the 7 demo factors listed smallest first: the certified thickening
    # bound is negative, and verify writes a report that names the checks
    verify = _demo_witness_to_verify(tmp_path, "witness.json", _reverse_factors)
    for mode in ("factor-exact", "sampled"):
        capsys.readouterr()
        assert verify(mode) == 1
        assert capsys.readouterr().err.startswith(
            "verify: verification-failed: separation_chain; thickening_radius")
        rep = json.loads((tmp_path / f"out-{mode}" / "verification.json").read_text())
        failing = [c["name"] for c in rep["checks"] if not c["passed"]]
        assert failing[:2] == ["separation_chain", "thickening_radius"], mode
        assert report(tmp_path, "verify", out=f"out-{mode}")["results"]["report"] == rep


def _zero_eps_prime(blob):
    blob["eps_prime"] = {"coeffs": ["0", "0", "0"]}


def test_zero_eps_prime_exit_3(tmp_path, capsys):
    # a witness with no thickening is a malformed file in every mode
    verify = _demo_witness_to_verify(tmp_path, "witness_trimmed.json", _zero_eps_prime)
    for mode in ("factor-exact", "sampled", "explicit-brute-force"):
        capsys.readouterr()
        assert verify(mode) == 3
        assert capsys.readouterr().err == (
            "config error: bad witness file: eps_prime must be positive\n")


def test_build_witness_trim_points_zero_and_one(tmp_path):
    # 0 asks for no trimming; on the demo config one point cannot carry the
    # first factor's mass, which is a certified failure (exit 1)
    cfg = json.loads(DEMO_CONFIG.read_text())
    for trim, code in ((0, 0), (1, 1)):
        cfg["params"]["trim_points"] = trim
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert run(tmp_path, "build-witness", out=f"trim{trim}") == code
    assert not (tmp_path / "trim0" / "witness_trimmed.json").exists()
    rep = report(tmp_path, "build-witness", out="trim1")
    assert rep["status"] == "verification-failed"
    assert rep["results"]["error"] == "cannot trim factor at measure 0 to 1 points"



def _list_config(cfg):
    return [cfg], "config must be a JSON object"


def _string_measure(cfg):
    cfg["measures"][3] = "oops"
    return cfg, "measures[3] is not an object with lists atoms and masses"


def _measures_object(cfg):
    cfg["measures"] = {"0": cfg["measures"][0]}
    return cfg, "measures must be a non-empty list"


def _unequal_atoms_masses(cfg):
    cfg["measures"][2]["masses"].append("1/2")
    return cfg, "measures[2] needs equally many atoms and masses, at least one"


def _atom_list(cfg):
    cfg["measures"][1]["atoms"][0] = ["0", "1/4", "0"]
    return cfg, ("measures[1].atoms[0] is neither an object with a coeffs list "
                 "nor a scalar")


def _params_list(cfg):
    cfg["params"] = [cfg["params"]]
    return cfg, "config params must be a JSON object"


def _generator_number(cfg):
    cfg["basis"]["generators"][1] = 3
    return cfg, "basis generators must be a list of strings"


@pytest.mark.parametrize("command", ["decompose", "check-conditions"])
@pytest.mark.parametrize("tamper", [_list_config, _string_measure,
                                    _measures_object, _unequal_atoms_masses,
                                    _atom_list, _params_list, _generator_number])
def test_malformed_config_exit_3(tmp_path, capsys, tamper, command):
    # a config of the wrong shape is a config error that names the JSON
    # path, before any stage runs: never exit 1 with a traceback
    cfg, expected = tamper(write_config(tmp_path))
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run(tmp_path, command) == 3
    assert capsys.readouterr().err == f"config error: {expected}\n"
    assert not (tmp_path / "out").exists()


def run_demo(out, command):
    return main([command, "--config", str(DEMO_CONFIG), "--out", str(out)])


def _count_measure_parses(monkeypatch):
    calls = []
    parse = DiscreteMeasure.from_json

    def counted(basis, obj):
        calls.append(obj)
        return parse(basis, obj)

    monkeypatch.setattr(DiscreteMeasure, "from_json", staticmethod(counted))
    return calls


@pytest.mark.parametrize("command, parses", [
    ("decompose", 1), ("find-lambda", 1), ("build-eg", 1),
    ("check-conditions", 24)])
def test_measures_parsed_on_first_read(tmp_path, monkeypatch, command, parses):
    # a command that reads one measure of the 24 parses one; the condition
    # report reads them all, each once
    calls = _count_measure_parses(monkeypatch)
    assert run_demo(tmp_path, command) == 0
    assert len(calls) == parses


def test_bad_measure_value_reported_when_read(tmp_path, capsys):
    # values are checked when a measure is first read: check-conditions
    # reads measures[5] and names it; decompose reads only measures[0]
    cfg = json.loads(DEMO_CONFIG.read_text())
    cfg["measures"][5]["atoms"][0] = "3/2"
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    capsys.readouterr()
    assert run(tmp_path, "check-conditions") == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: measures[5]: atom outside (0,1)")
    assert run(tmp_path, "decompose") == 0


def test_parser_built_once(tmp_path, monkeypatch):
    built = []

    def counted(*args, **kwargs):
        built.append(1)
        return argparse.ArgumentParser(*args, **kwargs)

    monkeypatch.setattr(cli, "argparse", SimpleNamespace(ArgumentParser=counted))
    cli.build_parser.cache_clear()
    try:
        for _ in range(3):
            assert run_demo(tmp_path, "decompose") == 0
    finally:
        cli.build_parser.cache_clear()
    assert built == [1]


def _stdlib_json(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def test_writer_matches_stdlib_on_demo_payloads(tmp_path, monkeypatch):
    # every payload that the demo commands write, the reports included
    payloads = {}
    write = cli._write_json

    def recorded(path, payload):
        payloads[path.name] = payload
        write(path, payload)

    monkeypatch.setattr(cli, "_write_json", recorded)
    for command in ("decompose", "lattice-count", "find-lambda", "build-eg",
                    "build-witness", "trace", "check-conditions"):
        assert run_demo(tmp_path, command) == 0, command
    assert main(["verify", "--config", str(DEMO_CONFIG), "--out", str(tmp_path),
                 "--witness", str(tmp_path / "witness.json")]) == 0
    assert len(payloads) == 13  # eight reports and five artifacts
    for name, payload in payloads.items():
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert text == _stdlib_json(payload) + "\n", name


_json_floats = st.sampled_from([-0.0, 0.0, 1e300, 5e-324, float("nan"),
                                float("inf"), float("-inf")]) | st.floats()
_json_strings = st.text(st.characters(codec="utf-8") | st.sampled_from(
    '"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\ud7ff\U0001f600'))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=10**30)
    | _json_floats | _json_strings,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_json_strings, inner, max_size=4),
    max_leaves=30)


@given(_json_values)
@settings(max_examples=400, deadline=None)
def test_writer_matches_stdlib(value):
    assert cli._json_text(value) == _stdlib_json(value)


@pytest.mark.parametrize("value", [F(1, 2), {1, 2}, {1: "a"}, [{"a": {2: 3}}]])
def test_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli._json_text(value)


@pytest.mark.parametrize("exc", [ValueError("a fault of the program"),
                                 KeyError("a fault of the program")])
def test_library_value_and_key_errors_exit_4(config, capsys, monkeypatch, exc):
    # only a ConfigError is bad input: any other ValueError or KeyError
    # raised inside a stage is a fault of the program, not a config error
    def broken(support):
        raise exc

    monkeypatch.setattr(cli, "decompose", broken)
    capsys.readouterr()
    assert run(config, "decompose") == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"decompose: internal-error: {type(exc).__name__}: ")
    rep = report(config, "decompose")
    assert rep["status"] == "internal-error"
    assert "in broken" in "\n".join(rep["results"]["traceback"])


@pytest.mark.parametrize("command, params, key", [
    ("decompose", {"measure_index": "x"}, "measure_index"),
    ("lattice-count", {"interval_lo": ["0"]}, "interval_lo"),
    ("lattice-count", {"interval_hi": {"nums": ["0"]}}, "interval_hi"),
    ("lattice-count", {"interval_lo": "1/2", "interval_hi": "2/5"}, "interval_lo"),
    ("lattice-count", {"m_values": 5}, "m_values"),
    ("lattice-count", {"m_values": [], "m": "x"}, "m"),
    ("lattice-count", {"enumeration_cap": "x"}, "enumeration_cap"),
    ("find-lambda", {"epsilon": "x"}, "epsilon"),
    ("find-lambda", {"delta": [1]}, "delta"),
    ("find-lambda", {"floor_scale": "x"}, "floor_scale"),
    ("build-eg", {"m_max": "x"}, "m_max"),
    ("build-witness", {"Delta": "1/x"}, "Delta"),
    ("build-witness", {"m_cap": "x"}, "m_cap"),
    ("build-witness", {"trim_points": "x"}, "trim_points"),
    ("verify", {"witness_path": 5}, "witness_path"),
    ("verify", {"explicit_cap": "x"}, "explicit_cap"),
    ("verify", {"samples": "x"}, "samples"),
    ("trace", {"schedule": [["1/12"]]}, "schedule"),
    ("trace", {"max_sample_points": "x"}, "max_sample_points"),
    ("check-conditions", {"chebyshev": "oops"}, "chebyshev"),
    ("check-conditions", {"chebyshev": {**_CHEBYSHEV, "measure_index": "x"}},
     "chebyshev.measure_index"),
    ("check-conditions", {"chebyshev": {"interval_hi": "1/5", "epsilon": "1/4"}},
     "chebyshev.interval_lo"),
    ("check-conditions", {"chebyshev": {**_CHEBYSHEV, "interval_lo": "1/2"}},
     "chebyshev.interval_lo"),
    ("check-conditions", {"chebyshev": {**_CHEBYSHEV, "epsilon": "x"}},
     "chebyshev.epsilon"),
    ("check-conditions", {"chebyshev": {**_CHEBYSHEV, "interval_lo": "0",
                                        "interval_hi": "1"}}, "chebyshev.interval_hi"),
    ("check-conditions", {"deltas": "1/10"}, "deltas"),
    ("check-conditions", {"tail_ratio": "x"}, "tail_ratio"),
    ("check-conditions", {"mass_tol": "x"}, "mass_tol"),
    ("check-conditions", {"sup_ratio_targets": 5}, "sup_ratio_targets"),
    # an integer parameter refuses a JSON float or bool, which int() would
    # truncate or read as 0/1
    ("decompose", {"measure_index": 1.9}, "measure_index"),
    ("build-witness", {"m_cap": 64.5}, "m_cap"),
    ("build-witness", {"trim_points": True}, "trim_points"),
    ("lattice-count", {"m_values": [40.0]}, "m_values"),
    ("find-lambda", {"floor_scale": 1e4}, "floor_scale"),
    ("verify", {"samples": 10.0}, "samples"),
    ("trace", {"trim_points": 2.5}, "trim_points"),
    ("check-conditions", {"chebyshev": {**_CHEBYSHEV, "measure_index": False}},
     "chebyshev.measure_index"),
    # a ConfigError of a library parser is named the same way
    ("find-lambda", {"epsilon": "1/0"}, "epsilon"),
    ("lattice-count", {"interval_lo": {"coeffs": ["0"]}}, "interval_lo"),
])
def test_param_of_wrong_type_or_syntax_exit_3(tmp_path, capsys, command, params, key):
    # every parameter the CLI reads: a value of the wrong type or syntax
    # is a config error on one line that names it, never exit 4
    write_config(tmp_path)
    extra = ()
    if command == "verify" and "witness_path" not in params:
        assert run(tmp_path, "build-witness") == 0
        extra = ("--witness", str(tmp_path / "out" / "witness.json"))
    write_config(tmp_path, params=params)
    capsys.readouterr()
    assert run(tmp_path, command, extra=extra) == 3
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert f"params.{key}" in err


@pytest.mark.parametrize("cap, code", [({"m_max": 1}, 1), ({"enumeration_cap": 10}, 2)])
def test_sup_ratio_builds_honour_witness_caps(tmp_path, cap, code):
    # check-conditions builds its sup-ratio witnesses under the same caps
    # as build-witness: a level cap fails the build, a tuple cap stops it
    write_config(tmp_path, params={"sup_ratio_targets": ["1/12"], **cap})
    assert run(tmp_path, "build-witness") == code
    assert run(tmp_path, "check-conditions") == code


def test_understated_counts_stop_explicit_verify_at_the_cap(tmp_path):
    # the trimmed m = 3 witness: #G = 8 passes the cap of 10; the file's
    # count_F claims #E = 3, but the factors make 12 points of E, so the
    # enumeration stops at the cap
    write_config(tmp_path, n_measures=40, params={"delta": "1/2"})
    assert run(tmp_path, "build-witness") == 0
    blob = json.loads((tmp_path / "out" / "witness_trimmed.json").read_text())
    assert (blob["count_G"], blob["count_E"]) == (8, 12)
    blob["count_F"] = [1] * len(blob["count_F"])
    blob["count_E"] = len(blob["count_F"])
    bad = tmp_path / "out" / "bad_witness.json"
    bad.write_text(json.dumps(blob))
    write_config(tmp_path, n_measures=40,
                 params={"delta": "1/2", "mode": "explicit-brute-force"})
    assert run(tmp_path, "verify", extra=("--witness", str(bad),
                                          "--explicit-cap", "10")) == 2
    rep = report(tmp_path, "verify")
    assert rep["status"] == "resource-cap"
    assert rep["results"]["error"] == "explicit E needs 12 points, cap 10"


@pytest.mark.parametrize("command, params, message", [
    ("verify", {"mode": "sampled", "samples": 0},
     "sampled verification needs samples >= 1, got 0"),
    ("verify", {"mode": "sampled", "samples": -3},
     "sampled verification needs samples >= 1, got -3"),
    ("trace", {"max_sample_points": -2}, "max_sample_points must be at least 1, got -2"),
    ("trace", {"max_sample_points": 0}, "max_sample_points must be at least 1, got 0"),
])
def test_sample_counts_below_one_exit_3(tmp_path, capsys, command, params, message):
    # zero samples would pass the sampled check with nothing checked, and a
    # negative count of trace points would drop centres through a slice
    write_config(tmp_path)
    extra = ()
    if command == "verify":
        assert run(tmp_path, "build-witness") == 0
        extra = ("--witness", str(tmp_path / "out" / "witness.json"))
    write_config(tmp_path, params=params)
    capsys.readouterr()
    assert run(tmp_path, command, extra=extra) == 3
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_unknown_verify_mode_exit_3(config, capsys):
    # verify_witness is the one check of the mode, before any check runs
    assert run(config, "build-witness") == 0
    write_config(config, params={"mode": "exact"})
    capsys.readouterr()
    assert run(config, "verify",
               extra=("--witness", str(config / "out" / "witness.json"))) == 3
    assert capsys.readouterr().err == "config error: unknown verify mode: exact\n"


def test_out_not_a_directory_exit_3(config, capsys):
    # --out is created once, before the stage runs; a path that cannot be
    # a directory is a config error naming it, not a traceback
    (config / "afile").write_text("")
    capsys.readouterr()
    assert run(config, "decompose", out="afile/x") == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith(f"config error: cannot create output directory {config / 'afile/x'}: ")


def test_unreadable_config_or_witness_exit_3(config, capsys):
    # a directory where a file is expected: one line that names the path
    capsys.readouterr()
    assert main(["decompose", "--config", str(config), "--out",
                 str(config / "out")]) == 3
    assert capsys.readouterr().err == (f"config error: cannot read config file "
                                       f"{config}: Is a directory\n")
    assert run(config, "verify", extra=("--witness", str(config))) == 3
    assert capsys.readouterr().err == (f"config error: cannot read witness file "
                                       f"{config}: Is a directory\n")
