import dataclasses
import hashlib
import json
import operator
import random
import sys
from fractions import Fraction as F
from functools import reduce

import pytest

from sweepout.builder import (EGPair, SweepOutWitness, build_eg,
                              build_witness, oscillation_trace, required_m,
                              select_subsequence, separation_check,
                              trim_witness, unique_sum_check, verify_witness)
from sweepout.builder import _assemble, _certified_thickening, _extent
from sweepout.errors import (CapExceeded, GrowthExhausted, SequenceExhausted,
                             VerificationFailed)
from sweepout.exactreal import PointSet, compare, extent, min_gap
from sweepout.measures import DiscreteMeasure, MeasureSequence, convolve_indicator
from tests import test_exactreal
from tests.conftest import geometric_sequence, raises_config_error


def rpoints(basis, values):
    return [basis.rational(v) for v in values]


# ---------------------------------------------------------------------------
# witness pairs
# ---------------------------------------------------------------------------

def test_build_eg_pair(mu_pair):
    pair = build_eg(mu_pair, F(1, 6))
    assert F(len(pair.E)) > F(len(pair.G)) / 24
    gset = PointSet(pair.G)
    assert not any(x in gset for x in pair.E)
    # independent convolution re-check at every point of E
    for x in pair.E:
        assert convolve_indicator(mu_pair, gset, x) > F(1, 2)
    assert pair.certify(mu_pair)["ok"]


def test_build_eg_single_atom(rat_basis):
    mu = DiscreteMeasure([rat_basis.rational(F(1, 4))], [F(1)])
    pair = build_eg(mu, F(1, 4))
    gset = PointSet(pair.G)
    quarter = rat_basis.rational(F(1, 4))
    assert all((x + quarter) in gset for x in pair.E)
    assert pair.certify(mu)["ok"]


def test_build_eg_m_exhausted(mu_pair):
    with pytest.raises(GrowthExhausted) as exc:
        build_eg(mu_pair, F(1, 6), m_max=1)
    assert hasattr(exc.value, "best_ratio")


def test_growth_exhausted_message(mu_pair):
    # the target is eps/4 as one fraction; a ratio is named only when some
    # level was counted
    with pytest.raises(GrowthExhausted) as exc:
        build_eg(mu_pair, F(3, 10), m_max=0)
    assert str(exc.value) == "no level m <= 0 reached #E > eps #G / 4 (target 3/40)"
    assert exc.value.diagnostics == {"best_ratio": None}
    with pytest.raises(GrowthExhausted) as exc:
        build_eg(mu_pair, F(1, 6), m_max=8)
    assert str(exc.value) == ("no level m <= 8 reached #E > eps #G / 4 "
                              "(best ratio 1/31, target 1/24)")


def test_eg_json_roundtrip(mu_pair, surd_basis):
    pair = build_eg(mu_pair, F(1, 6))
    back = EGPair.from_json(surd_basis, json.loads(json.dumps(pair.to_json())))
    assert back.E == pair.E and back.G == pair.G and back.lam == pair.lam
    assert back.certify(mu_pair)["ok"]


# ---------------------------------------------------------------------------
# separation and unique sums
# ---------------------------------------------------------------------------

def test_separation_examples(rat_basis):
    a1 = rpoints(rat_basis, [1, 2])
    assert separation_check([a1, rpoints(rat_basis, [F(1, 10), F(2, 10)])]).ok
    bad = separation_check([a1, rpoints(rat_basis, [F(1, 2), F(3, 2)])])
    assert not bad.ok and bad.failing_pair == 0
    mixed = separation_check([
        rpoints(rat_basis, [F(-1, 2), F(1, 2)]),
        rpoints(rat_basis, [F(-24, 100), F(24, 100)])])
    assert mixed.ok
    assert mixed.rows[0]["reading"] == "abs"
    assert mixed.rows[0]["ok_signed_reading"] is True


def test_unique_sum_examples(rat_basis):
    ok, stats = unique_sum_check([rpoints(rat_basis, [1, 2]),
                                  rpoints(rat_basis, [F(1, 10), F(2, 10)])])
    assert ok and stats["distinct_sums"] == 4
    ok2, ce = unique_sum_check([rpoints(rat_basis, [1, 2]),
                                rpoints(rat_basis, [F(1, 2), F(3, 2)])])
    assert not ok2
    assert ce["sum"] == {"coeffs": ["5/2"]}
    with pytest.raises(CapExceeded):
        unique_sum_check([rpoints(rat_basis, list(range(1, 40)))] * 5, cap=100)


def test_separation_implies_unique(rat_basis):
    rng = random.Random(99)
    confirmed = 0
    for _ in range(120):
        sets = []
        scale = F(1)
        for k in range(rng.randint(2, 4)):
            vals = set()
            while len(vals) < rng.randint(1, 4):
                v = F(rng.randint(-60, 60), 60)
                if v:
                    vals.add(v * scale)
            sets.append(rpoints(rat_basis, sorted(vals)))
            d = min_gap(sets[-1]).rational_value()
            # next scale sometimes safely inside d/4, sometimes not
            scale = d * F(rng.randint(1, 40), 100)
        rep = separation_check(sets)
        if rep.ok:
            ok, _ = unique_sum_check(sets)
            assert ok
            confirmed += 1
    assert confirmed >= 10


# ---------------------------------------------------------------------------
# subsequence selection and witness assembly
# ---------------------------------------------------------------------------

def test_required_m():
    assert required_m(F(1, 4), F(1, 2)) == 7
    assert required_m(F(1, 12), F(1, 2)) == 3
    assert required_m(F(1, 10), F(1, 2)) == 3  # 12/10/(1/2) = 2.4


def test_select_subsequence(geom_seq):
    sel = select_subsequence(geom_seq, F(1, 6), 2)
    assert len(sel.indices) == 2 and sel.indices[0] < sel.indices[1]
    a0 = sel.factors[0].points()
    a1 = sel.factors[1].points()
    least, greatest, _ = extent(a1)  # max|a1| is the larger of -least and greatest
    quarter = min_gap(a0) * F(1, 4)
    assert compare(-least, quarter) < 0 and compare(greatest, quarter) < 0


def test_select_single_factor(geom_seq):
    sel = select_subsequence(geom_seq, F(1, 6), 1)
    assert len(sel.factors) == 1


def test_select_exhausted_on_constant_supports(surd_basis, mu_pair):
    seq = MeasureSequence([mu_pair] * 6)
    with pytest.raises(SequenceExhausted) as exc:
        select_subsequence(seq, F(1, 6), 3)
    assert exc.value.required_bound is not None


def test_build_witness_m3(geom_seq):
    w = build_witness(geom_seq, F(1, 12), F(1, 2))
    assert w.m == 3
    assert F(w.count_E) > F(1, 12) * w.count_G
    assert w.eps_prime.sign() > 0
    rep = verify_witness(w, geom_seq, mode="factor-exact")
    assert rep.passed


def test_build_witness_validation(geom_seq):
    with pytest.raises(ValueError):
        build_witness(geom_seq, F(1, 12), F(0))
    with pytest.raises(ValueError):
        build_witness(geom_seq, F(1, 12), F(3, 2))
    with pytest.raises(ValueError):
        build_witness(geom_seq, F(0), F(1, 2))
    with pytest.raises(CapExceeded):
        build_witness(geom_seq, F(100), F(1, 2), m_cap=16)


def test_product_counts_match_per_factor_products():
    from sweepout.builder import _product_counts

    rng = random.Random(11)
    for _ in range(2000):
        sizes = [(rng.randint(1, 12), rng.randint(1, 40))
                 for _ in range(rng.randint(1, 9))]
        factors = [EGPair(0, F(1, 6), F(1), 0, (None,) * e, (None,) * g)
                   for e, g in sizes]
        count_G = 1
        for _, g in sizes:
            count_G *= g
        count_F = []
        for k, (e, _) in enumerate(sizes):
            for i, (_, g) in enumerate(sizes):
                if i != k:
                    e *= g
            count_F.append(e)
        assert _product_counts(factors) == (count_G, count_F)


def test_witness_json_roundtrip(geom_seq, surd_basis):
    w = build_witness(geom_seq, F(1, 12), F(1, 2))
    blob = json.dumps(w.to_json(), sort_keys=True)
    back = SweepOutWitness.from_json(surd_basis, json.loads(blob))
    assert back.count_E == w.count_E and back.indices == w.indices
    assert back.eps_prime == w.eps_prime
    rep = verify_witness(back, geom_seq, mode="factor-exact")
    assert rep.passed


def test_corrupted_witness_fails_named_check(geom_seq, surd_basis):
    w = build_witness(geom_seq, F(1, 12), F(1, 2))
    blob = w.to_json()
    # move the last point of the first factor's G outside the set; G stays
    # ascending, as a witness file must list it
    blob["factors"][0]["G"][-1] = {"coeffs": ["9/10", "0", "0"]}
    bad = SweepOutWitness.from_json(surd_basis, blob)
    rep = verify_witness(bad, geom_seq, mode="factor-exact")
    assert not rep.passed
    names = {c.name for c in rep.failing()}
    assert any(n.startswith("factor[0]") for n in names)


def test_reversed_factors_fail_named_checks(geom_seq, surd_basis):
    # factors listed smallest first: the separation chain fails and the
    # certified thickening bound is negative, and verify reports both as
    # failed checks instead of raising
    w = build_witness(geom_seq, F(1, 12), F(1, 2))
    blob = w.to_json()
    for key in ("factors", "indices", "count_F"):
        blob[key].reverse()
    bad = SweepOutWitness.from_json(surd_basis, blob)
    assert _certified_thickening([_extent(s) for s in bad.factor_sets()]).sign() < 0
    for mode in ("factor-exact", "sampled"):
        rep = verify_witness(bad, geom_seq, mode=mode)
        names = {c.name for c in rep.failing()}
        assert {"separation_chain", "thickening_radius"} <= names, mode
    with pytest.raises(VerificationFailed, match="separation chain failed"):
        _assemble(w.Delta, w.delta, w.epsilon, bad.indices, bad.factors)


def test_non_positive_eps_prime_rejected(geom_seq, surd_basis):
    blob = build_witness(geom_seq, F(1, 12), F(1, 2)).to_json()
    for eps_prime in (["0", "0", "0"], ["-1/1000", "0", "0"]):
        blob["eps_prime"] = {"coeffs": eps_prime}
        raises_config_error(SweepOutWitness.from_json, surd_basis, blob)


def test_trim_and_explicit_verify(geom_seq):
    w = build_witness(geom_seq, F(1, 12), F(1, 2))
    wt = trim_witness(w, geom_seq, max_points=4)
    assert all(len(f.E) <= 4 and len(f.G) <= 4 for f in wt.factors)
    assert F(wt.count_E) > F(1, 12) * wt.count_G
    rep = verify_witness(wt, geom_seq, mode="explicit-brute-force")
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    meas = by_name["explicit.thickened_measures"]
    assert meas.passed
    assert by_name["explicit.measure_inequality"].passed
    assert by_name["explicit.sup_on_B_components"].passed
    assert by_name["explicit.level_set_measure"].passed


def test_explicit_E_cap_reads_the_factors(geom_seq):
    # a witness whose stored count_F understates the factors must not
    # enumerate E past the cap: the cap is tested on the factors' counts
    wt = trim_witness(build_witness(geom_seq, F(1, 12), F(1, 2)), geom_seq,
                      max_points=4)
    bad = dataclasses.replace(wt, count_F=[1] * wt.m, count_E=wt.m)
    assert len(bad.explicit_G(cap=10)) == wt.count_G <= 10 < wt.count_E
    with pytest.raises(CapExceeded):
        bad.explicit_E(cap=10)
    with pytest.raises(CapExceeded):
        verify_witness(bad, geom_seq, mode="explicit-brute-force", explicit_cap=10)


def test_explicit_verify_report_digests(geom_seq):
    # the explicit reports, pinned at scale: the trimmed Delta = 1/4 witness
    # (m = 7, #E = 448) and the untrimmed Delta = 1/12 witness (m = 3,
    # #E = 867, #G = 4913), whose components each bisect the step profiles
    trimmed = trim_witness(build_witness(geom_seq, F(1, 4), F(1, 2)), geom_seq,
                           max_points=4)
    full = build_witness(geom_seq, F(1, 12), F(1, 2))
    assert (trimmed.m, trimmed.count_E, full.m, full.count_E, full.count_G) == \
        (7, 448, 3, 867, 4913)
    digests = [hashlib.sha256(json.dumps(
        verify_witness(w, geom_seq, mode="explicit-brute-force").to_json(),
        sort_keys=True).encode()).hexdigest() for w in (trimmed, full)]
    assert digests == [
        "7636a660a0dd3db3aeb9275e53cf32f21aaa1444f529a76ce27671134f8d4604",
        "68ecf9d98526ebc6a54b9bd23cba7d23aac6f06a367a3729263623ff064989b9"]


def test_sampled_verify_deterministic(geom_seq):
    w = build_witness(geom_seq, F(1, 4), F(1, 2))
    r1 = verify_witness(w, geom_seq, mode="sampled", samples=40, seed=5)
    r2 = verify_witness(w, geom_seq, mode="sampled", samples=40, seed=5)
    assert r1.passed and r2.passed
    assert r1.to_json() == r2.to_json()


def test_decode_membership(geom_seq):
    w = trim_witness(build_witness(geom_seq, F(1, 12), F(1, 2)), geom_seq)
    for g in w.explicit_G():
        assert w.decode_near(g) == g
        nudged = g + w.eps_prime * F(1, 3)
        assert w.decode_near(nudged) == g
        # a point offset by more than eps_prime from g is only accepted
        # if some other sumset point is certifiably within the radius
        far = g + w.eps_prime * F(3, 2)
        dec = w.decode_near(far)
        if dec is not None:
            assert compare(abs(far - dec), w.eps_prime) < 0


def test_factored_membership_matches_explicit(geom_seq):
    # the factored test, decode_near on the lifts inside the hull of A,
    # against the explicit thickened sumset
    w = trim_witness(build_witness(geom_seq, F(1, 12), F(1, 2)), geom_seq)
    e = w.eps_prime
    A = w.thickened(w.explicit_G())
    for g in w.explicit_G():
        inside = [g + e * F(1, 3)] + [g + k for k in (-3, -1, 1, 2)]
        edges = [g + e, g - e, g + e * F(3, 2)]
        for x in inside:
            assert A.contains_torus(x)
        assert not A.contains_torus(g + e) and not A.contains_torus(g - e)
        for x in inside + edges:
            assert w.contains_torus(x) == A.contains_torus(x), x


def test_witness_membership_matches_explicit_oracle(geom_seq):
    # decode_near and the convolution on the factored witness decide on
    # doubles and go exact only within the margin; the explicit thickened
    # sumsets decide every point exactly. Offsets of exactly eps' land on
    # an open end, those of eps' -+ 2^-60 on either side of it, and
    # eps' is half the minimum gap, so components of A touch there.
    w = trim_witness(build_witness(geom_seq, F(1, 12), F(1, 2)), geom_seq)
    e, tie = w.eps_prime, F(1, 2**60)
    g_pts = w.explicit_G()
    A = w.thickened(g_pts)
    F_k = [w.thickened([p for p, k in w.explicit_E() if k == i]) for i in range(w.m)]
    offsets = [e * F(1, 3), e * F(-996, 997), e, -e, e * 3, e + tie, e - tie,
               tie - e, -tie - e, e * F(1, 2**60), e * (1 - tie)]
    probes = [g + off for g in g_pts for off in offsets]
    probes += [p + off for p, _ in w.explicit_E() for off in offsets]
    assert any(not A.contains(v) for v in probes) and any(map(A.contains, probes))
    for v in probes:
        got = w.decode_near(v)
        assert (got is not None) == A.contains(v), v
        if got is not None:
            assert got.key in {g.key for g in g_pts}
            assert compare(abs(v - got), e) < 0
        for i in range(w.m):
            assert (w.decode_near(v, use_E_at=i) is not None) == F_k[i].contains(v)
    for mu in (geom_seq[i] for i in range(max(w.indices) + 2)):
        for v in probes:
            for x in (v - mu.atoms[0], v - mu.atoms[1] + 3):
                assert convolve_indicator(mu, w, x) == convolve_indicator(mu, A, x), x


def test_membership_and_sort_oracles_with_filter_off(rat_basis, surd_basis, geom_seq,
                                                    monkeypatch, filter_off):
    # with apart's margin off every decision is exact: the four-lift torus
    # oracle, the sort and bisect oracles and both witness membership
    # oracles give the same answers
    filter_off()
    test_exactreal.test_contains_torus_matches_four_lift_oracle(rat_basis, surd_basis)
    test_exactreal.test_sort_points_matches_cmp_sort(monkeypatch)
    test_exactreal.test_bisect_points_matches_bisect(monkeypatch)
    test_factored_membership_matches_explicit(geom_seq)
    test_witness_membership_matches_explicit_oracle(geom_seq)


def test_locate_gets_the_balls_of_the_points(geom_seq, monkeypatch):
    # torus_locate and decode_near carry their values as (midpoint, radius)
    # balls and build no Point; the ball that reaches locate must be, bit
    # for bit, the approx() of the Point it stands for: the lift x + k, or
    # v less the points that decode_near has chosen so far
    from sweepout import builder, exactreal

    w = trim_witness(build_witness(geom_seq, F(1, 12), F(1, 2)), geom_seq)
    locate, seen = exactreal.locate, []

    def spy(apx, m, r):
        # decode_near's chosen points are a local of its caller, rec
        seen.append((sys._getframe(1).f_locals.get("chosen"), m, r))
        return locate(apx, m, r)

    monkeypatch.setattr(exactreal, "locate", spy)
    monkeypatch.setattr(builder, "locate", spy)
    e, g_pts = w.eps_prime, w.explicit_G()
    edges = w.thickened(g_pts).edge_points()
    apx = [p.approx() for p in edges]
    probes = [g + off + k for g in g_pts for k in (-2, 0, 1, 3)
              for off in (e * F(1, 3), e, e * F(-996, 997), e * 3)]
    lifts = []
    for x in probes:
        seen.clear()
        got = exactreal.torus_locate(x, edges, apx)
        assert [(m, r) for _, m, r in seen] == [(x + k).approx() for k, _ in got]
        lifts += [k for k, _ in got]
    assert any(lifts) and 0 in lifts
    levels = set()
    for v in probes:
        for use_E_at in (None, *range(w.m)):
            seen.clear()
            w.decode_near(v, use_E_at)
            for chosen, m, r in seen:
                assert (m, r) == reduce(operator.sub, chosen, v).approx()
                levels.add(len(chosen))
    assert levels == set(range(w.m))


def test_oscillation_trace(surd_basis):
    seq = geometric_sequence(surd_basis, 14)
    traces = oscillation_trace(seq, [(F(1, 12), F(1, 2))])
    tr = traces[0]
    assert not tr.warnings
    by_point = {}
    for n, pid, v, rmax, rmin in tr.rows:
        by_point.setdefault(pid, []).append(v)
    for pid, vals in by_point.items():
        assert max(vals) > F(1, 2)   # rises above delta at some n
        assert vals[-1] == 0         # decays once measures concentrate
    # truncated tail: sequence ends at the last witness index
    short = MeasureSequence(list(seq)[: max(tr.indices) + 1])
    t2 = oscillation_trace(short, [(F(1, 12), F(1, 2))])
    assert t2[0].warnings


@pytest.mark.parametrize("Delta,delta", [
    (F(1, 12), F(1, 3)),
    (F(1, 12), F(2, 3)),
    (F(1, 6), F(1, 2)),
    (F(1, 5), F(3, 5)),
])
def test_random_parameter_pipelines(geom_seq, Delta, delta):
    # end to end across the parameter grid: factored certification and
    # the explicit brute-force oracle must agree for every combination
    w = build_witness(geom_seq, Delta, delta)
    assert F(w.count_E) > Delta * w.count_G
    assert verify_witness(w, geom_seq, mode="factor-exact").passed
    wt = trim_witness(w, geom_seq, max_points=4)
    rep = verify_witness(wt, geom_seq, mode="explicit-brute-force")
    assert rep.passed, [c.name for c in rep.failing()]


def test_oscillation_trace_second_entry(surd_basis):
    seq = geometric_sequence(surd_basis, 24)
    traces = oscillation_trace(seq, [(F(1, 12), F(1, 2)), (F(1, 12), F(3, 4))])
    assert len(traces) == 2
    vals = [v for _, _, v, _, _ in traces[1].rows]
    assert max(vals) > F(3, 4)


def test_bad_input_raises_config_error(geom_seq, mu_pair, surd_basis, monkeypatch):
    from sweepout import builder

    raises_config_error(build_eg, mu_pair, F(1, 3))
    raises_config_error(build_witness, geom_seq, F(0), F(1, 2))
    raises_config_error(build_witness, geom_seq, F(1, 12), F(1))
    raises_config_error(oscillation_trace, geom_seq, [])
    for count in (0, -2):
        raises_config_error(oscillation_trace, geom_seq, [(F(1, 12), F(1, 2))],
                            max_sample_points=count)
    w = build_witness(geom_seq, F(1, 12), F(1, 2))
    # an unknown mode, or a sampled one with no samples, is rejected before
    # any check runs
    monkeypatch.setattr(builder, "_factor_checks", None)
    raises_config_error(verify_witness, w, geom_seq, mode="exact")
    for count in (0, -3):
        raises_config_error(verify_witness, w, geom_seq, mode="sampled", samples=count)
    blob = json.loads(json.dumps(w.to_json()))
    blob["m"] += 1
    raises_config_error(SweepOutWitness.from_json, surd_basis, blob)
    blob["m"] -= 1
    blob["indices"][0] += 1
    raises_config_error(SweepOutWitness.from_json, surd_basis, blob)
    pair = blob["factors"][0]
    raises_config_error(EGPair.from_json, surd_basis, {**pair, "E": []})
    raises_config_error(EGPair.from_json, surd_basis, {**pair, "G": pair["G"][::-1]})
