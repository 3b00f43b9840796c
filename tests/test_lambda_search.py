import random
from collections import Counter
from fractions import Fraction as F
from functools import cmp_to_key

import pytest

from sweepout import lambda_search
from sweepout.errors import CapExceeded, LambdaNotFound
from sweepout.exactreal import GeneratorBasis, Point, compare, fraction_str
from sweepout.lambda_search import (LambdaResult, WindowConstraints,
                                    _rational_inside, _window, _window_range,
                                    cutoff_r, find_lambda, frac_window_sets,
                                    lambda_profile, window_value)
from sweepout.measures import DiscreteMeasure


@pytest.fixture(scope="module")
def single_atom(rat_basis):
    return DiscreteMeasure([rat_basis.rational(F(1, 4))], [F(1)])


def test_cutoff(single_atom, rat_basis):
    # eps x_1 / (2 (1 - eps)) = (1/4)(1/4)/(3/2) = 1/24, capped by delta
    assert cutoff_r(single_atom, F(1, 4), F(1, 10)) == F(1, 24)
    assert cutoff_r(single_atom, F(1, 4), F(1, 100)) == F(1, 100)
    assert cutoff_r(single_atom, F(1, 4), F(1)) == F(1, 24)


def test_profile_contains_k6_piece(single_atom):
    prof = lambda_profile(single_atom, F(1, 4), F(1, 10))
    assert prof.r == F(1, 24)
    hits = [(lo, hi, v) for lo, hi, v in prof.pieces
            if lo == F(1, 27) and hi == F(1, 25)]
    assert len(hits) == 1 and hits[0][2] == 1
    # a single atom only produces step values 0 and its mass
    assert {v for _, _, v in prof.pieces} <= {F(0), F(1)}


def test_profile_partitions_range(single_atom, rat_basis):
    prof = lambda_profile(single_atom, F(1, 4), F(1, 10), floor_scale=100)
    assert prof.pieces[0][0] == prof.lam_floor
    assert prof.pieces[-1][1] == prof.r
    for (_, hi, _), (lo, _, _) in zip(prof.pieces, prof.pieces[1:]):
        assert hi == lo


def test_profile_oracle_random_lams(mu_pair, surd_basis):
    eps = F(1, 6)
    prof = lambda_profile(mu_pair, eps, F(1, 10), floor_scale=200)
    rng = random.Random(23)
    r_apx = float(prof.r)
    floor_apx = float(prof.lam_floor)
    checked = 0
    while checked < 100:
        lam = F(rng.uniform(floor_apx * 1.01, r_apx * 0.999)).limit_denominator(10**9)
        if not floor_apx < float(lam) < r_apx:
            continue
        target = window_value(mu_pair, eps, lam)
        lam_pt = surd_basis.rational(lam)
        vals = [v for lo, hi, v in prof.pieces
                if compare(lo, lam_pt) < 0 and compare(lam_pt, hi) < 0]
        if len(vals) != 1:
            continue  # lam hit a breakpoint exactly; skip
        assert vals[0] == target
        checked += 1


def test_averaging_bound_randomized(rat_basis):
    rng = random.Random(31)
    failures = 0
    for _ in range(30):
        n_atoms = rng.randint(1, 3)
        pairs = sorted({F(rng.randint(5, 99), 100) for _ in range(n_atoms)})
        masses = [F(rng.randint(1, 9), 9) for _ in pairs]
        mu = DiscreteMeasure([rat_basis.rational(a) for a in pairs], masses)
        eps = F(rng.randint(2, 8), 25)
        delta = F(rng.randint(1, 20), 40)
        prof = lambda_profile(mu, eps, delta, floor_scale=200)
        bound = prof.r * ((1 - 3 * eps) * mu.total_mass)
        if not prof.integral_at_least(bound):
            failures += 1
    assert failures == 0


def test_find_lambda_example(single_atom):
    res = find_lambda(single_atom, F(1, 4), F(1, 10))
    assert res.lam == F(26, 675)  # exact midpoint of the (1/27, 1/25) piece
    assert res.lam <= F(1, 24)
    assert res.value == 1 > F(1, 4)
    assert window_value(single_atom, F(1, 4), res.lam) == 1


def test_find_lambda_delta_one(single_atom):
    res = find_lambda(single_atom, F(1, 4), F(1))
    assert res.lam <= F(1, 24)
    assert res.value > (1 - 3 * F(1, 4)) * single_atom.total_mass


def test_find_lambda_impossible_constraints(single_atom, rat_basis):
    cons = WindowConstraints(x_1=rat_basis.rational(F(1, 10**9)),
                             x_l=single_atom.x_l)
    with pytest.raises(LambdaNotFound) as exc:
        find_lambda(single_atom, F(1, 4), F(1, 10), constraints=cons,
                    max_retries=0)
    assert exc.value.diagnostics["constraint_failures"]


def test_frac_window_sets_pattern(rat_basis):
    x_l = rat_basis.rational(F(1, 2))
    U, V = frac_window_sets(F(1, 4), F(1, 4), x_l)
    u = [(lo.rational_value(), hi.rational_value()) for lo, hi in U]
    assert u == [(F(-1, 2), F(-7, 16)), (F(-1, 4), F(-3, 16))]
    assert U.measure() == F(1, 8)
    assert V.measure() == F(3, 4)
    assert U.intersect(V).is_empty()


def test_window_measures_approach_limits(surd_basis, root3_over4):
    # |U| -> eps x_l and |V| -> 2 (1-eps) x_l as lam -> 0
    eps = F(1, 5)
    lam = F(1, 1000)  # about x_l / 433
    U, V = frac_window_sets(lam, eps, root3_over4)
    u_target = float(root3_over4) * float(eps)
    v_target = 2 * (1 - float(eps)) * float(root3_over4)
    assert abs(float(U.measure()) - u_target) <= 0.01 * u_target
    assert abs(float(V.measure()) - v_target) <= 0.01 * v_target
    assert U.intersect(V).is_empty()


def test_windows_disjoint_randomized(surd_basis, root3_over4):
    rng = random.Random(41)
    for _ in range(20):
        lam = F(rng.randint(1, 400), 10000)
        eps = F(rng.randint(1, 32), 100)
        U, V = frac_window_sets(lam, eps, root3_over4)
        assert U.intersect(V).is_empty()
        zero = surd_basis.rational(0)
        for lo, hi in U:
            assert compare(hi, zero) <= 0
        for lo, hi in V:
            assert compare(abs(lo), root3_over4) <= 0


# ---------------------------------------------------------------------------
# oracle: the whole arrangement, one exact sort, then the ranked choice
# ---------------------------------------------------------------------------

def _oracle_pieces(mu, eps, r, lam_floor):
    """Every window end in (lam_floor, r] as an event, sorted exactly (by
    float midpoint first, so that of equal points the one with the smallest
    midpoint leads), merged at equal points and summed from the bottom."""
    n, d = eps.numerator, eps.denominator
    events = [(lam_floor, F(0)), (r, F(0))]
    for t, m in zip(mu.atoms, mu.masses):
        t.approx()
        k = 0
        while True:
            hi = t * F(d, k * d + n)
            if compare(hi, lam_floor) <= 0:
                break
            lo = t * F(d, (k + 1) * d - n)
            lo_c = lo if compare(lo, lam_floor) >= 0 else lam_floor
            hi_c = hi if compare(hi, r) <= 0 else r
            if compare(lo_c, hi_c) < 0:
                events += [(hi_c, -m), (lo_c, m)]
            k += 1
    events.sort(key=lambda ev: ev[0].approx()[0])
    events.sort(key=cmp_to_key(lambda a, b: compare(a[0], b[0])))
    merged = []
    for pt, dm in events:
        if merged and merged[-1][0].coeffs == pt.coeffs:
            merged[-1] = (merged[-1][0], merged[-1][1] + dm)
        else:
            merged.append((pt, dm))
    pieces, running = [], F(0)
    for (b, dm), (nxt, _) in zip(merged, merged[1:]):
        running += dm
        pieces.append((b, nxt, running))
    return pieces, len(events) - len(merged)


def _oracle_find(mu, eps, delta, constraints=None, floor_scale=200,
                 max_retries=3, candidate_cap=64):
    """find_lambda's choice from whole arrangements: qualifying pieces by
    value, then lam, descending; the first candidate_cap of them probed."""
    threshold = (1 - 3 * eps) * mu.total_mass
    r = cutoff_r(mu, eps, delta)
    failures = []
    scale = floor_scale
    for _ in range(max_retries + 1):
        pieces, _ = _oracle_pieces(mu, eps, r, r * F(1, scale))
        qualifying = [pc for pc in reversed(pieces) if pc[2] > threshold]
        qualifying.sort(key=lambda pc: pc[2], reverse=True)
        for lo, hi, val in qualifying[:candidate_cap]:
            lam = _rational_inside(lo, hi)
            assert window_value(mu, eps, lam) == val
            detail = None
            if constraints is not None:
                ok, detail, _, _ = constraints.check(lam, eps)
                if not ok:
                    failures.append(detail)
                    continue
            return LambdaResult(lam=lam, value=val, piece=(lo, hi, val),
                                threshold=threshold, U=None, V=None,
                                constraint_details=detail).to_json()
        scale *= 16
    return {"threshold": fraction_str(threshold),
            "max_piece_value": fraction_str(max((v for _, _, v in pieces), default=F(0))),
            "pieces": len(pieces),
            "constraint_failures": failures[:20]}


def _oracle_cases(rat_basis, surd_basis):
    """About 210 seeded searches: (mu, eps, delta, keyword arguments).
    Atoms within a factor 3 of each other and floors up to 32 keep every
    arrangement below a few thousand pieces."""
    rng = random.Random(57)
    cases = []

    def rational_atom():
        return rat_basis.rational(F(rng.randint(30, 90), 100))

    def surd_atom():
        a, b = F(rng.randint(10, 30), 100), F(rng.randint(0, 20), 100)
        return surd_basis.point(["0", a, b] if rng.random() < 0.5 else ["0", b, a])

    for i in range(200):
        kind = i % 8
        eps = F(rng.randint(3, 9), rng.choice((30, 31, 32)))
        delta = F(rng.randint(1, 40), 40)
        kw = {"floor_scale": rng.choice((4, 8, 16, 32))}
        if kind in (0, 1):        # 1-3 atoms, rational or surd
            atom = rational_atom if kind == 0 else surd_atom
            atoms = [atom() for _ in range(rng.randint(1, 3))]
            masses = [F(rng.randint(1, 9), 9) for _ in atoms]
        elif kind == 2:           # {a, 2a, 3a}: at most 2/3 of the mass for eps >= 1/4
            eps = F(rng.randint(8, 10), rng.choice((31, 32)))
            a = rng.choice((rat_basis.rational(F(rng.randint(10, 30), 100)),
                            surd_basis.point(["0", F(rng.randint(8, 20), 100), "0"])))
            atoms, masses = [a, a * 2, a * 3], [F(1, 3)] * 3
        elif kind == 3:           # x and 2x or 3x, or x with near-tie partners
            a = rng.choice((rat_basis.rational(F(rng.randint(10, 30), 100)),
                            surd_basis.point(["0", F(rng.randint(8, 20), 100), "0"])))
            if rng.random() < 0.5:
                atoms, masses = [a, a * rng.choice((2, 3))], [F(1, 2), F(1, 2)]
            else:
                # window ends closer than their float enclosures: only
                # exact comparison orders them
                tiny = F(1, 10**30)
                atoms, masses = [a, a + tiny, a + 2 * tiny], [F(1, 2), F(1, 3), F(1, 6)]
        else:                     # constraints on a one- or two-atom measure
            atom = rational_atom if kind % 2 else surd_atom
            atoms = [atom() for _ in range(rng.randint(1, 2))]
            masses = [F(rng.randint(1, 4), 4) for _ in atoms]
        mu = DiscreteMeasure(atoms, masses)
        r = cutoff_r(mu, eps, delta)
        # constraint checks build windows down to lam, and each retry goes
        # 16 times deeper: constrained searches stay shallow
        if kind in (4, 5):        # reject the first full-mass pieces
            kw["constraints"] = WindowConstraints(x_1=r * F(rng.randint(3, 9), 10),
                                                  x_l=mu.x_l)
            kw.update(floor_scale=rng.choice((4, 8)), max_retries=1,
                      candidate_cap=rng.choice((2, 3, 64)))
        elif kind == 6:           # reject every piece above the floor
            kw["floor_scale"] = rng.choice((2, 4))
            kw["constraints"] = WindowConstraints(
                x_1=r * F(1, kw["floor_scale"] * rng.choice((2, 20))), x_l=mu.x_l)
            kw.update(max_retries=rng.choice((0, 1)), candidate_cap=rng.choice((2, 4)))
        elif kind == 7:           # a small candidate_cap
            kw["candidate_cap"] = rng.choice((1, 2))
        cases.append((mu, eps, delta, kw))
    # floor_scale 1: the floor is r itself, the first attempt has no pieces
    cases += [(mu, eps, delta, {**kw, "floor_scale": 1}) for mu, eps, delta, kw in cases[:10]]
    return cases


def test_find_lambda_matches_ranked_oracle(rat_basis, surd_basis):
    outcomes = Counter()
    for mu, eps, delta, kw in _oracle_cases(rat_basis, surd_basis):
        want = _oracle_find(mu, eps, delta, **kw)
        try:
            got = find_lambda(mu, eps, delta, **kw).to_json()
        except LambdaNotFound as exc:
            got = exc.diagnostics
            outcomes["not found"] += 1
        else:
            outcomes["full mass" if F(got["value"]) == mu.total_mass else "partial"] += 1
            if kw["floor_scale"] == 1:
                outcomes["found below floor_scale 1"] += 1
        assert got == want, (mu.atoms, eps, delta, kw)
    # every branch of the search is exercised
    assert outcomes["found below floor_scale 1"] >= 5, outcomes
    assert min(outcomes[k] for k in ("full mass", "partial", "not found")) >= 10, outcomes


def test_profile_pieces_match_oracle(rat_basis, surd_basis):
    merges = 0
    cases = _oracle_cases(rat_basis, surd_basis)
    for mu, eps, delta, kw in cases[:80] + cases[200:]:
        prof = lambda_profile(mu, eps, delta, floor_scale=kw["floor_scale"])
        want, merged = _oracle_pieces(mu, eps, prof.r, prof.lam_floor)
        merges += merged
        got = prof.pieces
        if kw["floor_scale"] == 1:
            assert got == [] and prof.integral_bounds() == (0, 0)
        assert [(lo.coeffs, hi.coeffs, v) for lo, hi, v in got] == \
            [(lo.coeffs, hi.coeffs, v) for lo, hi, v in want]
        # the CSV prints float midpoints: equal points keep the same representative
        assert list(prof.csv_rows())[1:] == \
            [(repr(float(lo)), repr(float(hi)), fraction_str(v)) for lo, hi, v in want]
    assert merges > 0  # some window ends coincide exactly


# ---------------------------------------------------------------------------
# the per-atom integral and deep floors
# ---------------------------------------------------------------------------

def test_integral_bounds_contain_exact_sum(rat_basis):
    rng = random.Random(73)
    for _ in range(40):
        atoms = sorted({F(rng.randint(30, 90), 100) for _ in range(rng.randint(1, 3))})
        mu = DiscreteMeasure([rat_basis.rational(a) for a in atoms],
                             [F(rng.randint(1, 9), 9) for _ in atoms])
        eps = F(rng.randint(2, 9), 30)
        prof = lambda_profile(mu, eps, F(rng.randint(1, 20), 40),
                              floor_scale=rng.choice((2, 8, 32, 64)))
        exact = sum(((hi.rational_value() - lo.rational_value()) * v
                     for lo, hi, v in prof.pieces), F(0))
        for bits in (8, 128):
            lo, hi = prof.integral_bounds(bits)
            assert lo <= exact <= hi
        tiny = F(1, 2**200)  # below the 128-bit rounding: forces escalation
        assert prof.integral_at_least(rat_basis.rational(exact - tiny))
        assert not prof.integral_at_least(rat_basis.rational(exact + tiny))


def test_integral_bounds_surd(mu_pair):
    prof = lambda_profile(mu_pair, F(1, 6), F(1, 2), floor_scale=64)
    lo_sum = hi_sum = F(0)
    for plo, phi, v in prof.pieces:
        length_lo, length_hi = (phi - plo).enclosure(256)
        lo_sum += v * length_lo
        hi_sum += v * length_hi
    lo, hi = prof.integral_bounds(128)
    assert lo <= hi_sum and lo_sum <= hi
    assert hi - lo < F(1, 2**100)


def test_deep_floor(mu_pair):
    eps, delta = F(1, 6), F(1, 2)
    shallow = find_lambda(mu_pair, eps, delta, floor_scale=200)
    deep = find_lambda(mu_pair, eps, delta, floor_scale=10**5)
    assert deep.to_json() == shallow.to_json()
    with pytest.raises(CapExceeded):
        lambda_profile(mu_pair, eps, delta, floor_scale=10**5).pieces


# ---------------------------------------------------------------------------
# window ends kept as doubles; Points only where they are read
# ---------------------------------------------------------------------------

def _bits(apx):
    return tuple(x.hex() for x in apx)


def test_lazy_ends_carry_the_product_doubles(rat_basis, surd_basis):
    # each end's (mid, rad) is bit for bit the approximation that the Point
    # t * a/b gets from Point.__mul__; clipped ends are r and the floor
    rng = random.Random(97)
    tiny = F(1, 2**1000)
    clipped = 0
    for i in range(60):
        kind = i % 3
        a = F(rng.randint(30, 90), 100)
        if kind == 0:
            atoms = [rat_basis.rational(a)]
        elif kind == 1:
            atoms = [surd_basis.point(["0", a / 3, F(rng.randint(0, 20), 100)])]
        else:
            atoms = [rat_basis.rational(a * tiny)]
        atoms.append(atoms[0] * F(rng.randint(31, 99), 100))
        mu = DiscreteMeasure(atoms, [F(1, 2), F(1, 2)])
        eps = F(rng.randint(3, 9), rng.choice((30, 31, 32)))
        r = cutoff_r(mu, eps, F(rng.randint(1, 40), 40))
        lam_floor = r * F(1, rng.choice((2, 4, 8)))
        for t in atoms:
            k0, k_end = _window_range(t, eps, r, lam_floor)
            for k in range(k0, k_end):
                for end in _window(t, eps, k, k0, k_end, r, lam_floor):
                    if end.q is None:
                        clipped += 1
                        assert end.t is r or end.t is lam_floor
                        assert end.pt is end.t
                        assert _bits((end.mid, end.rad)) == _bits(end.t.approx())
                        continue
                    want = t * F(*end.q)
                    assert _bits((end.mid, end.rad)) == _bits(want.approx())
                    assert end.pt.key == want.key
                    assert _bits(end.pt.approx()) == _bits(want.approx())
    assert clipped > 0


def test_csv_rows_read_the_ends(rat_basis, surd_basis):
    # the CSV is written from the ends; it prints exactly float() of the
    # Points that pieces builds (floor_scale 1 included: no rows)
    cases = _oracle_cases(rat_basis, surd_basis)
    for mu, eps, delta, kw in cases[:80] + cases[200:]:
        prof = lambda_profile(mu, eps, delta, floor_scale=kw["floor_scale"])
        rows = list(prof.csv_rows())
        assert prof.piece_count == len(rows) - 1
        assert rows[1:] == [(repr(float(lo)), repr(float(hi)), fraction_str(v))
                            for lo, hi, v in prof.pieces]
        assert prof.max_value() == max((v for _, _, v in prof.pieces), default=0)


@pytest.mark.parametrize("masses, eps, at_threshold", [
    # threshold = 1/4 of the mass, D = 4: threshold * D = 1 is an integer,
    # and the pieces where only the lighter atom is active sit exactly on it
    ([F(1, 4), F(3, 4)], F(1, 4), True),
    # threshold = 1/10, D = 3: threshold * D = 3/10; pieces of value 1/3
    # (v = 1) lie above it
    ([F(1, 3), F(1, 3), F(1, 3)], F(3, 10), False),
])
def test_find_lambda_probes_exactly_the_values_above_threshold(
        rat_basis, monkeypatch, masses, eps, at_threshold):
    atoms = [rat_basis.rational(F(k * 13, 100)) for k in range(1, len(masses) + 1)]
    mu = DiscreteMeasure(atoms, masses)
    threshold = (1 - 3 * eps) * mu.total_mass
    delta, floor_scale = F(9, 20), 4
    values = {v for _, _, v in lambda_profile(mu, eps, delta, floor_scale=floor_scale).pieces}
    assert (threshold in values) is at_threshold
    probed = []
    direct = lambda_search.window_value

    def recorded(mu, eps, lam):
        probed.append(direct(mu, eps, lam))
        return probed[-1]

    monkeypatch.setattr(lambda_search, "window_value", recorded)
    # x_1 below every lam: each probed piece is rejected, so all are probed
    cons = WindowConstraints(x_1=rat_basis.rational(F(1, 10**9)), x_l=mu.x_l)
    with pytest.raises(LambdaNotFound) as exc:
        find_lambda(mu, eps, delta, constraints=cons, floor_scale=floor_scale,
                    max_retries=0, candidate_cap=10**6)
    assert set(probed) == {v for v in values if v > threshold}
    assert len(exc.value.diagnostics["constraint_failures"]) == min(len(probed), 20)
    assert F(exc.value.diagnostics["max_piece_value"]) == max(values)


def test_find_lambda_builds_few_points(rat_basis, monkeypatch):
    # the floor-200 sweep passes about 5,600 windows of this {a, 2a, 3a}
    # measure; only ends that are read (overlaps, clipping, the probed
    # piece) and the checks around the search build Points
    mu = DiscreteMeasure([rat_basis.rational(F(13, 100)), rat_basis.rational(F(13, 50)),
                          rat_basis.rational(F(39, 100))], [F(1, 3)] * 3)
    built = [0]
    init = Point.__init__

    def counted(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Point, "__init__", counted)
    res = find_lambda(mu, F(3, 10), F(9, 20), floor_scale=200)
    assert res.value == F(2, 3)
    assert built[0] < 200, built[0]


@pytest.mark.parametrize("floor_scale", [0, -3])
def test_floor_scale_below_one_rejected(single_atom, floor_scale):
    # 0 would divide by zero and a negative floor never ends the window
    # range search: both are rejected before any window is built
    for call in (find_lambda, lambda_profile):
        with pytest.raises(ValueError, match="floor_scale must be a positive integer"):
            call(single_atom, F(1, 4), F(1, 10), floor_scale=floor_scale)
