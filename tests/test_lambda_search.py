import heapq
import random
from collections import Counter
from fractions import Fraction as F
from functools import cmp_to_key

import pytest

from sweepout import lambda_search
from sweepout.errors import CapExceeded, LambdaNotFound
from sweepout.exactreal import (GeneratorBasis, IntervalSet, Point, compare,
                               floor_point, fraction_str)
from sweepout.lambda_search import (LambdaResult, WindowConstraints, _end,
                                    _mass_units, _point, _rational_inside, _run_ends,
                                    _sweep, _window, _window_range, _windows,
                                    cutoff_r,
                                    find_lambda, frac_window_sets,
                                    lambda_profile, window_value)
from sweepout.measures import DiscreteMeasure
from tests.conftest import raises_config_error


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


def _clipped_window_sets(lam, eps, x_l):
    """Reference copy of frac_window_sets as it clipped every window against
    both bounds and canonicalized: each end a Point of a Fraction product."""
    basis = x_l.basis
    span = floor_point(x_l * (1 / lam)) + 2
    if 2 * span + 2 > lambda_search.DEFAULT_PIECE_CAP:
        raise CapExceeded("cap")
    zero = basis.rational(0)
    neg = -x_l

    def clipped(a, b, lo, hi):
        pa, pb = basis.rational(a), basis.rational(b)
        la = pa if compare(pa, lo) >= 0 else lo
        hb = pb if compare(pb, hi) <= 0 else hi
        return (la, hb) if compare(la, hb) < 0 else None

    u_parts, v_parts = [], []
    for j in range(-span, span + 1):
        if j < 0:
            u = clipped(lam * j, lam * (j + eps), neg, zero)
            if u:
                u_parts.append(u)
        v = clipped(lam * (j + eps), lam * (j + 1), neg, x_l)
        if v:
            v_parts.append(v)
    U = IntervalSet.canonicalize(basis, u_parts) if u_parts else IntervalSet.empty(basis)
    V = IntervalSet.canonicalize(basis, v_parts) if v_parts else IntervalSet.empty(basis)
    return U, V


def _window_set_cases(rng):
    """Seeded (lam, eps, x_l factory) triples: x_l a multiple of lam, x_l
    or -x_l on a window end lam (j + eps), x_l below lam, rational at
    random, surd, and over a basis whose unit generator is 1/3."""
    r2 = GeneratorBasis.from_specs(["sqrt:2", "sqrt:3"])
    third = GeneratorBasis.from_specs(["rat:1/3", "sqrt:5"])
    rat = GeneratorBasis.rationals()
    for basis in (rat, r2, third):
        for _ in range(12):
            lam = F(rng.randint(1, 400), rng.randint(1, 1000))
            eps = F(rng.randint(1, 32), 100)
            k = rng.randint(0, 9)
            values = [lam * rng.randint(1, 9),  # a multiple of lam
                      lam * (k + eps),  # on lam (k + eps)
                      lam * (k + 1 - eps),  # -x_l on lam (eps - k - 1)
                      lam * F(rng.randint(1, 99), 100),  # below lam: k = 0
                      lam * F(rng.randint(1, 999), rng.randint(1, 99))]
            for q in values:
                yield lam, eps, (lambda q=q, basis=basis: basis.rational(q))
            if basis is rat:
                continue
            c = [F(rng.randint(-5, 5), rng.randint(1, 9)) for _ in range(basis.dim - 1)]
            c0 = 4 + sum(abs(x) for x in c) * 3  # keeps x_l positive
            yield lam, eps, lambda basis=basis, c=c, c0=c0: basis.point([c0, *c])
            yield lam, eps, lambda basis=basis, c=c, c0=c0: basis.point([c0, *c]) * lam


def _window_set_prints(U, V):
    """Each end's key and ball (float.hex), per set, and both measures."""
    def ends(S):
        return [(p.key, tuple(x.hex() for x in p._approx) if p._approx else None)
                for iv in S for p in iv]
    return ends(U), ends(V), U.measure().key, V.measure().key


def test_frac_window_sets_match_clipped_oracle(monkeypatch):
    # the ordered pass gives the sets of the clip-and-canonicalize build,
    # end for end: the same Point keys, the same balls, the same measures
    rng = random.Random(1018)
    calls = shared = 0
    for lam, eps, x_l in _window_set_cases(rng):
        want = _clipped_window_sets(lam, eps, x_l())
        U, V = frac_window_sets(lam, eps, x_l())
        assert _window_set_prints(U, V) == _window_set_prints(*want), (lam, eps, x_l())
        # U's hi ends are V's lo ends, and V's hi ends U's lo ends: one Point
        v_los = {id(lo) for lo, _ in V}
        v_his = {id(hi) for _, hi in V}
        assert all(id(hi) in v_los for _, hi in U)
        shared += sum(id(lo) in v_his for lo, _ in U)
        calls += 1
    assert calls == 228 and shared > 1000, (calls, shared)
    # the cap falls at the same x_l: 2 (floor(x_l/lam) + 2) + 2 windows
    monkeypatch.setattr(lambda_search, "DEFAULT_PIECE_CAP", 40)
    basis = GeneratorBasis.from_specs(["sqrt:2"])
    lam, eps = F(1, 10), F(1, 4)
    raised = 0
    for x_l in [basis.rational(F(n, 100)) for n in range(160, 200)] + [
            basis.point([F(n, 100), F(1, 1000)]) for n in range(160, 200)]:
        try:
            want = _window_set_prints(*_clipped_window_sets(lam, eps, x_l))
        except CapExceeded:
            with pytest.raises(CapExceeded):
                frac_window_sets(lam, eps, x_l)
            raised += 1
        else:
            assert _window_set_prints(*frac_window_sets(lam, eps, x_l)) == want
    assert raised == 40  # from x_l = 1.8, k = 18
    with pytest.raises(CapExceeded, match="42 windows exceed the cap 40"):
        frac_window_sets(lam, eps, basis.rational(F(18, 10)))


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


def _per_atom_integral_bounds(prof, bits):
    """integral_bounds with each atom's windows in between summed on their
    own: the reference for the shared table of prefix sums."""
    n, d = prof.eps.numerator, prof.eps.denominator
    num = (d * (d - 2 * n)) << bits
    lo_sum = hi_sum = F(0)
    for t, m, (k0, k_end) in zip(prof.mu.atoms, prof.mu.masses, prof.windows):
        if k_end <= k0:
            continue
        lo, hi = _window(t, prof.eps, k0, k0, k_end, prof.r, prof.lam_floor)
        ends = _point(hi) - _point(lo)
        if k_end - 1 > k0:
            lo, hi = _window(t, prof.eps, k_end - 1, k0, k_end, prof.r, prof.lam_floor)
            ends = ends + (_point(hi) - _point(lo))
        inner = range(k0 + 1, k_end - 1)
        s = sum(num // ((k * d + n) * ((k + 1) * d - n)) for k in inner)
        e_lo, e_hi = ends.enclosure(bits)
        t_lo, t_hi = t.enclosure(bits)
        lo_sum += m * (e_lo + t_lo * F(s, 1 << bits))
        hi_sum += m * (e_hi + t_hi * F(s + len(inner), 1 << bits))
    return lo_sum, hi_sum


def test_integral_bounds_match_per_atom_sums(rat_basis, surd_basis):
    # the sums read from one table over the union of the atoms' ranges of
    # windows in between equal each atom's own sum, whether the ranges are
    # disjoint, nested, overlapping or empty
    rng = random.Random(331)
    seen = Counter()
    for i in range(60):
        kind = i % 4
        eps = F(rng.randint(3, 9), rng.choice((30, 31, 32)))
        a = rng.choice((rat_basis.rational(F(rng.randint(30, 90), 100)),
                        surd_basis.point(["0", F(rng.randint(10, 30), 100), "1/50"])))
        if kind == 0:    # far apart: disjoint ranges at floor scale 8
            atoms = [a * F(1, rng.randint(40, 90)), a]
        elif kind == 1:  # close: one range starts with the other, ends later
            atoms = [a * F(1000 - rng.randint(1, 30), 1000), a]
        elif kind == 2:  # within a factor 3: overlapping ranges
            atoms = [a * F(1, 3), a * F(rng.randint(11, 29), 30), a]
        else:            # a few windows each: some ranges empty
            atoms = [a * F(10, rng.randint(11, 19)), a]
        mu = DiscreteMeasure(atoms, [F(rng.randint(1, 9), 9) for _ in atoms])
        floor_scale = (8, rng.choice((16, 64)), rng.choice((4, 32)), rng.choice((1, 2)))[kind]
        prof = lambda_profile(mu, eps, F(rng.randint(1, 40), 40), floor_scale=floor_scale)
        for bits in (8, 64, 128):
            assert prof.integral_bounds(bits) == _per_atom_integral_bounds(prof, bits), \
                (atoms, eps, floor_scale, bits)
        inner = [(k0 + 1, k_end - 1) for k0, k_end in prof.windows]
        ranges = sorted((lo, hi) for lo, hi in inner if lo < hi)
        seen["empty"] += len(ranges) < len(inner)
        for (a0, b0), (a1, b1) in zip(ranges, ranges[1:]):
            seen["disjoint" if b0 <= a1 else "nested" if b1 <= b0 or a0 == a1 else
                 "overlapping"] += 1
    assert min(seen[k] for k in ("empty", "disjoint", "nested", "overlapping")) >= 5, seen


def test_ranked_oracle_and_integral_bounds_with_filter_off(rat_basis, surd_basis, mu_pair,
                                                           filter_off):
    # with apart's margin off every decision is exact: a seeded slice of the
    # ranked-oracle searches (the oracle's answers taken with the filter on)
    # and both integral_bounds tests give the same results
    cases = random.Random(59).sample(_oracle_cases(rat_basis, surd_basis), 24)
    want = [_oracle_find(mu, eps, delta, **kw) for mu, eps, delta, kw in cases]
    filter_off()
    for (mu, eps, delta, kw), expected in zip(cases, want):
        try:
            got = find_lambda(mu, eps, delta, **kw).to_json()
        except LambdaNotFound as exc:
            got = exc.diagnostics
        assert got == expected, (mu.atoms, eps, delta, kw)
    test_integral_bounds_contain_exact_sum(rat_basis)
    test_integral_bounds_surd(mu_pair)


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


def _mid(end):
    """A window end's midpoint: its ball is the negated end's."""
    return -end[0][0]


def _rad(end):
    return end[0][1]


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
                    if end[5] is None:  # no ratio: the end is the Point end[3]
                        clipped += 1
                        assert end[3] is r or end[3] is lam_floor
                        assert _point(end) is end[3]
                        assert _bits((_mid(end), _rad(end))) == _bits(end[3].approx())
                        continue
                    want = t * F(*end[4:])
                    assert _bits((_mid(end), _rad(end))) == _bits(want.approx())
                    assert _point(end).key == want.key
                    assert _bits(_point(end).approx()) == _bits(want.approx())
    assert clipped > 0


def test_run_ends_carry_the_product_doubles(rat_basis, surd_basis):
    # each end of a run, computed in one pass over doubles, is bit for bit
    # the ball of the Point t * d/b that its position names: rational and
    # surd atoms, atoms scaled by 2^-1000, windows k up to 10^4
    rng = random.Random(263)
    tiny = F(1, 2**1000)
    kinds = Counter()
    for i in range(90):
        kind = ("rational", "surd", "tiny")[i % 3]
        a = F(rng.randint(30, 90), 100)
        if kind == "rational":
            t = rat_basis.rational(a)
        elif kind == "surd":
            t = surd_basis.point(["0", a / 3, F(rng.randint(0, 20), 100)])
        else:
            t = rng.choice((rat_basis.rational(a), surd_basis.point(["0", a / 5, "1/9"]))) * tiny
        eps = F(rng.randint(3, 9), rng.choice((30, 31, 32)))
        n, d = eps.numerator, eps.denominator
        k = rng.choice((0, 1, rng.randint(2, 500), rng.randint(9936, 10**4)))
        j = k + rng.randint(1, 64)
        m = rng.randint(1, 9)
        ends = _run_ends(t, m, d, n, k, j)
        assert len(ends) == 2 * (j - k)
        for pos, end in enumerate(ends):
            w = k + pos // 2
            if pos % 2 == 0:  # the lo end of window w
                b, dm, opens = (w + 1) * d - n, -m, 1
            else:  # the hi end of window w + 1
                b, dm, opens = (w + 1) * d + n, m, 0
            want = t.scaled(d, b)
            assert tuple(end[1:]) == (dm, opens, t, d, b)
            assert _bits((_mid(end), _rad(end))) == _bits(want.approx())
            assert _bits(end[0]) == _bits((-want.approx()[0], want.approx()[1]))
            assert _point(end).key == (t * F(d, b)).key
            kinds[kind, k >= 9936] += 1
    assert min(kinds.values()) > 0 and len(kinds) == 6, kinds


def test_sweep_ends_carry_their_points_doubles(rat_basis, surd_basis):
    # every end the sweep yields, whichever kind it is, carries the doubles
    # of its own Point
    for mu, eps, delta, floor_scale, piece_cap in _sweep_cases(rat_basis, surd_basis, 48):
        r = cutoff_r(mu, eps, delta)
        lam_floor = r * F(1, floor_scale)
        try:
            for lo, hi, _ in _pieces(_sweep(mu, eps, r, lam_floor,
                                            _windows(mu, eps, r, lam_floor), piece_cap)):
                assert _bits((_mid(lo), _rad(lo))) == _bits(_point(lo).approx())
                assert _bits((_mid(hi), _rad(hi))) == _bits(_point(hi).approx())
        except CapExceeded:
            pass


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


# ---------------------------------------------------------------------------
# the block sweep against the heap merge it replaced
# ---------------------------------------------------------------------------

class _HeapKey:
    """The heap merge's order of ends: larger ends first, decided by the
    float filter of compare, and by compare where the enclosures overlap."""

    __slots__ = ("end",)

    def __init__(self, end):
        self.end = end

    def __lt__(self, other):
        a, b = self.end, other.end
        d = _mid(a) - _mid(b)
        if abs(d) > 4.0 * (_rad(a) + _rad(b)) + 1e-300:
            return d > 0
        return compare(_point(a), _point(b)) > 0


def _heap_sweep(mu, eps, r, lam_floor, windows, piece_cap):
    """The reference sweep: a heapq merge of each atom's window stream, from
    r down, equal ends merged (of equal points the one with the smallest
    midpoint represents them); a stream enters its first window at the
    start and the next one when its lo end is passed, and CapExceeded is
    raised once more than piece_cap windows have been entered."""
    budget = [piece_cap]

    def ends(t, m, k0, k_end):
        for k in range(k0, k_end):
            budget[0] -= 1
            if budget[0] < 0:
                raise CapExceeded(f"profile needs more than {piece_cap} pieces")
            lo, hi = _window(t, eps, k, k0, k_end, r, lam_floor, m)
            yield hi
            yield lo

    streams = [ends(t, m, k0, k_end)
               for t, m, (k0, k_end) in zip(mu.atoms, _mass_units(mu)[1], windows)]
    above = None
    value = 0
    rep = _end(r, None, 0)
    dm = 0  # the dm of the ends merged into rep
    for end in heapq.merge(*streams, [_end(lam_floor, None, 0)], key=_HeapKey):
        if not _HeapKey(rep) < _HeapKey(end):  # end <= rep as the ends descend
            dm += end[1]
            if _mid(end) < _mid(rep):
                rep = end
            continue
        if above is not None:
            yield rep, above, value
        value += dm
        above, rep, dm = rep, end, end[1]
    if above is not None:
        yield rep, above, value


def _heap_blocks(mu, eps, r, lam_floor, windows, piece_cap):
    """The reference sweep in the form of _sweep: each piece a block."""
    for lo, hi, v in _heap_sweep(mu, eps, r, lam_floor, windows, piece_cap):
        yield [hi, lo], [v]


def _pieces(blocks):
    """The pieces (lo, hi, value) of a sweep's blocks, one at a time."""
    for ends, vals in blocks:
        yield from zip(ends[1:], ends, vals)


def _trace(sweep, mu, eps, r, lam_floor, piece_cap):
    """Every piece as (lo midpoint, hi midpoint, lo key, hi key, value), then
    the CapExceeded message if the sweep raised one."""
    out = []
    try:
        for lo, hi, v in _pieces(sweep(mu, eps, r, lam_floor,
                                       _windows(mu, eps, r, lam_floor), piece_cap)):
            out.append((repr(_mid(lo)), repr(_mid(hi)), _point(lo).key, _point(hi).key, v))
    except CapExceeded as exc:
        out.append(("CapExceeded", str(exc)))
    return out


def _sweep_cases(rat_basis, surd_basis, count):
    """Seeded (mu, eps, delta, floor_scale, piece_cap): rational atoms, {a,
    2a, 3a}, two atoms sharing window ends exactly, surds, atoms scaled by
    2^-1000 and near-ties; floor scales 2 to 10^3 and piece caps 3 to 400.
    Deep floors get a cap, so that the reference merge stays quick."""
    rng = random.Random(409)
    tiny = F(1, 2**1000)

    def rational():
        return rat_basis.rational(F(rng.randint(10, 99), 100))

    def surd():
        a, b = F(rng.randint(5, 30), 100), F(rng.randint(0, 20), 100)
        return surd_basis.point(["0", a, b])

    cases = []
    for i in range(count):
        kind = i % 6
        make = None
        eps = F(rng.randint(3, 9), rng.choice((30, 31, 32)))
        n, d = eps.numerator, eps.denominator
        if kind == 0:
            atoms = [rational() for _ in range(rng.randint(1, 4))]
        elif kind == 1:
            a = rng.choice((rational, surd))() * F(1, 3)
            atoms = [a, a * 2, a * 3]
        elif kind == 2:
            # t * d/(k d + n) of the first atom is the hi end of window j of
            # the second, and so is every (1 + s d)-fold of both indices
            a = rng.choice((rational, surd))() * F(1, 7)
            k, j = rng.sample(range(1, 7), 2)
            atoms = [a, a * F(j * d + n, k * d + n)]
        elif kind == 3:
            atoms = [surd() for _ in range(rng.randint(1, 3))]
        elif kind == 4:
            # below 1e-300 the radii of the ends swamp their values: every
            # end is ordered by exact comparison; some of these share
            # window ends
            make = surd if i % 12 == 4 else rational
            if i % 24 == 10:
                a = make() * F(1, 7) * tiny
                k, j = rng.sample(range(1, 7), 2)
                atoms = [a, a * F(j * d + n, k * d + n)]
            else:
                atoms = [make() * tiny for _ in range(rng.randint(1, 3))]
        else:
            a = rng.choice((rational, surd))() * F(1, 2)
            atoms = [a, a + F(1, 10**30), a * 2 + F(1, 10**30)]
        mu = DiscreteMeasure(atoms, [F(rng.randint(1, 9), 9) for _ in atoms])
        delta = F(rng.randint(1, 40), 40)
        # exact comparisons of surds near 2^-1000 are slow: keep those shallow
        floor_scale = 2 if make is surd else rng.choice((2, 3, 10, 64, 200, 1000))
        if floor_scale >= 200 or rng.random() < 0.5:
            piece_cap = rng.randint(3, 400)
        else:
            piece_cap = 10**6
        if i % 24 == 10:  # deep enough that a shared end meets a block's edge
            floor_scale, piece_cap = 64, 10**6
        cases.append((mu, eps, delta, floor_scale, piece_cap))
    return cases


def test_block_sweep_matches_heap_merge(rat_basis, surd_basis):
    seen = Counter()
    for mu, eps, delta, floor_scale, piece_cap in _sweep_cases(rat_basis, surd_basis, 180):
        r = cutoff_r(mu, eps, delta)
        lam_floor = r * F(1, floor_scale)
        want = _trace(_heap_blocks, mu, eps, r, lam_floor, piece_cap)
        got = _trace(_sweep, mu, eps, r, lam_floor, piece_cap)
        assert got == want, (mu.atoms, eps, delta, floor_scale, piece_cap)
        capped = bool(want) and want[-1][0] == "CapExceeded"
        seen["capped" if capped else "complete"] += 1
        n_windows = sum(k_end - k0 for k0, k_end in _windows(mu, eps, r, lam_floor))
        if not capped and len(want) < 2 * n_windows:
            seen["merged"] += 1  # some window ends coincide exactly
        if capped and len(want) > 1:
            seen["capped after pieces"] += 1
    assert min(seen[k] for k in ("complete", "capped", "merged",
                                 "capped after pieces")) >= 10, seen


def test_sweep_and_csv_same_with_filter_off(rat_basis, surd_basis, filter_off):
    # the float filter only saves time: with every decision exact, the
    # sweep yields the same pieces and lambda_profile.csv the same rows
    # (a seeded slice of the sweep cases, one of each kind)
    cases = _sweep_cases(rat_basis, surd_basis, 36)

    def outcomes():
        out = []
        for mu, eps, delta, floor_scale, piece_cap in cases:
            r = cutoff_r(mu, eps, delta)
            trace = _trace(_sweep, mu, eps, r, r * F(1, floor_scale), piece_cap)
            prof = lambda_profile(mu, eps, delta, floor_scale=floor_scale, piece_cap=piece_cap)
            try:
                rows = list(prof.csv_rows())
            except CapExceeded as exc:
                rows = str(exc)
            out.append((trace, rows))
        return out

    want = outcomes()
    filter_off()
    assert outcomes() == want
    assert sum(isinstance(rows, list) and len(rows) > 1 for _, rows in want) >= 10


def _find_outcome(mu, eps, delta, **kw):
    try:
        res = find_lambda(mu, eps, delta, **kw)
    except (CapExceeded, LambdaNotFound) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "diagnostics", None)
    return res.to_json(), res.piece[0].key, res.piece[1].key


def test_find_lambda_same_with_heap_merge(rat_basis, surd_basis, monkeypatch):
    outcomes = Counter()
    cases = _sweep_cases(rat_basis, surd_basis, 120)
    for i, (mu, eps, delta, floor_scale, piece_cap) in enumerate(cases):
        # every other search gets a cap of 3 to 12 windows, and every fourth
        # rejects each piece it probes, so its sweep goes on to the floor
        kw = {"floor_scale": min(floor_scale, 64), "max_retries": 1,
              "piece_cap": min(piece_cap, 3 + i % 10) if i % 2 else piece_cap}
        if i % 4 == 0:
            kw.update(candidate_cap=2, max_retries=0, constraints=WindowConstraints(
                x_1=cutoff_r(mu, eps, delta) * F(1, 10**6), x_l=mu.x_l))
        got = _find_outcome(mu, eps, delta, **kw)
        with monkeypatch.context() as m:
            m.setattr(lambda_search, "_sweep", _heap_blocks)
            want = _find_outcome(mu, eps, delta, **kw)
        assert got == want, (mu.atoms, eps, delta, kw)
        outcomes[got[0] if isinstance(got[0], str) else "found"] += 1
    assert min(outcomes[k] for k in ("found", "CapExceeded", "LambdaNotFound")) >= 10, outcomes


def test_find_lambda_probe_order_same_with_heap_merge(rat_basis, surd_basis, monkeypatch):
    # {a, 2a, 3a} measures with candidate_cap 1 to 4 and constraints that
    # reject every piece: the pieces are probed in the same order, and the
    # diagnostics agree, as with the reference merge of one-piece blocks;
    # the blocks hold more qualifying pieces than candidate_cap, so a group
    # fills, or the probes stop at the cap, inside a block
    rng = random.Random(211)
    seen = Counter()
    direct = lambda_search.window_value
    sweep = lambda_search._sweep
    for i in range(32):
        a = rng.choice((rat_basis.rational(F(rng.randint(10, 30), 100)),
                        surd_basis.point(["0", F(rng.randint(8, 20), 100), "0"])))
        # full-mass pieces qualify for eps 1/10 and 2/15, the 2/3 pieces
        # too for 2/15, and none of either for 3/10
        eps = (F(1, 10), F(2, 15), F(3, 10))[i % 3]
        mu = DiscreteMeasure([a, a * 2, a * 3], [F(1, 3)] * 3)
        threshold = (1 - 3 * eps) * mu.total_mass * _mass_units(mu)[0]
        delta, cap = F(rng.randint(1, 40), 40), 1 + i % 4
        kw = {"floor_scale": rng.choice((16, 32, 64)), "max_retries": 0, "candidate_cap": cap,
              "constraints": WindowConstraints(
                  x_1=cutoff_r(mu, eps, delta) * F(1, 10**6), x_l=mu.x_l)}
        outcomes = []
        blocks = []  # the qualifying pieces of each block of _sweep
        for merge in (False, True):
            probed = []

            def recorded(mu, eps, lam):
                probed.append(lam)
                return direct(mu, eps, lam)

            def recorded_sweep(*args):
                for block in sweep(*args):
                    blocks.append(sum(v > threshold for v in block[1]))
                    yield block

            with monkeypatch.context() as m:
                m.setattr(lambda_search, "window_value", recorded)
                m.setattr(lambda_search, "_sweep", _heap_blocks if merge else recorded_sweep)
                with pytest.raises(LambdaNotFound) as exc:
                    find_lambda(mu, eps, delta, **kw)
            outcomes.append((probed, exc.value.diagnostics))
        assert outcomes[0] == outcomes[1], (mu.atoms, eps, delta, kw)
        probed = outcomes[0][0]
        full = [window_value(mu, eps, lam) == 1 for lam in probed]
        seen["stopped at the cap" if len(probed) == cap and all(full) else
             "ranked" if not all(full) else "other"] += 1
        seen["block past the cap"] += max(blocks) > cap
    assert min(seen[k] for k in ("stopped at the cap", "ranked")) >= 5, seen
    assert seen["block past the cap"] >= 20, seen


@pytest.mark.parametrize("scale, floor_scale", [(1, 10**6), (F(1, 2**1000), 10**3)])
def test_find_lambda_reads_few_ends(surd_basis, monkeypatch, scale, floor_scale):
    # demo measure 0: the search stops near r, so only the first blocks of
    # window ends are computed, in runs or one at a time; also at 2^-1000,
    # where the doubles separate no end and the ends are ordered exactly
    mu = DiscreteMeasure([surd_basis.point(["0", "1/4", "0"]) * scale,
                          surd_basis.point(["0", "0", "1/4"]) * scale], [F(1, 2), F(1, 2)])
    computed = [0]
    end = lambda_search._end
    run_ends = lambda_search._run_ends

    def counted_end(*args):
        computed[0] += 1
        return end(*args)

    def counted_run(*args):
        ends = run_ends(*args)
        computed[0] += len(ends)
        return ends

    monkeypatch.setattr(lambda_search, "_end", counted_end)
    monkeypatch.setattr(lambda_search, "_run_ends", counted_run)
    res = find_lambda(mu, F(1, 6), F(1, 2), floor_scale=floor_scale)
    assert res.value == 1
    assert 0 < computed[0] < 100, computed[0]


# ---------------------------------------------------------------------------
# the pass bound of the block sweep at a block's edge
# ---------------------------------------------------------------------------

_MARGIN = F(1e-300)


def _cut_gap(p, u):
    """How far p's lower end m - 4r lies above u's upper end m + 4r, exactly
    on their doubles."""
    return F(_mid(p)) - 4 * F(_rad(p)) - F(_mid(u)) - 4 * F(_rad(u))


def _near_tie_at_block_edge(rat_basis, scale, band, block, k, j):
    """Two atoms and the ends p (hi end of window k of the first) and u (hi
    end of window j of the second) on both sides of the threshold r * 0.9^block
    of _sweep, r = delta. p lies above u by p's radius band and half of u's
    (band "radius"), or clear of both bands by half the margin of cut_limit
    (band "margin"): only u's radius, or only the margin, keeps p from
    passing while u is unread."""
    eps = F(1, 6)
    n, d = eps.numerator, eps.denominator
    delta = F(1, 100) * scale
    thr = rat_basis.rational(delta).approx()[0]
    for _ in range(block):
        thr *= 0.9

    def ends(p_val, u_val):
        a = rat_basis.rational(p_val * F(k * d + n, d))
        b = rat_basis.rational(u_val * F(j * d + n, d))
        return a, b, _end(a, (d, k * d + n), 0), _end(b, (d, j * d + n), 0)

    edge = F(thr)
    _, _, p, u = ends(edge, edge)
    p_band, u_band = 4 * F(_rad(p)), 4 * F(_rad(u))
    apart = p_band + u_band / 2 if band == "radius" else p_band + u_band + _MARGIN / 2
    above = min(apart / 4, edge * F(1, 10**15))
    a, b, p, u = ends(edge + above, edge + above - apart)
    assert _mid(p) >= thr > _mid(u)  # p is read in that block, u is not
    mu = DiscreteMeasure([a, b], [F(1, 3), F(2, 3)])
    assert cutoff_r(mu, eps, delta) == rat_basis.rational(delta)
    return mu, eps, delta, p, u


@pytest.mark.parametrize("scale, band", [
    (1, "radius"), (F(1, 2**960), "radius"), (F(1, 2**960), "margin")])
def test_sweep_holds_near_ties_at_block_edge(rat_basis, monkeypatch, scale, band):
    # an end read in one block passes only once it lies above every atom's
    # next unread hi end by the certified cut: both radii and the margin;
    # seeded windows and blocks, each with a near tie across the edge
    rng = random.Random(4177)
    descending = lambda_search._descending
    calls = []

    def checked(ends, unread):
        passed, rest = descending(ends, unread)
        unread = list(unread)
        for e in passed:
            for u in unread:
                slack = 2 * F(max(abs(_mid(e)), abs(_mid(u)))) / 2**52
                assert _cut_gap(e, u) > _MARGIN - slack, (_mid(e), _rad(e), _mid(u), _rad(u))
        calls.append(({_mid(e) for e in rest}, {_mid(u) for u in unread}))
        return passed, rest

    monkeypatch.setattr(lambda_search, "_descending", checked)
    for _ in range(3):
        block, k, j = rng.randint(2, 5), rng.randint(35, 45), rng.randint(46, 60)
        mu, eps, delta, p, u = _near_tie_at_block_edge(rat_basis, scale, band,
                                                       block, k, j)
        if band == "radius":
            assert _cut_gap(p, u) < 0 < F(_mid(p)) - 4 * F(_rad(p)) - F(_mid(u)) - _MARGIN
        else:
            assert 0 < _cut_gap(p, u) < _MARGIN
        r = cutoff_r(mu, eps, delta)
        lam_floor = r * F(1, 4)
        calls.clear()
        got = _trace(_sweep, mu, eps, r, lam_floor, 10**6)
        # the cut held p back while u was unread
        assert any(_mid(p) in held and _mid(u) in unread for held, unread in calls)
        assert got == _trace(_heap_blocks, mu, eps, r, lam_floor, 10**6)


def test_bad_input_raises_config_error(single_atom):
    raises_config_error(find_lambda, single_atom, F(1, 3), F(1, 10))
    raises_config_error(find_lambda, single_atom, F(1, 4), F(0))
    raises_config_error(lambda_profile, single_atom, F(1, 4), F(1, 10), floor_scale=0)
    raises_config_error(lambda_search.active_atoms, single_atom, F(1, 4), F(0))
    x_l = single_atom.x_l
    raises_config_error(frac_window_sets, F(0), F(1, 4), x_l)
    raises_config_error(frac_window_sets, F(1, 10), F(1, 3), x_l)
    raises_config_error(frac_window_sets, F(1, 10), F(1, 4), -x_l)
