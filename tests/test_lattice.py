import json
import math
import random
from fractions import Fraction as F

import pytest

from sweepout.errors import CapExceeded, PrecisionExhausted
from sweepout.exactreal import (GeneratorBasis, IntervalSet, bisect_points, compare,
                               sort_points)
from sweepout import kernel
from sweepout.lattice import (DEFAULT_TUPLE_CAP, ClosureCertificate,
                              CountReport, LatticeSpec, NuOneDensityError,
                              _classify, _filter_data, count_progression,
                              decompose, enumerate_lattice,
                              expected_cardinality, interval_count_ratio,
                              lattice_count, lattice_hits,
                              shift_closure_check)
from sweepout.lambda_search import _block_stop
from tests.conftest import raises_config_error, raises_plain_value_error


@pytest.fixture(scope="module")
def surd_spec(surd_basis, root2_over8, root3_over4):
    return decompose([root2_over8, root3_over4])


def test_decompose_rational_pair(rat_basis):
    spec = decompose([rat_basis.rational(F(1, 4)), rat_basis.rational(F(1, 2))])
    assert spec.nu == 1
    assert [y.rational_value() for y in spec.Y] == [F(1, 2)]
    assert spec.p == 2
    assert spec.coeffs == ((1,), (2,))
    assert spec.tau == 2


def test_decompose_independent_pair(surd_spec, root2_over8, root3_over4):
    assert surd_spec.nu == 2
    assert surd_spec.p == 1
    assert surd_spec.coeffs == ((1, 0), (0, 1))
    assert surd_spec.tau == 1
    assert surd_spec.Y == (root2_over8, root3_over4)


def test_decompose_mixed(surd_basis, root2_over8, root3_over4):
    r2_4 = surd_basis.point(["0", "1/4", "0"])
    spec = decompose([root2_over8, r2_4, root3_over4])
    assert spec.nu == 2
    assert spec.Y == (r2_4, root3_over4)
    assert spec.p == 2
    assert spec.coeffs == ((1, 0), (2, 0), (0, 2))
    assert spec.tau == 2


def test_decompose_validation(surd_basis, rat_basis):
    with pytest.raises(ValueError):
        decompose([])
    with pytest.raises(ValueError):
        decompose([rat_basis.rational(F(3, 2))])
    with pytest.raises(ValueError):
        decompose([rat_basis.rational(0)])


def test_spec_json_roundtrip(surd_spec):
    blob = json.dumps(surd_spec.to_json())
    back = LatticeSpec.from_json(json.loads(blob))
    back.validate()
    assert back.coeffs == surd_spec.coeffs
    assert back.p == surd_spec.p and back.tau == surd_spec.tau
    assert back.Y == surd_spec.Y


def test_spec_json_roundtrip_decimal_basis():
    # a dec: generator is written as dec:p/q@bits and must read back
    basis = GeneratorBasis.from_specs(["dec:0.7071@40"], assert_independent=True)
    spec = decompose([basis.point(["0", "1/4"]), basis.point(["1/8", "1/2"])])
    assert basis.spec_strings() == ["rat:1", "dec:7071/10000@40"]
    back = LatticeSpec.from_json(json.loads(json.dumps(spec.to_json())))
    back.validate()
    assert back.basis == basis
    assert back.X == spec.X and back.Y == spec.Y and back.coeffs == spec.coeffs


def test_gamma(surd_spec):
    # gamma = (2 tau)^(nu-1) p / y_nu = 2/(sqrt3/4) = 8/sqrt3
    lo, hi = surd_spec.gamma.enclosure(128)
    import math
    target = 8 / math.sqrt(3)
    assert lo <= F(target).limit_denominator(10**15) <= hi or \
        abs(float(lo) - target) < 1e-12


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_examples(surd_spec, rat_basis):
    pts = enumerate_lattice(surd_spec, 1)
    assert len(pts) == 21  # 3 * 7
    assert any(p.is_zero() for p in pts)
    spec2 = decompose([rat_basis.rational(F(1, 4)), rat_basis.rational(F(1, 2))])
    # nu=1: A_1 = {n/4 : |n| <= 3}, 7 points
    pts2 = enumerate_lattice(spec2, 1)
    assert len(pts2) == 7
    assert {p.rational_value() for p in pts2} == {F(n, 4) for n in range(-3, 4)}


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_cardinality_formula_and_symmetry(surd_spec, m):
    pts = enumerate_lattice(surd_spec, m)
    assert len(pts) == expected_cardinality(surd_spec, m)
    keys = {p.coeffs for p in pts}
    assert all((-p).coeffs in keys for p in pts)


def test_nesting(surd_spec):
    prev = set()
    for m in range(1, 11):
        cur = {p.coeffs for p in enumerate_lattice(surd_spec, m)}
        assert prev <= cur
        prev = cur


def test_enumeration_cap(surd_spec):
    with pytest.raises(CapExceeded):
        enumerate_lattice(surd_spec, 500, cap=1000)


# ---------------------------------------------------------------------------
# counting: kernel vs direct enumeration oracle
# ---------------------------------------------------------------------------

def test_count_matches_enumeration_oracle(surd_spec, surd_basis):
    rng = random.Random(3)
    for m in (1, 2, 4, 7):
        pts = enumerate_lattice(surd_spec, m)
        for _ in range(4):
            a = F(rng.randint(-900, 880), 1000)
            b = a + F(rng.randint(1, 120), 1000)
            window = IntervalSet.single(surd_basis, surd_basis.rational(a),
                                        surd_basis.rational(b))
            oracle = sum(1 for p in pts if window.contains(p))
            assert lattice_count(surd_spec, m, window) == oracle
            hits = lattice_hits(surd_spec, m, window)
            assert len(hits) == oracle
            assert all(window.contains(p) for p in hits)


def test_count_oracles_hold_with_guard_off(surd_spec, surd_basis, filter_off, monkeypatch):
    # the guard only saves time: with every tuple decided exactly, the
    # counts and hits still match the enumeration
    filter_off("guard")
    tuples = exact = 0
    classify = kernel.classify_tuples

    def counted(y_hat, bounds, edges, guard, collect):
        nonlocal tuples, exact
        got = classify(y_hat, bounds, edges, guard, collect)
        tuples += math.prod(2 * b + 1 for b in bounds)
        exact += len(got[2])
        return got

    monkeypatch.setattr(kernel, "classify_tuples", counted)
    test_count_matches_enumeration_oracle(surd_spec, surd_basis)
    test_count_adversarial_edges(surd_spec, surd_basis)
    test_count_colliding_float_edges(surd_spec, surd_basis)
    assert exact == tuples > 0


def _random_surd_spec(rng):
    """Support over two random squarefree surds: a mixed point
    q + r sqrt(a), a pure surd s sqrt(b), and their sum."""
    a, b = rng.sample([5, 6, 7, 10, 11, 13], 2)
    basis = GeneratorBasis.from_specs([f"sqrt:{a}", f"sqrt:{b}"])
    x = basis.point([F(1, rng.randint(8, 12)), F(1, rng.randint(10, 16)), "0"])
    y = basis.point(["0", "0", F(1, rng.randint(10, 16))])
    return basis, decompose([x, y, x + y])


def test_count_adversarial_edges(surd_spec, surd_basis):
    # windows whose endpoints ARE lattice values: the float filter must
    # push those tuples to exact resolution, and open semantics exclude
    # the endpoints themselves
    rng = random.Random(77)
    basis2, spec2 = _random_surd_spec(rng)
    for spec, basis in ((surd_spec, surd_basis), (spec2, basis2)):
        pts = enumerate_lattice(spec, 3)
        for _ in range(12):
            a, b = sorted(rng.sample(range(len(pts)), 2))
            lo, hi = pts[a], pts[b]
            if compare(lo, hi) >= 0:
                continue
            window = IntervalSet.single(basis, lo, hi)
            oracle = sum(1 for p in pts if window.contains(p))
            assert lattice_count(spec, 3, window) == oracle
            hits = lattice_hits(spec, 3, window)
            assert len(hits) == oracle
            assert lo not in set(hits) and hi not in set(hits)


def test_count_edge_at_lattice_point(surd_spec, surd_basis, root3_over4):
    # interval endpoint exactly at a lattice point: open semantics exclude it
    window = IntervalSet.single(surd_basis, -root3_over4, surd_basis.rational(0))
    hits = lattice_hits(surd_spec, 1, window)
    assert all(compare(p, -root3_over4) > 0 and p.sign() < 0 for p in hits)


def test_count_colliding_float_edges(surd_spec, surd_basis):
    # windows within 2^-k of a lattice point c, k in 60..90: two edges
    # collide in doubles, and the kernel reads them sorted like any
    # others. Edges built as c + t - t carry the rounding of that sum in
    # their cached doubles, so some images swap instead of tying.
    rng = random.Random(61)
    basis2, spec2 = _random_surd_spec(rng)
    ties = swaps = 0
    for spec, basis, m in ((surd_spec, surd_basis, 2), (spec2, basis2, 2)):
        pts = enumerate_lattice(spec, m)
        t = F(1, 3)
        # three lattice points at random, and two whose c + t - t rounds up
        rounds_up = [c for c in pts if (c + t - t).approx()[0] > c.approx()[0]]
        for c in rng.sample(pts, 3) + rounds_up[:2]:
            for k in range(60, 91):
                h = basis.rational(F(1, 2**k))
                for ivs in ([(c - h, c + h)], [(c, c + h)], [(c - h, c)],
                            [(c - h, c), (c, c + h)], [(c + t - t - h, c + h)],
                            [(c - h, c - t + t + h)]):
                    window = IntervalSet.canonicalize(basis, ivs)
                    edges = [e.approx()[0] * spec.p for e in window.edge_points()]
                    ties += any(a == b for a, b in zip(edges, edges[1:]))
                    swaps += any(a > b for a, b in zip(edges, edges[1:]))
                    oracle = [p for p in pts if window.contains(p)]
                    assert lattice_count(spec, m, window) == len(oracle)
                    hits = lattice_hits(spec, m, window)
                    assert [p.key for p in hits] == [p.key for p in oracle]
    assert ties > 0 and swaps > 0


def test_count_edges_near_lattice_values(surd_basis, root2_over8, root3_over4):
    # the guard's answer test: p = 7 is not a power of two, so the doubles
    # of the tuples and of the scaled edges carry rounding, and each
    # window's lo edge lies 2^-54..2^-80 from a lattice value c, inside
    # that error. The tests above use a power of two p or edges on lattice
    # values, which go exact whatever the guard; here a guard cut to its
    # absolute term miscounts.
    a, b = root2_over8, root3_over4
    spec = decompose([a, b, (a + b) * F(1, 3), (a * 2 + b) * F(1, 7)])
    assert (spec.p, spec.tau, spec.tuple_count(3)) == (7, 21, 32385)
    pts = enumerate_lattice(spec, 3)
    width = surd_basis.rational(F(1, 64))
    for c in random.Random(29).sample(pts, 20):
        hi = c + width
        j = bisect_points(pts, hi)
        for k in range(54, 81):
            h = surd_basis.rational(F(1, 2**k))
            for lo in (c - h, c + h):
                window = IntervalSet.single(surd_basis, lo, hi)
                want = pts[bisect_points(pts, lo, right=True):j]
                assert lattice_count(spec, 3, window) == len(want), (c, k)
                hits = lattice_hits(spec, 3, window)
                assert [p.key for p in hits] == [p.key for p in want], (c, k)


def test_gamma_enclosure_precision_exhausted():
    # a denominator whose sign no precision decides: the enclosure stops
    # at the basis's precision cap instead of refining forever
    basis = GeneratorBasis.from_specs(["dec:1/1000@4"], assert_independent=True)
    x = basis.point(["0", "1"])
    spec = LatticeSpec(basis=basis, X=(x,), Y=(x,), coeffs=((1,),), p=1, tau=1)
    with pytest.raises(PrecisionExhausted):
        spec.Y[-1].sign()
    with pytest.raises(PrecisionExhausted, match="1024 bits"):
        spec.gamma.enclosure(128)


def test_decompose_greedy_core_and_least_denominator():
    # seeded supports over 1-3 surds with rational parts: Y is the greedy
    # independent subset taken from the largest point down, and p is the
    # least common denominator of the coordinates
    def rank(vectors):
        rows = [list(v) for v in vectors]
        r = 0
        for j in range(len(rows[0]) if rows else 0):
            sel = next((i for i in range(r, len(rows)) if rows[i][j]), None)
            if sel is None:
                continue
            rows[r], rows[sel] = rows[sel], rows[r]
            for i in range(r + 1, len(rows)):
                f = rows[i][j] / rows[r][j]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            r += 1
        return r

    rng = random.Random(29)
    for _ in range(60):
        radicands = rng.sample([2, 3, 5, 6, 7, 10, 11], rng.randint(1, 3))
        basis = GeneratorBasis.from_specs([f"sqrt:{a}" for a in radicands])
        gens = [basis.point([F(rng.randint(0, 3), rng.randint(8, 40))]
                            + [F(rng.randint(0, 2), rng.randint(8, 40))
                               for _ in radicands]) for _ in range(rng.randint(1, 3))]
        support = [g * q for g in gens for q in (1, F(1, 2), F(2, 3))
                   if not g.is_zero() and compare(g * q, basis.rational(1)) < 0]
        if not support:
            continue
        spec = decompose(support)
        chosen = []
        for x in reversed(spec.X):
            if rank([y.coeffs for y in chosen] + [x.coeffs]) > len(chosen):
                chosen.append(x)
        assert spec.Y == tuple(reversed(chosen))
        assert math.gcd(spec.p, *(n for row in spec.coeffs for n in row)) == 1


def test_interval_count_ratio_m200(surd_spec, surd_basis):
    rep = interval_count_ratio(surd_spec, 200,
                               (surd_basis.rational(0), surd_basis.rational(F(2, 5))))
    assert rep.count == 370
    assert abs(rep.ratio - 1) <= 0.1
    assert isinstance(rep, CountReport)


def test_interval_count_ratio_small_windows(surd_spec, surd_basis):
    rep = interval_count_ratio(surd_spec, 1,
                               (surd_basis.rational(F(99, 100)), surd_basis.rational(1)))
    assert rep.count >= 0
    assert rep.ratio == rep.ratio  # finite
    rep2 = interval_count_ratio(
        surd_spec, 3, (-surd_spec.Y[-1] * F(1, 2), surd_spec.Y[-1] * F(1, 4)))
    pts = enumerate_lattice(surd_spec, 3)
    w = IntervalSet.single(surd_basis, -surd_spec.Y[-1] * F(1, 2),
                           surd_spec.Y[-1] * F(1, 4))
    assert rep2.count == sum(1 for p in pts if w.contains(p))


def test_interval_count_ratio_rejections(surd_spec, surd_basis, rat_basis):
    spec1 = decompose([rat_basis.rational(F(1, 4)), rat_basis.rational(F(1, 2))])
    with pytest.raises(NuOneDensityError):
        interval_count_ratio(spec1, 5, (rat_basis.rational(0), rat_basis.rational(F(1, 8))))
    with pytest.raises(ValueError):
        interval_count_ratio(surd_spec, 5,
                             (surd_basis.rational(0), surd_basis.rational(F(1, 2))))
    window = (surd_basis.rational(0), surd_basis.rational(F(1, 5)))
    for m in (0, -3):
        with pytest.raises(ValueError, match=f"m = {m}"):
            interval_count_ratio(surd_spec, m, window)
    with pytest.raises(ValueError, match="m = -1"):
        lattice_count(surd_spec, -1, IntervalSet.single(surd_basis, *window))
    assert lattice_count(surd_spec, 0, IntervalSet.single(surd_basis, *window)) == 0


def test_count_progression_oracle(rat_basis):
    spec = decompose([rat_basis.rational(F(1, 4)), rat_basis.rational(F(1, 2))])
    step = spec.Y[0] * F(1, spec.p)
    rng = random.Random(11)
    for m in (1, 2, 5, 9):
        bound = spec.bounds(m)[0]
        pts = enumerate_lattice(spec, m)
        for _ in range(5):
            a = F(rng.randint(-500, 480), 500)
            b = a + F(rng.randint(1, 100), 500)
            iv = (rat_basis.rational(a), rat_basis.rational(b))
            w = IntervalSet.single(rat_basis, iv[0], iv[1])
            oracle = sum(1 for p in pts if w.contains(p))
            assert count_progression(step, bound, iv) == oracle


# ---------------------------------------------------------------------------
# shift closure
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_shift_closure_surd(surd_spec, m):
    cert = shift_closure_check(surd_spec, m)
    assert cert.ok
    assert cert.checked_sums == cert.checked_points * len(surd_spec.X)


def test_shift_closure_rational(rat_basis):
    spec = decompose([rat_basis.rational(F(1, 4)), rat_basis.rational(F(1, 2))])
    for m in (1, 2, 4):
        assert shift_closure_check(spec, m).ok


def test_decimal_generator_pipeline():
    # a declared-precision generator drives the same machinery as surds,
    # as long as the gaps stay decidable at the declared bits
    basis = GeneratorBasis.from_specs(["dec:0.414213562373@40"],
                                      assert_independent=True)
    g = basis.point(["0", "1"])
    x = [g * F(1, 4), g * F(1, 2)]
    spec = decompose(x)
    assert spec.nu == 1 and spec.p == 2 and spec.tau == 2
    pts = enumerate_lattice(spec, 2)
    assert len(pts) == expected_cardinality(spec, 2)
    window = IntervalSet.single(basis, basis.rational(0), basis.rational(F(1, 5)))
    oracle = sum(1 for p in pts if window.contains(p))
    assert lattice_count(spec, 2, window) == oracle
    assert shift_closure_check(spec, 2).ok


def test_shift_closure_corrupted(surd_basis, root2_over8, root3_over4):
    import dataclasses

    r2_4 = surd_basis.point(["0", "1/4", "0"])
    spec = decompose([root2_over8, r2_4, root3_over4])  # tau = 2
    bad = dataclasses.replace(spec, tau=spec.tau - 1)
    cert = shift_closure_check(bad, 1)
    assert not cert.ok
    assert cert.witness is not None
    assert cert.witness["violates"] == "integer bounds"
    # the witness pair really does escape the corrupted level bounds
    s = cert.witness["sum_tuple"]
    hi = bad.bounds(2)
    assert any(abs(c) > b for c, b in zip(s, hi))


# ---------------------------------------------------------------------------
# the closure's once-per-spec interval test against the per-sum exact loop
# ---------------------------------------------------------------------------

def _closure_oracle(spec, m):
    """shift_closure_check as a per-sum exact loop: a Point and two exact
    compares for every sum."""
    x_l = spec.x_l
    window = IntervalSet.single(spec.basis, -x_l, spec.basis.rational(0))
    _, hits = _classify(spec, m, window, DEFAULT_TUPLE_CAP, collect=True)
    nu = spec.nu
    hi_bounds = spec.bounds(m + 1)
    checked = 0
    for tup in hits:
        x = spec.point_of(tup)
        for k, row in enumerate(spec.coeffs):
            s = tuple(a + b for a, b in zip(tup, row))
            checked += 1
            ok_bounds = all(abs(s[i]) <= hi_bounds[i] for i in range(nu))
            val = spec.point_of(s)
            ok_interval = compare(val, -x_l) > 0 and compare(val, x_l) < 0
            if not (ok_bounds and ok_interval):
                return ClosureCertificate(
                    ok=False, m=m, checked_points=len(hits), checked_sums=checked,
                    witness={
                        "x_tuple": list(tup),
                        "x": x.to_json(),
                        "k": k,
                        "x_k": spec.X[k].to_json(),
                        "sum_tuple": list(s),
                        "bounds": hi_bounds,
                        "violates": "integer bounds" if not ok_bounds else "interval",
                    })
    return ClosureCertificate(ok=True, m=m, checked_points=len(hits), checked_sums=checked)


def _seeded_spec(rng, nu):
    """Support over nu independent surds scaled into (0, 1/2) (for
    nu = 1, one surd and a rational multiple of it), plus small positive
    integer combinations of them."""
    radicands = rng.sample([2, 3, 5, 6, 7, 10, 11, 13], nu)
    basis = GeneratorBasis.from_specs([f"sqrt:{a}" for a in radicands])
    gens = []
    for i in range(nu):
        coeffs = [F(0)] * (nu + 1)
        coeffs[i + 1] = F(1, rng.randint(8, 16))
        gens.append(basis.point(coeffs))
    if nu == 1:
        gens = [gens[0], gens[0] * F(rng.randint(2, 3), rng.randint(4, 7))]
    support = list(gens)
    for _ in range(2):
        combo = basis.zero()
        for g in gens:
            combo = combo + g * rng.randint(0, 2)
        if not combo.is_zero() and compare(combo, basis.rational(1)) < 0:
            support.append(combo * F(1, rng.randint(1, 2)))
    return decompose(support)


def _coarse_decimal_spec():
    # a 24-bit decimal generator within 3e-7 of 1/4: the kernel's guard
    # is wide, so tuples near -x_l or 0 go exact in _classify, yet stay
    # decidable
    basis = GeneratorBasis.from_specs(["dec:0.2500003@24"], assert_independent=True)
    g = basis.point(["0", "1"])
    return decompose([g * F(1, 4), basis.rational(F(1, 6)),
                      g * F(1, 2) + basis.rational(F(1, 8))])


def test_shift_closure_matches_exact_oracle(surd_basis, monkeypatch):
    calls = [0]
    point_of = LatticeSpec.point_of

    def counted(self, tup):
        calls[0] += 1
        return point_of(self, tup)

    monkeypatch.setattr(LatticeSpec, "point_of", counted)
    rng = random.Random(5)
    specs = [_seeded_spec(rng, nu) for nu in (1, 2, 3) for _ in range(3)]
    specs.append(_coarse_decimal_spec())
    # hand-built specs that fail: tau one too small (integer bounds), and
    # x_l below another support point (interval)
    r2_8, r2_4 = surd_basis.point(["0", "1/8", "0"]), surd_basis.point(["0", "1/4", "0"])
    r3_4 = surd_basis.point(["0", "0", "1/4"])
    specs.append(LatticeSpec(basis=surd_basis, X=(r2_8, r2_4, r3_4), Y=(r2_4, r3_4),
                             coeffs=((1, 0), (2, 0), (0, 2)), p=2, tau=1))
    specs.append(LatticeSpec(basis=surd_basis, X=(r3_4, r2_8), Y=(r3_4, r2_8),
                             coeffs=((1, 0), (0, 1)), p=1, tau=1))
    violations = set()
    for spec in specs:
        window = IntervalSet.single(spec.basis, -spec.x_l, spec.basis.rational(0))
        for m in (1, 2, 3, 4):
            want = _closure_oracle(spec, m).to_json()
            calls[0] = 0
            _classify(spec, m, window, DEFAULT_TUPLE_CAP, collect=True)
            in_classify = calls[0]
            calls[0] = 0
            got = shift_closure_check(spec, m).to_json()
            assert got == want, (spec.to_json(), m)
            if got["ok"]:
                # one Point per row value, the once-per-spec interval
                # test; no sum is built as a Point
                assert calls[0] - in_classify == len(spec.coeffs), (spec.to_json(), m)
            else:
                violations.add(got["witness"]["violates"])
                assert "x" in got["witness"]
    assert violations == {"integer bounds", "interval"}


def _within(f, enclosure, guard):
    lo, hi = enclosure
    return max(abs(F(f) - lo), abs(F(f) - hi)) <= F(guard)


def test_filter_guard_bounds_float_error():
    rng = random.Random(23)
    cases = []
    for nu in (1, 2, 3):
        for _ in range(3):
            spec = _seeded_spec(rng, nu)
            basis = spec.basis
            pts = enumerate_lattice(spec, 2)
            a, b = sorted(rng.sample(range(len(pts)), 2))
            # window edges on lattice points, rational edges, and edges
            # whose approx() comes from Point arithmetic
            y = spec.Y[0]
            y.approx()
            lo = y * F(-1, 3) + basis.rational(F(1, rng.randint(7, 40)))
            hi = spec.x_l * F(1, 2) + basis.rational(F(1, 9))
            assert lo._approx is not None and hi._approx is not None
            windows = [(pts[a], pts[b]), (basis.rational(F(-1, 3)), basis.rational(F(2, 5))),
                       (lo, hi)]
            for m in (1, 3, 6):
                for w in windows:
                    if compare(w[0], w[1]) < 0:
                        cases.append((spec, IntervalSet.single(basis, *w), spec.bounds(m)))
    # p > 2^53: the edges times p are not exact in doubles, nor is p
    big = 10**17 + 3
    surd = GeneratorBasis.from_specs(["sqrt:2", "sqrt:3"])
    r3_4 = surd.point(["0", "0", "1/4"])
    spec = decompose([surd.point(["0", "1/8", "0"]), r3_4 * F(big // 3, big), r3_4])
    assert spec.p > 2**53
    cases.append((spec, IntervalSet.single(surd, -spec.x_l, surd.rational(0)), [3, 5]))
    cases.append((spec, IntervalSet.single(surd, r3_4 * F(-1, 7), spec.x_l), [2, 9]))
    for spec, window, bounds in cases:
        y_hat, edges, guard = _filter_data(spec, window, bounds)
        for f, e in zip(edges, window.edge_points()):
            assert _within(f, (e * spec.p).enclosure(256), guard)
        corners = [tuple(rng.choice((-b, b)) for b in bounds) for _ in range(4)]
        randoms = [tuple(rng.randint(-b, b) for b in bounds) for _ in range(60)]
        for tup in corners + randoms:
            s = 0.0
            for n, y in zip(tup[:-1], y_hat):
                s += n * y
            s += tup[-1] * y_hat[-1]
            value = spec.basis.zero()
            for n, y in zip(tup, spec.Y):
                value = value + y * n
            assert _within(s, value.enclosure(256), guard)


# ---------------------------------------------------------------------------
# the enclosure rules that lattice and lambda_search read from exactreal
# ---------------------------------------------------------------------------

def _point_ball_formula(spec, tup):
    """Reference copy of the ball of sum_i tup[i] Y[i] / p, in the order
    of operations that exactreal.combination_ball must keep."""
    mid = 0.0
    rad = 0.0
    mag = 0.0
    for n, y in zip(tup, spec.Y):
        if n:
            ym, yr = y.approx()
            qf = n / spec.p
            term = ym * qf
            mid += term
            mag += abs(term)
            rad += (yr + abs(ym) * 1.2e-16) * abs(qf)
    return mid, (rad + mag * (len(tup) + 2) * 2.3e-16) * 1.01 + 1e-300


def _filter_data_formula(spec, window, bounds):
    """Reference copy of the kernel's float data, in the order of
    operations that exactreal.scaled_edges and tuple_guard must keep."""
    y_hat = []
    err_sum = 0.0
    mag_sum = 0.0
    for y, b in zip(spec.Y, bounds):
        f, err = y.approx()
        y_hat.append(f)
        err_sum += b * err
        mag_sum += b * abs(f)
    p = spec.p
    pf = float(p)
    p_err = float(abs(p - int(pf)))
    edges = []
    edge_err = 0.0
    for e in window.edge_points():
        m, r = e.approx()
        f = m * pf
        edges.append(f)
        edge_err = max(edge_err, r * pf + abs(m) * p_err + abs(f) * 2.3e-16)
    rounding = (spec.nu + 3) * 2.0**-53 * mag_sum
    guard = (err_sum + rounding + edge_err) * 2.0 + 1e-280
    edges.sort()
    return y_hat, edges, guard


def _block_stop_formula(am, d, n, k, last, thr):
    """Reference copy of lambda_search._block_stop on the midpoints
    am * (d / (j d + n)), the midpoints that exactreal.scaled_approx gives."""
    if thr == -math.inf:
        return last
    est = (am * d / thr - n) / d
    if not est < last - 1:
        j = last
    elif est < k:
        j = k + 1
    else:
        j = int(est) + 1
    while j > k + 1 and am * (d / ((j - 1) * d + n)) < thr:
        j -= 1
    while j < last and am * (d / (j * d + n)) >= thr:
        j += 1
    return j


def _enclosure_cases(rng, rat_basis):
    """Seeded specs: rational, surd (nu = 1, 2, 3) and p > 2^53, each also
    with its support scaled by 4^-n, n up to 499 (about 2^-1000)."""
    r2 = GeneratorBasis.from_specs(["sqrt:2", "sqrt:3"])
    r3_4 = r2.point(["0", "0", "1/4"])
    big = 10**17 + 3
    supports = [[rat_basis.rational(q) for q in (F(1, 4), F(1, 3), F(5, 12))],
                [r2.point(["0", "1/8", "0"]), r3_4 * F(big // 3, big), r3_4]]
    supports += [list(_seeded_spec(rng, nu).X) for nu in (1, 2, 3, 3)]
    specs = []
    for support in supports:
        for n in (0, 1, 9, 120, 350, 499):
            specs.append(decompose([x * F(1, 4**n) for x in support]))
    return specs


def test_enclosure_rules_keep_their_doubles(rat_basis):
    # point_of's ball, the kernel's (y_hat, edges, guard) and the lambda
    # block stop read their doubles from exactreal's rules; every double is
    # bit for bit the one of the reference formulas above
    rng = random.Random(1017)
    hexes = lambda values: [v.hex() for v in values]  # noqa: E731
    stops = 0
    for spec in _enclosure_cases(rng, rat_basis):
        basis = spec.basis
        for m in (1, 4):
            bounds = spec.bounds(m)
            tups = [tuple(rng.choice((-b, 0, b)) for b in bounds) for _ in range(4)]
            tups += [tuple(rng.randint(-b, b) for b in bounds) for _ in range(16)]
            pts = []
            for tup in tups:
                pt = spec.point_of(tup)
                assert hexes(pt.approx()) == hexes(_point_ball_formula(spec, tup)), tup
                pts.append(pt)
            # edges on lattice points, on rationals, and with the balls of
            # Point arithmetic; one window of two intervals
            a, b, c, e = sort_points(rng.sample(pts, 4))
            lo = spec.Y[0] * F(-1, 3) + spec.x_l * F(1, rng.randint(3, 9))
            ivs = [[(a, b)], [(-spec.x_l, basis.rational(0))], [(-spec.x_l, spec.x_l)],
                   [(lo, spec.x_l * F(2, 3))], [(a, b), (c, e)]]
            for iv in ivs:
                if any(compare(x, y) >= 0 for x, y in iv):
                    continue
                window = IntervalSet.canonicalize(basis, iv)
                y_hat, edges, guard = _filter_data(spec, window, bounds)
                want = _filter_data_formula(spec, window, bounds)
                assert (hexes(y_hat), hexes(edges), guard.hex()) == (
                    hexes(want[0]), hexes(want[1]), want[2].hex())
        for t in spec.X:
            apx = t.approx()
            for n, d in ((3, 10), (1, 6), (1, 4), (2, 7)):
                for _ in range(6):
                    k = rng.choice((0, 1, 5, 40, 1000))
                    last = k + rng.randint(1, 64)
                    j = rng.randint(k, last)
                    mid = apx[0] * (d / (j * d + n))
                    for thr in (mid, math.nextafter(mid, math.inf),
                                math.nextafter(mid, -math.inf), mid * rng.uniform(0.5, 2.0),
                                apx[0] * 2.0, apx[0] * 1e-30, -math.inf):
                        if not thr:  # the sweep turns a threshold of 0 into -inf
                            continue
                        for ball in (apx, (-apx[0], apx[1])):
                            got = _block_stop(ball, d, n, k, last, thr)
                            assert got == _block_stop_formula(ball[0], d, n, k, last, thr)
                            stops += k + 1 < got < last
    assert stops > 100  # the stop falls inside the block, not only at its ends


def test_filter_data_scales_each_window_once_per_p(rat_basis):
    # one window read at several levels, then by a spec of another p: its
    # edges are scaled once per run of reads with one p, and every read
    # gives the reference doubles
    rng = random.Random(1018)
    hexes = lambda values: [v.hex() for v in values]  # noqa: E731
    rescaled = 0
    for spec in _enclosure_cases(rng, rat_basis):
        # a support over the same basis, with p the same or three times it
        other = decompose(list(spec.X[1:]) + [spec.X[0] * F(2, 3)])
        x_l = spec.x_l
        window = IntervalSet.canonicalize(spec.basis, [(-x_l, x_l * F(-1, 3)), (x_l * F(1, 5), x_l)])
        kept = []
        for reader in (spec, other, spec):
            for m in (1, 2, 5):
                bounds = reader.bounds(m)
                got = _filter_data(reader, window, bounds)
                want = _filter_data_formula(reader, window, bounds)
                assert (hexes(got[0]), hexes(got[1]), got[2].hex()) == (
                    hexes(want[0]), hexes(want[1]), want[2].hex())
                if not kept or kept[-1] is not got[1]:
                    kept.append(got[1])
        assert len(kept) == (3 if other.p != spec.p else 1)
        rescaled += len(kept) == 3
    assert rescaled >= 12


def test_bad_input_raises_config_error(surd_spec, surd_basis, rat_basis):
    import dataclasses

    raises_config_error(decompose, [])
    raises_config_error(decompose, [rat_basis.rational(F(3, 2))])
    window = (surd_basis.rational(0), surd_basis.rational(F(1, 5)))
    raises_config_error(interval_count_ratio, surd_spec, 0, window)
    raises_config_error(lattice_count, surd_spec, -1, IntervalSet.single(surd_basis, *window))
    raises_config_error(interval_count_ratio, surd_spec, 5,
                        (surd_basis.rational(-2), surd_basis.rational(0)))
    raises_config_error(interval_count_ratio, surd_spec, 5,
                        (surd_basis.rational(0), surd_basis.rational(F(1, 2))))
    spec1 = decompose([rat_basis.rational(F(1, 4)), rat_basis.rational(F(1, 2))])
    raises_config_error(interval_count_ratio, spec1, 5,
                        (rat_basis.rational(0), rat_basis.rational(F(1, 8))))
    # checks on values that the program computed stay plain ValueErrors
    raises_plain_value_error(dataclasses.replace(surd_spec, tau=surd_spec.tau + 1).validate)
    raises_plain_value_error(kernel.classify_tuples, [0.5, 0.0], [2, 2], [0.0, 1.0],
                             1e-12, False)
