"""Oracle and soundness tests for the lattice classification kernel."""

import itertools
import math
import random
from bisect import bisect_left
from fractions import Fraction as F

import pytest

from sweepout import kernel


def _enumerate(y_hat, bounds, edges, guard, collect):
    """Exhaustive oracle for kernel.classify_tuples: walk every tuple in
    itertools.product order and classify it with the same float
    expression and guard test."""
    nu = len(y_hat)
    ne = len(edges)
    inside = [] if collect else None
    uncertain = []
    if ne == 0:
        return 0, inside, uncertain
    count = 0
    y_last = y_hat[nu - 1]
    b_last = bounds[nu - 1]
    outer = [range(-b, b + 1) for b in bounds[: nu - 1]]
    for prefix in itertools.product(*outer):
        s0 = 0.0
        for v, y in zip(prefix, y_hat):
            s0 += v * y
        for n in range(-b_last, b_last + 1):
            s = s0 + n * y_last
            j = bisect_left(edges, s)
            left = s - edges[j - 1] if j > 0 else math.inf
            right = edges[j] - s if j < ne else math.inf
            if left <= guard or right <= guard:
                uncertain.append(prefix + (n,))
            elif j & 1:
                if collect:
                    inside.append(prefix + (n,))
                else:
                    count += 1
    if collect:
        count = len(inside)
    return count, inside, uncertain


def _random_instance(rng):
    """Edges on lattice values (plus a few dyadic strays) over steps that
    are dyadic, so sums are exact, or thirds, so sums round; or random
    float steps and edges."""
    nu = rng.randint(1, 3)
    bounds = [rng.randint(0, 10 if nu < 3 else 5) for _ in range(nu)]
    kind = rng.randrange(3)
    if kind < 2:
        y_hat = [rng.randint(1, 64) / (64 if kind == 0 else 3) for _ in range(nu)]
        edges = []
        for _ in range(2 * rng.randint(0, 3)):
            tup = [rng.randint(-b, b) for b in bounds]
            edges.append(sum(n * y for n, y in zip(tup, y_hat)))
        if rng.random() < 0.3:
            edges += [rng.randint(-256, 256) / 64 for _ in range(2)]
        edges.sort()
    else:
        y_hat = [rng.uniform(0.002, 1.5) for _ in range(nu)]
        edges = sorted(rng.uniform(-8, 8) for _ in range(2 * rng.randint(0, 4)))
    guard = rng.choice([0.0, 1e-280, 10.0 ** rng.uniform(-17, -1),
                        10.0 ** rng.uniform(-3, -1)])
    return y_hat, bounds, edges, guard


def test_matches_enumeration_oracle():
    # same count, same inside and uncertain tuples in the same order
    rng = random.Random(20261017)
    for _ in range(2400):
        y_hat, bounds, edges, guard = _random_instance(rng)
        for collect in (False, True):
            got = kernel.classify_tuples(y_hat, bounds, edges, guard, collect)
            assert got == _enumerate(y_hat, bounds, edges, guard, collect), (
                y_hat, bounds, edges, guard, collect)


def test_rejects_nonpositive_step_and_negative_guard():
    with pytest.raises(ValueError):
        kernel.classify_tuples([0.5, 0.0], [2, 2], [0.0, 1.0], 1e-12, False)
    with pytest.raises(ValueError):
        kernel.classify_tuples([0.5], [2], [0.0, 1.0], -1e-12, False)


def test_classification_against_exact_oracle():
    # drive the float kernel with exactly representable data and compare
    # against direct Fraction arithmetic
    rng = random.Random(7)
    fn = kernel.classify_tuples
    for _ in range(60):
        nu = rng.randint(1, 3)
        y_exact = [F(rng.randint(1, 64), 64) for _ in range(nu)]
        y_hat = [float(y) for y in y_exact]  # dyadic: exact doubles
        bounds = [rng.randint(0, 8) for _ in range(nu)]
        edges_exact = sorted(F(rng.randint(-256, 256), 64) for _ in range(4))
        edges = [float(e) for e in edges_exact]
        guard = 1e-12
        count, inside, uncertain = fn(y_hat, bounds, edges, guard, True)
        expect_in = []
        near = []
        for tup in itertools.product(*[range(-b, b + 1) for b in bounds]):
            s = sum(n * y for n, y in zip(tup, y_exact))
            if any(s == e for e in edges_exact):
                near.append(tup)
                continue
            odd = sum(1 for e in edges_exact if e < s) % 2 == 1
            if odd:
                expect_in.append(tup)
        # every exact hit is either reported inside or uncertain
        inside_set = set(inside)
        uncertain_set = set(uncertain)
        for tup in expect_in:
            assert tup in inside_set or tup in uncertain_set
        for tup in near:
            assert tup in uncertain_set
        # nothing reported inside that the oracle rejects
        for tup in inside_set:
            assert tup in expect_in


def test_empty_edges():
    count, inside, uncertain = kernel.classify_tuples([0.5], [3], [], 1e-12, True)
    assert count == 0 and inside == [] and uncertain == []


def test_guard_pushes_boundary_to_uncertain():
    # value exactly on an edge must never be classified
    count, inside, uncertain = kernel.classify_tuples(
        [0.5], [2], [-0.5, 0.5], 1e-12, True)
    assert (1,) in uncertain and (-1,) in uncertain
    assert (0,) in inside and count == 1
