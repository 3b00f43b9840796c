from fractions import Fraction as F

import pytest

from sweepout import exactreal
from sweepout.errors import ConfigError
from sweepout.exactreal import GeneratorBasis
from sweepout.measures import DiscreteMeasure, MeasureSequence


# the tests that assert that the doubles decide: they fail with a filter
# off, so no filter-off run may include them
FILTER_ASSERTING_TESTS = (
    "tests/test_exactreal.py::test_certified_clusters_cut_rule",
    "tests/test_exactreal.py::test_cut_limit_passes_clusters_below_every_pair",
    "tests/test_exactreal.py::test_torus_locate_bounds",
    "tests/test_exactreal.py::test_locate_margin",
    "tests/test_lambda_search.py::test_find_lambda_builds_few_points",
)


@pytest.fixture
def filter_off(monkeypatch):
    """Call it to turn a float filter of exactreal off for the rest of the
    test: filter_off() the margin test, filter_off("guard") the lattice
    kernel's guard.

    The margin gap of apart becomes 1e6: no two balls that the package
    meets are then apart, every decision of exactreal goes exact, and
    certified_clusters puts all the values it orders into one cluster.
    The gap stays finite: an infinite one would make cut_limit([]) inf - inf,
    nan, so that the lambda sweep's last block would pass no end.

    The guard's absolute term becomes 1e6: every tuple of a small level
    lies within the guard of an edge, so the kernel returns every tuple as
    uncertain and the lattice decides each one exactly. Large levels would
    not finish."""
    def off(which="margin"):
        name = {"margin": "_MARGIN_GAP", "guard": "_GUARD_GAP"}[which]
        monkeypatch.setattr(exactreal, name, 1e6)
        if which == "margin":
            assert not exactreal.apart(1.0, 0.0)

    return off


@pytest.fixture(scope="session")
def surd_basis():
    return GeneratorBasis.from_specs(["sqrt:2", "sqrt:3"])


@pytest.fixture(scope="session")
def rat_basis():
    return GeneratorBasis.rationals()


@pytest.fixture(scope="session")
def root2_over8(surd_basis):
    return surd_basis.point(["0", "1/8", "0"])


@pytest.fixture(scope="session")
def root3_over4(surd_basis):
    return surd_basis.point(["0", "0", "1/4"])


@pytest.fixture(scope="session")
def mu_pair(surd_basis, root2_over8, root3_over4):
    """The two-atom measure (sqrt2/8 and sqrt3/4, masses 1/2 each)."""
    return DiscreteMeasure([root2_over8, root3_over4], [F(1, 2), F(1, 2)])


def geometric_sequence(basis, count):
    """mu_n = (d[sqrt2/4^n] + d[sqrt3/4^n]) / 2 for n = 1..count."""
    measures = []
    for n in range(1, count + 1):
        s = F(1, 4**n)
        measures.append(DiscreteMeasure(
            [basis.point(["0", s, "0"]), basis.point(["0", "0", s])],
            [F(1, 2), F(1, 2)]))
    return MeasureSequence(measures)


@pytest.fixture(scope="session")
def geom_seq(surd_basis):
    return geometric_sequence(surd_basis, 40)


def raises_config_error(call, *args, **kwargs):
    """call rejects its input with a ConfigError, which still meets
    pytest.raises(ValueError): callers that catch ValueError see it."""
    with pytest.raises(ValueError) as info:
        call(*args, **kwargs)
    assert isinstance(info.value, ConfigError), repr(info.value)


def raises_plain_value_error(call, *args, **kwargs):
    """call rejects a value the program computed: a ValueError that is not
    a ConfigError, so the CLI reports it as an internal error."""
    with pytest.raises(ValueError) as info:
        call(*args, **kwargs)
    assert not isinstance(info.value, ConfigError), repr(info.value)
