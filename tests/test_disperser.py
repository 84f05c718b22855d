from fractions import Fraction
from itertools import combinations

import pytest

from knapreduce.disperser import Disperser, build_disperser, covering_holds
from knapreduce.errors import CapExceededError, ConstructionError


def test_partition_covers_fully():
    sets = (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5}))
    assert covering_holds(6, sets, 3, Fraction(0))


def test_single_full_set():
    family = build_disperser(5, 1, 5, 1, Fraction(1, 2), seed=1)
    assert family.sets[0] == frozenset(range(5))


def test_seeded_family_verifies_and_is_deterministic():
    a = build_disperser(12, 6, 6, 3, Fraction(1, 4), seed=99)
    b = build_disperser(12, 6, 6, 3, Fraction(1, 4), seed=99)
    assert a.sets == b.sets
    assert all(len(s) == 6 for s in a.sets)
    # independent re-check of the covering property over all 20 triples
    for chosen in combinations(a.sets, 3):
        union = frozenset().union(*chosen)
        assert len(union) >= (1 - Fraction(1, 4)) * 12


def test_infeasible_parameters_fail_loudly():
    # one singleton can never cover a 10-element universe exactly
    with pytest.raises(ConstructionError):
        build_disperser(10, 4, 1, 1, Fraction(0), seed=5)


def test_verification_cap():
    # C(25, 12) = 5,200,300 unions exceed VERIFY_CAP; refused before any draw
    with pytest.raises(CapExceededError, match="5200300 unions"):
        build_disperser(30, 25, 5, 12, Fraction(1, 2), seed=0)


def test_parameter_validation():
    with pytest.raises(ValueError):
        build_disperser(4, 2, 5, 1, Fraction(0), seed=0)
    with pytest.raises(ValueError):
        build_disperser(4, 2, 2, 3, Fraction(0), seed=0)
    with pytest.raises(ValueError):
        build_disperser(4, 2, 2, 1, Fraction(3, 2), seed=0)


def test_zero_cover_count_is_refused_unless_nothing_must_be_covered():
    # the one union of no sets is empty, so a nonempty threshold fails every draw
    with pytest.raises(ValueError, match=r"^cover count r = 0 covers no element, but epsilon "
                                         r"1/4 needs \(1 - epsilon\) \* 5 = 15/4 covered$"):
        build_disperser(5, 6, 5, 0, Fraction(1, 4), seed=1)
    assert build_disperser(5, 6, 5, 0, 1, seed=1).sets == (frozenset(range(5)),) * 6
    assert build_disperser(0, 3, 0, 0, 0, seed=1).sets == (frozenset(),) * 3


def test_dataclass_fields():
    family = build_disperser(6, 3, 4, 2, Fraction(1, 3), seed=2)
    assert isinstance(family, Disperser)
    assert family.universe_size == 6
    assert family.cover_count == 2


def test_float_epsilon_is_refused():
    sets = (frozenset({0, 1}), frozenset({2, 3}))
    message = r"^epsilon 0\.25 is a float; pass an int, a Fraction or 'p/q'$"
    with pytest.raises(ValueError, match=message):
        covering_holds(4, sets, 2, 0.25)
    with pytest.raises(ValueError, match=message):
        build_disperser(12, 6, 6, 3, 0.25, seed=99)


def test_int_fraction_and_text_epsilons_agree():
    sets = (frozenset({0, 1}), frozenset({2, 3}))
    assert covering_holds(4, sets, 2, 0) and covering_holds(4, sets, 1, "1/2")
    assert not covering_holds(4, sets, 1, Fraction(1, 3))
    family = build_disperser(12, 6, 6, 3, Fraction(1, 4), seed=99)
    assert build_disperser(12, 6, 6, 3, "1/4", seed=99) == family
    assert family.epsilon == Fraction(1, 4)
    assert build_disperser(5, 1, 5, 1, 0, seed=1).epsilon == 0
