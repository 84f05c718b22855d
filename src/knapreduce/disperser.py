"""Randomized-with-verification covering set families.

A family of k subsets of size at most l over an m-element universe is
accepted when every union of r distinct member sets covers at least a
(1 - epsilon) fraction of the universe.  Construction draws the sets at
random and verifies the covering property exhaustively, retrying with
fresh randomness up to a cap; failure is surfaced, never hidden.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb

from .errors import CapExceededError, ConstructionError

# Fresh families drawn before build_disperser gives up.
RETRY_CAP = 64
# Most unions of cover_count sets that one exhaustive verification checks.
VERIFY_CAP = 200_000


@dataclass(frozen=True)
class Disperser:
    universe_size: int
    sets: tuple[frozenset[int], ...]
    set_size: int
    cover_count: int
    epsilon: Fraction


def exact_epsilon(epsilon) -> Fraction:
    """epsilon as a Fraction; a float's binary value would move the threshold."""
    if isinstance(epsilon, float):
        raise ValueError(f"epsilon {epsilon!r} is a float; pass an int, a Fraction or 'p/q'")
    return Fraction(epsilon)


def covering_holds(
    universe_size: int, sets, cover_count: int, epsilon: Fraction
) -> bool:
    """Exhaustive check that every union of cover_count sets is large enough."""
    threshold = (1 - exact_epsilon(epsilon)) * universe_size
    for chosen in combinations(sets, cover_count):
        union = frozenset().union(*chosen) if chosen else frozenset()
        if len(union) < threshold:
            return False
    return True


def checked_cover_parameters(set_count: int, cover_count: int, epsilon) -> Fraction:
    """epsilon as a Fraction, once it lies in [0, 1] and 0 <= cover_count <= set_count."""
    eps = exact_epsilon(epsilon)
    if not 0 <= eps <= 1:
        raise ValueError(f"epsilon {eps} outside [0, 1]")
    if not 0 <= cover_count <= set_count:
        raise ValueError("cover count must be between 0 and the number of sets")
    return eps


def build_disperser(
    universe_size: int,
    set_count: int,
    set_size: int,
    cover_count: int,
    epsilon,
    seed: int,
) -> Disperser:
    """Draw and exhaustively verify a covering family, deterministically per seed."""
    eps = checked_cover_parameters(set_count, cover_count, epsilon)
    if set_size > universe_size:
        raise ValueError(f"set size {set_size} exceeds universe size {universe_size}")
    # the one union of no sets is empty, so no draw can pass
    threshold = (1 - eps) * universe_size
    if cover_count == 0 and threshold > 0:
        raise ValueError(
            f"cover count r = 0 covers no element, but epsilon {eps} needs "
            f"(1 - epsilon) * {universe_size} = {threshold} covered"
        )
    if comb(set_count, cover_count) > VERIFY_CAP:
        raise CapExceededError(
            f"{comb(set_count, cover_count)} unions exceed verification cap {VERIFY_CAP}"
        )
    rng = random.Random(seed)
    universe = range(universe_size)
    for _ in range(RETRY_CAP):
        sets = tuple(frozenset(rng.sample(universe, set_size)) for _ in range(set_count))
        if covering_holds(universe_size, sets, cover_count, eps):
            return Disperser(universe_size, sets, set_size, cover_count, eps)
    raise ConstructionError(
        f"no covering family found in {RETRY_CAP} attempts; parameters are likely "
        f"infeasible at this scale"
    )
