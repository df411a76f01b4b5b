import random
import sys

import pytest

from hdg.errors import InvalidInput
from hdg.ilp import ILPSystem, feasible

from oracles import box_exhaustive_feasible
from references import evaluate


def system(num_vars, eqs=(), les=()):
    return ILPSystem(
        num_vars=num_vars,
        equalities=tuple((tuple(c), r) for c, r in eqs),
        inequalities_le=tuple((tuple(c), r) for c, r in les),
    )


def test_zero_system_is_feasible_with_empty_assignment():
    assert feasible(system(0)) == {}
    assert feasible(system(0, eqs=[((), 0)])) == {}
    assert feasible(system(0, eqs=[((), 3)])) is None


def test_small_equality_with_budget():
    s = system(2, eqs=[((2, 3), 7)], les=[((1, 1), 3)])
    got = feasible(s)
    assert got == {0: 2, 1: 1}
    assert evaluate(s, got)


def test_parity_infeasible():
    assert feasible(system(1, eqs=[((2,), 5)])) is None


def test_negative_rhs_is_infeasible():
    assert feasible(system(1, eqs=[((1,), -2)])) is None


def test_negative_coefficient_rejected():
    with pytest.raises(InvalidInput):
        system(1, eqs=[((-1,), 2)])


def random_system(rng):
    num_vars = rng.randint(1, 4)
    eqs = [
        (
            tuple(rng.randint(0, 4) for _ in range(num_vars)),
            rng.randint(0, 15),
        )
        for _ in range(rng.randint(1, 3))
    ]
    les = [
        (
            tuple(rng.randint(0, 3) for _ in range(num_vars)),
            rng.randint(0, 12),
        )
        for _ in range(rng.randint(0, 2))
    ]
    return system(num_vars, eqs, les)


def test_agreement_with_box_exhaustion():
    rng = random.Random(97)
    for _ in range(300):
        s = random_system(rng)
        got = feasible(s)
        brute = box_exhaustive_feasible(s)
        assert (got is None) == (brute is None)
        if got is not None:
            assert evaluate(s, got)
            assert got == dict(enumerate(brute))  # the lexicographically smallest


def extend_calls(s):
    """`feasible(s)` and how many times it entered its inner `extend`."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code.co_name == "extend"

    sys.setprofile(profile)
    try:
        return feasible(s), calls
    finally:
        sys.setprofile(None)


def test_the_last_variable_of_an_equality_row_is_fixed_by_it():
    # x1 is fixed by the first row and x2 by the second, which no x2 can
    # meet (odd right-hand side).  Trying every x1 and x2 below the bound
    # takes a number of calls quadratic in the right-hand side.
    for rhs in (10, 20):
        got, calls = extend_calls(system(3, eqs=[((1, 1, 0), rhs), ((1, 1, 2), rhs + 1)]))
        assert got is None and calls <= 2 * rhs + 3, (rhs, calls)
    got, calls = extend_calls(system(3, eqs=[((1, 1, 1), 20)], les=[((0, 0, 1), 0)]))
    assert got == {0: 0, 1: 20, 2: 0} and calls <= 24
