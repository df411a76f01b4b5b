import random

from hdg.brute import solve_brute
from hdg.colors_ntcoal import TRIVIAL, Guess, solve_colors_ntcoal
from hdg.core import TierList, make_instance
from hdg.randgen import GenCaps, random_instance
from hdg.stability import IS, NS, check_outcome

from fixtures import A, B, C, D, example1
from references import is_valid_for


def example1_guess():
    # One size-3 coalition with one color-0 and two color-1 agents, plus a
    # single color-0 singleton.
    return Guess(compositions=((1, 2),), trivial_counts=(1, 0))


def test_is_valid_for_b_rejects_trivial_seat():
    inst = example1()
    assert not is_valid_for(B, TRIVIAL, example1_guess(), inst, NS)


def test_is_valid_for_a_accepts_trivial_seat():
    inst = example1()
    assert is_valid_for(A, TRIVIAL, example1_guess(), inst, NS)


def test_is_valid_for_indifferent_agent_everywhere():
    # Bottom-tier indifference: valid anywhere its color fits.
    inst = make_instance([0, 0, 1], {0: TierList([])}, types=[0, 0, 0], gamma=2)
    guess = Guess(compositions=((1, 1),), trivial_counts=(1, 0))
    assert is_valid_for(0, 0, guess, inst, NS)
    assert is_valid_for(0, TRIVIAL, guess, inst, NS)
    assert not is_valid_for(2, TRIVIAL, guess, inst, NS)  # no color-1 trivial slot fits? color mismatch is fine
    # color-1 agent on the coalition slot:
    assert is_valid_for(2, 0, guess, inst, NS)


def test_ns_validity_ignores_is_fields():
    inst = example1()
    bare = example1_guess()
    decorated = Guess(
        compositions=bare.compositions,
        trivial_counts=bare.trivial_counts,
        accepted=((False, False),),
        blocked=frozenset({(0, 1), (1, 0)}),
    )
    for agent in (A, B, C, D):
        for target in (0, TRIVIAL):
            assert is_valid_for(agent, target, bare, inst, NS) == is_valid_for(
                agent, target, decorated, inst, NS
            )


def test_example1_rho2_one():
    inst = example1(rho2=1)
    out = solve_colors_ntcoal(inst, NS)
    assert out is not None
    assert check_outcome(inst, out, NS).stable
    # The only Nash-stable split is {b,c,d} | {a} up to agent interchange.
    assert sorted(len(b) for b in out.coalitions) == [1, 3]


def test_rho2_zero_forces_singletons():
    happy_alone = TierList([[(1, 0)]])
    inst = make_instance([0, 0], {0: happy_alone}, types=[0, 0], gamma=2, rho2=0)
    out = solve_colors_ntcoal(inst, NS)
    assert out is not None and all(len(b) == 1 for b in out.coalitions)

    grand_lover = TierList([[(1, 1)]])
    inst2 = make_instance([0, 1], {0: grand_lover}, types=[0, 0], gamma=2, rho2=0)
    assert solve_colors_ntcoal(inst2, NS) is None


def test_rho1_examples():
    inst = example1(rho1=2)
    out = solve_colors_ntcoal(inst, NS)
    assert out is not None and check_outcome(inst, out, NS).stable

    # rho1=1 forces the grand coalition, which agent a deserts.
    assert solve_colors_ntcoal(example1(rho1=1), NS) is None
    grand_lover = TierList([[(1, 1)]])
    cozy = make_instance([0, 1], {0: grand_lover}, types=[0, 0], gamma=2, rho1=1)
    out = solve_colors_ntcoal(cozy, NS)
    assert out is not None and len(out.coalitions) == 1


def test_oracle_equivalence_random():
    rng = random.Random(777)
    for trial in range(120):
        inst = random_instance(rng, GenCaps(n=7, rho2=2))
        for notion in (NS, IS):
            want = solve_brute(inst, notion) is not None
            got = solve_colors_ntcoal(inst, notion)
            assert (got is not None) == want, f"trial {trial} {notion}"
            if got is not None:
                assert check_outcome(inst, got, notion).stable
