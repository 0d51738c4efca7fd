import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from unimix.core import (
    Alphabet,
    EMPTY_HISTORY,
    FixedHorizon,
    GeometricDiscount,
    History,
    MovingHorizon,
    Percept,
    ProportionalHorizon,
    append_cycle,
    contexts,
    decode_history,
    discounted_reward,
    encode_history,
    horizon_end,
    rational,
    rational_digits,
)


def test_percept_rejects_negative_reward():
    with pytest.raises(ValueError):
        Percept(Fraction(-1, 2), 0)


def test_alphabet_symbol_round_trip():
    a = Alphabet(num_actions=2, num_observations=3, rewards=(Fraction(0), Fraction(1, 2), Fraction(1)))
    for x in a.percepts():
        assert a.percept_of(a.symbol_of(x)) == x
    assert a.num_percepts == 9
    assert a.r_max == 1


def test_alphabet_percept_is_its_own_object():
    a = Alphabet(num_actions=2, num_observations=3, rewards=(Fraction(0), Fraction(1, 2), Fraction(1)))
    for x in a.percepts():
        assert a.percept(x.reward, x.observation) is x
    assert a.percept(1, 2) is a.percepts()[-1]  # an int reward finds its Fraction


@given(
    st.lists(
        st.fractions(min_value=0, max_denominator=10**30), min_size=1, max_size=5, unique=True
    ),
    st.integers(1, 4),
)
def test_an_alphabets_percepts_equal_and_hash_as_percepts_made_one_by_one(rewards, n):
    # The alphabet hashes each reward once for all its observations.
    a = Alphabet(num_actions=1, num_observations=n, rewards=tuple(sorted(rewards)))
    made = [Percept(r, o) for r in sorted(rewards) for o in range(n)]
    assert list(a.percepts()) == made
    assert [hash(x) for x in a.percepts()] == [hash(x) for x in made]


def test_alphabet_percept_rejects_what_lies_outside_the_alphabet():
    a = Alphabet(num_actions=2, num_observations=3, rewards=(Fraction(0), Fraction(1, 2), Fraction(1)))
    with pytest.raises(ValueError):
        a.percept(Fraction(1, 3), 0)  # a foreign reward
    for o in (-1, 3):
        with pytest.raises(ValueError):
            a.percept(Fraction(1, 2), o)
    with pytest.raises(ValueError):
        a.reward_index(Percept(Fraction(1, 3), 0))
    with pytest.raises(ValueError, match="not in the alphabet"):
        a.scaled_reward(Percept(Fraction(1, 3), 0))


def test_alphabet_rejects_unsorted_rewards():
    with pytest.raises(ValueError):
        Alphabet(rewards=(Fraction(1), Fraction(0)))


class TestHistory:
    def test_append_from_empty(self):
        h = append_cycle(EMPTY_HISTORY, 0, Percept(Fraction(1), 0))
        assert len(h) == 1
        assert h.actions() == (0,)

    def test_append_grows_by_one(self):
        h = EMPTY_HISTORY
        for k in range(3):
            h = append_cycle(h, k % 2, Percept(Fraction(0), 0))
        h2 = append_cycle(h, 1, Percept(Fraction(1), 0))
        assert len(h2) == 4


class TestContexts:
    A = Alphabet(num_actions=2, num_observations=1, rewards=(Fraction(0), Fraction(1)))

    def keys(self, depth, follow=None):
        return [encode_history(h, y) for h, y in contexts(self.A, depth, follow)]

    def test_a_context_comes_before_its_subtree_and_its_subtree_before_the_next_action(self):
        assert self.keys(2) == [
            "y:0",
            "y:0 r:0/1 o:0 y:0",
            "y:0 r:0/1 o:0 y:1",
            "y:0 r:1/1 o:0 y:0",
            "y:0 r:1/1 o:0 y:1",
            "y:1",
            "y:1 r:0/1 o:0 y:0",
            "y:1 r:0/1 o:0 y:1",
            "y:1 r:1/1 o:0 y:0",
            "y:1 r:1/1 o:0 y:1",
        ]

    @pytest.mark.parametrize("depth", range(5))
    def test_every_context_of_fewer_than_depth_cycles_comes_once(self, depth):
        got = list(contexts(self.A, depth))
        assert len(set(got)) == len(got) == sum(2 * 4**k for k in range(depth))
        assert all(len(h) < depth for h, _ in got)

    def test_follow_picks_the_percepts_to_descend_into(self):
        hit = self.A.percepts()[1]
        asked = []

        def follow(h, y):
            asked.append(encode_history(h, y))
            return [hit] if y == 0 else []

        assert self.keys(3, follow) == [
            "y:0",
            "y:0 r:1/1 o:0 y:0",
            "y:0 r:1/1 o:0 y:0 r:1/1 o:0 y:0",
            "y:0 r:1/1 o:0 y:0 r:1/1 o:0 y:1",
            "y:0 r:1/1 o:0 y:1",
            "y:1",
        ]
        # asked only where a child is still within the depth
        assert asked == ["y:0", "y:0 r:1/1 o:0 y:0", "y:0 r:1/1 o:0 y:1", "y:1"]


def test_horizon_end_fixed_is_the_lifetime_case():
    assert horizon_end(FixedHorizon(10), 3, 10) == 10


def test_horizon_end_moving():
    assert horizon_end(MovingHorizon(2), 3, 10) == 4


def test_horizon_end_proportional():
    assert horizon_end(ProportionalHorizon(Fraction(1)), 4, 10) == 7


def test_horizon_end_rejects_out_of_range_cycle():
    with pytest.raises(ValueError):
        horizon_end(FixedHorizon(5), 7, 6)


def test_horizon_end_rejects_what_is_not_a_horizon_policy():
    with pytest.raises(TypeError, match="unknown horizon policy"):
        horizon_end(5, 1, 6)


@pytest.mark.parametrize("policy", [MovingHorizon(3), ProportionalHorizon(Fraction(1, 2))])
def test_horizon_end_monotone_in_k(policy):
    ends = [horizon_end(policy, k, 50) for k in range(1, 40)]
    assert all(a <= b for a, b in zip(ends, ends[1:]))


def test_discounted_reward_geometric():
    g = GeometricDiscount(Fraction(1, 2), 10)
    assert discounted_reward(g, 2, Fraction(1)) == Fraction(1, 4)
    assert discounted_reward(g, 0, Fraction(1)) == 1


def test_discounted_reward_identity_for_fixed():
    assert discounted_reward(FixedHorizon(5), 3, Fraction(3, 4)) == Fraction(3, 4)


_percepts = st.builds(
    Percept,
    reward=st.fractions(min_value=0, max_value=1),
    observation=st.integers(min_value=0, max_value=5),
)
_histories = st.builds(
    History,
    cycles=st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), _percepts), max_size=6
    ).map(tuple),
)


@given(_histories, st.one_of(st.none(), st.integers(min_value=0, max_value=3)))
def test_history_serialization_round_trips_bit_exactly(h, y):
    assert decode_history(encode_history(h, y)) == (h, y)


def test_decode_history_rejects_malformed_text():
    with pytest.raises(ValueError):
        decode_history("r:1/2 o:0")


@pytest.mark.parametrize("text", ["y:0 r:1/1", "y:1 r:0/1 o:0 y:0 r:1/1"])
def test_decode_history_rejects_a_truncated_cycle(text):
    with pytest.raises(ValueError, match="truncated cycle"):
        decode_history(text)


@contextmanager
def int_digit_limit(n):
    """Python's limit on the digits of an int as text set to n for a block."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(n)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize(
    "text",
    ["1e4294", "1E-4293", "1.5e+4291", "1" * 4300, "7/" + "3" * 4298, "-0.25"],
)
def test_a_rational_within_the_digit_cap_reads_and_writes_back(text):
    with int_digit_limit(4300):
        value = rational(text)
        assert value == Fraction(text)
        assert Fraction(str(value)) == value  # numerator and denominator print


@pytest.mark.parametrize(
    "text", ["1e4295", "1E-4294", "1.5e+4292", "1" * 4301, "1e10000000"]
)
def test_a_rational_past_the_digit_cap_is_refused_before_it_is_parsed(text):
    with int_digit_limit(4300), pytest.raises(ValueError, match="more than 4300 digits"):
        rational(text)


@pytest.mark.parametrize(
    "limit, within, past, cap",
    [(640, "1e635", "1e636", 640), (5000, "1e4994", "1e4995", 5000), (0, "1e4294", "1e4295", 4300)],
)
def test_the_digit_cap_is_python_s_int_digit_limit_or_4300_without_one(limit, within, past, cap):
    with int_digit_limit(limit):
        assert rational_digits() == cap
        value = rational(within)
        assert Fraction(str(value)) == value
        with pytest.raises(ValueError, match=f"more than {cap} digits"):
            rational(past)


@pytest.mark.parametrize("text", ["x", "1e", "1e5x", "1/0e2", ""])
def test_a_malformed_rational_is_refused_as_fraction_refuses_it(text):
    with pytest.raises(ValueError, match="Invalid literal for Fraction"):
        rational(text)
