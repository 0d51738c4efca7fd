import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from unimix.core import EMPTY_HISTORY, FixedHorizon, Percept, append_cycle
from unimix.domains import (
    FunctionClassSpec,
    GameSpec,
    ProductEpisodeModel,
    QUESTION,
    RelationSpec,
    fm_expected_z,
    game_value,
    lazy_reward,
    make_ex_env,
    make_fm_env,
    make_heavenhell,
    make_lazy,
    make_onlyone,
    make_relation_mixture,
    make_sg_env,
    make_sp_env,
    minimax_move,
    sp_argmax,
    uniform_function_class,
)
from unimix.models import check_chronological, joint_prob
from unimix.planner import ValueQuery, best_action, value_opt

F = Fraction
R0, R1 = F(0), F(1)


# --- sequence prediction ----------------------------------------------------


def biased_sp():
    # two sequences, the likelier one starts with 1
    return make_sp_env({(1, 1, 0): F(2, 3), (0, 1, 1): F(1, 3)})


def test_sp_requires_a_proper_distribution():
    with pytest.raises(ValueError):
        make_sp_env({(0, 1): F(1, 2)})
    with pytest.raises(ValueError):
        make_sp_env({(0,): F(1, 2), (0, 1): F(1, 2)})
    with pytest.raises(ValueError):
        make_sp_env({})


def test_sp_first_bit_marginal():
    env = biased_sp()
    hit = env.cond_map(EMPTY_HISTORY, 1).get(Percept(R1, 0))
    assert hit == F(2, 3)
    assert sp_argmax(env, EMPTY_HISTORY) == 1


def test_sp_posterior_collapses_after_a_revealing_bit():
    env = biased_sp()
    # predicting 1 and being wrong reveals the sequence was 011
    h = append_cycle(EMPTY_HISTORY, 1, Percept(R0, 0))
    assert sp_argmax(env, h) == 1
    assert env.cond_map(h, 1).get(Percept(R1, 0)) == 1


def test_sp_argmax_tie_breaks_to_zero():
    env = make_sp_env({(0,): F(1, 2), (1,): F(1, 2)})
    assert sp_argmax(env, EMPTY_HISTORY) == 0


# --- strategic games --------------------------------------------------------


def tiny_game():
    # one round, 2 moves each; we should pick move 1 (guaranteed 1/2)
    return GameSpec(
        rounds=1,
        num_moves=2,
        num_replies=2,
        leaf_values={
            (0, 0): F(1),
            (0, 1): F(0),
            (1, 0): F(1, 2),
            (1, 1): F(3, 4),
        },
    )


def test_game_value_one_round():
    g = tiny_game()
    assert game_value(g, (0,)) == 0
    assert game_value(g, (1,)) == F(1, 2)
    assert game_value(g) == F(1, 2)


def test_minimax_move_prefers_the_smaller_index_on_ties():
    g = GameSpec(
        rounds=1,
        num_moves=2,
        num_replies=1,
        leaf_values={(0, 0): F(1), (1, 0): F(1)},
    )
    assert minimax_move(g, ()) == 0


def test_sg_opponent_plays_its_minimax_reply():
    env = make_sg_env(tiny_game())
    row = env.cond_map(EMPTY_HISTORY, 0)
    (x,) = row
    assert x == Percept(F(0), 1)  # opponent refutes move 0 via reply 1
    row = env.cond_map(EMPTY_HISTORY, 1)
    (x,) = row
    assert x == Percept(F(1, 2), 0)


def test_sg_planner_agrees_with_direct_minimax():
    env = make_sg_env(tiny_game())
    q = ValueQuery(env, EMPTY_HISTORY, 1, 1)
    assert value_opt(q) == game_value(tiny_game())
    assert best_action(q) == 1


def test_sg_repeated_episodes_pay_at_each_boundary():
    g = tiny_game()
    env = make_sg_env(g)
    h = EMPTY_HISTORY
    for _ in range(3):
        (x,) = env.cond_map(h, 1)
        assert x.reward == F(1, 2)
        h = append_cycle(h, 1, x)


def test_two_round_game_rewards_only_at_the_end():
    leaves = {
        seq: F(sum(seq), 8) for seq in itertools.product((0, 1), repeat=4)
    }
    g = GameSpec(rounds=2, num_moves=2, num_replies=2, leaf_values=leaves)
    env = make_sg_env(g)
    (x1,) = env.cond_map(EMPTY_HISTORY, 1)
    assert x1.reward == 0
    h = append_cycle(EMPTY_HISTORY, 1, x1)
    (x2,) = env.cond_map(h, 1)
    assert x2.reward == g.leaf_values[(1, x1.observation, 1, x2.observation)]


def test_game_spec_text_round_trip():
    g = tiny_game()
    g2 = GameSpec.loads(g.dumps())
    assert g2 == g


def test_game_spec_rejects_missing_leaves():
    with pytest.raises(ValueError):
        GameSpec(rounds=1, num_moves=2, num_replies=2, leaf_values={(0, 0): F(1)})


@pytest.mark.parametrize(
    "leaf",
    [(0, 0, 0), (2, 0), (0, -1)],
    ids=["three-moves", "move-out-of-range", "negative-reply"],
)
def test_game_spec_rejects_a_leaf_no_play_reaches(leaf):
    # Four leaves, as many as a one-round 2x2 game has, one of them unreachable.
    leaves = {(0, 0): F(1), (0, 1): F(0), (1, 0): F(1), leaf: F(0)}
    with pytest.raises(ValueError, match=r"is not 1 \(move, reply\) pairs in range"):
        GameSpec(rounds=1, num_moves=2, num_replies=2, leaf_values=leaves)


# --- function minimization --------------------------------------------------


def quadratic_class():
    return uniform_function_class(2, (F(1), F(2), F(3), F(4)))


def test_uniform_class_enumerates_every_table():
    c = quadratic_class()
    assert len(c.prior) == 16
    assert sum(p for _, p in c.prior) == 1


def test_reward_map_is_affine_and_order_reversing():
    c = quadratic_class()
    assert c.reward_of(0) == 1
    assert c.reward_of(3) == 0
    assert c.reward_of(1) == F(2, 3)


def test_prior_expected_value_is_the_z_mean():
    c = quadratic_class()
    env = make_fm_env(c)
    assert fm_expected_z(env, c, EMPTY_HISTORY, 0) == F(5, 2)
    assert fm_expected_z(env, c, EMPTY_HISTORY, 1) == F(5, 2)


def test_observation_updates_only_the_queried_point():
    c = quadratic_class()
    env = make_fm_env(c)
    # observe f(0) = 2 (z index 1)
    h = append_cycle(EMPTY_HISTORY, 0, Percept(c.reward_of(1), 1))
    assert fm_expected_z(env, c, h, 0) == 2
    assert fm_expected_z(env, c, h, 1) == F(5, 2)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.fractions(0, 10, max_denominator=6), min_size=1, max_size=4, unique=True),
    st.fractions(0, 3, max_denominator=4),
)
def test_an_fm_world_has_each_reward_level_once_and_in_order(zs, r_max):
    # Its rewards are ranked on ints; with rmax 0 every z earns 0.
    zs = tuple(sorted(zs))
    prior = tuple(((zi,), F(1, len(zs))) for zi in range(len(zs)))
    c = FunctionClassSpec(num_actions=1, z_values=zs, prior=prior, r_max=r_max)
    env = make_fm_env(c)
    rewards = [c.reward_of(zi) for zi in range(len(zs))]
    assert env.alphabet.rewards == tuple(sorted(set(rewards)))
    for zi, (_, _, f_env) in enumerate(env.components):
        assert f_env.rule(EMPTY_HISTORY, 0) is env.alphabet.percept(rewards[zi], zi)


def test_an_fm_world_hashes_each_reward_once_for_its_percepts(monkeypatch):
    # uniform16's 4 rewards, each hashed once for its 4 percepts and once
    # for the alphabet's reward index.  Hashing each reward again for each
    # percept, a set of the rewards and a percept lookup per z made 28.
    spec = uniform_function_class(2, tuple(F(z) for z in (1, 2, 3, 4)))
    hashed = []
    fraction_hash = F.__hash__

    def counted(r):
        hashed.append(r)
        return fraction_hash(r)

    monkeypatch.setattr(F, "__hash__", counted)
    make_fm_env(spec)
    monkeypatch.undo()
    assert sorted(hashed) == [F(0), F(0), F(1, 3), F(1, 3), F(2, 3), F(2, 3), F(1), F(1)]


def test_function_class_text_round_trip():
    c = quadratic_class()
    c2 = FunctionClassSpec.loads(c.dumps())
    assert c2 == c


def test_function_class_rejects_bad_prior():
    with pytest.raises(ValueError):
        FunctionClassSpec(
            num_actions=1, z_values=(F(0), F(1)), prior=(((0,), F(1, 2)),)
        )


# --- relation learning ------------------------------------------------------


def even_odd_relation():
    # z in {0,1}, answer y must equal z
    return RelationSpec(
        num_z=2,
        num_actions=2,
        relation=frozenset({(0, 0), (1, 1)}),
        presentation=(
            ((0, 0), F(1, 4)),
            ((1, QUESTION), F(1, 2)),
            ((0, QUESTION), F(1, 4)),
        ),
    )


def odd_even_relation():
    # z in {0,1}, answer y must differ from z
    return RelationSpec(
        num_z=2,
        num_actions=2,
        relation=frozenset({(0, 1), (1, 0)}),
        presentation=(
            ((1, 0), F(1, 4)),
            ((0, QUESTION), F(1, 2)),
            ((1, QUESTION), F(1, 4)),
        ),
    )


def relation_pair_mixture():
    return make_relation_mixture([(even_odd_relation(), F(1, 2)), (odd_even_relation(), F(1, 3))])


def test_a_relation_mixtures_components_share_its_alphabet():
    mix = relation_pair_mixture()
    assert [m.alphabet is mix.alphabet for _, _, m in mix.components] == [True, True]


def test_a_relation_mixture_refuses_relations_of_different_alphabets():
    one_z = RelationSpec(
        num_z=1,
        num_actions=2,
        relation=frozenset({(0, 0)}),
        presentation=(((0, 0), F(1, 2)), ((0, QUESTION), F(1, 2))),
    )
    with pytest.raises(ValueError, match="share an alphabet"):
        make_relation_mixture([(even_odd_relation(), F(1, 2)), (one_z, F(1, 2))])


def test_relation_rejects_wrong_examples():
    with pytest.raises(ValueError):
        RelationSpec(
            num_z=1,
            num_actions=2,
            relation=frozenset({(0, 0)}),
            presentation=(((0, 1), F(1)),),
        )


def test_first_cycle_always_rewards():
    env = make_ex_env(even_odd_relation())
    for x, p in env.cond_map(EMPTY_HISTORY, 0).items():
        assert x.reward == 1


def test_question_rewards_only_the_related_answer():
    r = even_odd_relation()
    env = make_ex_env(r)
    q1 = Percept(R1, r.obs_index(1, QUESTION))
    h = append_cycle(EMPTY_HISTORY, 0, q1)
    right = env.cond_map(h, 1)
    wrong = env.cond_map(h, 0)
    assert all(x.reward == 1 for x in right)
    assert all(x.reward == 0 for x in wrong)


def test_example_presentations_reward_unconditionally():
    r = even_odd_relation()
    env = make_ex_env(r)
    ex = Percept(R1, r.obs_index(0, 0))
    h = append_cycle(EMPTY_HISTORY, 0, ex)
    assert all(x.reward == 1 for x in env.cond_map(h, 1))


def test_relation_mixture_joint_is_the_weighted_sum():
    r1 = RelationSpec(
        num_z=1,
        num_actions=2,
        relation=frozenset({(0, 0)}),
        presentation=(((0, QUESTION), F(1, 2)), ((0, 0), F(1, 2))),
    )
    r2 = RelationSpec(
        num_z=1,
        num_actions=2,
        relation=frozenset({(0, 1)}),
        presentation=(((0, QUESTION), F(1, 2)), ((0, 1), F(1, 2))),
    )
    mix = make_relation_mixture([(r1, F(1, 2)), (r2, F(1, 2))])
    envs = [make_ex_env(r1), make_ex_env(r2)]
    a = mix.alphabet
    for actions in itertools.product(range(2), repeat=2):
        for percepts in itertools.product(a.percepts(), repeat=2):
            h = EMPTY_HISTORY
            for y, x in zip(actions, percepts):
                h = append_cycle(h, y, x)
            expected = sum(
                (F(1, 2) * joint_prob(e, h) for e in envs), F(0)
            )
            assert joint_prob(mix, h) == expected


# --- episodes and demonstration worlds --------------------------------------


def test_product_episodes_forget_the_past():
    envs = [make_heavenhell(0), make_heavenhell(1)]
    model = ProductEpisodeModel(envs, 1)
    assert model.boundaries == (0, 1, 2)
    h = append_cycle(EMPTY_HISTORY, 0, Percept(R1, 0))
    # second episode uses the second env regardless of the first cycle
    assert model.cond_map(h, 1) == {Percept(R1, 0): F(1)}


@pytest.mark.parametrize(
    "episodes, length, message",
    [
        ([], 1, "at least one episode"),
        ([make_heavenhell(0)], 0, "at least one episode"),
        ([make_heavenhell(0), make_onlyone(3, 0)], 1, "share an alphabet"),
    ],
)
def test_product_episodes_refuse_a_malformed_product(episodes, length, message):
    with pytest.raises(ValueError, match=message):
        ProductEpisodeModel(episodes, length)


def test_product_episodes_end_at_the_last_episode():
    model = ProductEpisodeModel([make_heavenhell(0), make_heavenhell(1)], 1)
    h = append_cycle(append_cycle(EMPTY_HISTORY, 0, Percept(R1, 0)), 1, Percept(R1, 0))
    with pytest.raises(ValueError, match="past the last episode"):
        model.cond_map(h, 0)


def test_lazy_needs_a_lifetime_of_two():
    with pytest.raises(ValueError, match="m >= 2"):
        make_lazy(1)


def test_heavenhell_is_absorbing():
    env = make_heavenhell(0)
    h = append_cycle(EMPTY_HISTORY, 1, Percept(R0, 0))
    # choosing the right door later cannot help
    assert env.cond_map(h, 0) == {Percept(R0, 0): F(1)}


def test_onlyone_rewards_the_single_target():
    env = make_onlyone(4, 2)
    for y in range(4):
        (x,) = env.cond_map(EMPTY_HISTORY, y)
        assert x.reward == (1 if y == 2 else 0)


class TestLazyWorld:
    def test_one_work_cycle_licenses_an_immediate_rest(self):
        assert lazy_reward([0, 1], 2)

    def test_rest_without_prior_work_earns_nothing(self):
        assert not lazy_reward([1, 1], 2)
        assert not lazy_reward([1], 1)

    def test_work_cycles_never_pay(self):
        assert not lazy_reward([0, 0, 0], 3)

    def test_longer_gaps_need_longer_runs(self):
        # rest 4 cycles after the run end needs a 2-cycle run
        assert lazy_reward([0, 0, 1, 1, 1, 1], 6)
        assert not lazy_reward([1, 0, 1, 1, 1, 1], 6)

    def test_all_ones_earns_zero(self):
        actions = [1] * 12
        assert not any(lazy_reward(actions, k) for k in range(1, 13))

    def test_env_matches_the_reward_rule(self):
        env = make_lazy(6)
        assert env.lifetime == 6
        actions = (0, 0, 1, 1, 1, 1)
        h = EMPTY_HISTORY
        for k, y in enumerate(actions, start=1):
            (x,) = env.cond_map(h, y)
            assert (x.reward == 1) == lazy_reward(actions[:k], k)
            h = append_cycle(h, y, x)


def test_every_constructor_yields_a_chronological_model():
    models = [
        biased_sp(),
        make_sg_env(tiny_game()),
        make_fm_env(quadratic_class()),
        make_ex_env(even_odd_relation()),
        make_heavenhell(1),
        make_onlyone(3, 0),
        make_lazy(5),
    ]
    for m in models:
        assert check_chronological(m, 3)


def two_round_game():
    leaves = {seq: F(sum(seq), 8) for seq in itertools.product((0, 1), repeat=4)}
    return GameSpec(rounds=2, num_moves=2, num_replies=2, leaf_values=leaves)


RULE_WORLDS = {
    "sp": biased_sp,
    "sg": lambda: make_sg_env(tiny_game()),
    "sg-two-rounds": lambda: make_sg_env(two_round_game()),
    "fm": lambda: make_fm_env(quadratic_class()),
    "ex": lambda: make_ex_env(even_odd_relation()),
    "relation-mixture": relation_pair_mixture,
    "onlyone": lambda: make_onlyone(3, 1),
    "lazy": lambda: make_lazy(5),
    "heavenhell-0": lambda: make_heavenhell(0),
    "heavenhell-1": lambda: make_heavenhell(1),
}


@pytest.mark.parametrize("world", sorted(RULE_WORLDS))
def test_a_rule_world_answers_with_its_alphabets_own_percepts(world):
    """Every percept a rule world, or a component of a rule-world mixture,
    answers on a history of up to 3 cycles is its alphabet's own object."""
    env = RULE_WORLDS[world]()
    models = [env] + [m for _, _, m in getattr(env, "components", ())]

    def walk(h):
        for y in env.alphabet.actions():
            for m in models:
                for x in m.cond_map(h, y):
                    assert x is m.alphabet.percept(x.reward, x.observation)
            if len(h) < 3:
                for x, p in env.cond_map(h, y).items():
                    if p:
                        walk(append_cycle(h, y, x))

    walk(EMPTY_HISTORY)
