import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st

from unimix import vm
from unimix.core import (
    Alphabet,
    CapacityError,
    EMPTY_HISTORY,
    FixedHorizon,
    History,
    Percept,
    ValidationError,
    append_cycle,
    encode_history,
)
from unimix.domains import (
    make_fm_env, make_heavenhell, make_lazy, make_onlyone, uniform_function_class,
)
from unimix.models import (
    ChronologicalModel,
    FunctionalEnv,
    MixtureModel,
    MixtureNode,
    ProgramEnv,
    TabularModel,
    UndefinedConditionalError,
    _silent,
    build_class_mixture,
    build_mixture,
    check_chronological,
    cond_prob,
    evidence_gap,
    expected_sum,
    joint_prob,
    posterior,
    random_tabular,
    sq_distance_sum,
    weights_csv,
)
from unimix.planner import ValueQuery, best_action, value_opt
from unimix.vm import RunBudget, decode, enumerate_programs, replay_env

import reference

R0 = Fraction(0)
R1 = Fraction(1)


def two_cycle_tabular(binary_alphabet):
    rows = {}
    for key, row in [
        ("y:0", (Fraction(3, 10), Fraction(7, 10))),
        ("y:1", (Fraction(1, 2), Fraction(1, 2))),
    ]:
        rows[key] = row
    # depth-2 rows: same marginal regardless of context for simplicity
    for y1 in (0, 1):
        for x1 in (R0, R1):
            h = append_cycle(EMPTY_HISTORY, y1, Percept(x1, 0))
            for y2 in (0, 1):
                rows[encode_history(h, y2)] = (Fraction(1, 4), Fraction(3, 4))
    return TabularModel(binary_alphabet, 2, rows)


def test_joint_of_empty_history_is_one(binary_alphabet):
    m = two_cycle_tabular(binary_alphabet)
    assert joint_prob(m, EMPTY_HISTORY) == 1


def test_joint_of_deterministic_model(binary_alphabet):
    det = FunctionalEnv(binary_alphabet, lambda h, y: Percept(R1, 0))
    consistent = append_cycle(EMPTY_HISTORY, 0, Percept(R1, 0))
    inconsistent = append_cycle(EMPTY_HISTORY, 0, Percept(R0, 0))
    assert joint_prob(det, consistent) == 1
    assert joint_prob(det, inconsistent) == 0


def test_joint_is_the_product_of_table_entries(binary_alphabet):
    m = two_cycle_tabular(binary_alphabet)
    h = append_cycle(EMPTY_HISTORY, 0, Percept(R1, 0))
    h = append_cycle(h, 1, Percept(R0, 0))
    assert joint_prob(m, h) == Fraction(7, 10) * Fraction(1, 4)


def test_cond_prob_echoes_the_table(binary_alphabet):
    m = two_cycle_tabular(binary_alphabet)
    assert cond_prob(m, EMPTY_HISTORY, 0, Percept(R1, 0)) == Fraction(7, 10)


def test_cond_prob_on_zero_probability_history_raises(binary_alphabet):
    det = FunctionalEnv(binary_alphabet, lambda h, y: Percept(R1, 0))
    dead = append_cycle(EMPTY_HISTORY, 0, Percept(R0, 0))
    with pytest.raises(UndefinedConditionalError):
        cond_prob(det, dead, 0, Percept(R1, 0))


def test_chain_rule_for_every_model_kind(binary_alphabet, budget, pool8):
    """joint = base mass times the product of conditionals, exactly."""
    models = [
        two_cycle_tabular(binary_alphabet),
        FunctionalEnv(binary_alphabet, lambda h, y: Percept(R1 if y else R0, 0)),
        build_mixture(pool8, budget, binary_alphabet),
    ]
    rng = random.Random(5)
    for m in models:
        for _ in range(10):
            h = EMPTY_HISTORY
            prod = m.base_mass()
            dead = False
            for _ in range(3):
                y = rng.randrange(2)
                x = rng.choice(binary_alphabet.percepts())
                if not dead:
                    row = m.cond_map(h, y)
                    prod *= row.get(x, Fraction(0))
                h = append_cycle(h, y, x)
                dead = prod == 0
            assert joint_prob(m, h) == prod


def test_a_node_keeps_what_it_steps_and_not_what_it_splits(
    binary_alphabet, budget, pool8, monkeypatch
):
    steps = []
    program_weights = ProgramEnv.weights

    def counting(self, *args):
        steps.append(self)
        return program_weights(self, *args)

    monkeypatch.setattr(ProgramEnv, "weights", counting)
    m = build_mixture(pool8, budget, binary_alphabet)
    node = m.state(EMPTY_HISTORY)
    n = len(node.survivors)
    m.weights(node, EMPTY_HISTORY, 0)  # the expectimax's split keeps no children
    node.split(EMPTY_HISTORY, 0)
    assert len(steps) == 2 * n
    children = node.step(EMPTY_HISTORY, 0)  # a shared walk's step keeps them
    assert node.step(EMPTY_HISTORY, 0) is children
    x = next(iter(children))
    assert node.child(EMPTY_HISTORY, 0, x) is children[x][1]
    assert len(steps) == 3 * n


def test_mixture_of_two_deterministic_components(binary_alphabet):
    up = FunctionalEnv(binary_alphabet, lambda h, y: Percept(R1, 0))
    down = FunctionalEnv(binary_alphabet, lambda h, y: Percept(R0, 0))
    m = MixtureModel(
        [("up", Fraction(1, 2), up), ("down", Fraction(1, 4), down)],
        binary_alphabet,
    )
    row = m.cond_map(EMPTY_HISTORY, 0)
    assert row[Percept(R1, 0)] == Fraction(2, 3)
    assert row[Percept(R0, 0)] == Fraction(1, 3)


def test_a_mixture_rejects_a_component_of_another_alphabet(binary_alphabet):
    # A row is keyed by the mixture's percepts, so a component answering in
    # another alphabet is refused when the mixture is made.
    wide = Alphabet(num_actions=2, num_observations=2, rewards=(R0, R1))
    up = FunctionalEnv(binary_alphabet, lambda h, y: Percept(R1, 0))
    other = FunctionalEnv(wide, lambda h, y: Percept(R1, 1))
    with pytest.raises(ValueError, match="alphabet"):
        MixtureModel([("up", Fraction(1, 2), up), ("other", Fraction(1, 4), other)], binary_alphabet)
    with pytest.raises(ValueError, match="alphabet"):
        MixtureModel([("other", Fraction(1, 2), other)], binary_alphabet)


@pytest.mark.parametrize(
    "weights, message",
    [
        ([], "at least one component"),
        ([Fraction(1, 2), Fraction(0)], "positive"),
        ([Fraction(-1, 4)], "positive"),
        ([Fraction(1, 2), Fraction(2, 3)], "sum to <= 1"),
    ],
)
def test_a_mixture_rejects_weights_that_are_not_a_semimeasure(binary_alphabet, weights, message):
    up = FunctionalEnv(binary_alphabet, lambda h, y: Percept(R1, 0))
    with pytest.raises(ValueError, match=message):
        MixtureModel([(str(i), w, up) for i, w in enumerate(weights)], binary_alphabet)
    assert MixtureModel([("a", Fraction(1, 2), up), ("b", Fraction(1, 2), up)], binary_alphabet)


@pytest.mark.parametrize(
    "leads", [[Fraction(1, 4)], [Fraction(1, 4), Fraction(1, 2)], [Fraction(1, 4), 0]]
)
def test_a_mixture_rejects_a_lead_per_component_out_of_its_weight(binary_alphabet, leads):
    # One lead per component, each in (0, its component's weight].
    up = FunctionalEnv(binary_alphabet, lambda h, y: Percept(R1, 0))
    comps = [("a", Fraction(1, 2), up), ("b", Fraction(1, 4), up)]
    with pytest.raises(ValueError, match="lead"):
        MixtureModel(comps, binary_alphabet, leads)
    assert MixtureModel(comps, binary_alphabet, [Fraction(1, 4), Fraction(1, 4)])


class TestChronologicalCheck:
    def test_tabular_constructions_pass(self, binary_alphabet):
        assert check_chronological(two_cycle_tabular(binary_alphabet), 3)

    def test_action_dependent_marginal_fails(self, binary_alphabet):
        class Leaky(ChronologicalModel):
            alphabet = binary_alphabet

            def cond_map(self, h, y):
                # percept marginal mass depends on the pending action: not
                # a chronological semimeasure
                p = Fraction(1) if y == 0 else Fraction(1, 2)
                return {Percept(R0, 0): p}

        assert not check_chronological(Leaky(), 2)

    def test_program_mixture_passes_at_depth_three(self, binary_alphabet, budget, pool8):
        assert check_chronological(build_mixture(pool8, budget, binary_alphabet), 3)

    def test_a_depth_below_one_is_refused(self, binary_alphabet):
        # the walk once checked the empty history at depth 0, which has no
        # context of fewer than 0 cycles
        with pytest.raises(ValueError, match="depth >= 1"):
            check_chronological(two_cycle_tabular(binary_alphabet), 0)


class TestBuildMixture:
    def test_singleton_pool_scales_the_program_measure(self, binary_alphabet, budget, pool8):
        q = pool8[0]
        m = build_mixture([q], budget, binary_alphabet)
        percepts, ok, _ = replay_env(q, (0, 1), budget, binary_alphabet)
        assert ok
        h = EMPTY_HISTORY
        for y, x in zip((0, 1), percepts):
            h = append_cycle(h, y, x)
        assert m.joint(h) == q.weight
        assert m.base_mass() == q.weight

    def test_unproduced_history_has_zero_mass(self, budget, pool8):
        a = Alphabet(num_actions=2, num_observations=8, rewards=(R0, R1))
        m = build_mixture(pool8, budget, a)
        h = append_cycle(EMPTY_HISTORY, 0, Percept(R1, 7))
        assert m.joint(h) == 0

    def test_joint_equals_brute_force_sum_over_consistent_programs(
        self, binary_alphabet, budget, pool8
    ):
        """Depth-3 exhaustive comparison against direct replay enumeration."""
        m = build_mixture(pool8, budget, binary_alphabet)
        for actions in itertools.product((0, 1), repeat=3):
            for rewards in itertools.product((R0, R1), repeat=3):
                h = EMPTY_HISTORY
                for y, r in zip(actions, rewards):
                    h = append_cycle(h, y, Percept(r, 0))
                direct = Fraction(0)
                for q in pool8:
                    percepts, ok, _ = replay_env(q, actions, budget, binary_alphabet)
                    if ok and percepts == h.percepts():
                        direct += q.weight
                assert m.joint(h) == direct

    def test_empty_pool_is_an_error(self, binary_alphabet, budget):
        with pytest.raises(ValueError):
            build_mixture([], budget, binary_alphabet)


def test_semimeasure_property_at_depths_up_to_four(binary_alphabet, budget, pool6):
    m = build_mixture(pool6, budget, binary_alphabet)

    def walk(h, depth):
        for y in (0, 1):
            row = m.cond_map(h, y)
            assert sum(row.values(), Fraction(0)) <= 1
            if depth < 4:
                for x, p in row.items():
                    if p > 0:
                        walk(append_cycle(h, y, x), depth + 1)

    walk(EMPTY_HISTORY, 1)


class TestPosterior:
    def test_truth_keeps_its_full_prior_mass(self, binary_alphabet, budget, pool8):
        m = build_mixture(pool8, budget, binary_alphabet)
        q = pool8[1]
        percepts, ok, _ = replay_env(q, (1, 0), budget, binary_alphabet)
        assert ok
        h = EMPTY_HISTORY
        for y, x in zip((1, 0), percepts):
            h = append_cycle(h, y, x)
        ps = posterior(m, h)
        assert ps.masses[ps.labels.index(q.to_hex())] == q.weight

    def test_inconsistent_components_have_zero_mass(self, binary_alphabet, budget, pool12):
        m = build_mixture(pool12, budget, binary_alphabet)
        h = append_cycle(EMPTY_HISTORY, 1, Percept(R1, 0))  # the echo program's reply
        ps = posterior(m, h)
        zeroed = 0
        for label, mass in zip(ps.labels, ps.masses):
            q = next(p for p in pool12 if p.to_hex() == label)
            percepts, ok, _ = replay_env(q, (1,), budget, binary_alphabet)
            if not (ok and percepts == (Percept(R1, 0),)):
                assert mass == 0
                zeroed += 1
        assert 0 < zeroed < len(pool12)

    def test_posterior_predictive_equals_cond_prob(self, binary_alphabet, budget, pool8):
        m = build_mixture(pool8, budget, binary_alphabet)
        h = append_cycle(EMPTY_HISTORY, 0, Percept(R0, 0))
        for y in (0, 1):
            for x in binary_alphabet.percepts():
                mass = Fraction(0)
                for label, w, comp in m.components:
                    mass += w * comp.joint(append_cycle(h, y, x))
                assert mass / m.joint(h) == m.cond_map(h, y).get(x, Fraction(0))

    def test_posterior_total_is_the_mixture_joint(self, binary_alphabet, budget, pool8):
        m = build_mixture(pool8, budget, binary_alphabet)
        h = append_cycle(EMPTY_HISTORY, 1, Percept(R0, 0))
        assert posterior(m, h).total == m.joint(h)


def test_posterior_dominance(binary_alphabet, budget, pool8):
    """Mixture conditional >= weight * component conditional / mixture joint."""
    m = build_mixture(pool8, budget, binary_alphabet)
    h = append_cycle(EMPTY_HISTORY, 0, Percept(R0, 0))
    for label, w, comp in m.components:
        cj = comp.joint(h)
        if cj == 0:
            continue
        for y in (0, 1):
            for x, p in comp.cond_map(h, y).items():
                assert m.cond_map(h, y).get(x, Fraction(0)) >= w * cj * p / m.joint(h)


class TestSqDistance:
    def test_zero_for_the_singleton_mixture(self, binary_alphabet, budget, pool8):
        q = pool8[0]
        m = build_mixture([q], budget, binary_alphabet)
        mu = ProgramEnv(q, budget, binary_alphabet)
        assert sq_distance_sum(m, mu, lambda h: 0, 6) == 0

    def test_non_decreasing_in_n(self, binary_alphabet, budget, pool8):
        m = build_mixture(pool8, budget, binary_alphabet)
        mu = ProgramEnv(pool8[2], budget, binary_alphabet)
        vals = [sq_distance_sum(m, mu, lambda h: 0, n) for n in range(1, 6)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestExpectedSum:
    def test_a_unit_score_counts_the_cycles_of_a_proper_measure(self, binary_alphabet):
        mu = random_tabular(binary_alphabet, 3, random.Random(5))
        one = lambda h, t, y, row: Fraction(1)
        assert expected_sum(mu, lambda h: len(h) % 2, one, 4) == 4
        h = append_cycle(EMPTY_HISTORY, 1, Percept(R1))
        assert expected_sum(mu, lambda h: 0, one, 4, h) == 3
        assert expected_sum(mu, lambda h: 0, one, 1, h) == 0  # no cycle after h

    def test_scores_see_the_absolute_cycle_and_skip_zero_mass(self, binary_alphabet):
        class ZeroRowEntry(ChronologicalModel):
            alphabet = binary_alphabet

            def cond_map(self, h, y):
                return {Percept(R0): R0, Percept(R1): R1}

        mu = ZeroRowEntry()
        seen = []

        def score(h, t, y, row):
            seen.append((len(h), t, y, dict(row)))
            return t

        assert expected_sum(mu, lambda h: 1, score, 3) == 1 + 2 + 3
        row = {Percept(R0): R0, Percept(R1): R1}
        assert seen == [(t - 1, t, 1, row) for t in (1, 2, 3)]

    @pytest.mark.parametrize("kind", ["programs", "fm"])
    def test_a_mixture_walk_splits_each_node_once(
        self, kind, binary_alphabet, budget, pool12, monkeypatch
    ):
        """The walk carries the mixture's tree: one split per scored node, and
        each node's row is its history's ``cond_map`` row, in order."""
        if kind == "programs":
            mu = build_mixture(pool12, budget, binary_alphabet)
        else:
            mu = make_fm_env(uniform_function_class(2, tuple(map(Fraction, (1, 2, 3, 4)))))
        splits, split = [], MixtureNode.split
        monkeypatch.setattr(
            MixtureNode, "split", lambda *args: splits.append(None) or split(*args)
        )
        seen = []

        def score(h, t, y, row):
            seen.append((h, y, list(row.items())))
            return R0

        expected_sum(mu, lambda h: len(h) % 2, score, 3)
        assert len(splits) == len(seen) > 3
        monkeypatch.undo()
        for h, y, row in seen:
            assert row == list(mu.cond_map(h, y).items())


def test_evidence_gap_is_zero_for_proper_models(binary_alphabet):
    m = two_cycle_tabular(binary_alphabet)
    assert evidence_gap(m, EMPTY_HISTORY, 0) == 0


def test_evidence_gap_positive_for_a_mixture(binary_alphabet, budget, pool8):
    m = build_mixture(pool8, budget, binary_alphabet)
    assert evidence_gap(m, EMPTY_HISTORY, 0) > 0


def test_tabular_text_format_round_trips(binary_alphabet):
    m = two_cycle_tabular(binary_alphabet)
    m2 = TabularModel.loads(m.dumps())
    assert m2.alphabet == m.alphabet
    assert m2.depth == m.depth
    assert m2.rows == m.rows


@pytest.mark.parametrize(
    "depth, rows, message",
    [
        (1, {"y:0": (Fraction(1, 2), Fraction(1, 3))}, "probability vector"),
        (1, {"y:0": (Fraction(1),)}, "has 1 entries, need 2"),
        (-1, {}, "depth >= 0"),
    ],
)
def test_tabular_rejects_bad_rows(binary_alphabet, depth, rows, message):
    with pytest.raises(ValueError, match=message):
        TabularModel(binary_alphabet, depth, rows)


def test_a_program_state_is_the_frozen_machine_after_the_actions(binary_alphabet, pool8):
    budget = RunBudget(6)  # some programs time out
    zero = binary_alphabet.percepts()[0]
    for q in pool8:
        env = ProgramEnv(q, budget, binary_alphabet)
        for n in range(5):
            for actions in itertools.product((0, 1), repeat=n):
                # The percepts are not checked, only the actions followed.
                h = History(tuple((y, zero) for y in actions))
                assert env.state(h) == replay_env(q, actions, budget, binary_alphabet)[2]


def test_tabular_lists_every_row_it_can_never_look_up():
    a = Alphabet(num_actions=2, num_observations=2, rewards=(R0, R1))
    half = (Fraction(1, 4),) * 4
    unreachable = {
        "y:0 r:1/1 o:0": "no pending action",
        "y:7": "an action outside range(2)",
        "y:2 r:0/1 o:0 y:0": "an action outside range(2)",
        "y:0 r:1/2 o:0 y:0": "reward 1/2 is not in the alphabet",
        "y:0 r:0/1 o:2 y:0": "observation 2 outside [0, 2)",
        "y:0 r:0/1 o:0 y:0 r:0/1 o:0 y:1": "2 completed cycles, not fewer than depth 2",
        "y:0  r:2/2 o:1 y:1": "the context is written 'y:0 r:1/1 o:1 y:1'",
        "y:0 r:1/0 o:0 y:0": "zero denominator in '1/0'",
    }
    reachable = {"y:0": half, "y:1 r:1/1 o:1 y:0": half}
    with pytest.raises(ValidationError) as e:
        TabularModel(a, 2, {**reachable, **{k: half for k in unreachable}})
    assert e.value.violations == [
        f"row for {k!r} is never looked up: {why}" for k, why in unreachable.items()
    ]
    assert TabularModel(a, 2, reachable).cond_map(EMPTY_HISTORY, 0) == {
        x: Fraction(1, 4) for x in a.percepts()
    }


def test_tabular_loads_each_context_in_its_one_spelling():
    header = "actions=2\nobservations=1\nrewards=0,1\ndepth=2\n"
    loose = "y:1  r:2/2 o:0   y:0 | 1/2 1/2\n"
    assert list(TabularModel.loads(header + loose).rows) == ["y:1 r:1/1 o:0 y:0"]
    with pytest.raises(ValidationError, match="line 6: duplicate row 'y:1 r:1/1 o:0 y:0'"):
        TabularModel.loads(header + loose + "y:1 r:1/1 o:0 y:0 | 1 0\n")


def test_random_tabular_is_chronological_and_seed_stable(binary_alphabet):
    m1 = random_tabular(binary_alphabet, 2, random.Random(7))
    m2 = random_tabular(binary_alphabet, 2, random.Random(7))
    assert m1.rows == m2.rows
    assert check_chronological(m1, 3)


def test_weights_csv_lists_every_component(binary_alphabet, budget, pool6):
    m = build_mixture(pool6, budget, binary_alphabet)
    lines = weights_csv(m).strip().splitlines()
    assert lines[0] == "component,weight,mass"
    assert len(lines) == len(pool6) + 1


# --- The stepped mixture state against from-scratch sums ---------------------

ALPHABETS = (
    Alphabet(num_actions=2, num_observations=1, rewards=(R0, R1)),
    Alphabet(num_actions=3, num_observations=2, rewards=(R0, Fraction(1, 2), R1)),
)


def scratch_joint(m, h):
    """Sum of w * component joint over a mixture's components, recursively;
    a program's joint replays it from the empty history."""
    if isinstance(m, MixtureModel):
        return sum((w * scratch_joint(c, h) for _, w, c in m.components), Fraction(0))
    return m.joint(h)


@st.composite
def mixtures_and_histories(draw):
    """A flat program mixture, a mixture nesting a sub-mixture whose weights
    sum to < 1, and a history that mostly follows one of the programs."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    pool = enumerate_programs(draw(st.integers(6, 9)))
    budget = RunBudget(draw(st.integers(1, 5)))  # small enough to time out
    flat = build_mixture(pool, budget, alphabet)
    inner = MixtureModel(
        [(q.to_hex(), q.weight / 2, ProgramEnv(q, budget, alphabet)) for q in pool[::2]],
        alphabet,
    )
    nested = MixtureModel(
        [("inner", Fraction(1, 3), inner)]
        + [(q.to_hex(), q.weight / 2, ProgramEnv(q, budget, alphabet)) for q in pool[1::2]],
        alphabet,
    )
    truth = draw(st.sampled_from(pool))
    actions = draw(st.lists(st.integers(0, alphabet.num_actions - 1), max_size=4))
    followed, _, _ = replay_env(truth, actions, budget, alphabet)
    h = EMPTY_HISTORY
    for t, y in enumerate(actions):
        x = draw(st.none() | st.sampled_from(alphabet.percepts()))
        if x is None:  # follow the truth until it times out
            x = followed[t] if t < len(followed) else alphabet.percepts()[0]
        h = append_cycle(h, y, x)
    return (flat, nested), h


@settings(max_examples=60, deadline=None)
@given(mixtures_and_histories())
def test_stepped_state_equals_from_scratch_sums(case):
    models, h = case
    for m in models:
        a = m.alphabet
        jh = scratch_joint(m, h)
        assert m.joint(h) == jh
        if jh == 0:
            with pytest.raises(UndefinedConditionalError):
                m.cond_map(h, 0)
            with pytest.raises(UndefinedConditionalError):
                posterior(m, h)
            continue
        assert posterior(m, h).masses == tuple(
            w * scratch_joint(c, h) for _, w, c in m.components
        )
        state = m.state(h)
        for y in a.actions():
            expected = {}
            for x in a.percepts():
                jx = scratch_joint(m, append_cycle(h, y, x))
                if jx:
                    expected[x] = jx / jh
            assert m.cond_map(h, y) == expected
            stepped = m.weights(state, h, y)
            assert {x: Fraction(w, m.mass(state)) for x, (w, _) in stepped.items()} == expected
            for x, (_, child) in stepped.items():
                assert child == m.state(append_cycle(h, y, x))


# --- One component per behaviour class ---------------------------------------

CLASS_POOLS = {n: enumerate_programs(n) for n in range(6, 13)}


@st.composite
def class_cases(draw):
    """A random sub-pool (l 6-12), an alphabet, a budget small enough that
    some programs time out, a depth, and whether readers are signed."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    full = CLASS_POOLS[draw(st.sampled_from(sorted(CLASS_POOLS)))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    keep = draw(st.sampled_from((1, 1, 2, 3)))  # every program, or about 1 in keep
    pool = [q for q in full if rng.randrange(keep) == 0] or full[:1]
    budget, depth = RunBudget(draw(st.integers(1, 8))), draw(st.integers(1, 4))
    return pool, budget, alphabet, depth, draw(st.booleans())


def plan(m, h, depth):
    q = ValueQuery(m, h, len(h) + 1, depth, FixedHorizon(depth))
    return best_action(q), value_opt(q)


@settings(max_examples=100, deadline=None)
@given(class_cases())
# Fixed cases on the whole 12-bit pool: from 11 bits on, some classes split
# only on the second cycle, and at 3 steps some programs time out.
@example((CLASS_POOLS[12], RunBudget(8), ALPHABETS[0], 2, True))
@example((CLASS_POOLS[12], RunBudget(3), ALPHABETS[1], 3, True))
@example((CLASS_POOLS[12], RunBudget(3), ALPHABETS[1], 3, False))
def test_the_class_mixture_equals_the_program_mixture_up_to_its_depth(case):
    pool, budget, alphabet, depth, every_action = case
    classes = build_class_mixture(pool, budget, alphabet, depth, every_action)
    plain = build_mixture(pool, budget, alphabet)

    def walk(h, cs, ps):
        """Every path down to the depth, both states carried."""
        assert classes.joint(h) == plain.joint(h) > 0
        assert plan(classes, h, depth) == plan(plain, h, depth)
        for y in alphabet.actions():
            c_row, p_row = classes.weights(cs, h, y), plain.weights(ps, h, y)
            assert {x: Fraction(w, classes.mass(cs)) for x, (w, _) in c_row.items()} == {
                x: Fraction(w, plain.mass(ps)) for x, (w, _) in p_row.items()
            }
            if len(h) + 1 < depth:
                for x, (_, child) in c_row.items():
                    walk(append_cycle(h, y, x), child, p_row[x][1])

    walk(EMPTY_HISTORY, classes.state(EMPTY_HISTORY), plain.state(EMPTY_HISTORY))


@st.composite
def mixture_states(draw):
    """A class, per-program, nested or fm mixture, a history of positive
    mass or not, and the mixture's state after it."""
    kind = draw(st.sampled_from(("classes", "programs", "nested", "fm")))
    if kind in ("programs", "nested"):
        (flat, nested), h = draw(mixtures_and_histories())
        m = flat if kind == "programs" else nested
        return m, h, m.state(h)
    if kind == "classes":
        m = build_class_mixture(*draw(class_cases()))
    else:
        zs = sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=3)))
        m = make_fm_env(uniform_function_class(draw(st.integers(1, 2)), tuple(map(Fraction, zs))))
    h, state = EMPTY_HISTORY, m.state(EMPTY_HISTORY)
    for _ in range(draw(st.integers(0, 3))):
        y = draw(st.sampled_from(m.alphabet.actions()))
        emitted = list(m.weights(state, h, y)) if state.mass else []
        anything = st.sampled_from(m.alphabet.percepts())
        x = draw(st.sampled_from(emitted) | anything if emitted else anything)
        h = append_cycle(h, y, x)
        state = m.state(h)
    return m, h, state


def _row_or_error(row):
    try:
        return row()
    except UndefinedConditionalError as e:
        return UndefinedConditionalError, str(e)


@settings(max_examples=150, deadline=None)
@given(mixture_states())
def test_the_last_cycle_row_weighs_each_percept_as_the_row_does(case):
    """Every action's last-cycle row gives each percept the weight that
    ``weights`` does, with None for its state, or raises the same error on
    a zero-mass node."""
    m, h, state = case
    for y in m.alphabet.actions():
        row = _row_or_error(
            lambda: {x: (w, None) for x, (w, _) in m.weights(state, h, y).items()}
        )
        assert _row_or_error(lambda: m.last_weights(state, h, y)) == row


@pytest.mark.parametrize("depth", [3, 8])
def test_the_12_bit_pool_falls_into_7_classes_in_heavenhells_alphabet(pool12, depth):
    a = make_heavenhell(0).alphabet
    xi = build_class_mixture(pool12, RunBudget(64), a, depth, True)
    assert len(pool12) == 193
    assert len(xi.components) == 7
    assert xi.base_mass() == build_mixture(pool12, RunBudget(64), a).base_mass()


@pytest.mark.parametrize("depth,cycles", [(3, 82), (8, 112), (64, 448)])
def test_a_class_build_runs_each_row_of_each_program_once(pool12, depth, cycles, monkeypatch):
    # One machine cycle per (environment code, state, action or None) row
    # the build reaches; a code that never reads the action has one row per
    # state, and a program whose code is silent has none.  Signing each
    # program on its own, not each environment code once, made 158, 213
    # and 829: the 83 programs the build runs have 39 environment codes.
    calls = []
    run_machine = vm.run_machine

    def counting(*args, **kwargs):
        calls.append(1)
        return run_machine(*args, **kwargs)

    monkeypatch.setattr(vm, "run_machine", counting)
    build_class_mixture(pool12, RunBudget(64), make_heavenhell(0).alphabet, depth, True)
    assert len(calls) == cycles


@pytest.mark.parametrize("n", [2, 1024])
def test_a_build_that_signs_no_reader_costs_the_same_for_any_action_count(pool12, n, monkeypatch):
    # Without every_action the build runs each action-blind environment
    # code once per state, on one input, and charges each signature one
    # entry: 76 machine cycles and 76 entries at depth 8, whatever the
    # number of actions; with every_action, each signature is charged one
    # entry per action.  Signing a state that steps to itself once per
    # remaining depth took 430 entries, and signing each program rather
    # than each environment code 127.  The 14 components are 10 classes of
    # readers, one per environment code that holds an IN (24 programs,
    # 28 components when each reader was its own class), and 4 signed.
    alphabet = make_onlyone(n, 0).alphabet
    calls = []
    run_machine = vm.run_machine

    def counting(*args, **kwargs):
        calls.append(1)
        return run_machine(*args, **kwargs)

    monkeypatch.setattr(vm, "run_machine", counting)
    xi = build_class_mixture(pool12, RunBudget(64), alphabet, 8, False)
    assert len(calls) == 76
    assert len(xi.components) == 14
    monkeypatch.setattr("unimix.models.CLASS_CAP", 76)
    assert len(build_class_mixture(pool12, RunBudget(64), alphabet, 8, False).components) == 14
    monkeypatch.setattr("unimix.models.CLASS_CAP", 75)  # one entry short: nothing to fall back on
    with pytest.raises(CapacityError, match="more than 75 signature entries"):
        build_class_mixture(pool12, RunBudget(64), alphabet, 8, False)


PARTITION_ALPHABETS = [make_heavenhell(0).alphabet] + [
    make_onlyone(n, 0).alphabet for n in (4, 3)
]


def partition(m):
    """(label, weight, lead) per component of a class mixture: the lead is
    the weight of the leader the label names, and ``_lead_share`` must scale
    each component's weight to its lead by one common int factor."""
    rows = [(label, w, vm.Program.from_hex(label).weight) for label, w, _ in m.components]
    scales = {w * share / lead for (_, w, lead), share in zip(rows, m._lead_share)}
    assert len(scales) == 1 and scales.pop().denominator == 1
    return rows


@pytest.mark.parametrize("l_max", range(3, 15))
def test_the_class_build_partitions_the_pool_as_the_build_that_runs_every_program(l_max):
    assert make_lazy(2).alphabet is PARTITION_ALPHABETS[0]  # lazy adds no case of its own
    pool = enumerate_programs(l_max)
    for alphabet, steps, depth, every_action in itertools.product(
        PARTITION_ALPHABETS, (1, 2, 3, 4, 64), (1, 2, 3, 8), (True, False)
    ):
        budget = RunBudget(steps)
        assert partition(build_class_mixture(pool, budget, alphabet, depth, every_action)) == (
            reference.class_partition(pool, budget, alphabet, depth, every_action)
        ), (alphabet, steps, depth, every_action)


@pytest.mark.parametrize("steps, depth, need", [(64, 1, 29), (64, 3, 46), (64, 8, 76), (3, 3, 54)])
@pytest.mark.parametrize("alphabet", PARTITION_ALPHABETS)
def test_a_build_past_its_cap_signs_the_pool_again_by_the_reader_rule(
    pool12, alphabet, steps, depth, need, monkeypatch
):
    # ``need`` is the reader-rule build's signature entries, the same for
    # every number of actions (59, 82, 127 and 90 when the build signed
    # each program, not each environment code, once).  A build signing
    # readers takes more, so under a cap of ``need`` it restarts and must
    # charge only the second attempt.
    budget = RunBudget(steps)
    readers = partition(build_class_mixture(pool12, budget, alphabet, depth, False))
    assert partition(build_class_mixture(pool12, budget, alphabet, depth, True)) != readers
    monkeypatch.setattr("unimix.models.CLASS_CAP", need)
    assert partition(build_class_mixture(pool12, budget, alphabet, depth, True)) == readers
    monkeypatch.setattr("unimix.models.CLASS_CAP", need - 1)
    with pytest.raises(CapacityError, match=f"more than {need - 1} signature entries"):
        build_class_mixture(pool12, budget, alphabet, depth, True)


def test_a_reader_rule_build_charges_at_most_one_entry_per_program_and_depth(pool12, monkeypatch):
    # A signed program then ignores the action, so it reaches one state per
    # cycle: no valid run (l <= 12, lifetime <= 64) passes the cap.
    monkeypatch.setattr("unimix.models.CLASS_CAP", len(pool12) * 64)
    build_class_mixture(pool12, RunBudget(64), make_onlyone(1024, 0).alphabet, 64, False)


# Every instruction word but END, which ends a program.
WORDS = [(op, arg) for op in range(1, 8) for arg in range(2 ** vm.OPERAND_BITS[op])]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(WORDS), max_size=10),
    st.integers(0, 5),
    st.dictionaries(st.integers(-3, 3), st.integers(0, 5), max_size=3),
    st.integers(-3, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 4),
)
def test_silent_code_emits_nothing_and_finishes_every_cycle(
    words, acc, tape, head, primary, secondary, spare
):
    ops = tuple(words) + ((vm.OP_END, 0),)
    limit = len(ops) + spare
    assume(_silent(ops, limit))
    state = (acc, tuple(sorted(tape.items())), head)
    outputs, steps, timed_out, _ = vm.run_machine(ops, state, primary, secondary, limit, 1)
    assert (outputs, timed_out) == ([], False)
    assert steps <= len(ops)


@pytest.mark.parametrize("steps, silent", [(64, 110), (3, 83), (1, 1)])
def test_a_class_build_runs_no_program_its_code_shows_silent(pool12, steps, silent, monkeypatch):
    run = []
    run_machine = vm.run_machine

    def recording(ops, *args):
        run.append(ops)
        return run_machine(ops, *args)

    monkeypatch.setattr(vm, "run_machine", recording)
    build_class_mixture(pool12, RunBudget(steps), make_heavenhell(0).alphabet, 3, True)
    admitted = {q._ops for q in pool12 if _silent(q._ops, steps)}
    assert len(admitted) == silent
    assert admitted.isdisjoint(run)
    # Each other program's environment code runs, once for every program
    # that shares it.
    codes = {vm.env_code(q._ops) for q in pool12 if q._ops not in admitted}
    assert codes <= {vm.env_code(ops) for ops in run}


OUT, INR, INC, END, LDC2 = (0, 0, 1), (0, 1, 1), (1, 1, 0), (0, 0, 0), (1, 0, 0, 1, 0)


def test_top_names_the_heaviest_program_not_the_heaviest_class(binary_alphabet, budget):
    # Over one cycle the three 12-bit programs emit symbol 1 and share a
    # class of mass 3/2^12; the 11-bit one emits 2, percept 0, alone.
    lights = [
        decode(INC + OUT + OUT + END),
        decode(INR + INC + OUT + END),
        decode(INC + OUT + INC + END),
    ]
    heavy = decode(LDC2 + OUT + END)
    pool = lights + [heavy]
    xi = build_class_mixture(pool, budget, binary_alphabet, 1, True)
    assert [w for _, w, _ in xi.components] == [Fraction(3, 2**12), Fraction(1, 2**11)]
    assert xi.state(EMPTY_HISTORY).top() == heavy.to_hex()
    plain = build_mixture(pool, budget, binary_alphabet)
    assert posterior(plain, EMPTY_HISTORY).top() == heavy.to_hex()


@settings(max_examples=100, deadline=None)
@given(class_cases(), st.data())
def test_top_names_the_heaviest_surviving_program_the_lowest_index_on_ties(case, data):
    """On every history the walk reaches, up to the build's depth, the
    node's ``top``, which ranks survivors by int mass times int share,
    names the shortest program that replays the history, the lowest pool
    index among the shortest."""
    pool, budget, alphabet, depth, _ = case
    xi = build_class_mixture(*case)
    h, node = EMPTY_HISTORY, xi.state(EMPTY_HISTORY)
    while True:
        survivors = [
            i for i, q in enumerate(pool)
            if replay_env(q, h.actions(), budget, alphabet)[0] == h.percepts()
        ]
        heaviest = min(survivors, key=lambda i: (len(pool[i].code), i))
        assert node.top() == pool[heaviest].to_hex()
        y = data.draw(st.sampled_from(alphabet.actions()))
        row = node.step(h, y)
        if len(h) == depth or not row:
            break
        x = data.draw(st.sampled_from(sorted(row, key=alphabet.symbol_of)))
        h, node = append_cycle(h, y, x), row[x][1]


def test_a_class_build_needs_a_depth_and_a_pool(binary_alphabet, budget, pool6):
    with pytest.raises(ValueError):
        build_class_mixture(pool6, budget, binary_alphabet, 0, True)
    with pytest.raises(ValueError):
        build_class_mixture([], budget, binary_alphabet, 1, True)


# --- The walks on core.contexts against their own recursions ---------------


class HalfRow(ChronologicalModel):
    """A model whose row at one context keeps half its mass: not
    chronological wherever a walk reaches that context."""

    def __init__(self, base, leak):
        self.alphabet = base.alphabet
        self.base = base
        self.leak = leak

    def cond_map(self, h, y):
        row = self.base.cond_map(h, y)
        if encode_history(h, y) == self.leak:
            return {x: p / 2 for x, p in row.items()}
        return row


@st.composite
def chronology_checks(draw):
    """A random tabular model, or one leaking at one of its contexts, which
    its zero entries may hide, and a depth to check it to (at most 2 for the
    18 branches a cycle of the larger alphabet)."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    small = alphabet.num_actions == 2
    seed = draw(st.integers(0, 2**16))
    model = random_tabular(alphabet, draw(st.integers(0, 3 if small else 2)), random.Random(seed))
    if model.rows and draw(st.booleans()):
        model = HalfRow(model, draw(st.sampled_from(sorted(model.rows))))
    return model, draw(st.integers(1, 4 if small else 2))


@settings(max_examples=40, deadline=None)
@given(chronology_checks())
def test_the_chronology_check_gives_the_verdict_of_its_recursion(check):
    model, depth = check
    assert check_chronological(model, depth) == reference.check_chronological(model, depth)


def test_a_leak_the_walk_reaches_fails_and_one_it_prunes_passes(binary_alphabet):
    rows = {"y:0": [R0, R1], "y:1": [R1, R0]}
    for y in (0, 1):
        for x in ("r:0/1 o:0", "r:1/1 o:0"):
            rows[f"y:0 {x} y:{y}"] = rows[f"y:1 {x} y:{y}"] = [Fraction(1, 2)] * 2
    model = TabularModel(binary_alphabet, 2, rows)
    reached = HalfRow(model, "y:0 r:1/1 o:0 y:1")
    pruned = HalfRow(model, "y:0 r:0/1 o:0 y:1")  # y:0 never gives reward 0
    for m, verdict in ((model, True), (reached, False), (pruned, True)):
        assert check_chronological(m, 2) is verdict
        assert reference.check_chronological(m, 2) is verdict
    assert check_chronological(reached, 1)  # the leak lies past depth 1


@pytest.mark.parametrize("depth", range(4))
@pytest.mark.parametrize("alphabet", ALPHABETS, ids=["2x2", "3x6"])
# A seed has no simpler form worth a search: a failing one is reported as
# drawn, not shrunk through hundreds of 1,029-row models.
@settings(max_examples=5, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(seed=st.integers(0, 2**16))
def test_random_tabular_draws_the_rows_of_its_recursion(alphabet, depth, seed):
    new = random_tabular(alphabet, depth, random.Random(seed)).dumps().splitlines()
    old = reference.random_tabular(alphabet, depth, random.Random(seed)).dumps().splitlines()
    # the first line that differs, not a diff of a thousand rows
    assert [(a, b) for a, b in itertools.zip_longest(new, old) if a != b][:1] == []
