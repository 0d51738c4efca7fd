import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unimix import models, planner, vm
from unimix.cli import parse_config, run_scenario
from unimix.core import (
    Alphabet,
    CapacityError,
    EMPTY_HISTORY,
    FixedHorizon,
    GeometricDiscount,
    History,
    MovingHorizon,
    Percept,
    ProportionalHorizon,
    append_cycle,
    encode_history,
    horizon_end,
)
from unimix.domains import (
    FunctionClassSpec,
    ProductEpisodeModel,
    RelationSpec,
    make_fm_env,
    make_heavenhell,
    make_lazy,
    make_onlyone,
    make_relation_mixture,
    make_sp_env,
    uniform_function_class,
)
from unimix.evaluate import all_policy_values
from unimix.models import (
    ChronologicalModel,
    FunctionalEnv,
    MixtureModel,
    MixtureNode,
    ProgramEnv,
    TabularModel,
    UndefinedConditionalError,
    build_mixture,
    random_tabular,
)
from unimix.planner import (
    ValueQuery,
    _decide,
    best_action,
    dominance_walk,
    episode_cutoff,
    forced_policy,
    planning_policy,
    policy_value_functional,
    policy_value_iterative,
    run_interaction,
    sample_percept,
    value_given_action,
    value_opt,
)
from unimix.vm import OP_IN, RunBudget, decode, enumerate_programs

import reference
from reference import MachineState, env_cycle, freeze

R0, R1 = Fraction(0), Fraction(1)


def test_single_step_deterministic_value(binary_alphabet):
    env = FunctionalEnv(binary_alphabet, lambda h, y: Percept(R1, 0))
    q = ValueQuery(env, EMPTY_HISTORY, 1, 1)
    assert value_given_action(q, 0) == 1


def test_value_opt_takes_the_max(binary_alphabet):
    rows = {"y:0": (Fraction(1, 2), Fraction(1, 2)), "y:1": (Fraction(1, 4), Fraction(3, 4))}
    env = TabularModel(binary_alphabet, 1, rows)
    q = ValueQuery(env, EMPTY_HISTORY, 1, 1)
    assert value_given_action(q, 0) == Fraction(1, 2)
    assert value_given_action(q, 1) == Fraction(3, 4)
    assert value_opt(q) == Fraction(3, 4)
    assert best_action(q) == 1


def test_heavenhell_informed_values():
    for i in (0, 1):
        env = make_heavenhell(i)
        q = ValueQuery(env, EMPTY_HISTORY, 1, 5)
        assert value_given_action(q, i) == 5
        assert value_given_action(q, 1 - i) == 0
        assert value_opt(q) == 5
        assert best_action(q) == i


def test_exact_tie_breaks_to_the_smaller_action(binary_alphabet):
    env = FunctionalEnv(binary_alphabet, lambda h, y: Percept(R1, 0))
    assert best_action(ValueQuery(env, EMPTY_HISTORY, 1, 3)) == 0


def test_value_query_validates_history_length(binary_alphabet):
    env = make_heavenhell(0)
    h = append_cycle(EMPTY_HISTORY, 0, Percept(R1, 0))
    with pytest.raises(ValueError):
        ValueQuery(env, h, 1, 3)


def test_value_opt_matches_brute_force_on_random_tabular(binary_alphabet):
    for seed in range(5):
        env = random_tabular(binary_alphabet, 3, random.Random(seed))
        vals = all_policy_values(env, 3)
        assert value_opt(ValueQuery(env, EMPTY_HISTORY, 1, 3)) == max(vals)


def test_bellman_consistency_at_every_expanded_node(binary_alphabet):
    env = random_tabular(binary_alphabet, 2, random.Random(11))
    m = 3

    def walk(h, k):
        q = ValueQuery(env, h, k, m)
        assert value_opt(q) == max(value_given_action(q, y) for y in (0, 1))
        if k < m:
            for y in (0, 1):
                for x in binary_alphabet.percepts():
                    walk(append_cycle(h, y, x), k + 1)

    walk(EMPTY_HISTORY, 1)


def test_no_policy_beats_the_optimal_value(binary_alphabet):
    env = random_tabular(binary_alphabet, 3, random.Random(3))
    v_star = value_opt(ValueQuery(env, EMPTY_HISTORY, 1, 3))
    assert all(v <= v_star for v in all_policy_values(env, 3))


def test_geometric_damping_shrinks_later_starts(binary_alphabet):
    env = FunctionalEnv(binary_alphabet, lambda h, y: Percept(R1, 0))
    g = GeometricDiscount(Fraction(1, 2), 6)
    values = []
    h = EMPTY_HISTORY
    for k in range(1, 5):
        values.append(value_opt(ValueQuery(env, h, k, 6, g)))
        h = append_cycle(h, 0, Percept(R1, 0))
    assert all(a >= b for a, b in zip(values, values[1:]))


BINARY = Alphabet(num_actions=2, num_observations=1, rewards=(R0, R1))
ALPHABETS = (
    BINARY,
    Alphabet(num_actions=3, num_observations=2, rewards=(R0, Fraction(1, 2), R1)),
)
HORIZONS = st.one_of(
    st.builds(FixedHorizon, st.integers(1, 6)),
    st.builds(MovingHorizon, st.integers(1, 3)),
    st.builds(ProportionalHorizon, st.sampled_from((Fraction(1, 2), R1, Fraction(3, 2)))),
    st.builds(
        GeometricDiscount, st.sampled_from((Fraction(1, 2), Fraction(2, 3))), st.integers(1, 5)
    ),
)


@st.composite
def planning_runs(draw):
    """A model, a horizon policy and a lifetime for one planning agent."""
    kind = draw(st.sampled_from(("tabular", "heavenhell", "fm", "programs")))
    if kind == "tabular":
        seed = draw(st.integers(0, 2**16))
        model = random_tabular(BINARY, draw(st.integers(2, 3)), random.Random(seed))
    elif kind == "heavenhell":
        model = make_heavenhell(draw(st.integers(0, 1)))
    elif kind == "fm":  # a mixture whose rows split on every percept
        model = draw(fm_classes())
    else:
        alphabet = draw(st.sampled_from(ALPHABETS))
        pool = enumerate_programs(draw(st.integers(6, 8)))
        budget = RunBudget(draw(st.integers(1, 5)))  # small enough to time out
        model = build_mixture(pool, budget, alphabet)
    return model, draw(HORIZONS), draw(st.integers(1, 5))


@settings(max_examples=80, deadline=None)
@given(planning_runs(), st.data())
def test_a_carried_plan_equals_a_fresh_solve(case, data):
    """One agent called on a history that extends its last call's by the
    action it took (the memo answers) or by another one, with any percept of
    positive mass, or that jumps back to a prefix or over to a sibling
    branch: each decision and value equals a fresh solve, and the belief it
    planned from is ``model.state(h)``'s."""
    model, horizon, lifetime = case
    policy = planning_policy(model, horizon, lifetime)
    actions = list(model.alphabet.actions())
    h = EMPTY_HISTORY
    for _ in range(2 * lifetime):
        k = len(h) + 1
        y = policy(h)
        m_k = horizon_end(horizon, k, lifetime)
        assert (y, policy.values[k]) == _decide(ValueQuery(model, h, k, m_k, horizon))
        assert policy.beliefs[k] == model.state(h)
        moves = ["follow", "deviate"][: len(actions)] if k < lifetime else []
        if h.cycles:
            moves += ["back", "sibling"]
        if not moves:
            break
        move = data.draw(st.sampled_from(moves), label="move")
        if move == "back":
            h = History(h.cycles[: data.draw(st.integers(0, len(h) - 1), label="prefix")])
            continue
        if move == "sibling":
            h = History(h.cycles[:-1])
            y = data.draw(st.sampled_from(actions), label="action")
        elif move == "deviate":
            y = data.draw(st.sampled_from([a for a in actions if a != y]), label="action")
        reachable = [x for x, p in model.cond_map(h, y).items() if p > 0]
        if not reachable:  # every program timed out
            break
        h = append_cycle(h, y, data.draw(st.sampled_from(reachable), label="percept"))


def test_a_fixed_horizon_run_solves_only_at_the_first_cycle():
    calls = []
    env = make_heavenhell(1)
    rule = env.rule
    env.rule = lambda h, y: calls.append(len(h)) or rule(h, y)
    policy = planning_policy(env, FixedHorizon(6), 6)
    h = EMPTY_HISTORY
    for k in range(1, 7):
        y = policy(h)
        if k == 1:
            solved = len(calls)
            # both actions at cycle 1, then at each of the two states (the
            # first action) at cycles 2..6: one solve per (key, t)
            assert solved == 2 + 2 * 2 * 5
        h = append_cycle(h, y, rule(h, y))
    # then one belief step per later cycle, from the previous history, and
    # no solve: 27 calls in all
    assert calls[solved:] == [0, 1, 2, 3, 4]
    assert h.rewards() == (R1,) * 6


# --- Transposition: one solve per (model key, cycle) ------------------------


class Unmerged(ChronologicalModel):
    """A model with the default key, the history itself: a planner on it
    merges no two nodes and solves the whole history tree."""

    def __init__(self, model):
        self.model, self.alphabet = model, model.alphabet

    def state(self, h):
        return self.model.state(h)

    def weights(self, state, h, y):
        return self.model.weights(state, h, y)

    def mass(self, state):
        return self.model.mass(state)

    def cond_map(self, h, y):
        return self.model.cond_map(h, y)


class Coin(ChronologicalModel):
    """Percepts drawn afresh each cycle from a random row per action, so
    nothing of the history is remembered."""

    alphabet = BINARY

    def __init__(self, rng):
        self.rows = []
        for _ in BINARY.actions():
            weights = [rng.randint(1, 4) for _ in BINARY.percepts()]
            self.rows.append(
                {x: Fraction(w, sum(weights)) for x, w in zip(BINARY.percepts(), weights)}
            )

    def cond_map(self, h, y):
        return self.rows[y]

    def key(self, state, h):
        return ()


# While its tape cell holds 0, a cycle stores the action there and emits 0;
# once the cell holds a nonzero action, every cycle emits it.  A storing
# cycle leaves the register and head at 0 whatever the action, so only the
# tape tells the actions apart.
#   MOVT 3; JZ 3; OUT; IN; MOVT 2; LDC 0; OUT; END
TAPE = decode((1, 1, 1, 1, 1) + (1, 0, 1, 1, 1) + (0, 0, 1) + (0, 1, 0)
              + (1, 1, 1, 1, 0) + (1, 0, 0, 0, 0) + (0, 0, 1) + (0, 0, 0))
SP_SOURCES = (
    {(0, 1, 1): Fraction(1, 2), (1, 1, 0): Fraction(1, 4), (0, 0, 0): Fraction(1, 4)},
    {(1, 0): Fraction(2, 3), (0, 1): Fraction(1, 3)},
)
TRANSPOSITION_HORIZONS = st.one_of(
    st.builds(FixedHorizon, st.integers(1, 4)),
    st.builds(MovingHorizon, st.integers(1, 3)),
    st.builds(
        GeometricDiscount, st.sampled_from((Fraction(1, 2), Fraction(2, 3))), st.integers(1, 4)
    ),
)


@st.composite
def transposition_cases(draw):
    """A model, a history of 0-2 cycles of positive mass, and a query on it."""
    kind = draw(st.sampled_from(
        ("tabular", "tape", "programs", "coins", "fm", "sp", "onlyone", "heavenhell")
    ))
    if kind == "tabular":
        seed = draw(st.integers(0, 2**16))
        model = random_tabular(BINARY, draw(st.integers(2, 3)), random.Random(seed))
    elif kind == "tape":  # it needs six steps per cycle
        model = ProgramEnv(TAPE, RunBudget(8), draw(st.sampled_from(ALPHABETS)))
    elif kind == "programs":
        alphabet = draw(st.sampled_from(ALPHABETS))
        budget = RunBudget(draw(st.integers(1, 5)))  # small enough to time out
        components = [
            (q.to_hex(), q.weight, ProgramEnv(q, budget, alphabet))
            for q in enumerate_programs(draw(st.integers(6, 9)))
        ]
        tape = ProgramEnv(TAPE, RunBudget(8), alphabet)
        model = MixtureModel(components + [("tape", TAPE.weight, tape)], alphabet)
    elif kind == "coins":
        rng = random.Random(draw(st.integers(0, 2**16)))
        coins = [Coin(rng) for _ in range(draw(st.integers(2, 3)))]
        model = MixtureModel(
            [(f"coin{i}", Fraction(1, 4), c) for i, c in enumerate(coins)], BINARY
        )
    elif kind == "fm":
        model = make_fm_env(uniform_function_class(2, tuple(map(Fraction, (1, 2, 3, 4)))))
    elif kind == "sp":
        model = make_sp_env(draw(st.sampled_from(SP_SOURCES)))
    elif kind == "onlyone":
        n = draw(st.integers(2, 3))
        model = make_onlyone(n, draw(st.integers(0, n - 1)))
    else:
        model = make_heavenhell(draw(st.integers(0, 1)))
    horizon, lifetime = draw(TRANSPOSITION_HORIZONS), draw(st.integers(1, 4))
    h = EMPTY_HISTORY
    for _ in range(draw(st.integers(0, min(2, lifetime - 1)))):
        y = draw(st.sampled_from(model.alphabet.actions()))
        reachable = [x for x, p in model.cond_map(h, y).items() if p > 0]
        if not reachable:  # every program timed out
            break
        h = append_cycle(h, y, draw(st.sampled_from(reachable)))
    k = len(h) + 1
    return model, h, k, horizon_end(horizon, k, lifetime), horizon


@settings(max_examples=200, deadline=None)
@given(transposition_cases())
def test_a_merged_solve_equals_the_whole_tree(case):
    """Solving each (key, t) once gives the action and value of solving every
    node of the history tree."""
    model, h, k, m_k, horizon = case
    assert _decide(ValueQuery(model, h, k, m_k, horizon)) == _decide(
        ValueQuery(Unmerged(model), h, k, m_k, horizon)
    )


def count_method_calls(monkeypatch, calls):
    """A function that makes each later call of ``cls.<name>`` add one to
    ``calls[name]``, undone at the test's end."""

    def count(cls, name):
        f = getattr(cls, name)

        def counting(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return f(*args, **kwargs)

        monkeypatch.setattr(cls, name, counting)

    return count


def count_calls(obj, name):
    """A list that grows by one on each later call of ``obj.<name>``."""
    calls, f = [], getattr(obj, name)
    setattr(obj, name, lambda *args: calls.append(None) or f(*args))
    return calls


def first_decision(model, lifetime):
    planning_policy(model, FixedHorizon(lifetime), lifetime)(EMPTY_HISTORY)


def test_informed_heavenhell_at_the_lifetime_cap_solves_a_chain():
    env = make_heavenhell(1)
    calls = count_calls(env, "rule")
    first_decision(env, 64)
    assert len(calls) <= 4 * 64


def test_informed_onlyone_solves_one_node_per_cycle():
    env = make_onlyone(4, 0)
    calls = count_calls(env, "rule")
    first_decision(env, 12)
    assert len(calls) <= 4 * 12 * 4


def test_a_heavenhell_mixture_solves_each_belief_state_once(pool12):
    xi = build_mixture(pool12, RunBudget(64), make_heavenhell(0).alphabet)
    calls = count_calls(xi, "weights")
    first_decision(xi, 8)
    assert len(calls) <= 250  # 2,458 on the whole history tree


@pytest.mark.parametrize("config_seed", [0, 1])
def test_a_mixture_run_makes_a_pinned_number_of_vm_cycles(config_seed, monkeypatch):
    # The planner's solves and belief steps share each program's transition
    # table, so a (state, action) pair runs once a run; without the table
    # the run makes 240.  A program that never reads the action runs once
    # per state, not once per (state, action) pair: keyed by the action too,
    # the run makes 172.  The class build signs silent programs from their
    # code, and each environment code once for every program that shares
    # it: it makes 82 cycles (158 signing each program), and the run one
    # more, for the silent class's leader (3:0), whose table the build left
    # empty.
    calls = []
    run_machine = vm.run_machine

    def counting(*args, **kwargs):
        calls.append(1)
        return run_machine(*args, **kwargs)

    monkeypatch.setattr(vm, "run_machine", counting)
    cfg = parse_config(
        "scenario=heavenhell\nagent=mixture\nl=12\nlifetime=3\n"
        f"seed={config_seed}\ni={config_seed % 2}\n"
    )
    run_scenario(cfg)
    assert len(calls) == 83
    # Past the class cap the build signs the pool again by the reader rule,
    # to 14 components: 97 cycles over both attempts, and 37 on demand for
    # the readers, one class per environment code.  With each reader its
    # own class, 28 components made 208; falling back to one component per
    # program made 484.
    calls.clear()
    monkeypatch.setattr(models, "CLASS_CAP", 100)
    run_scenario(cfg)
    assert len(calls) == 134


@pytest.mark.parametrize(
    "horizon, lifetime, splits, rows",
    [("moving:1", 64, 63, 128), ("moving:6", 64, 749, 148), ("", 3, 12, 22)],
)
def test_a_mixture_run_steps_its_belief_once_a_cycle(
    horizon, lifetime, splits, rows, monkeypatch
):
    # The policy builds one belief from the empty history and steps it one
    # cycle per decision, and the posterior_top column reads the beliefs it
    # stepped.  Replaying the history for each decision, and once more for
    # the column, made 2,207 splits (moving:1) and 4,132 (moving:6), with 64
    # and 59 MixtureModel.state calls.  On the per-program mixture, which
    # splits all 193 programs, moving:6 made 2,421: a moving horizon's
    # build leaves only the programs that read the action unsigned.  A
    # plan's last cycle reads the last-cycle row, which builds no node, in
    # place of a split: each pair adds up to the splits made when it split
    # there too (191, 897 and 34).
    calls = {}
    count = count_method_calls(monkeypatch, calls)
    count(MixtureNode, "split")
    count(MixtureModel, "last_weights")
    count(MixtureModel, "state")
    cfg = parse_config(
        f"scenario=heavenhell\nagent=mixture\nl=12\nlifetime={lifetime}\nhorizon={horizon}\n"
    )
    run_scenario(cfg)
    assert calls == {"split": splits, "last_weights": rows, "state": 1}


POOLS = {n: enumerate_programs(n) for n in range(6, 10)}
PROGRAMS = st.one_of(
    st.just(TAPE), st.sampled_from(range(6, 10)).flatmap(lambda n: st.sampled_from(POOLS[n]))
)


@settings(max_examples=300, deadline=None)
@given(PROGRAMS, st.integers(1, 8), st.sampled_from(ALPHABETS), st.data())
def test_a_tabled_program_steps_as_a_copied_machine(q, steps, alphabet, data):
    """``ProgramEnv.weights`` answers from its table what copying the machine
    and running one ``env_cycle`` gives, on states and actions visited in
    any order, and against a fresh model whose table is empty."""
    budget = RunBudget(steps)  # below 6, TAPE always times out
    env = ProgramEnv(q, budget, alphabet)
    # A program whose environment code (the instructions up to its first
    # OUT, unless a JZ comes first) holds no IN never reads the action: it
    # has one row per state.
    reads_action = any(op == OP_IN for op, _ in reference.environment_code(q._ops))
    # Every history reached: (h, the model's state, a reference machine or
    # None once a cycle has timed out).
    reached = [(EMPTY_HISTORY, env.state(EMPTY_HISTORY), MachineState())]
    pairs = set()
    for _ in range(data.draw(st.integers(1, 12))):
        h, state, machine = data.draw(st.sampled_from(reached))
        y = data.draw(st.sampled_from(alphabet.actions()))
        model = env if data.draw(st.booleans()) else ProgramEnv(q, budget, alphabet)
        # env.state(h') below walks env's table through this pair too.
        if state is not None:
            pairs.add((state, y if reads_action else None))
        row = model.weights(state, h, y)
        if machine is None:
            assert state is None and row == {}
            continue
        assert model.key(state, h) == freeze(machine)
        s = machine.copy()
        x, s, _, timed_out = env_cycle(q, s, y, budget, alphabet)
        if timed_out:
            assert row == {}
            h = append_cycle(h, y, alphabet.percepts()[0])
            assert env.state(h) is None
            reached.append((h, None, None))
            continue
        assert list(row) == [x]
        p, child = row[x]
        assert p == 1
        h = append_cycle(h, y, x)
        assert model.key(child, h) == freeze(s)
        assert env.state(h) == child  # the replayed machine, frozen
        reached.append((h, child, s))
    assert len(env._table) == len(pairs)  # one row per distinct pair


class TestRunInteraction:
    def test_informed_agent_on_its_own_deterministic_env(self):
        env = make_heavenhell(1)
        agent = planning_policy(env, FixedHorizon(4), 4)
        h = run_interaction(agent, env, 4, seed=0)
        assert h.actions()[0] == 1
        assert sum(h.rewards()) == 4

    def test_fixed_seed_replays_identically(self, binary_alphabet):
        env = random_tabular(binary_alphabet, 2, random.Random(2))
        agent = planning_policy(env, FixedHorizon(4), 4)
        assert run_interaction(agent, env, 4, seed=9) == run_interaction(
            agent, env, 4, seed=9
        )

    def test_different_seeds_can_differ(self, binary_alphabet):
        env = random_tabular(binary_alphabet, 2, random.Random(2))
        agent = planning_policy(env, FixedHorizon(4), 4)
        runs = {run_interaction(agent, env, 4, seed=s) for s in range(8)}
        assert len(runs) > 1


@pytest.mark.parametrize("config_seed", [0, 1])
def test_an_informed_fm_run_builds_no_percept_and_splits_once_a_cycle(
    config_seed, monkeypatch
):
    # The fm rules answer with the percepts made with the world, and the
    # world's own draw steps its carried tree: replaying the history for
    # each draw made 72 splits, and the rules built 252 percepts (seed 0),
    # each with a reward_of call.  The policy steps its belief once at each
    # later cycle (2 splits) and takes those decisions from its memo.  The
    # plan's last cycle reads 48 last-cycle rows, which build no node, where
    # it made 48 of 71 splits.
    cfg = parse_config(
        f"scenario=fm\nagent=informed\nclass=uniform16\nlifetime=3\nseed={config_seed}\n"
    )
    env = make_fm_env(uniform_function_class(2, tuple(map(Fraction, (1, 2, 3, 4)))))
    policy = planning_policy(env, cfg.horizon, cfg.lifetime)
    calls = {}
    count = count_method_calls(monkeypatch, calls)
    count(Percept, "__init__")
    count(FunctionClassSpec, "reward_of")
    count(MixtureNode, "split")
    count(MixtureModel, "last_weights")
    run_interaction(policy, env, cfg.lifetime, cfg.seed)
    assert calls == {"split": 23, "last_weights": 48}


def replayed_run(agent, env, lifetime, seed):
    """``run_interaction`` as a loop that draws each percept from
    ``env.cond_map`` on the whole history."""
    rng = random.Random(seed)
    h = EMPTY_HISTORY
    for _ in range(lifetime):
        y = agent(h)
        h = append_cycle(h, y, sample_percept(rng, env.cond_map(h, y), env.alphabet))
    return h


@st.composite
def sp_mixtures(draw):
    length = draw(st.integers(1, 4))
    seqs = draw(st.lists(
        st.tuples(*[st.integers(0, 1)] * length), min_size=1, max_size=4, unique=True
    ))
    weights = [draw(st.integers(1, 4)) for _ in seqs]
    return make_sp_env({z: Fraction(w, sum(weights)) for z, w in zip(seqs, weights)})


@st.composite
def fm_classes(draw):
    zs = sorted(draw(st.sets(st.integers(0, 5), min_size=1, max_size=3)))
    tables = uniform_function_class(draw(st.integers(1, 3)), tuple(map(Fraction, zs))).prior
    chosen = draw(st.lists(st.sampled_from(tables), min_size=1, unique=True))
    weights = [draw(st.integers(1, 4)) for _ in chosen]
    prior = tuple((f, Fraction(w, sum(weights))) for (f, _), w in zip(chosen, weights))
    return make_fm_env(FunctionClassSpec(len(chosen[0][0]), tuple(map(Fraction, zs)), prior))


@st.composite
def relation_mixtures(draw):
    num_z, num_actions = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    pairs = [(z, v) for z in range(num_z) for v in range(num_actions)]
    specs = []
    for _ in range(draw(st.integers(1, 3))):
        relation = frozenset(p for p in pairs if draw(st.booleans()))
        shown = [(z, None) for z in range(num_z)] + sorted(relation)
        weights = [draw(st.integers(0, 3)) for _ in shown]
        weights[0] += sum(weights) == 0
        presentation = tuple(
            (zv, Fraction(w, sum(weights))) for zv, w in zip(shown, weights)
        )
        specs.append(RelationSpec(num_z, num_actions, relation, presentation))
    return make_relation_mixture([(r, Fraction(1, len(specs))) for r in specs])


WORLDS = st.one_of(
    st.builds(
        random_tabular,
        st.sampled_from(ALPHABETS),
        st.integers(1, 3),
        st.builds(random.Random, st.integers(0, 2**16)),
    ),
    fm_classes(),
    sp_mixtures(),
    relation_mixtures(),
)


@settings(max_examples=150, deadline=None)
@given(WORLDS, st.integers(0, 2**16), st.integers(1, 6), st.integers(0, 50))
def test_a_run_carrying_the_world_draws_the_history_of_a_replayed_one(
    env, agent_seed, lifetime, seed
):
    """Carrying the world's state from cycle to cycle draws each percept
    from the row ``cond_map`` gives on the whole history, with the same
    generator: the same run."""
    actions = env.alphabet.num_actions

    def agent(h):  # any fixed function of the history
        return random.Random(f"{agent_seed} {encode_history(h)}").randrange(actions)

    assert run_interaction(agent, env, lifetime, seed) == replayed_run(
        agent, env, lifetime, seed
    )


class TestEpisodeCutoff:
    def test_truncates_to_the_episode_end(self):
        assert episode_cutoff((0, 3, 6), 2, 10) == 3

    def test_keeps_a_nearer_horizon(self):
        assert episode_cutoff((0, 3, 6), 4, 5) == 5

    def test_rejects_cycles_past_the_last_boundary(self):
        with pytest.raises(ValueError):
            episode_cutoff((0, 3, 6), 7, 10)

    @pytest.mark.parametrize("boundaries", [(), (1, 3), (0, 3, 3), (0, 4, 2)])
    def test_rejects_boundaries_that_are_not_increasing_from_0(self, boundaries):
        with pytest.raises(ValueError, match="strictly increasing"):
            episode_cutoff(boundaries, 1, 10)

    def test_cutoff_planning_matches_full_horizon_on_product_envs(self, binary_alphabet):
        eps = [
            random_tabular(binary_alphabet, 2, random.Random(s)) for s in (1, 2)
        ]
        env = ProductEpisodeModel(eps, 2)
        boundaries = env.boundaries
        h = EMPTY_HISTORY
        for k in range(1, 3):  # first episode
            full = best_action(ValueQuery(env, h, k, 4))
            cut = best_action(ValueQuery(env, h, k, episode_cutoff(boundaries, k, 4)))
            assert full == cut
            h = append_cycle(h, full, Percept(R1, 0))


class TestPolicyValues:
    def test_optimal_policy_value_equals_value_opt(self, binary_alphabet):
        env = random_tabular(binary_alphabet, 3, random.Random(4))
        agent = planning_policy(env, FixedHorizon(3), 3)
        assert policy_value_iterative(agent, env, 1, 3, EMPTY_HISTORY) == value_opt(
            ValueQuery(env, EMPTY_HISTORY, 1, 3)
        )

    def test_iterative_matches_exhaustive_outcome_sum(self, binary_alphabet):
        env = random_tabular(binary_alphabet, 3, random.Random(6))
        policy = lambda h: len(h) % 2
        expected = Fraction(0)
        for percepts in itertools.product(binary_alphabet.percepts(), repeat=3):
            h = EMPTY_HISTORY
            mass = Fraction(1)
            reward = Fraction(0)
            for x in percepts:
                y = policy(h)
                mass *= env.cond_map(h, y).get(x, Fraction(0))
                reward += x.reward
                h = append_cycle(h, y, x)
            expected += mass * reward
        assert policy_value_iterative(policy, env, 1, 3, EMPTY_HISTORY) == expected

    def test_inconsistent_policy_is_rejected(self, binary_alphabet):
        env = random_tabular(binary_alphabet, 2, random.Random(0))
        h = append_cycle(EMPTY_HISTORY, 1, Percept(R0, 0))
        always_zero = lambda _: 0
        with pytest.raises(ValueError):
            policy_value_iterative(always_zero, env, 2, 3, h)


class TestFunctionalValue:
    def test_singleton_pool_is_a_plain_rollout(self, binary_alphabet, budget, pool8):
        q = pool8[0]
        v = policy_value_functional(q, [q], 1, 3, EMPTY_HISTORY, budget, binary_alphabet)
        # pool programs at 8 bits only emit reward-0 symbols
        assert v == 0

    def test_agrees_with_iterative_under_the_same_mixture(
        self, binary_alphabet, budget, pool12
    ):
        pool = pool12[:40]
        mix = build_mixture(pool, budget, binary_alphabet)
        for p in pool[:10]:
            vf = policy_value_functional(p, pool, 1, 2, EMPTY_HISTORY, budget, binary_alphabet)
            vi = policy_value_iterative(
                forced_policy(p, EMPTY_HISTORY, budget, binary_alphabet), mix, 1, 2, EMPTY_HISTORY
            )
            assert vf == vi

    def test_empty_consistent_set_raises(self, budget, pool8):
        a = Alphabet(num_actions=2, num_observations=8, rewards=(R0, R1))
        h = append_cycle(EMPTY_HISTORY, 0, Percept(R1, 7))
        with pytest.raises(UndefinedConditionalError):
            policy_value_functional(pool8[0], pool8, 2, 3, h, budget, a)

    def test_forced_history_then_free_future(self, binary_alphabet, budget, pool12):
        """The history's actions are replayed even if the program disagrees."""
        echo = next(p for p in pool12 if p.length_bits == 9)
        h = append_cycle(EMPTY_HISTORY, 1, Percept(R1, 0))
        fp = forced_policy(echo, h, budget, binary_alphabet)
        assert fp(EMPTY_HISTORY) == 1
        v = policy_value_functional(echo, pool12, 2, 3, h, budget, binary_alphabet)
        assert v >= 0  # defined despite any past inconsistency
        # A horizon that ends before cycle k sums no cycle.
        assert policy_value_functional(echo, pool12, 2, 1, h, budget, binary_alphabet) == 0


# lazy merges no histories, so a decision to m_k solves 2^(m_k - k + 1) - 1 nodes.


def test_the_decisions_of_one_policy_share_the_memo_cap(monkeypatch):
    monkeypatch.setattr(planner, "PLAN_MEMO_CAP", 40)
    env = make_lazy(8)
    policy = planning_policy(env, MovingHorizon(4), 8)
    # 15 nodes a decision: cycles 1 and 2 spend 30, cycle 3 passes 40.
    with pytest.raises(CapacityError, match="the decisions up to cycle 3 solved more than 40 "):
        run_interaction(policy, env, 8)
    assert sorted(policy.values) == [1, 2]


def test_decisions_taken_from_a_kept_plan_cost_nothing(monkeypatch):
    # Cycle 1 solves 2^5 - 1 = 31 nodes, cycles 2-5 find theirs in its memo,
    # and cycles 6-8 (m_k = k) solve one node each: 34 in all.
    env = make_lazy(8)
    monkeypatch.setattr(planner, "PLAN_MEMO_CAP", 34)
    h = run_interaction(planning_policy(env, FixedHorizon(5), 8), env, 8)
    assert len(h) == 8
    monkeypatch.setattr(planner, "PLAN_MEMO_CAP", 33)
    with pytest.raises(CapacityError, match="the decisions up to cycle 8 solved more than 33 "):
        run_interaction(planning_policy(env, FixedHorizon(5), 8), env, 8)
    monkeypatch.setattr(planner, "PLAN_MEMO_CAP", 30)
    with pytest.raises(CapacityError, match="the decisions up to cycle 1 solved more than 30 "):
        run_interaction(planning_policy(env, FixedHorizon(5), 8), env, 8)


# --- The dominance walk on core.contexts against its own recursion ---------


@st.composite
def dominance_walks(draw):
    """An alphabet, a depth (at most 2 for the 18 branches a cycle of the
    larger alphabet), a lifetime or none, and the odds against geq."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    depth = draw(st.integers(1, 4 if alphabet is BINARY else 2))
    lifetime = draw(st.none() | st.integers(depth, depth + 2))
    return alphabet, depth, lifetime, draw(st.sampled_from((1, 2, 10, 100, 10**9)))


@settings(max_examples=40, deadline=None)
@given(dominance_walks(), st.integers(0, 2**16))
def test_the_dominance_walk_asks_geq_what_its_recursion_asks(walk, seed):
    # geq fails on a random set of histories, so each walk stops at its
    # first failure, if any: the logs must agree up to and including it.
    alphabet, depth, lifetime, odds = walk

    def geq_logging_into(log):
        def geq(h, m_k):
            log.append((encode_history(h), m_k))
            return random.Random(f"{seed} {encode_history(h)}").randrange(odds) != 0

        return geq

    new, old = [], []
    verdict = dominance_walk(geq_logging_into(new), alphabet, depth, lifetime)
    assert verdict == reference.dominance_walk(geq_logging_into(old), alphabet, depth, lifetime)
    assert [(a, b) for a, b in itertools.zip_longest(new, old) if a != b][:1] == []


def test_the_dominance_walk_refuses_a_depth_below_one():
    # the walk once asked geq about the empty history at depth 0
    with pytest.raises(ValueError, match="depth >= 1"):
        dominance_walk(lambda h, m_k: True, BINARY, 0)
