"""Acceptance suite: one test per shipped guarantee.

Every test checks its guarantee end to end against an independent oracle
(exhaustive enumeration, direct simulation, or closed-form numbers) and
prints one PASS line on success; a failed assertion is the FAIL line.
"""

import itertools
import random
from fractions import Fraction

from unimix.bestvote import (
    ExtendedCandidate,
    candidate_value,
    eff_intel_geq,
    make_composite,
    replay_candidate,
    run_best_vote,
)
from unimix.cli import parse_config, run_scenario
from unimix.core import (
    Alphabet,
    EMPTY_HISTORY,
    FixedHorizon,
    History,
    Percept,
    append_cycle,
)
from unimix.domains import (
    GameSpec,
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
from unimix.evaluate import (
    LN2_UPPER,
    LossMatrix,
    check_loss_bound,
    pareto_check,
    proper_members,
)
from unimix.models import (
    MixtureModel,
    ProgramEnv,
    build_mixture,
    check_chronological,
    random_tabular,
    sq_distance_sum,
)
from unimix.evaluate import all_policy_values
from unimix.planner import (
    ValueQuery,
    best_action,
    planning_policy,
    policy_value_functional,
    policy_value_iterative,
    forced_policy,
    value_given_action,
    value_opt,
)
from unimix.models import UndefinedConditionalError
from unimix.vm import RunBudget, enumerate_programs, kraft_sum

F = Fraction


def _report(num, name):
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def _alphabet(num_actions, num_percepts):
    rewards = tuple(F(i, num_percepts - 1) for i in range(num_percepts))
    return Alphabet(num_actions=num_actions, num_observations=1, rewards=rewards)


def test_criterion_01_expectimax_matches_exhaustive_policy_search():
    """Optimal value == max over every deterministic policy, 20 random cases."""
    combos = [(2, 2, 3), (3, 3, 2), (3, 2, 3), (2, 3, 3), (2, 2, 4)]
    checked = 0
    for num_actions, num_percepts, m in combos:
        a = _alphabet(num_actions, num_percepts)
        for seed in range(4):
            env = random_tabular(a, m, random.Random(100 * m + seed))
            expect = value_opt(ValueQuery(env, EMPTY_HISTORY, 1, m))
            assert expect == max(all_policy_values(env, m))
            checked += 1
    assert checked >= 20
    _report(1, "expectimax equals exhaustive policy enumeration")


def test_criterion_02_functional_and_iterative_values_agree():
    """Program-sum value == mixture-recursion value, all programs/histories."""
    a = _alphabet(2, 2)
    budget = RunBudget(32)
    pool = enumerate_programs(8)
    mix = build_mixture(pool, budget, a)

    def histories(depth):
        if depth == 0:
            yield EMPTY_HISTORY
            return
        for h in histories(depth - 1):
            for y in a.actions():
                for x in a.percepts():
                    yield append_cycle(h, y, x)

    defined = 0
    for depth in range(3):
        for h in histories(depth):
            k = depth + 1
            for m in range(k, 4):
                for p in pool:
                    try:
                        vf = policy_value_functional(p, pool, k, m, h, budget, a)
                    except UndefinedConditionalError:
                        continue
                    vi = policy_value_iterative(
                        forced_policy(p, h, budget, a), mix, k, m, h
                    )
                    assert vf == vi, (p.to_hex(), depth, k, m)
                    defined += 1
    assert defined > 100
    _report(2, "functional and iterative mixture values agree")


def test_criterion_03_two_door_worlds_break_every_fixed_policy():
    """Any single policy has worst-case value 0; the informed agent scores m."""
    envs = (make_heavenhell(0), make_heavenhell(1))
    for m in range(1, 9):
        # a policy is an action for the empty context plus one for each
        # prefix of the two constant percept chains the worlds can produce
        n_contexts = 2 * m - 1

        def run(assignment, env):
            h = EMPTY_HISTORY
            total = F(0)
            for k in range(1, m + 1):
                if k == 1:
                    y = assignment[0]
                else:
                    sym = 1 if h.percepts()[0].reward == 1 else 0
                    y = assignment[1 + 2 * (k - 2) + sym]
                (x,) = env.cond_map(h, y)
                total += x.reward
                h = append_cycle(h, y, x)
            return total

        for assignment in itertools.product((0, 1), repeat=n_contexts):
            assert min(run(assignment, e) for e in envs) == 0
        for i, env in enumerate(envs):
            agent_value = value_opt(ValueQuery(env, EMPTY_HISTORY, 1, m))
            assert agent_value == m
            assert best_action(ValueQuery(env, EMPTY_HISTORY, 1, m)) == i
    _report(3, "no fixed policy survives both two-door worlds")


def test_criterion_04_needle_worlds_force_n_minus_1_errors():
    """Against the worst target, any fixed policy errs >= N-1 times."""
    for n in range(2, 9):
        # the environments are memoryless: verify that, then read rewards
        # from a per-action table so the 2M-policy loop stays cheap
        tables = []
        for y_star in range(n):
            env = make_onlyone(n, y_star)
            row = []
            for y in range(n):
                (x,) = env.cond_map(EMPTY_HISTORY, y)
                deep = EMPTY_HISTORY
                for yy in (0, n - 1, y):
                    (xx,) = env.cond_map(deep, yy)
                    deep = append_cycle(deep, yy, xx)
                (x_deep,) = env.cond_map(deep, y)
                assert x_deep == x
                row.append(x.reward)
            tables.append(row)
        # along the all-miss percept chain a policy is just its first N-1
        # actions; any such sequence avoids some target entirely
        for actions in itertools.product(range(n), repeat=n - 1):
            avoided = set(range(n)) - set(actions)
            assert avoided
            table = tables[min(avoided)]
            errors = sum(1 for y in actions if table[y] == 0)
            assert errors >= n - 1
    _report(4, "needle-in-a-haystack worlds force N-1 errors")


def test_criterion_05_function_minimization_worked_numbers():
    c = uniform_function_class(2, (F(1), F(2), F(3), F(4)))
    env = make_fm_env(c)

    def expected_z(h, y):
        return sum(
            (p * c.z_values[x.observation] for x, p in env.cond_map(h, y).items()),
            F(0),
        )

    assert expected_z(EMPTY_HISTORY, 0) == F(5, 2)
    assert expected_z(EMPTY_HISTORY, 1) == F(5, 2)
    # after observing f(0) = 2 the queried point is pinned, the other is not
    h = append_cycle(EMPTY_HISTORY, 0, Percept(c.reward_of(1), 1))
    assert expected_z(h, 0) == 2
    assert expected_z(h, 1) == F(5, 2)

    # the greedy agent settles on y=0 for cycles 2-10
    cfg = parse_config(
        "scenario=fm\nagent=greedy\nlifetime=10\nclass=uniform16\nseed=0\n"
    )
    rows = run_scenario(cfg).trace_csv.strip().splitlines()[1:]
    assert [r.split(",")[1] for r in rows[1:]] == ["0"] * 9

    # with horizon m=5 the planner explores where greedy stays put
    q = ValueQuery(env, h, 2, 5)
    assert value_given_action(q, 0) == F(8, 3)   # keep querying the known point
    assert value_given_action(q, 1) == F(11, 4)  # probe the unknown point
    assert best_action(q) == 1
    greedy_q = ValueQuery(env, h, 2, 2)
    assert best_action(greedy_q) == 0
    _report(5, "function-minimization worked numbers and plan split")


def test_criterion_06_prediction_planner_equals_the_bayes_predictor():
    """Planner action == most probable next bit, for 1-step and full horizons."""
    depth = 8
    for seed in range(3):
        rng = random.Random(seed)
        seqs = {}
        while len(seqs) < 4:
            seqs[tuple(rng.randrange(2) for _ in range(depth))] = None
        weights = [F(rng.randrange(1, 9)) for _ in seqs]
        total = sum(weights)
        env = make_sp_env({z: w / total for z, w in zip(seqs, weights)})

        def check(h, k, spread):
            pred = sp_argmax(env, h)
            assert best_action(ValueQuery(env, h, k, k)) == pred
            assert best_action(ValueQuery(env, h, k, depth)) == pred
            if k <= spread:  # branch over every percept early on
                for y in (0, 1):
                    for x, p in env.cond_map(h, y).items():
                        if p > 0:
                            check(append_cycle(h, y, x), k + 1, spread)
            elif k < depth:  # then follow the predictor's own path
                y = pred
                x = max(env.cond_map(h, y).items(), key=lambda kv: kv[1])[0]
                check(append_cycle(h, y, x), k + 1, spread)

        check(EMPTY_HISTORY, 1, 3)
    _report(6, "prediction planner equals the probability argmax")


def test_criterion_07_game_planner_equals_minimax():
    """Planner move == brute-force minimax move, across small game shapes."""
    value_grid = (F(0), F(1, 4), F(1, 2), F(3, 4), F(1))
    for rounds in (1, 2):
        for moves in (1, 2, 3):
            for replies in (1, 2, 3):
                if (moves * replies) ** rounds > 36:
                    continue
                for seed in range(3):
                    rng = random.Random((rounds, moves, replies, seed).__hash__())
                    leaves = {
                        seq: rng.choice(value_grid)
                        for seq in itertools.product(
                            *([range(moves), range(replies)] * rounds)
                        )
                    }
                    g = GameSpec(rounds, moves, replies, leaves)
                    env = make_sg_env(g)
                    h = EMPTY_HISTORY
                    prefix = ()
                    for k in range(1, rounds + 1):
                        q = ValueQuery(env, h, k, rounds)
                        assert value_opt(q) == game_value(g, prefix)
                        y = best_action(q)
                        assert y == minimax_move(g, prefix)
                        (x,) = env.cond_map(h, y)
                        prefix += (y, x.observation)
                        h = append_cycle(h, y, x)
    _report(7, "game planner equals brute-force minimax")


def test_criterion_08_rest_world_optimum_and_alternation():
    """At lifetime 12 the best schedule earns 9 = m + 1/2 - sqrt(m + 1/4)."""
    m = 12

    def total(actions):
        return sum(1 for k in range(1, m + 1) if lazy_reward(actions, k))

    best = max(total(a) for a in itertools.product((0, 1), repeat=m))
    assert best == 9
    # closed form, kept exact: sqrt(12 + 1/4) = 7/2
    assert F(m) + F(1, 2) - F(7, 2) == best
    assert total((0, 0, 0) + (1,) * 9) == 9
    # the two-on/four-off alternation earns (2/3) m
    assert total((0, 0, 1, 1, 1, 1) * 2) == 8 == F(2, 3) * m
    # the environment wrapper agrees with the reward rule
    env = make_lazy(m)
    h = EMPTY_HISTORY
    actions = (0, 0, 0) + (1,) * 9
    earned = F(0)
    for y in actions:
        (x,) = env.cond_map(h, y)
        earned += x.reward
        h = append_cycle(h, y, x)
    assert earned == 9
    _report(8, "rest-world optimum 9 and alternation 8 at lifetime 12")


def test_criterion_09_posterior_convergence_bound():
    """Summed squared prediction gap <= (ln2 / 2) * code length, exactly."""
    a = _alphabet(2, 2)
    budget = RunBudget(32)
    pool = enumerate_programs(8)
    mix = build_mixture(pool, budget, a)
    members = proper_members(pool, budget, a, 10)
    assert len(members) >= 16
    for q in members:
        mu = ProgramEnv(q, budget, a)
        lhs = sq_distance_sum(mix, mu, lambda h: 0, 10)
        assert lhs <= LN2_UPPER / 2 * q.length_bits, q.to_hex()
    _report(9, "posterior convergence bound holds for every pool member")


def test_criterion_10_excess_loss_bound():
    """0 <= L_mixture - L_informed <= 2 ln2 l + 2 sqrt(L ln2 l), n=10."""
    a = _alphabet(2, 2)
    budget = RunBudget(32)
    # the 9-bit pool holds the shortest programs that emit a nonzero symbol
    pool = enumerate_programs(9)
    loss = LossMatrix.error_loss(a)
    members = proper_members(pool, budget, a, 10)
    assert len(members) == 32
    excess = {}
    for q in members:
        report = check_loss_bound(q, pool, loss, 10, budget, a)
        assert report.holds, (q.to_hex(), report)
        excess[q.to_hex()] = report.lhs
    assert excess["9:188"] == 1  # the mixture errs once where 9:188 emits
    _report(10, "excess loss bound holds for every pool member")


def test_criterion_11_kraft_inequality_at_twelve_bits():
    pool = enumerate_programs(12)
    s = kraft_sum(pool)
    assert s <= 1
    assert s == F(21, 64)
    _report(11, "program weights satisfy the Kraft inequality")


def test_criterion_12_every_model_is_chronological():
    from test_domains import biased_sp, even_odd_relation, quadratic_class, tiny_game

    a = _alphabet(2, 2)
    budget = RunBudget(32)
    r = even_odd_relation()
    models = [
        biased_sp(),
        make_sg_env(tiny_game()),
        make_fm_env(quadratic_class()),
        make_ex_env(r),
        make_relation_mixture([(r, F(1))]),
        make_heavenhell(0),
        make_onlyone(3, 1),
        make_lazy(4),
        random_tabular(a, 2, random.Random(3)),
        build_mixture(enumerate_programs(8), budget, a),
    ]
    for m in models:
        assert check_chronological(m, 3), type(m).__name__
    _report(12, "all constructed models and mixtures are chronological")


def test_criterion_13_mixture_agent_is_pareto_undominated():
    """No policy weakly beats the class-mixture planner across the class."""
    a = _alphabet(2, 2)
    for size, seed in ((2, 0), (4, 1), (6, 2)):
        envs = [random_tabular(a, 3, random.Random(10 * seed + i)) for i in range(size)]
        w = F(1, size)
        mix = MixtureModel(
            [(f"e{i}", w, e) for i, e in enumerate(envs)], a
        )
        policy = planning_policy(mix, FixedHorizon(3), 3)
        assert pareto_check(policy, envs, 3)
    _report(13, "class-mixture planner is Pareto undominated")


def test_criterion_14_best_vote_composite_and_validity_invariant():
    a = _alphabet(2, 2)
    budget = RunBudget(32)
    pool = enumerate_programs(6)
    members = [ExtendedCandidate.from_program(p) for p in pool]
    composite = make_composite(members, pool, budget, a, lifetime=2)
    for m in members:
        assert eff_intel_geq(composite, m.fresh(), 2, pool, budget, a, lifetime=2)

    # validity invariant on a full run: every logged verdict is reproducible
    # and the clamped claim never exceeds the exact value
    env = make_heavenhell(1)
    lifetime = 3
    h, log = run_best_vote(pool, budget, env, lifetime, seed=0)
    by_hex = {p.to_hex(): p for p in pool}
    for row in log:
        prefix = History(h.cycles[: row.cycle - 1])
        cand = ExtendedCandidate.from_program(by_hex[row.candidate])
        claim = replay_candidate(cand, prefix, budget, env.alphabet)
        assert claim.w == row.claimed_w
        v = candidate_value(
            cand.fresh(), pool, row.cycle, lifetime, prefix, budget, env.alphabet
        )
        assert (claim.w <= v) == row.valid
        w_eff = claim.w if row.valid else F(0)
        assert w_eff <= v
    _report(14, "best-vote composite dominates and claims stay valid")


def test_criterion_15_reruns_are_byte_identical():
    configs = [
        "scenario=heavenhell\nagent=mixture\nlifetime=3\ni=1\nl=6\nseed=5\n",
        "scenario=fm\nagent=informed\nlifetime=4\nclass=uniform16\nseed=2\n",
        "scenario=heavenhell\nagent=best-vote\nlifetime=2\ni=0\nl=6\nseed=1\n",
    ]
    for text in configs:
        a = run_scenario(parse_config(text))
        b = run_scenario(parse_config(text))
        assert a.trace_csv == b.trace_csv
        assert a.manifest == b.manifest
        assert a.results == b.results
        assert a.selection_csv == b.selection_csv
    _report(15, "identical config and seed reproduce byte-identical runs")
