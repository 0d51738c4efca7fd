import functools
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unimix import bestvote, vm
from unimix.bestvote import (
    Claim,
    ExtendedCandidate,
    best_vote_cycle,
    best_vote_policy,
    candidate_value,
    eff_intel_geq,
    make_composite,
    replay_candidate,
    run_best_vote,
    run_candidate_cycle,
    selection_log_csv,
    validate_claim,
    validated_claim_weight,
)
from unimix.cli import parse_config, run_scenario
from unimix.core import (
    EMPTY_HISTORY,
    Alphabet,
    FixedHorizon,
    GeometricDiscount,
    History,
    MovingHorizon,
    Percept,
    append_cycle,
    discounted_reward,
    horizon_end,
)
from unimix.domains import make_heavenhell, make_onlyone
from unimix.models import TabularModel, UndefinedConditionalError, build_mixture, posterior
from unimix.planner import (
    env_node, functional_value, policy_value_functional, run_interaction,
)
from unimix.vm import (
    RunBudget,
    consistent_envs,
    FRESH,
    decode,
    enumerate_programs,
    env_step,
    replay_env,
)

import reference
from reference import MachineState, env_cycle, policy_action

F = Fraction

END = (0, 0, 0)
OUT = (0, 0, 1)
IN = (0, 1, 0)
INC = (1, 1, 0)
LDC = lambda c: (1, 0, 0) + tuple((c >> i) & 1 for i in (1, 0))
JZ = lambda d: (1, 0, 1) + tuple((d >> i) & 1 for i in (1, 0))


def bits(*groups):
    out = ()
    for g in groups:
        out += g
    return out


SILENT = decode(END)                                  # claims (0, 0)
BRAGGART = decode(bits(LDC(1), OUT, OUT, END))        # claims (1, 1)
SPINNER = decode(bits(JZ(1), END))                    # loops forever on acc=0


def test_claim_rejects_negative_ratings():
    with pytest.raises(ValueError):
        Claim(F(-1, 2), 0)


def test_candidate_needs_exactly_one_implementation():
    with pytest.raises(ValueError):
        ExtendedCandidate("both", (0,), program=SILENT, oracle=lambda h: Claim(F(0), 0))
    with pytest.raises(ValueError):
        ExtendedCandidate("neither", (0,))


def test_program_candidate_emits_rating_then_action(binary_alphabet, budget):
    c = ExtendedCandidate.from_program(BRAGGART)
    claim = run_candidate_cycle(c, EMPTY_HISTORY, budget, binary_alphabet)
    assert (claim.w, claim.y, claim.timed_out) == (F(1), 1, False)


def test_silent_candidate_pads_both_outputs(binary_alphabet, budget):
    c = ExtendedCandidate.from_program(SILENT)
    claim = run_candidate_cycle(c, EMPTY_HISTORY, budget, binary_alphabet)
    assert (claim.w, claim.y) == (F(0), 0)


def test_timeout_yields_the_flagged_null_claim(binary_alphabet, budget):
    c = ExtendedCandidate.from_program(SPINNER)
    claim = run_candidate_cycle(c, EMPTY_HISTORY, budget, binary_alphabet)
    assert claim.timed_out
    assert (claim.w, claim.y) == (F(0), 0)


def test_candidate_must_be_stepped_in_order(binary_alphabet, budget):
    c = ExtendedCandidate.from_program(SILENT)
    h = append_cycle(EMPTY_HISTORY, 0, Percept(F(0), 0))
    with pytest.raises(ValueError):
        run_candidate_cycle(c, h, budget, binary_alphabet)


def test_replay_matches_incremental_stepping(binary_alphabet, budget):
    h = EMPTY_HISTORY
    for y, r in ((1, F(0)), (0, F(1))):
        h = append_cycle(h, y, Percept(r, 0))
    c = ExtendedCandidate.from_program(BRAGGART)
    for i in range(3):
        live = run_candidate_cycle(c, History(h.cycles[:i]), budget, binary_alphabet)
    assert replay_candidate(
        ExtendedCandidate.from_program(BRAGGART), h, budget, binary_alphabet
    ) == live


class TestValidation:
    def test_zero_claims_are_always_valid(self, binary_alphabet, budget, pool6):
        c = ExtendedCandidate.from_program(SILENT)
        claim = replay_candidate(c, EMPTY_HISTORY, budget, binary_alphabet)
        assert validate_claim(c, claim, EMPTY_HISTORY, pool6, budget, binary_alphabet, 2)

    def test_overclaiming_is_invalid(self, binary_alphabet, budget, pool6):
        # every 6-bit environment pays reward 0, so a claim of 1 overrates
        c = ExtendedCandidate.from_program(BRAGGART)
        claim = replay_candidate(c, EMPTY_HISTORY, budget, binary_alphabet)
        assert claim.w == 1
        assert not validate_claim(c, claim, EMPTY_HISTORY, pool6, budget, binary_alphabet, 2)

    def test_exact_claim_is_valid(self, binary_alphabet, budget, pool12):
        plain = ExtendedCandidate.from_oracle("probe", lambda h: Claim(F(0), 1))
        v = candidate_value(plain, pool12, 1, 1, EMPTY_HISTORY, budget, binary_alphabet)
        assert v > 0  # the action-echoing environments pay for action 1
        honest = ExtendedCandidate.from_oracle("honest", lambda h: Claim(v, 1))
        claim = Claim(v, 1)
        assert validate_claim(honest, claim, EMPTY_HISTORY, pool12, budget, binary_alphabet, 1)
        over = ExtendedCandidate.from_oracle("over", lambda h: Claim(v + 1, 1))
        assert not validate_claim(
            over, Claim(v + 1, 1), EMPTY_HISTORY, pool12, budget, binary_alphabet, 1
        )

    def test_a_claim_of_the_reward_ceiling_is_valid_where_it_is_earned(
        self, binary_alphabet, budget
    ):
        # BRAGGART as an environment pays reward 1 every cycle
        c = ExtendedCandidate.from_program(SILENT)
        for horizon, ceiling in ((None, F(2)), (GeometricDiscount(F(1, 2), 2), F(3, 4))):
            for w, valid in ((ceiling, True), (ceiling + F(1, 2**20), False)):
                assert validate_claim(
                    c, Claim(w, 0), EMPTY_HISTORY, [BRAGGART], budget, binary_alphabet, 2,
                    horizon,
                ) == valid


class TestBestVoteCycle:
    def test_clamped_overclaimer_ties_back_to_sort_order(self, binary_alphabet, budget, pool6):
        cands = [
            ExtendedCandidate.from_program(SILENT),
            ExtendedCandidate.from_program(BRAGGART),
        ]
        y, rows = best_vote_cycle(cands, EMPTY_HISTORY, pool6, budget, binary_alphabet, 2)
        assert y == 0
        by_label = {r.candidate: r for r in rows}
        assert not by_label[BRAGGART.to_hex()].valid
        assert by_label[SILENT.to_hex()].selected

    def test_honest_positive_claim_beats_the_silent_candidate(
        self, binary_alphabet, budget, pool12
    ):
        probe = ExtendedCandidate.from_oracle("probe", lambda h: Claim(F(0), 1))
        v = candidate_value(probe, pool12, 1, 1, EMPTY_HISTORY, budget, binary_alphabet)
        cands = [
            ExtendedCandidate.from_program(SILENT),
            ExtendedCandidate.from_oracle("honest", lambda h: Claim(v, 1)),
        ]
        y, rows = best_vote_cycle(cands, EMPTY_HISTORY, pool12, budget, binary_alphabet, 1)
        assert y == 1
        assert [r.candidate for r in rows if r.selected] == ["honest"]

    def test_a_round_needs_a_candidate(self, binary_alphabet, budget, pool6):
        with pytest.raises(ValueError, match="no candidates"):
            best_vote_cycle([], EMPTY_HISTORY, pool6, budget, binary_alphabet, 1)

    def test_log_layout(self, binary_alphabet, budget, pool6):
        cands = [ExtendedCandidate.from_program(SILENT)]
        _, rows = best_vote_cycle(cands, EMPTY_HISTORY, pool6, budget, binary_alphabet, 1)
        text = selection_log_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "cycle,candidate,claimed_w,valid,selected,action,steps_used"
        assert len(lines) == 2
        assert lines[1].startswith("1,")


_ROWS = st.builds(
    bestvote.SelectionRow,
    st.integers(1, 64),
    st.sampled_from(["9:088", "13:0a1c", "best-vote", "honest"]),
    st.one_of(
        st.integers(0, 2**70),
        st.fractions(min_value=0, max_value=10, max_denominator=10**6),
    ),
    st.booleans(),
    st.booleans(),
    st.integers(0, 15),
    st.integers(0, 2**16),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(_ROWS, max_size=8))
def test_the_log_writer_writes_what_the_field_reading_one_wrote(rows):
    assert selection_log_csv(rows) == reference.selection_log_csv(rows)


class TestRunBestVote:
    def test_run_is_deterministic(self, budget, pool6):
        env = make_heavenhell(1)
        a = run_best_vote(pool6, budget, env, 2, seed=3)
        b = run_best_vote(pool6, budget, env, 2, seed=3)
        assert a == b

    def test_logs_one_row_per_candidate_per_cycle(self, budget, pool6):
        env = make_heavenhell(1)
        h, log = run_best_vote(pool6, budget, env, 2, seed=0)
        assert len(h) == 2
        assert len(log) == 2 * len(pool6)
        assert sum(r.selected for r in log) == 2


class TestEffectiveIntelligence:
    def test_reflexive(self, binary_alphabet, budget, pool6):
        c = ExtendedCandidate.from_program(SILENT)
        assert eff_intel_geq(c, c.fresh(), 2, pool6, budget, binary_alphabet)

    def test_honest_positive_beats_silent_but_not_conversely(
        self, binary_alphabet, budget, pool12
    ):
        probe = ExtendedCandidate.from_oracle("probe", lambda h: Claim(F(0), 1))
        v = candidate_value(probe, pool12, 1, 1, EMPTY_HISTORY, budget, binary_alphabet)
        honest = ExtendedCandidate.from_oracle("honest", lambda h: Claim(v, 1))
        silent = ExtendedCandidate.from_program(SILENT)
        assert eff_intel_geq(honest, silent, 1, pool12, budget, binary_alphabet)
        assert not eff_intel_geq(silent, honest, 1, pool12, budget, binary_alphabet)

    def test_the_lifetime_must_cover_the_depth(self, binary_alphabet, budget, pool6):
        c = ExtendedCandidate.from_program(SILENT)
        with pytest.raises(ValueError, match="lifetime"):
            eff_intel_geq(c, c.fresh(), 3, pool6, budget, binary_alphabet, lifetime=2)


def test_candidate_value_needs_k_minus_1_history_cycles(binary_alphabet, budget, pool6):
    c = ExtendedCandidate.from_program(SILENT)
    h = append_cycle(EMPTY_HISTORY, 0, Percept(F(0)))
    with pytest.raises(ValueError, match="k-1"):
        candidate_value(c, pool6, 1, 2, h, budget, binary_alphabet)


def test_composite_claim_dominates_every_member(binary_alphabet, budget, pool6):
    members = [ExtendedCandidate.from_program(p) for p in pool6]
    composite = make_composite(members, pool6, budget, binary_alphabet, lifetime=2)
    w_comp = validated_claim_weight(
        composite, EMPTY_HISTORY, pool6, budget, binary_alphabet, 2
    )
    for m in members:
        w_m = validated_claim_weight(m, EMPTY_HISTORY, pool6, budget, binary_alphabet, 2)
        assert w_comp >= w_m


# --- The shared environment tree against per-environment rollouts -----------

ALPHABETS = (
    Alphabet(num_actions=2, num_observations=1, rewards=(F(0), F(1))),
    Alphabet(num_actions=3, num_observations=2, rewards=(F(0), F(1, 2), F(1))),
)
POLICIES = enumerate_programs(12)  # includes IN OUT OUT END, which echoes percepts


def reference_value(new_act, pool, k, m, h, budget, alphabet, horizon):
    """Sum of w_q * (rollout of a fresh policy against q) over the consistent
    q, over the sum of their w_q; every q is replayed from the empty history
    and the policy is called on h's prefixes first.  None if no q is
    consistent with h."""
    hat_q = consistent_envs(pool, h, budget, alphabet)
    if not hat_q:
        return None
    num = F(0)
    for q in hat_q:
        act, s = new_act(), MachineState()
        for i, (y, _) in enumerate(h.cycles):
            act(History(h.cycles[:i]))
            env_cycle(q, s, y, budget, alphabet)
        hist = h
        for t in range(k, m + 1):
            y = act(hist)
            x, _, _, timed_out = env_cycle(q, s, y, budget, alphabet)
            if timed_out:
                break
            num += q.weight * discounted_reward(horizon, t, x.reward)
            hist = append_cycle(hist, y, x)
    return num / sum((q.weight for q in hat_q), F(0))


@st.composite
def walk_cases(draw, max_l=9):
    """A pool, a budget small enough that programs time out, a horizon, and
    a history of 0-2 cycles that mostly follows one of the pool's programs."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    pool = enumerate_programs(draw(st.integers(6, max_l)))
    budget = RunBudget(draw(st.integers(1, 5)))
    k = draw(st.integers(1, 3))
    lifetime = k + draw(st.integers(0, 2))
    horizon = draw(
        st.sampled_from(
            (FixedHorizon(lifetime), MovingHorizon(2), GeometricDiscount(F(1, 2), lifetime))
        )
    )
    truth = draw(st.sampled_from(pool))
    actions = draw(
        st.lists(st.integers(0, alphabet.num_actions - 1), min_size=k - 1, max_size=k - 1)
    )
    followed, _, _ = replay_env(truth, actions, budget, alphabet)
    h = EMPTY_HISTORY
    for t, y in enumerate(actions):
        x = draw(st.none() | st.sampled_from(alphabet.percepts()))
        if x is None:  # follow the truth until it times out
            x = followed[t] if t < len(followed) else alphabet.percepts()[0]
        h = append_cycle(h, y, x)
    m = horizon_end(horizon, k, lifetime)
    return alphabet, pool, budget, k, m, horizon, h, lifetime


@settings(max_examples=60, deadline=None)
@given(walk_cases(), st.sampled_from(POLICIES))
def test_tree_walk_equals_per_environment_rollouts_for_programs(case, p):
    a, pool, budget, k, m, horizon, h, _ = case
    c = ExtendedCandidate.from_program(p)

    def new_candidate():
        cc = c.fresh()
        return lambda hist: run_candidate_cycle(cc, hist, budget, a).y

    def new_policy():
        s = MachineState()
        return lambda hist: policy_action(
            p, s, hist.cycles[-1][1] if hist.cycles else None, budget, a
        )

    # a live candidate that has claimed on h, valued on the shared node
    live = c.fresh()
    for i in range(k):
        run_candidate_cycle(live, History(h.cycles[:i]), budget, a)
    node = env_node(pool, h, budget, a)
    values = (
        (new_candidate, lambda: candidate_value(c, pool, k, m, h, budget, a, horizon)),
        (new_candidate, lambda: candidate_value(live, node, k, m, h, budget, a, horizon)),
        (new_policy, lambda: policy_value_functional(p, pool, k, m, h, budget, a, horizon)),
    )
    for new_act, value in values:
        expected = reference_value(new_act, pool, k, m, h, budget, a, horizon)
        if expected is None:
            with pytest.raises(UndefinedConditionalError):
                value()
        else:
            assert value() == expected
    assert live.cycles_run == k  # valuing a live candidate does not step it


@settings(max_examples=20, deadline=None)
@given(walk_cases(), st.lists(st.sampled_from(POLICIES), min_size=1, max_size=2))
def test_tree_walk_equals_per_environment_rollouts_for_a_composite(case, members):
    a, pool, budget, k, m, horizon, h, lifetime = case
    composite = make_composite(
        [ExtendedCandidate.from_program(p) for p in members], pool, budget, a, lifetime, horizon
    )
    oracle = functools.lru_cache(maxsize=None)(composite.oracle)  # a pure function of h
    expected = reference_value(
        lambda: lambda hist: oracle(hist).y, pool, k, m, h, budget, a, horizon
    )
    if expected is None:
        with pytest.raises(UndefinedConditionalError):
            candidate_value(composite, pool, k, m, h, budget, a, horizon)
    else:
        assert candidate_value(composite, pool, k, m, h, budget, a, horizon) == expected


@settings(max_examples=80, deadline=None)
@given(walk_cases(max_l=8), st.sampled_from(POLICIES), st.data())
def test_bound_decided_validity_equals_the_walked_comparison(case, p, data):
    a, pool, budget, k, m, horizon, h, _ = case
    c = ExtendedCandidate.from_program(p)
    try:
        v = candidate_value(c, pool, k, m, h, budget, a, horizon)
    except UndefinedConditionalError:
        v = None
    ceiling = sum((discounted_reward(horizon, t, a.r_max) for t in range(k, m + 1)), F(0))
    claims = [
        F(0),
        data.draw(st.fractions(min_value=0, max_value=ceiling, max_denominator=64)),
        ceiling,
        ceiling + data.draw(st.fractions(min_value=F(1, 2**20), max_value=1)),
    ]
    if v is not None:
        claims += [v, v + F(1, 2**20)]
    node = env_node(pool, h, budget, a)
    for w in claims:
        expected = v is not None and w <= v
        for envs in (pool, node):
            assert validate_claim(c, Claim(w, 0), h, envs, budget, a, m, horizon) == expected


@settings(max_examples=60, deadline=None)
@given(walk_cases())
def test_the_tree_leader_is_the_posterior_leader(case):
    a, pool, budget, _, _, _, h, _ = case
    mixture = build_mixture(pool, budget, a)
    top = env_node(pool, h, budget, a).top()
    if mixture.joint(h) > 0:
        assert top == posterior(mixture, h).top()
    else:
        assert top is None


def test_the_tree_leader_is_the_first_of_tied_heaviest_survivors(binary_alphabet, budget):
    pool = enumerate_programs(9)
    h = append_cycle(EMPTY_HISTORY, 1, Percept(F(1), 0))
    node = env_node(pool, h, budget, binary_alphabet)
    comps, scale = node.mixture.components, node.mixture._scale
    assert [(comps[i][0], F(mass, scale)) for i, mass, _ in node.survivors] == [
        ("9:088", F(1, 512)), ("9:188", F(1, 512))
    ]
    mixture = build_mixture(pool, budget, binary_alphabet)
    assert node.top() == posterior(mixture, h).top() == "9:088"


def test_a_candidate_run_past_cycle_k_cannot_be_validated(binary_alphabet, budget, pool6):
    c = ExtendedCandidate.from_program(SILENT)
    h = append_cycle(EMPTY_HISTORY, 0, Percept(F(0), 0))
    for i in range(2):
        run_candidate_cycle(c, History(h.cycles[:i]), budget, binary_alphabet)
    for w in (F(0), F(1, 2), F(5)):  # decided by the bounds, walked, decided
        with pytest.raises(ValueError, match="past cycle 1"):
            validate_claim(c, Claim(w, 0), EMPTY_HISTORY, pool6, budget, binary_alphabet, 2)


@pytest.mark.parametrize("config_seed", [0, 1])
def test_a_best_vote_run_walks_only_claims_inside_the_value_bounds(config_seed, monkeypatch):
    walks = []

    def counting(*args, **kwargs):
        walks.append(args)
        return functional_value(*args, **kwargs)

    monkeypatch.setattr(bestvote, "functional_value", counting)
    cfg = parse_config(
        "scenario=heavenhell\nagent=best-vote\nl=11\nlifetime=2\n"
        f"seed={config_seed}\ni={config_seed % 2}\n"
    )
    run_scenario(cfg)
    # 129 claims a cycle, nearly all 0; walking every one took 258 walks.
    # Every walked claim comes from a program that plays action 0 throughout,
    # so a round walks once: each claim walking its own policy took 7 and 6.
    assert len(walks) == 2
    assert all(args[2] is bestvote._ACTION_ZERO for args in walks)


@pytest.mark.parametrize(
    "horizon, i, count",
    [("", 0, 61), ("", 1, 32), ("horizon=moving:4\n", 0, 53), ("horizon=moving:4\n", 1, 24)],
)
def test_a_long_best_vote_run_walks_the_all_zero_policy_once_a_round(
    horizon, i, count, monkeypatch
):
    # Heaven-hell at l=12 over 16 cycles: one all-zero walk in each of the
    # 16 rounds, and the rest walked by programs that may emit two outputs.
    # Each claim walking its own policy took 416, 229, 390 and 203.
    walks = []

    def counting(*args, **kwargs):
        walks.append(args[2] is bestvote._ACTION_ZERO)
        return functional_value(*args, **kwargs)

    monkeypatch.setattr(bestvote, "functional_value", counting)
    run_scenario(parse_config(
        f"scenario=heavenhell\nagent=best-vote\nl=12\nlifetime=16\n{horizon}i={i}\n"
    ))
    assert len(walks) == count
    assert sum(walks) == 16


def test_a_round_that_walks_no_claim_reads_no_code(binary_alphabet, budget, pool6, monkeypatch):
    calls = []
    emits_once = vm.emits_once

    def counting(ops):
        calls.append(ops)
        return emits_once(ops)

    monkeypatch.setattr(bestvote.vm, "emits_once", counting)
    candidates = [ExtendedCandidate.from_program(p) for p in (SILENT, BRAGGART, SPINNER)]
    # claims 0, 1 > U = 0 at a lifetime of 0, 0: every claim decided by the bounds
    best_vote_cycle(candidates, EMPTY_HISTORY, pool6, budget, binary_alphabet, 0)
    assert calls == []
    # at a lifetime of 1, U = 1 and the braggart's claim of 1 is walked
    best_vote_cycle(
        [c.fresh() for c in candidates], EMPTY_HISTORY, pool6, budget, binary_alphabet, 1
    )
    assert calls == [BRAGGART._ops]


@pytest.mark.parametrize("config_seed", [0, 1])
def test_a_best_vote_run_makes_a_pinned_number_of_vm_cycles(config_seed, monkeypatch):
    # Every VM cycle of the run: candidates' claims, the class build's rows
    # and environment steps on the shared tree.  A tree that stepped a node
    # twice, was not shared by the candidates' walks, ran a program's (state,
    # action) pair twice or stepped a program of each class would make more.
    calls = []
    callers = []
    run_machine = vm.run_machine

    def counting(*args, **kwargs):
        calls.append(1)
        caller = sys._getframe(1)
        if caller.f_code.co_name == "env_step":  # the build's and the envs' cycles
            caller = caller.f_back
        callers.append(caller.f_code.co_name)
        return run_machine(*args, **kwargs)

    monkeypatch.setattr(vm, "run_machine", counting)
    cfg = parse_config(
        "scenario=heavenhell\nagent=best-vote\nl=11\nlifetime=2\n"
        f"seed={config_seed}\ni={config_seed % 2}\n"
    )
    run_scenario(cfg)
    assert len(calls) == 298
    # Candidates' cycles (claims and the walks' steps), the build's rows, and
    # environment cycles the build left to be run on demand.  Signing each
    # program, not each environment code, once made 320: 264, 49 and 7; each
    # walked claim stepping its own candidate made 304: 264, 34 and 6.
    assert Counter(callers) == {"_program_claim": 258, "signature": 34, "weights": 6}


@pytest.mark.parametrize("y_star, cycles", [(0, 1883), (1, 1809)])
def test_a_many_action_best_vote_run_makes_a_pinned_number_of_vm_cycles(
    y_star, cycles, monkeypatch
):
    # The walks step only the actions they take, of 1,024, so the tree's
    # build signs no program that reads the action.  On a tree of one
    # component per program the run made 3,593 (y_star=0) and 3,312
    # (y_star=1), and with each reader its own class and each program
    # signed on its own, 2,938 and 2,525; with each walked claim stepping
    # its own candidate, 2,750 and 2,325.
    calls = []
    run_machine = vm.run_machine

    def counting(*args, **kwargs):
        calls.append(1)
        return run_machine(*args, **kwargs)

    monkeypatch.setattr(vm, "run_machine", counting)
    run_scenario(parse_config(
        f"scenario=onlyone\nagent=best-vote\nl=12\nlifetime=8\nn=1024\ny_star={y_star}\n"
    ))
    assert len(calls) == cycles


def test_a_carried_tree_equals_one_rebuilt_after_the_history(budget, pool8):
    a = ALPHABETS[1]
    c = ExtendedCandidate.from_program(decode(bits(IN, OUT, OUT, END)))  # plays its observation
    root = env_node(pool8, EMPTY_HISTORY, budget, a)
    carried = root
    h = EMPTY_HISTORY
    for y in (1, 2):
        # expand the node the way a best-vote cycle does, then move down
        candidate_value(c, carried, len(h) + 1, 3, h, budget, a)
        x = next(iter(carried.step(h, y)))
        carried = carried.child(h, y, x)
        h = append_cycle(h, y, x)
    rebuilt = env_node(pool8, h, budget, a)
    assert carried.survivors == rebuilt.survivors
    assert [pool8[i] for i, _, _ in rebuilt.survivors] == consistent_envs(pool8, h, budget, a)
    assert carried.mass == rebuilt.mass > 0
    assert candidate_value(c, carried, 3, 3, h, budget, a) == candidate_value(
        c, rebuilt, 3, 3, h, budget, a
    )


# --- The round on plain values against the reference round ------------------

ROUND_HORIZONS = (None, MovingHorizon(2), GeometricDiscount(F(1, 2), 3))


def _oracle(ws, y, rank):
    """An oracle candidate claiming ws[k-1] with action y at cycle k."""
    return ExtendedCandidate.from_oracle(f"oracle-{rank}", lambda h: Claim(ws[len(h)], y))


@st.composite
def round_cases(draw):
    """Random sub-pools of candidates and of environments, a budget small
    enough that programs time out, a horizon, maybe an oracle candidate at
    some place in the list, and for each completed cycle either the first
    environment's reply to the action played (None) or a stray percept."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    programs = st.sampled_from(enumerate_programs(draw(st.integers(6, 11))))
    candidates = [
        ExtendedCandidate.from_program(p)
        for p in draw(st.lists(programs, min_size=1, max_size=12, unique=True))
    ]
    if draw(st.booleans()):
        ws = draw(st.lists(st.fractions(0, 3, max_denominator=4), min_size=3, max_size=3))
        y = draw(st.integers(0, alphabet.num_actions - 1))
        at = draw(st.integers(0, len(candidates)))
        candidates.insert(at, _oracle(ws, y, draw(st.integers(0, 2))))
    envs = draw(st.lists(programs, min_size=1, max_size=4, unique=True))
    budget = RunBudget(draw(st.integers(1, 8)))
    lifetime = draw(st.integers(1, 3))
    horizon = draw(st.sampled_from(ROUND_HORIZONS + (FixedHorizon(lifetime),)))
    replies = draw(
        st.lists(
            st.none() | st.sampled_from(alphabet.percepts()),
            min_size=lifetime - 1,
            max_size=lifetime - 1,
        )
    )
    return alphabet, candidates, envs, budget, lifetime, horizon, replies


# Walked claims and a claim at U: "LDC 1 OUT END" claims 1 and plays 0.  As
# the only environment it pays 1 every cycle, so that claim is walked and
# valid at the first cycle and equals U at the second, where the oracle's
# equal claim loses on the selection order; beside "END", which pays 0, the
# walk finds it invalid.  A stray reward 0 leaves no survivor.
_PAYS_ONE = decode(bits(LDC(1), OUT, END))
_ZERO = ALPHABETS[0].percepts()[0]


def _at_u(envs, replies):
    candidates = [_oracle((F(1), F(1)), 0, 0)] + [
        ExtendedCandidate.from_program(p) for p in (SILENT, _PAYS_ONE, SPINNER)
    ]
    return ALPHABETS[0], candidates, envs, RunBudget(4), 2, None, replies


@settings(max_examples=150, deadline=None)
@given(round_cases())
@example(_at_u([_PAYS_ONE], [None]))
@example(_at_u([_PAYS_ONE], [_ZERO]))
@example(_at_u([_PAYS_ONE, SILENT], [None]))
def test_the_round_on_plain_values_equals_the_reference_round(case):
    a, candidates, envs, budget, lifetime, horizon, replies = case
    hpol = horizon if horizon is not None else FixedHorizon(lifetime)
    new = [c.fresh() for c in candidates]
    old = [c.fresh() for c in candidates]
    h, world = EMPTY_HISTORY, FRESH
    for k in range(1, lifetime + 1):
        m_k = horizon_end(hpol, k, lifetime)
        node = env_node(envs, h, budget, a)
        y, rows = best_vote_cycle(new, h, node, budget, a, m_k, horizon)
        assert (y, rows) == reference.best_vote_cycle(old, h, node, budget, a, m_k, horizon)
        assert [c.last_claim for c in new] == [c.last_claim for c in old]
        if k == lifetime:
            break
        x = replies[k - 1]
        out = env_step(envs[0], world, y, budget) if world is not None else None
        world = None if out is None else out[1]
        if x is None:
            x = a.percepts()[0] if out is None else a.percept_of(out[0])
        h = append_cycle(h, y, x)


# --- The best-vote policy against the reference loop ------------------------


@st.composite
def run_cases(draw):
    """A random sub-pool of candidates, which is also the environment pool, a
    budget small enough that programs time out, a horizon, a world, and a
    seed.  The world mixes a few programs (so the seed picks its percepts),
    which the pool may hold, or draws every percept uniformly (so the
    percepts vary and programs drop out)."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    programs = st.sampled_from(enumerate_programs(draw(st.integers(6, 11))))
    pool = draw(st.lists(programs, min_size=1, max_size=10, unique=True))
    budget = RunBudget(draw(st.integers(1, 8)))
    if draw(st.booleans()):
        world = TabularModel(alphabet, 0, {})
    else:
        programs = draw(st.lists(programs, min_size=1, max_size=3, unique=True))
        if draw(st.booleans()):
            pool += [p for p in programs if p not in pool]
        world = build_mixture(programs, budget, alphabet)
    lifetime = draw(st.integers(1, 4))
    horizon = draw(
        st.sampled_from(
            (None, FixedHorizon(lifetime), MovingHorizon(2), GeometricDiscount(F(1, 2), 3))
        )
    )
    seed = draw(st.integers(0, 2**16))
    return alphabet, pool, world, budget, lifetime, horizon, seed


@settings(max_examples=80, deadline=None)
@given(run_cases())
def test_the_best_vote_policy_runs_as_the_reference_loop(case):
    a, pool, world, budget, lifetime, horizon, seed = case
    leaders = []
    try:
        old = reference.run_best_vote(pool, budget, world, lifetime, horizon, seed, leaders)
    except UndefinedConditionalError:  # every world program timed out
        old = None
    policy = best_vote_policy(pool, budget, a, lifetime, horizon)
    try:
        new = run_interaction(policy, world, lifetime, seed), policy.log
    except UndefinedConditionalError:
        new = None
    assert new == old
    assert policy.tops == leaders
    if old is not None:
        assert run_best_vote(pool, budget, world, lifetime, horizon, seed) == old


# --- The all-zero walk shared by the candidates that emit one output ---------

# Candidates that emit two outputs and play a nonzero action: a pool of up to
# 9 bits holds none (OUT OUT END plays its accumulator, which stays 0), so a
# rule that flagged one would go unseen without them.
TWO_OUTPUTS = [decode(bits(op, OUT, OUT, END)) for op in (LDC(1), IN, INC)]
WORLDS = [make_heavenhell(0), make_heavenhell(1)] + [
    make_onlyone(n, y) for n in (1, 2, 3) for y in range(n)
]


@st.composite
def shared_walk_cases(draw):
    """A world, a pool of up to 9 bits with the two-output programs as both
    candidates and environments, a budget small enough that programs time
    out, a fixed or moving horizon, and a seed."""
    world = draw(st.sampled_from(WORLDS))
    pool = enumerate_programs(draw(st.integers(6, 9))) + TWO_OUTPUTS
    budget = RunBudget(draw(st.integers(1, 8)))
    lifetime = draw(st.integers(1, 3))
    horizon = draw(st.sampled_from((None, MovingHorizon(1), MovingHorizon(2))))
    seed = draw(st.integers(0, 2**16))
    return world, pool, budget, lifetime, horizon, seed


@settings(max_examples=60, deadline=None)
@given(shared_walk_cases())
def test_every_flagged_candidate_is_worth_the_shared_all_zero_walk(case):
    world, pool, budget, lifetime, horizon, seed = case
    a = world.alphabet
    hpol = horizon if horizon is not None else FixedHorizon(lifetime)
    candidates = [ExtendedCandidate.from_program(p) for p in pool]

    def policy(h):
        k = len(h) + 1
        m_k = horizon_end(hpol, k, lifetime)
        node = env_node(pool, h, budget, a)
        y, rows = best_vote_cycle(candidates, h, node, budget, a, m_k, horizon)
        try:
            zero = functional_value(node, 0, bestvote._ACTION_ZERO, k, m_k, h, horizon)
        except UndefinedConditionalError:
            zero = None
        for c, row in zip(candidates, rows):
            claim = c.last_claim
            assert validate_claim(c, claim, h, node, budget, a, m_k, horizon) == row.valid
            if not vm.emits_once(c.program._ops):
                continue
            assert row.action == 0
            # the candidate's own stepper, replayed from scratch
            if zero is None:
                with pytest.raises(UndefinedConditionalError):
                    candidate_value(c.fresh(), node, k, m_k, h, budget, a, horizon)
            else:
                assert candidate_value(c.fresh(), node, k, m_k, h, budget, a, horizon) == zero
        return y

    run_interaction(policy, world, lifetime, seed)
