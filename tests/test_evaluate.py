import itertools
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from unimix import evaluate
from unimix.core import EMPTY_HISTORY, Alphabet, FixedHorizon, Percept
from unimix.domains import make_heavenhell, make_onlyone
from unimix.evaluate import (
    BoundReport,
    CapacityError,
    LossMatrix,
    _sqrt_upper,
    all_policy_values,
    bound_reports_csv,
    check_loss_bound,
    check_sp_error_bound,
    disagreement_detail,
    enumerate_policy_maps,
    expected_loss,
    intel_geq,
    lambda_predictor,
    pareto_check,
    policy_from_map,
    proper_members,
    summary_block,
)
from unimix.models import ProgramEnv, TabularModel, random_tabular
from unimix.planner import planning_policy
from unimix.vm import Program, decode, enumerate_programs, replay_env

import reference

F = Fraction


def test_loss_matrix_rejects_out_of_range_entries(binary_alphabet):
    with pytest.raises(ValueError):
        LossMatrix(binary_alphabet, {(0, 0): F(3, 2)})


def test_error_loss_is_zero_exactly_on_the_diagonal(binary_alphabet):
    m = LossMatrix.error_loss(binary_alphabet)
    for sym in range(binary_alphabet.num_percepts):
        for label in range(binary_alphabet.num_percepts):
            x = binary_alphabet.percept_of(sym)
            assert m.loss(x, label) == (0 if sym == label else 1)


def test_informed_predictor_of_a_deterministic_process_never_errs(binary_alphabet):
    env = make_heavenhell(0)
    loss = LossMatrix.error_loss(binary_alphabet)
    assert expected_loss(lambda_predictor(env, loss), env, loss, 5) == 0


def test_informed_predictor_minimizes_over_all_128_schemes(binary_alphabet):
    """Exhaustive optimality check against every percept-context scheme."""
    env = random_tabular(binary_alphabet, 3, random.Random(13))
    loss = LossMatrix.error_loss(binary_alphabet)
    best = expected_loss(lambda_predictor(env, loss), env, loss, 3)
    contexts = [
        c
        for d in range(3)
        for c in itertools.product(range(binary_alphabet.num_percepts), repeat=d)
    ]
    assert len(contexts) == 7
    for assignment in itertools.product(range(binary_alphabet.num_percepts), repeat=7):
        table = dict(zip(contexts, assignment))
        scheme = lambda h, t=table: t[
            tuple(binary_alphabet.symbol_of(x) for x in h.percepts())
        ]
        assert best <= expected_loss(scheme, env, loss, 3)


@pytest.mark.parametrize("action, proper", [(0, 120), (1, 122)])
def test_proper_members_are_the_programs_whose_replay_never_times_out(
    binary_alphabet, budget, action, proper
):
    pool = enumerate_programs(11)
    members = proper_members(pool, budget, binary_alphabet, 5, pi=lambda h: action)
    assert members == [
        q for q in pool if replay_env(q, (action,) * 5, budget, binary_alphabet)[1]
    ]
    assert len(members) == proper  # of 129


@given(st.fractions(min_value=0, max_value=50, max_denominator=60))
def test_sqrt_upper_is_the_least_bound_over_the_denominator(x):
    root = _sqrt_upper(x)
    assert root * root >= x
    assert (root - Fraction(1, x.denominator)) ** 2 < x or root * root == x


@given(st.fractions(min_value=0, max_value=50, max_denominator=60))
def test_sqrt_upper_of_a_square_is_its_root(x):
    assert _sqrt_upper(x * x) == x


def test_sqrt_upper_refuses_a_negative_number():
    with pytest.raises(ValueError, match="negative"):
        _sqrt_upper(Fraction(-1, 4))


def test_uniform_coin_costs_half_an_error_per_cycle(binary_alphabet):
    rows = {
        "y:0": (F(1, 2), F(1, 2)),
        "y:1": (F(1, 2), F(1, 2)),
    }
    coin = TabularModel(binary_alphabet, 1, rows)
    loss = LossMatrix.error_loss(binary_alphabet)
    assert expected_loss(lambda_predictor(coin, loss), coin, loss, 4) == 2


# No program of 8 bits or fewer emits a nonzero symbol (the shortest
# emitters, INC; OUT; END and IN; OUT; END, take 9 bits), so on such a pool
# every sequence is all zeros and the mixture never errs.  On the pools
# below, the members the mixture errs on, by label, and how often in 5
# cycles; each error is one unit of excess loss, since the informed
# predictor of a deterministic sequence never errs.
ERRING = {
    9: {"9:188": 1},
    11: {"9:188": 1, "11:448": 2, "11:4c8": 2},
}


class TestLossBound:
    def test_singleton_pool_has_zero_excess(self, binary_alphabet, budget, pool6):
        loss = LossMatrix.error_loss(binary_alphabet)
        q = pool6[0]
        report = check_loss_bound(q, [q], loss, 4, budget, binary_alphabet)
        assert report.lhs == 0
        assert report.holds

    def test_holds_for_every_proper_pool_member(self, binary_alphabet, budget, pool6):
        loss = LossMatrix.error_loss(binary_alphabet)
        members = proper_members(pool6, budget, binary_alphabet, 4)
        assert members  # the pool is not all-improper
        for q in members:
            report = check_loss_bound(q, pool6, loss, 4, budget, binary_alphabet)
            assert report.holds, report

    def test_mu_outside_the_pool_is_rejected(self, binary_alphabet, budget, pool6, pool8):
        loss = LossMatrix.error_loss(binary_alphabet)
        outsider = next(p for p in pool8 if p.length_bits > 6)
        with pytest.raises(ValueError):
            check_loss_bound(outsider, pool6, loss, 2, budget, binary_alphabet)

    @pytest.mark.parametrize("l_max", sorted(ERRING))
    def test_measures_the_excess_where_the_mixture_errs(self, binary_alphabet, budget, l_max):
        loss = LossMatrix.error_loss(binary_alphabet)
        pool = enumerate_programs(l_max)
        excess = {}
        for q in proper_members(pool, budget, binary_alphabet, 5):
            report = check_loss_bound(q, pool, loss, 5, budget, binary_alphabet)
            assert report.holds, report
            if report.lhs:
                excess[q.to_hex()] = report.lhs
        assert excess == ERRING[l_max]

    # With ln 2 taken as 1/100, a = 2 ln2 l(mu) = 9/50 for 9:188, below its
    # excess at n=10, so the squared comparison (lhs - a)^2 <= 4b decides,
    # b = L_mu ln2 l(mu).  The informed predictor never errs: under the 0/1
    # loss L_mu = 0 and sqrt(b) = 0 exactly, so rhs = a; a loss of 1/2 for a
    # right guess gives L_mu = 5 and b = 9/20, and one wrong guess of the
    # mixture costs 1/2 more than a right one.
    @pytest.mark.parametrize(
        "right, lhs, rhs, holds",
        [(F(0), F(1), F(9, 50), False), (F(1, 2), F(1, 2), F(79, 50), True)],
    )
    def test_the_squared_comparison_decides_and_the_rhs_agrees(
        self, binary_alphabet, budget, right, lhs, rhs, holds
    ):
        symbols = range(binary_alphabet.num_percepts)
        loss = LossMatrix(
            binary_alphabet,
            {(s, l): right if s == l else F(1) for s in symbols for l in symbols},
        )
        mu = Program.from_hex("9:188")
        with mock.patch.object(evaluate, "LN2_UPPER", F(1, 100)):
            report = check_loss_bound(mu, enumerate_programs(9), loss, 10, budget, binary_alphabet)
        assert (report.lhs, report.rhs, report.holds) == (lhs, rhs, holds)


class TestSpErrorBound:
    def test_singleton_pool_never_errs(self, binary_alphabet, budget, pool6):
        q = pool6[0]
        report = check_sp_error_bound(q, [q], 5, budget, binary_alphabet)
        assert report.lhs == 0
        assert report.rhs == 0
        assert report.holds

    def test_holds_across_the_pool(self, binary_alphabet, budget, pool8):
        for q in proper_members(pool8, budget, binary_alphabet, 5):
            report = check_sp_error_bound(q, pool8, 5, budget, binary_alphabet)
            assert report.holds, report

    @pytest.mark.parametrize("l_max", sorted(ERRING))
    def test_counts_the_errors_on_pools_with_nonzero_emitters(
        self, binary_alphabet, budget, l_max
    ):
        pool = enumerate_programs(l_max)
        errors = {}
        for q in proper_members(pool, budget, binary_alphabet, 5):
            report = check_sp_error_bound(q, pool, 5, budget, binary_alphabet)
            assert report.holds and report.rhs == len(pool) - 1, report
            if report.lhs:
                errors[q.to_hex()] = report.lhs
        assert errors == ERRING[l_max]

    def test_mu_outside_the_pool_is_rejected(self, binary_alphabet, budget, pool6):
        with pytest.raises(ValueError, match="pool"):
            check_sp_error_bound(Program.from_hex("9:188"), pool6, 5, budget, binary_alphabet)

    @pytest.mark.parametrize("l_max", sorted(ERRING))
    def test_the_errors_are_the_excess_0_1_loss(self, binary_alphabet, budget, l_max):
        loss = LossMatrix.error_loss(binary_alphabet)
        pool = enumerate_programs(l_max)
        for q in proper_members(pool, budget, binary_alphabet, 5):
            sp = check_sp_error_bound(q, pool, 5, budget, binary_alphabet)
            assert sp.lhs == check_loss_bound(q, pool, loss, 5, budget, binary_alphabet).lhs


class TestPolicyEnumeration:
    def test_counts_follow_the_branching_recurrence(self, binary_alphabet):
        # f(m) = |Y| * f(m-1)^|X| with f(0) = 1, under full percept support
        rows = {"y:0": (F(1, 2), F(1, 2)), "y:1": (F(1, 2), F(1, 2))}
        env = TabularModel(binary_alphabet, 1, rows)
        assert len(all_policy_values(env, 1)) == 2
        assert len(all_policy_values(env, 2)) == 8
        assert len(all_policy_values(env, 3)) == 128

    def test_the_best_policy_on_heavenhell(self):
        assert max(all_policy_values(make_heavenhell(1), 4)) == 4

    def test_enumeration_refuses_oversized_instances(self, binary_alphabet):
        env = random_tabular(binary_alphabet, 2, random.Random(0))
        with pytest.raises(CapacityError):
            all_policy_values(env, 5)

    def test_a_wide_world_is_refused_before_its_policies_are_counted(self):
        # 4 actions x 4 percepts at lifetime 6: a walk that counts every
        # policy before enumerating any takes about 30 s on a 2-vCPU box,
        # where refusing as the lists grow takes under 0.1 s
        alphabet = Alphabet(4, 1, (0, F(1, 3), F(2, 3), 1))
        env = random_tabular(alphabet, 1, random.Random(0))
        start = time.perf_counter()
        with pytest.raises(CapacityError):
            all_policy_values(env, 6)
        assert time.perf_counter() - start < 2

    @settings(max_examples=80, deadline=None)
    @given(
        actions=st.integers(1, 3),
        observations=st.integers(1, 2),
        depth=st.integers(0, 2),
        lifetime=st.integers(1, 3),
        cap=st.integers(1, 400),
        seed=st.integers(0, 2**16),
    )
    def test_refuses_exactly_when_the_policy_count_passes_the_cap(
        self, actions, observations, depth, lifetime, cap, seed
    ):
        alphabet = Alphabet(actions, observations, (F(0), F(1)))
        env = random_tabular(alphabet, depth, random.Random(seed))
        count = reference.policy_count(env, lifetime)
        with mock.patch.object(evaluate, "_POLICY_ENUM_CAP", cap):
            if count > cap:
                with pytest.raises(CapacityError):
                    all_policy_values(env, lifetime)
            else:
                assert len(all_policy_values(env, lifetime)) == count

    def test_policy_maps_cover_every_assignment(self, binary_alphabet):
        contexts, assignments = enumerate_policy_maps(binary_alphabet, 2)
        pols = list(assignments)
        assert len(contexts) == 3  # depth-0 plus two depth-1 contexts
        assert len(pols) == 8
        policy = policy_from_map(contexts, pols[-1], binary_alphabet)
        assert policy(EMPTY_HISTORY) == 1


class TestPareto:
    def test_the_informed_policy_is_undominated(self):
        env = make_heavenhell(0)
        policy = planning_policy(env, FixedHorizon(2), 2)
        assert pareto_check(policy, [env], 2)

    def test_a_strictly_worse_policy_is_dominated(self):
        env = make_heavenhell(0)
        always_wrong = lambda h: 1
        assert not pareto_check(always_wrong, [env], 2)

    def test_oversized_instances_are_refused(self):
        env = make_onlyone(4, 0)
        with pytest.raises(CapacityError):
            pareto_check(lambda h: 0, [env], 2)


def test_intelligence_order_is_reflexive(binary_alphabet, budget, pool6):
    for p in pool6[:3]:
        assert intel_geq(p, p, pool6, 2, budget, binary_alphabet)


def test_intelligence_order_is_strict_between_action_1_and_action_0(
    binary_alphabet, budget, pool6
):
    # Every program of at most 6 bits plays action 0 forever, so the pair
    # needs a 9-bit policy; the 9-bit pool holds IN OUT END, which pays
    # reward 1 for action 1.
    silent = pool6[0]
    always_1 = decode((1, 1, 0, 0, 0, 1, 0, 0, 0))  # INC OUT END
    pool9 = enumerate_programs(9)
    assert intel_geq(always_1, silent, pool9, 2, budget, binary_alphabet)
    assert not intel_geq(silent, always_1, pool9, 2, budget, binary_alphabet)


def test_intelligence_order_needs_the_lifetime_to_cover_the_depth(
    binary_alphabet, budget, pool6
):
    p = pool6[0]
    with pytest.raises(ValueError, match="lifetime"):
        intel_geq(p, p, pool6, 3, budget, binary_alphabet, lifetime=2)


class TestDisagreement:
    def test_zero_when_the_mixture_is_the_truth(self, binary_alphabet, budget, pool6):
        q = pool6[0]
        mu = ProgramEnv(q, budget, binary_alphabet)
        assert disagreement_detail(mu, [q], 4, seed=0, budget=budget)[0] == 0

    def test_uninformative_pool_disagrees_with_the_informed_agent(
        self, binary_alphabet, budget, pool8
    ):
        # every short environment program pays 0, so the mixture agent picks
        # action 0 at cycle 1 where the informed agent wants door 1; once the
        # first action is wrong the informed values tie at 0 and the two
        # agents agree again
        mu = make_heavenhell(1)
        rate, weighted = disagreement_detail(mu, pool8, 3, seed=0, budget=budget)
        assert rate == F(1, 3)
        assert weighted == 1  # a 3-reward miss at cycle 1, averaged over 3 cycles


def test_report_serialization_round_trips_the_verdicts():
    reports = [
        BoundReport(F(1, 3), F(1, 2), True, "a"),
        BoundReport(F(2), F(1), False, "b"),
    ]
    csv = bound_reports_csv(reports)
    lines = csv.strip().splitlines()
    assert lines[0] == "lhs,rhs,holds,context"
    assert lines[1] == "1/3,1/2,1,a"
    assert lines[2] == "2,1,0,b"
    block = summary_block(reports)
    assert "[holds] a:" in block
    assert "[FAILS] b:" in block
