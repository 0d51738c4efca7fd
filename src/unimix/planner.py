"""Exact expectimax planning over complete interaction histories.

The optimal value is the alternating max-over-actions / expectation-over-
percepts recursion with induction start V = 0 beyond the horizon.  Values of
fixed policies come in two equivalent forms: the iterative expectation under a
model's conditionals, and the functional weighted average of deterministic
rollouts over an environment-program pool.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from .core import (
    Action,
    EMPTY_HISTORY,
    History,
    HorizonPolicy,
    Percept,
    append_cycle,
    discounted_reward,
    horizon_end,
)
from .models import ChronologicalModel, UndefinedConditionalError, expected_sum
from .vm import MachineState, Program, RunBudget, consistent_envs, env_cycle, policy_cycle

# A policy oracle is any pure function from a complete history to an action.
PolicyOracle = Callable[[History], Action]


@dataclass(frozen=True)
class ValueQuery:
    """One planning question: the value from cycle k through m_k."""

    model: ChronologicalModel
    history: History
    k: int
    m_k: int
    horizon: Optional[HorizonPolicy] = None

    def __post_init__(self):
        if self.history.pending_action is not None:
            raise ValueError("planning from a history with a pending action")
        if len(self.history) != self.k - 1:
            raise ValueError(
                f"history has {len(self.history)} cycles; cycle index k={self.k} "
                f"requires {self.k - 1}"
            )
        if not (self.k <= self.m_k):
            raise ValueError(f"need k <= m_k, got k={self.k}, m_k={self.m_k}")


def _value_opt(q: ValueQuery, h: History, t: int, state: Any) -> Fraction:
    if t > q.m_k:
        return Fraction(0)
    return max(
        _value_given_action(q, h, t, y, state) for y in q.model.alphabet.actions()
    )


def _value_given_action(
    q: ValueQuery, h: History, t: int, y: Action, state: Any
) -> Fraction:
    total = Fraction(0)
    for x, (p, child) in q.model.step(state, h, y).items():
        if p == 0:
            continue
        cont = _value_opt(q, append_cycle(h, y, x), t + 1, child)
        total += (discounted_reward(q.horizon, t, x.reward) + cont) * p
    return total


def _decide(q: ValueQuery) -> Tuple[Action, Fraction]:
    """The lexicographically smallest optimal action and the optimal value."""
    state = q.model.state(q.history)
    best_y, best_v = None, None
    for y in q.model.alphabet.actions():
        v = _value_given_action(q, q.history, q.k, y, state)
        if best_v is None or v > best_v:
            best_y, best_v = y, v
    return best_y, best_v


def value_given_action(q: ValueQuery, y: Action) -> Fraction:
    """Expected reward sum over cycles k..m_k after committing to action y now."""
    return _value_given_action(q, q.history, q.k, y, q.model.state(q.history))


def value_opt(q: ValueQuery) -> Fraction:
    """The optimal (expectimax) value from cycle k through m_k."""
    return _decide(q)[1]


def best_action(q: ValueQuery) -> Action:
    """Lexicographically smallest maximizer of value_given_action."""
    return _decide(q)[0]


def planning_policy(
    model: ChronologicalModel,
    horizon: HorizonPolicy,
    lifetime: int,
) -> PolicyOracle:
    """The expectimax agent for a model as a reusable policy oracle.

    ``policy.values[k]`` holds the optimal value found by the latest decision
    at cycle k, so a caller can report it without solving again.
    """
    values: Dict[int, Fraction] = {}

    def policy(h: History) -> Action:
        k = len(h) + 1
        m_k = horizon_end(horizon, k, lifetime)
        y, values[k] = _decide(ValueQuery(model, h, k, m_k, horizon))
        return y

    policy.values = values
    return policy


def program_policy(p: Program, budget: RunBudget, alphabet) -> PolicyOracle:
    """A bytecode program as a policy oracle, replayed from scratch per call.

    Historical actions are taken from the history itself (the program's own
    past outputs are discarded), so the oracle is defined on any history.
    """

    def policy(h: History) -> Action:
        s = MachineState()
        percepts = h.percepts()
        action = 0
        for t in range(len(percepts) + 1):
            x_prev = percepts[t - 1] if t > 0 else None
            action, s, _, _ = policy_cycle(p, s, x_prev, budget, alphabet)
        return action

    return policy


def forced_policy(p: Program, h0: History, budget: RunBudget, alphabet) -> PolicyOracle:
    """The history-forcing modification of a program policy.

    On prefixes of h0 it replays h0's recorded actions; past h0 it defers to
    the program.  By construction the result is consistent with h0.
    """
    base = program_policy(p, budget, alphabet)

    def policy(h: History) -> Action:
        if len(h) < len(h0.cycles) and h.cycles == h0.cycles[: len(h)]:
            return h0.cycles[len(h)][0]
        return base(h)

    return policy


def sample_percept(rng: random.Random, row: Dict[Percept, Fraction], alphabet) -> Percept:
    """Exact inverse-CDF draw from a (possibly sub-normalized) percept row."""
    total = sum(row.values(), Fraction(0))
    if total == 0:
        raise UndefinedConditionalError("environment assigns no mass to any percept")
    denom = math.lcm(*[(p / total).denominator for p in row.values()])
    draw = rng.randrange(denom)
    acc = Fraction(0)
    for x in alphabet.percepts():
        p = row.get(x)
        if p is None:
            continue
        acc += (p / total) * denom
        if draw < acc:
            return x
    raise AssertionError("unreachable")


def run_interaction(
    agent: PolicyOracle,
    env: ChronologicalModel,
    lifetime: int,
    seed: int = 0,
) -> History:
    """Interleave agent and environment for `lifetime` cycles.

    Stochastic percepts are drawn by exact inverse-CDF sampling from a seeded
    generator, so runs are deterministic given (agent, env, seed).
    """
    rng = random.Random(seed)
    h = EMPTY_HISTORY
    for _ in range(lifetime):
        y = agent(h)
        h = append_cycle(h, y, sample_percept(rng, env.cond_map(h, y), env.alphabet))
    return h


def episode_cutoff(boundaries: Sequence[int], k: int, m_k: int) -> int:
    """Planning horizon truncated at the end of the episode containing cycle k."""
    bs = list(boundaries)
    if not bs or bs[0] != 0 or any(a >= b for a, b in zip(bs, bs[1:])):
        raise ValueError("boundaries must be strictly increasing and start at 0")
    if k > bs[-1]:
        raise ValueError(f"cycle {k} beyond last episode boundary {bs[-1]}")
    for nxt in bs[1:]:
        if k <= nxt:
            return min(m_k, nxt)
    raise AssertionError("unreachable")


def _check_consistent(p: PolicyOracle, h: History) -> None:
    for i, (y, _) in enumerate(h.cycles):
        if p(History(h.cycles[:i])) != y:
            raise ValueError(f"policy inconsistent with history at cycle {i + 1}")


def policy_value_iterative(
    p: PolicyOracle,
    rho: ChronologicalModel,
    k: int,
    m: int,
    h: History,
    horizon: Optional[HorizonPolicy] = None,
) -> Fraction:
    """Expected reward sum of a fixed policy under rho's conditionals."""
    if len(h) != k - 1:
        raise ValueError("history length must be k-1 cycles")
    _check_consistent(p, h)

    def score(hist: History, t: int, y: Action, row: Dict[Percept, Fraction]) -> Fraction:
        return sum(
            (pr * discounted_reward(horizon, t, x.reward) for x, pr in row.items()),
            Fraction(0),
        )

    return expected_sum(rho, p, score, m, h)


# A policy stepper is a stateful policy: it must be called once per cycle, in
# order, on each complete history from the empty one on.
PolicyStepper = Callable[[History], Action]


def program_stepper(p: Program, budget: RunBudget, alphabet) -> PolicyStepper:
    """A bytecode program run incrementally on one machine state."""
    s = MachineState()

    def act(h: History) -> Action:
        x_prev = h.cycles[-1][1] if h.cycles else None
        return policy_cycle(p, s, x_prev, budget, alphabet)[0]

    return act


def rollout_value(
    act: PolicyStepper,
    q: Program,
    k: int,
    m: int,
    h: History,
    budget: RunBudget,
    alphabet,
    horizon: Optional[HorizonPolicy] = None,
) -> Fraction:
    """Reward sum of the deterministic (policy, q) interaction over cycles k..m.

    The stepper is called on each prefix of h, where h's actions are forced
    (its own outputs are discarded), then runs freely from cycle k.  An
    environment program that exhausts its budget mid-future contributes no
    further rewards from that cycle on.
    """
    qs = MachineState()
    for i, (y, _) in enumerate(h.cycles):
        act(History(h.cycles[:i]))
        env_cycle(q, qs, y, budget, alphabet)
    total = Fraction(0)
    for t in range(k, m + 1):
        y = act(h)
        x, _, _, env_timeout = env_cycle(q, qs, y, budget, alphabet)
        if env_timeout:
            break
        total += discounted_reward(horizon, t, x.reward)
        h = append_cycle(h, y, x)
    return total


def functional_value(
    new_stepper: Callable[[], PolicyStepper],
    pool: Sequence[Program],
    k: int,
    m: int,
    h: History,
    budget: RunBudget,
    alphabet,
    horizon: Optional[HorizonPolicy] = None,
) -> Fraction:
    """Weighted average of rollouts of a fresh stepper over the consistent q."""
    if len(h) != k - 1:
        raise ValueError("history length must be k-1 cycles")
    hat_q = consistent_envs(pool, h, budget, alphabet)
    if not hat_q:
        raise UndefinedConditionalError("no pool program is consistent with the history")

    num = Fraction(0)
    den = Fraction(0)
    for q in hat_q:
        den += q.weight
        v = rollout_value(new_stepper(), q, k, m, h, budget, alphabet, horizon)
        num += q.weight * v
    return num / den


def policy_value_functional(
    p: Program,
    pool: Sequence[Program],
    k: int,
    m: int,
    h: History,
    budget: RunBudget,
    alphabet,
    horizon: Optional[HorizonPolicy] = None,
) -> Fraction:
    """Weighted average of deterministic (p, q) rollouts over consistent q.

    The policy program is replayed over the history with the history's actions
    forced (its own past outputs are discarded), then runs freely from cycle k.
    """
    new_stepper = lambda: program_stepper(p, budget, alphabet)
    return functional_value(new_stepper, pool, k, m, h, budget, alphabet, horizon)


def dominance_walk(
    geq: Callable[[History, int], bool], alphabet, depth: int, lifetime: Optional[int] = None
) -> bool:
    """True iff geq(h, lifetime) holds on every history of fewer than `depth`
    cycles; depth-first, stopping at the first failure.  The lifetime
    defaults to `depth` and may not be shorter."""
    life = lifetime if lifetime is not None else depth
    if life < depth:
        raise ValueError(f"lifetime {life} is shorter than the depth {depth}")

    def walk(h: History) -> bool:
        return geq(h, life) and (
            len(h) >= depth - 1
            or all(
                walk(append_cycle(h, y, x))
                for y in alphabet.actions()
                for x in alphabet.percepts()
            )
        )

    return walk(EMPTY_HISTORY)
