"""Exact expectimax planning over complete interaction histories.

The optimal value is the alternating max-over-actions / expectation-over-
percepts recursion with induction start V = 0 beyond the horizon.  Values of
fixed policies come in two equivalent forms: the iterative expectation under a
model's conditionals, and the functional weighted average of deterministic
rollouts over the environment programs consistent with the history, walked
on the program mixture's consistent-environment tree (``MixtureNode``), which
any number of policies can share.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import (
    Any, Callable, Dict, Hashable, Optional, Protocol, Sequence, Tuple, Union,
)

from .core import (
    Action,
    CapacityError,
    EMPTY_HISTORY,
    History,
    HorizonPolicy,
    Percept,
    append_cycle,
    contexts,
    discounted_reward,
    horizon_end,
)
from .models import (
    ChronologicalModel,
    MixtureNode,
    UndefinedConditionalError,
    build_mixture,
    expected_sum,
)
from .vm import FRESH, FrozenState, Program, RunBudget, run_cycle

# A policy oracle is any pure function from a complete history to an action.
PolicyOracle = Callable[[History], Action]


class ValueQuery:
    """One planning question: the value from cycle k through m_k."""

    __slots__ = ("model", "history", "k", "m_k", "horizon")

    def __init__(
        self,
        model: ChronologicalModel,
        history: History,
        k: int,
        m_k: int,
        horizon: Optional[HorizonPolicy] = None,
    ):
        if history.pending_action is not None:
            raise ValueError("planning from a history with a pending action")
        if len(history) != k - 1:
            raise ValueError(
                f"history has {len(history)} cycles; cycle index k={k} "
                f"requires {k - 1}"
            )
        if not (k <= m_k):
            raise ValueError(f"need k <= m_k, got k={k}, m_k={m_k}")
        self.model = model
        self.history = history
        self.k = k
        self.m_k = m_k
        self.horizon = horizon


# One expectimax decision: the smallest optimal action y*, the optimal value,
# and the plan of each child reached by a percept under y* (none at m_k).  The
# nested plans are the agent's own policy subtree down to m_k.
Plan = Tuple[Action, Fraction, Dict[Percept, "Plan"]]

_ZERO = Fraction(0)

# The most distinct (key, t) nodes one decision may solve, and all the
# decisions of one ``planning_policy`` together.  A decision of the tests or
# the pinned configs solves at most 127.  A model whose key merges nothing
# solves one node per history, 2^m - 1 for lazy at lifetime m, so lazy runs
# up to lifetime 15 and past it exits with a capacity error instead of
# running for hours; a moving horizon that re-solves such a tree every cycle
# exits the same way once the run has spent the budget.
PLAN_MEMO_CAP = 2**15


def _plan(
    q: ValueQuery,
    h: History,
    t: int,
    state: Any,
    actions: Optional[Sequence[Action]] = None,
    memo: Optional[Dict[Tuple[Hashable, int], Plan]] = None,
    cap: int = PLAN_MEMO_CAP,
) -> Plan:
    """Expectimax from cycle t (history h, model state ``state``) to m_k over
    ``actions`` (all of them by default).  A later action replaces the best
    only when its value is strictly greater, so ties go to the smaller one;
    the plans under every other action are dropped as soon as it loses.

    Every node is solved once per decision: ``memo`` maps the model's key
    and t to the plan of every node solved so far, so histories that leave
    the model in equal states share one plan.  The top-level call creates
    it, and it is gone when the decision returns.  A node restricted to
    some ``actions`` is neither looked up nor stored.  Storing more than
    ``cap`` nodes raises ``CapacityError``."""
    if memo is None:
        memo = {}
    model, horizon = q.model, q.horizon
    if actions is None:
        node = (model.key(state, h), t)
        plan = memo.get(node)
        if plan is not None:
            return plan
    last = t == q.m_k
    best: Optional[Plan] = None
    for y in model.alphabet.actions() if actions is None else actions:
        v, plans = _ZERO, {}
        for x, (p, child) in model.step(state, h, y).items():
            if p == 0:
                continue
            r = discounted_reward(horizon, t, x.reward)
            if not last:
                plans[x] = sub = _plan(
                    q, append_cycle(h, y, x), t + 1, child, memo=memo, cap=cap
                )
                r += sub[1]
            if p != 1:
                r *= p
            v = r if v is _ZERO else v + r  # no 0 + r on the first term
        if best is None or v > best[1]:
            best = (y, v, plans)
    if actions is None:
        if len(memo) >= cap:
            raise CapacityError(
                f"one decision solved more than {cap} distinct belief states"
            )
        memo[node] = best
    return best


def _decide(q: ValueQuery) -> Tuple[Action, Fraction]:
    """The lexicographically smallest optimal action and the optimal value."""
    y, v, _ = _plan(q, q.history, q.k, q.model.state(q.history))
    return y, v


def value_given_action(q: ValueQuery, y: Action) -> Fraction:
    """Expected reward sum over cycles k..m_k after committing to action y now."""
    return _plan(q, q.history, q.k, q.model.state(q.history), (y,))[1]


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

    The latest decision's child plans are kept, keyed by the history after
    (y*, x) and by m_k.  While m_k stays the same, the search at the next
    cycle is exactly one of them, so a call on that history and horizon end
    takes its decision from it; any other call solves afresh.  At most |X|
    plans are kept, with |X|^(m_k - k) leaves at most.

    The decisions solved afresh share one budget of ``PLAN_MEMO_CAP`` nodes;
    a decision taken from a kept plan costs nothing.  A decision that would
    pass what is left of it raises ``CapacityError``.
    """
    values: Dict[int, Fraction] = {}
    carried: Dict[Tuple[History, int], Plan] = {}
    spent = 0

    def policy(h: History) -> Action:
        nonlocal spent
        k = len(h) + 1
        m_k = horizon_end(horizon, k, lifetime)
        plan = carried.get((h, m_k))
        if plan is None:
            q, memo = ValueQuery(model, h, k, m_k, horizon), {}
            try:
                plan = _plan(q, h, k, model.state(h), memo=memo, cap=PLAN_MEMO_CAP - spent)
            except CapacityError:
                if not spent:
                    raise
                raise CapacityError(
                    f"the decisions up to cycle {k} solved more than {PLAN_MEMO_CAP} "
                    "distinct belief states"
                ) from None
            spent += len(memo)
        y, values[k], plans = plan
        carried.clear()
        for x, sub in plans.items():
            carried[append_cycle(h, y, x), m_k] = sub
        return y

    policy.values = values
    return policy


def forced_policy(p: Program, h0: History, budget: RunBudget, alphabet) -> PolicyOracle:
    """The history-forcing modification of a program policy.

    On prefixes of h0 it replays h0's recorded actions; past h0 it defers to
    the program, fed the history from the empty one on (its own past outputs
    are discarded), so the oracle is defined on any history.  By
    construction the result is consistent with h0.
    """

    def policy(h: History) -> Action:
        if len(h) < len(h0.cycles) and h.cycles == h0.cycles[: len(h)]:
            return h0.cycles[len(h)][0]
        return _fed(ProgramStepper(p, budget, alphabet), h)

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
    """Interleave agent and environment for `lifetime` cycles: the agent is
    called once per cycle, in order, on the history so far (a stateful
    policy such as a ``ProgramStepper`` or ``bestvote.best_vote_policy``
    carries what it has seen), and the world answers its action.

    The world's percept is drawn by ``sample_percept`` from its ``step`` row
    (the same row, and so the same draw, as ``cond_map``'s) with a seeded
    generator, so runs are deterministic given (agent, env, seed).  The
    world's state is carried from cycle to cycle, so no history is replayed.
    """
    rng = random.Random(seed)
    h = EMPTY_HISTORY
    state = env.state(h)
    for _ in range(lifetime):
        y = agent(h)
        row = env.step(state, h, y)
        x = sample_percept(rng, {x: p for x, (p, _) in row.items()}, env.alphabet)
        state = row[x][1]
        h = append_cycle(h, y, x)
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


# A program pool, or the consistent-environment tree's node after the history.
Envs = Union[Sequence[Program], MixtureNode]


def env_node(envs: Envs, h: History, budget: RunBudget, alphabet) -> MixtureNode:
    """The consistent-environment tree's node after h: a node is taken as it
    is (it must be the node after h), a pool is rooted as its program-class
    mixture and walked down h."""
    if isinstance(envs, MixtureNode):
        return envs
    return build_mixture(envs, budget, alphabet).state(h)


class PolicyStepper(Protocol):
    """A stateful policy: called once per cycle, in order, on each complete
    history from the empty one on.  ``fork()`` returns an independent copy."""

    def __call__(self, h: History) -> Action: ...

    def fork(self) -> "PolicyStepper": ...


def program_inputs(h: History, alphabet) -> Tuple[int, int]:
    """What a program policy reads at cycle len(h)+1: the previous percept's
    observation and reward index, or (0, 0) at the first cycle."""
    if not h.cycles:
        return 0, 0
    x = h.cycles[-1][1]
    return x.observation, alphabet.reward_index(x)


class ProgramStepper:
    """A bytecode program run incrementally from one frozen machine state,
    which a fork shares.  Each cycle emits the action; a cycle that times out
    plays the default action 0."""

    def __init__(self, p: Program, budget: RunBudget, alphabet, state: FrozenState = FRESH):
        self.p, self.budget, self.alphabet = p, budget, alphabet
        self.state = state

    def __call__(self, h: History) -> Action:
        obs, rew = program_inputs(h, self.alphabet)
        res = run_cycle(self.p, self.state, obs, rew, self.budget)
        self.state = res.state
        return 0 if res.timed_out else res.outputs[0] % self.alphabet.num_actions

    def fork(self) -> "ProgramStepper":
        return ProgramStepper(self.p, self.budget, self.alphabet, self.state)


def _fed(act: PolicyStepper, h: History) -> Action:
    """Call a stepper that has seen no history on each prefix of h and then
    on h; its action at h."""
    for i in range(len(h)):
        act(History(h.cycles[:i]))
    return act(h)


def functional_value(
    node: MixtureNode,
    y: Action,
    act: PolicyStepper,
    k: int,
    m: int,
    h: History,
    horizon: Optional[HorizonPolicy] = None,
) -> Fraction:
    """Weighted average, over the environments of ``node`` (the tree's node
    after h), of the reward sum over cycles k..m of playing y at cycle k and
    then following ``act``, a stepper that has been called on h and its
    prefixes.

    The walk adds up child mass times discounted reward over the nodes the
    policy reaches, so each environment is stepped once per distinct action
    prefix; the stepper is forked at each percept branch.  An environment
    that exhausts its budget contributes no further rewards from that cycle
    on.
    """
    if len(h) != k - 1:
        raise ValueError("history length must be k-1 cycles")
    if not node.survivors:
        raise UndefinedConditionalError("no pool program is consistent with the history")

    def walk(node: MixtureNode, y: Action, act: PolicyStepper, t: int, h: History) -> Fraction:
        total = Fraction(0)
        children = node.step(h, y)
        last = len(children) - 1
        for i, (x, child) in enumerate(children.items()):
            total += child.mass * discounted_reward(horizon, t, x.reward)
            if t < m:
                a = act if i == last else act.fork()
                hx = append_cycle(h, y, x)
                total += walk(child, a(hx), a, t + 1, hx)
        return total

    if m < k:
        return Fraction(0)
    return walk(node, y, act, k, h) / node.mass


def policy_value_functional(
    p: Program,
    envs: Envs,
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
    ``envs`` is a program pool or the consistent-environment tree's node after h.
    """
    act = ProgramStepper(p, budget, alphabet)
    y = _fed(act, h)
    node = env_node(envs, h, budget, alphabet)
    return functional_value(node, y, act, k, m, h, horizon)


def dominance_walk(
    geq: Callable[[History, int], bool], alphabet, depth: int, lifetime: Optional[int] = None
) -> bool:
    """True iff geq(h, lifetime) holds on every history of fewer than `depth`
    >= 1 cycles; depth-first, stopping at the first failure.  The lifetime
    defaults to `depth` and may not be shorter."""
    if depth < 1:
        raise ValueError("depth >= 1 required")
    life = lifetime if lifetime is not None else depth
    if life < depth:
        raise ValueError(f"lifetime {life} is shorter than the depth {depth}")
    return all(geq(h, life) for h, y in contexts(alphabet, depth) if y == 0)
