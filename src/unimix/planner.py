"""Exact expectimax planning over complete interaction histories.

The optimal value is the alternating max-over-actions / expectation-over-
percepts recursion with induction start V = 0 beyond the horizon.  Values of
fixed policies come in two equivalent forms: the iterative expectation under a
model's conditionals, and the functional weighted average of deterministic
rollouts over the environment programs consistent with the history, walked
on the program mixture's consistent-environment tree (``MixtureNode``), which
any number of policies can share.  The expectimax agent (``planning_policy``)
steps its belief one cycle per decision and solves every decision of its run
on one memo.
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


# One expectimax decision: the smallest optimal action y*, U and T.  T is the
# model's mass at the node (1 for probability rows) and U = D * T * V, where V
# is the optimal value and D the alphabet's reward scale, so the value is
# ``Fraction(U, D * T)``.
Plan = Tuple[Action, Union[int, Fraction], Union[int, Fraction]]

# The sum over an action's percepts before its first term.  A sum that is
# ``is _ZERO`` (any int 0) takes its next term as it is: no 0 + Fraction.
_ZERO = 0

# The most distinct (key, t, m_k) nodes one memo may hold: one decision's,
# or all the decisions of one ``planning_policy`` together.  A decision of
# the tests or the pinned configs solves at most 127.  A model whose key
# merges nothing solves one node per history, 2^m - 1 for lazy at lifetime
# m, so lazy runs up to lifetime 15 and past it exits with a capacity error
# instead of running for hours; a moving horizon that solves such a tree
# for every cycle's horizon end exits the same way once its memo is full.
PLAN_MEMO_CAP = 2**15


def _plan(
    q: ValueQuery,
    h: History,
    t: int,
    state: Any,
    actions: Optional[Sequence[Action]] = None,
    memo: Optional[Dict[Tuple[Hashable, int, int], Plan]] = None,
) -> Plan:
    """Expectimax from cycle t (history h, model state ``state``) to m_k over
    ``actions`` (all of them by default).  A later action replaces the best
    only when its U is strictly greater, so ties go to the smaller one.

    The sum is carried on the model's weights, with no division: U is the
    max over y of the sum over x of w * D * r + (w / T_x) * U_x, where T_x
    and U_x are the child's.  A child's mass is its weight (T_x = w) or 1,
    so that term is U_x or w * U_x.  The last cycle (t = m_k) solves no
    child, so it reads the model's ``last_weights`` row, which need not
    build the children's states.

    ``memo`` maps the model's key, t and m_k to the plan of every node
    solved so far, so histories that leave the model in equal states share
    one plan, and a caller that passes the same memo to later decisions
    (``planning_policy``) never solves a node twice.  By default each call
    has its own.  A node restricted to some ``actions`` is neither looked up
    nor stored.  Storing more than ``PLAN_MEMO_CAP`` nodes raises
    ``CapacityError``."""
    if memo is None:
        memo = {}
    model, horizon = q.model, q.horizon
    if actions is None:
        node = (model.key(state, h), t, q.m_k)
        plan = memo.get(node)
        if plan is not None:
            return plan
    last = t == q.m_k
    weights = model.last_weights if last else model.weights
    scaled, mass = model.alphabet.scaled_reward, model.mass(state)
    best: Optional[Plan] = None
    for y in model.alphabet.actions() if actions is None else actions:
        u = _ZERO
        for x, (w, child) in weights(state, h, y).items():
            if not w:
                continue
            term = discounted_reward(horizon, t, scaled(x))
            if w != 1:
                term *= w
            if not last:
                sub = _plan(q, append_cycle(h, y, x), t + 1, child, memo=memo)
                term += sub[1] if sub[2] == w else w * sub[1]
            u = term if u is _ZERO else u + term
        if best is None or u > best[1]:
            best = (y, u, mass)
    if actions is None:
        if len(memo) >= PLAN_MEMO_CAP:
            raise CapacityError(
                f"the decisions up to cycle {q.k} solved more than {PLAN_MEMO_CAP} "
                "distinct belief states"
            )
        memo[node] = best
    return best


def _plan_value(plan: Plan, alphabet) -> Fraction:
    """The optimal value V of a plan: its U over D * T."""
    return Fraction(plan[1], alphabet.reward_scale * plan[2])


def _decide(q: ValueQuery) -> Tuple[Action, Fraction]:
    """The lexicographically smallest optimal action and the optimal value."""
    plan = _plan(q, q.history, q.k, q.model.state(q.history))
    return plan[0], _plan_value(plan, q.model.alphabet)


def value_given_action(q: ValueQuery, y: Action) -> Fraction:
    """Expected reward sum over cycles k..m_k after committing to action y now."""
    plan = _plan(q, q.history, q.k, q.model.state(q.history), (y,))
    return _plan_value(plan, q.model.alphabet)


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
    at cycle k, and ``policy.beliefs[k]`` the model state it planned from,
    so a caller can report them without solving or replaying again.

    The policy steps its model state one cycle per call: when h extends the
    previous call's history by one cycle (y, x), the state is the ``weights``
    row of that call's state at x.  Any other call (a jump back, a sibling
    branch), or a row that gives x no weight, calls ``model.state(h)``.
    Every decision is one ``_plan`` on one memo for the whole run, so a
    decision with an earlier one's horizon end (every later cycle of a fixed
    horizon) solves no node twice, and the run's decisions share its
    ``PLAN_MEMO_CAP``.
    """
    values: Dict[int, Fraction] = {}
    beliefs: Dict[int, Any] = {}
    memo: Dict[Tuple[Hashable, int, int], Plan] = {}
    last: Optional[History] = None

    def policy(h: History) -> Action:
        nonlocal last
        k, w = len(h) + 1, 0
        if last is not None and len(h) == len(last) + 1 and h.cycles[:-1] == last.cycles:
            y, x = h.cycles[-1]
            w, state = model.weights(beliefs[k - 1], last, y).get(x, (0, None))
        if not w:
            state = model.state(h)
        last, beliefs[k] = h, state
        q = ValueQuery(model, h, k, horizon_end(horizon, k, lifetime), horizon)
        plan = _plan(q, h, k, state, memo=memo)
        values[k] = _plan_value(plan, model.alphabet)
        return plan[0]

    policy.values = values
    policy.beliefs = beliefs
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
    """Exact inverse-CDF draw from a percept row of int or ``Fraction`` weights.

    The row is scaled to ints W_x by the lcm of its denominators.  The draw
    d is ``randrange(sum(W) // g)``, g = gcd(W), and the percept is the
    first, in the alphabet's order, whose running sum of W_x passes d * g.
    sum(W) // g is the lcm of the normalized row's denominators, so this is
    the draw on the normalized row, with the same use of ``rng``.  A row of
    one percept of positive weight makes that draw, ``randrange(1)``, directly,
    its sign read off the numerator (a compare of a ``Fraction`` with an int
    makes an abstract-base-class check)."""
    if len(row) == 1:
        (x, p), = row.items()
        if p.numerator > 0:
            rng.randrange(1)
            return x
    scale = math.lcm(*[p.denominator for p in row.values()])
    weights = {x: p.numerator * (scale // p.denominator) for x, p in row.items()}
    g = math.gcd(*weights.values())
    if not g:
        raise UndefinedConditionalError("environment assigns no mass to any percept")
    draw = rng.randrange(sum(weights.values()) // g) * g
    acc = 0
    for x in alphabet.percepts():
        w = weights.get(x)
        if w is None:
            continue
        acc += w
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

    The world's percept is drawn by ``sample_percept`` from its ``weights``
    row (``cond_map``'s times its mass: the same draw) with a seeded
    generator, so runs are deterministic given (agent, env, seed).  The
    world's state is carried from cycle to cycle, so no history is replayed.
    """
    rng = random.Random(seed)
    h = EMPTY_HISTORY
    state = env.state(h)
    for _ in range(lifetime):
        y = agent(h)
        row = env.weights(state, h, y)
        x = sample_percept(rng, {x: w for x, (w, _) in row.items()}, env.alphabet)
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
    is (it must be the node after h), a pool is rooted as its per-program
    mixture (``build_mixture``, one component per program) and walked down
    h."""
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

    The walk adds up child mass times discounted reward, the reward times
    the alphabet's ``reward_scale`` D, over the nodes the policy reaches, so
    each environment is stepped once per distinct action prefix; the
    stepper is forked at each percept branch.  The sum is divided once, by
    the node's mass times D.  An environment that exhausts its budget
    contributes no further rewards from that cycle on.
    """
    if len(h) != k - 1:
        raise ValueError("history length must be k-1 cycles")
    if not node.survivors:
        raise UndefinedConditionalError("no pool program is consistent with the history")
    alphabet = node.mixture.alphabet

    def walk(
        node: MixtureNode, y: Action, act: PolicyStepper, t: int, h: History
    ) -> Union[int, Fraction]:
        total = 0
        children = node.step(h, y)
        last = len(children) - 1
        for i, (x, (mass, child)) in enumerate(children.items()):
            total += mass * discounted_reward(horizon, t, alphabet.scaled_reward(x))
            if t < m:
                a = act if i == last else act.fork()
                hx = append_cycle(h, y, x)
                total += walk(child, a(hx), a, t + 1, hx)
        return total

    if m < k:
        return Fraction(0)
    return Fraction(walk(node, y, act, k, h), node.mass * alphabet.reward_scale)


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
