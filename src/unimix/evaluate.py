"""Measurement harness: losses, bound checks, dominance verdicts, diagnostics.

Everything here is exact: losses and values are rationals, the natural-log
constant enters only as a rational upper bound, and square roots are compared
by squaring.  Brute-force policy enumeration doubles as the independent
oracle for the planner's expectimax values.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .core import (
    Action,
    Alphabet,
    CapacityError,
    EMPTY_HISTORY,
    FixedHorizon,
    History,
    HorizonPolicy,
    Percept,
    append_cycle,
    discounted_reward,
)
from .models import (
    ChronologicalModel,
    ProgramEnv,
    UndefinedConditionalError,
    build_mixture,
    expected_sum,
)
from .planner import (
    PolicyOracle,
    ValueQuery,
    dominance_walk,
    env_node,
    planning_policy,
    policy_value_functional,
    policy_value_iterative,
    run_interaction,
    value_given_action,
    value_opt,
)
from .vm import Program, RunBudget

# ln 2 = 0.69314718... ; any rational upper bound keeps the inequalities safe
LN2_UPPER = Fraction(693148, 1000000)


class BoundReport:
    """One checked inequality lhs <= rhs with a human-readable context."""

    __slots__ = ("lhs", "rhs", "holds", "context")

    def __init__(self, lhs: Fraction, rhs: Fraction, holds: bool, context: str):
        self.lhs = lhs
        self.rhs = rhs
        self.holds = holds
        self.context = context


def bound_reports_csv(reports: Sequence[BoundReport]) -> str:
    lines = ["lhs,rhs,holds,context"]
    for r in reports:
        lines.append(f"{r.lhs},{r.rhs},{int(r.holds)},{r.context}")
    return "\n".join(lines) + "\n"


def summary_block(reports: Sequence[BoundReport]) -> str:
    lines = []
    for r in reports:
        verdict = "holds" if r.holds else "FAILS"
        lines.append(f"[{verdict}] {r.context}: lhs={r.lhs} rhs={r.rhs}")
    return "\n".join(lines) + "\n"


def _sqrt_upper(x: Fraction) -> Fraction:
    """A rational upper bound on sqrt(x) for nonnegative rational x."""
    if x < 0:
        raise ValueError("sqrt of negative value")
    square = x.numerator * x.denominator
    root = math.isqrt(square)
    return Fraction(root if root * root == square else root + 1, x.denominator)


# --- Losses -----------------------------------------------------------------


class LossMatrix:
    """Entries loss(percept-symbol, prediction-label), each in [0, 1]."""

    def __init__(self, alphabet: Alphabet, entries: Dict[Tuple[int, int], Fraction]):
        self.alphabet = alphabet
        self.entries = {k: Fraction(v) for k, v in entries.items()}
        for (sym, label), v in self.entries.items():
            if not (0 <= v <= 1):
                raise ValueError(f"loss({sym},{label})={v} outside [0,1]")

    def loss(self, x: Percept, label: int) -> Fraction:
        return self.entries.get((self.alphabet.symbol_of(x), label), Fraction(0))

    @classmethod
    def error_loss(cls, alphabet: Alphabet) -> "LossMatrix":
        """0/1 loss: a prediction is wrong unless it names the percept."""
        n = alphabet.num_percepts
        entries = {
            (sym, label): Fraction(0) if sym == label else Fraction(1)
            for sym in range(n)
            for label in range(n)
        }
        return cls(alphabet, entries)


# A prediction scheme maps the history so far to a percept-symbol label.
PredictionScheme = Callable[[History], int]


def lambda_predictor(
    rho: ChronologicalModel,
    loss: LossMatrix,
    pi: Optional[PolicyOracle] = None,
) -> PredictionScheme:
    """The rho-optimal predictor: minimize rho-expected loss of the next
    percept, ties to the smallest label.  Actions are spectators from pi."""
    feed = pi if pi is not None else (lambda h: 0)

    def scheme(h: History) -> int:
        row = rho.cond_map(h, feed(h))
        best_label, best_loss = 0, None
        for label in range(rho.alphabet.num_percepts):
            l = sum((p * loss.loss(x, label) for x, p in row.items()), Fraction(0))
            if best_loss is None or l < best_loss:
                best_label, best_loss = label, l
        return best_label

    return scheme


def expected_loss(
    scheme: PredictionScheme,
    mu: ChronologicalModel,
    loss: LossMatrix,
    n: int,
    pi: Optional[PolicyOracle] = None,
) -> Fraction:
    """Total mu-expected loss of the scheme over n cycles, exactly.

    The percept process runs under spectator actions from pi; the scheme's
    labels are scored but never fed back.
    """
    feed = pi if pi is not None else (lambda h: 0)

    def score(h: History, t: int, y: Action, row: Dict[Percept, Fraction]) -> Fraction:
        label = scheme(h)
        return sum((p * loss.loss(x, label) for x, p in row.items()), Fraction(0))

    return expected_sum(mu, feed, score, n)


def proper_members(
    pool: Sequence[Program],
    budget: RunBudget,
    alphabet: Alphabet,
    n: int,
    pi: Optional[PolicyOracle] = None,
) -> List[Program]:
    """Pool programs that behave as proper measures for n spectator cycles
    (no budget timeout along the action feed): their row mass sums to n."""
    feed = pi if pi is not None else (lambda h: 0)
    mass = lambda h, t, y, row: sum(row.values())
    return [
        q for q in pool if expected_sum(ProgramEnv(q, budget, alphabet), feed, mass, n) == n
    ]


def check_loss_bound(
    mu_program: Program,
    pool: Sequence[Program],
    loss: LossMatrix,
    n: int,
    budget: RunBudget,
    alphabet: Alphabet,
) -> BoundReport:
    """Excess loss of the mixture predictor over the informed predictor,
    against 2 ln2 l(mu) + 2 sqrt(L_mu ln2 l(mu)) with l(mu) the code length."""
    if not any(q.code == mu_program.code for q in pool):
        raise ValueError("mu must be a pool component")
    mu = ProgramEnv(mu_program, budget, alphabet)
    xi = build_mixture(pool, budget, alphabet)
    l_mu = mu_program.length_bits
    loss_mu = expected_loss(lambda_predictor(mu, loss), mu, loss, n)
    loss_xi = expected_loss(lambda_predictor(xi, loss), mu, loss, n)
    lhs = loss_xi - loss_mu
    a = 2 * LN2_UPPER * l_mu
    b = loss_mu * LN2_UPPER * l_mu
    # lhs <= a + 2 sqrt(b), decided exactly by squaring
    if lhs <= a:
        holds = True
    else:
        holds = (lhs - a) ** 2 <= 4 * b
    holds = holds and lhs >= 0
    rhs_upper = a + 2 * _sqrt_upper(b)
    return BoundReport(
        lhs=lhs,
        rhs=rhs_upper,
        holds=holds,
        context=f"loss bound: l(mu)={l_mu} bits n={n} (rhs is a rational upper bound)",
    )


def check_sp_error_bound(
    mu_program: Program,
    pool: Sequence[Program],
    n: int,
    budget: RunBudget,
    alphabet: Alphabet,
) -> BoundReport:
    """Error count of the mixture predictor on a deterministic pool sequence,
    against the size of the initially-consistent program set minus one (every
    wrong prediction eliminates at least one program; the truth survives).
    On a deterministic mu the error count is the mixture's mu-expected 0/1
    loss."""
    if not any(q.code == mu_program.code for q in pool):
        raise ValueError("mu must be a pool component")
    mu = ProgramEnv(mu_program, budget, alphabet)
    xi = build_mixture(pool, budget, alphabet)
    loss = LossMatrix.error_loss(alphabet)
    errors = expected_loss(lambda_predictor(xi, loss), mu, loss, n)
    # Every program reproduces the empty history.
    initial = len(pool)
    return BoundReport(
        lhs=errors,
        rhs=Fraction(initial - 1),
        holds=errors <= initial - 1,
        context=f"sp error bound: n={n} pool={len(pool)}",
    )


# --- Brute-force policy enumeration ----------------------------------------

_POLICY_ENUM_CAP = 200_000


def all_policy_values(
    env: ChronologicalModel,
    lifetime: int,
    horizon: Optional[HorizonPolicy] = None,
) -> List[Fraction]:
    """Value of every deterministic percept-context policy, by brute force.

    Enumerates the full policy tree over reachable contexts; contains no
    max-step, so it is an independent oracle for the expectimax value.  No
    context has more policies below it than its parent, so refusing any
    node's list past the cap refuses exactly the trees whose root passes it.
    """

    def values(h: History, t: int) -> List[Fraction]:
        if t > lifetime:
            return [Fraction(0)]
        out: List[Fraction] = []
        for y in env.alphabet.actions():
            branches = []
            probs = []
            rewards = []
            for x, p in env.cond_map(h, y).items():
                if p == 0:
                    continue
                probs.append(p)
                rewards.append(discounted_reward(horizon, t, x.reward))
                branches.append(values(append_cycle(h, y, x), t + 1))
            if len(out) + math.prod(map(len, branches)) > _POLICY_ENUM_CAP:
                raise CapacityError(
                    f"policies exceed the enumeration cap of {_POLICY_ENUM_CAP}"
                )
            for combo in itertools.product(*branches):
                v = sum(
                    (p * (r + c) for p, r, c in zip(probs, rewards, combo)),
                    Fraction(0),
                )
                out.append(v)
        return out

    return values(EMPTY_HISTORY, 1)


def enumerate_policy_maps(
    alphabet: Alphabet, lifetime: int
) -> "itertools.product":
    """All policy functions on full percept contexts of depth < lifetime,
    as (contexts, assignment-iterator)."""
    contexts: List[Tuple[int, ...]] = []
    for d in range(lifetime):
        contexts.extend(itertools.product(range(alphabet.num_percepts), repeat=d))
    total = alphabet.num_actions ** len(contexts)
    if total > _POLICY_ENUM_CAP:
        raise CapacityError(f"{total} policy functions exceed the enumeration cap")
    return contexts, itertools.product(alphabet.actions(), repeat=len(contexts))


def policy_from_map(
    contexts: Sequence[Tuple[int, ...]],
    assignment: Sequence[Action],
    alphabet: Alphabet,
) -> PolicyOracle:
    table = dict(zip(contexts, assignment))

    def policy(h: History) -> Action:
        key = tuple(alphabet.symbol_of(x) for x in h.percepts())
        return table[key]

    return policy


# --- Dominance verdicts -----------------------------------------------------


def pareto_check(
    policy: PolicyOracle,
    env_class: Sequence[ChronologicalModel],
    lifetime: int,
) -> bool:
    """True iff no deterministic policy weakly dominates the given policy
    across the class with a strict improvement somewhere.  Exact; refuses
    instances beyond the enumeration caps."""
    if not env_class:
        raise ValueError("empty environment class")
    alphabet = env_class[0].alphabet
    if (
        alphabet.num_actions > 3
        or alphabet.num_percepts > 3
        or lifetime > 3
        or len(env_class) > 6
    ):
        raise CapacityError("instance beyond pareto_check caps")
    base = [
        policy_value_iterative(policy, env, 1, lifetime, EMPTY_HISTORY)
        for env in env_class
    ]
    contexts, assignments = enumerate_policy_maps(alphabet, lifetime)
    for assignment in assignments:
        rival = policy_from_map(contexts, assignment, alphabet)
        vals = [
            policy_value_iterative(rival, env, 1, lifetime, EMPTY_HISTORY)
            for env in env_class
        ]
        if all(v >= b for v, b in zip(vals, base)) and any(
            v > b for v, b in zip(vals, base)
        ):
            return False
    return True


def intel_geq(
    p: Program,
    p_prime: Program,
    pool: Sequence[Program],
    depth: int,
    budget: RunBudget,
    alphabet: Alphabet,
    lifetime: Optional[int] = None,
) -> bool:
    """Intelligence order: p's mixture value dominates p_prime's on every
    history of fewer than `depth` cycles, exhaustively."""

    def geq(h: History, m_k: int) -> bool:
        k = len(h) + 1
        node = env_node(pool, h, budget, alphabet)
        try:
            v1 = policy_value_functional(p, node, k, m_k, h, budget, alphabet)
            v2 = policy_value_functional(p_prime, node, k, m_k, h, budget, alphabet)
        except UndefinedConditionalError:
            return True  # no environment explains h: values undefined for both
        return v1 >= v2

    return dominance_walk(geq, alphabet, depth, lifetime)


# --- Disagreement diagnostics ----------------------------------------------


def disagreement_detail(
    mu: ChronologicalModel,
    pool: Sequence[Program],
    n: int,
    seed: int,
    budget: RunBudget,
) -> Tuple[Fraction, Fraction]:
    """(rate, value-gap-weighted rate) of mixture-agent vs informed-agent
    action disagreement along the mixture agent's sampled mu-history."""
    alphabet = mu.alphabet
    xi = build_mixture(pool, budget, alphabet)
    hpol = FixedHorizon(n)
    agent_xi = planning_policy(xi, hpol, n)
    agent_mu = planning_policy(mu, hpol, n)
    h = run_interaction(agent_xi, mu, n, seed)
    count = 0
    weighted = Fraction(0)
    for k in range(1, n + 1):
        prefix = History(h.cycles[: k - 1])
        y_xi = h.cycles[k - 1][0]
        y_mu = agent_mu(prefix)
        if y_xi != y_mu:
            count += 1
            q = ValueQuery(mu, prefix, k, n)
            weighted += value_opt(q) - value_given_action(q, y_xi)
    return Fraction(count, n), weighted / n
