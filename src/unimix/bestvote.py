"""The time/length-bounded best-vote agent.

Candidates are extended policies that emit a self-rated value claim w
alongside each action.  Every cycle each claim is checked against the
candidate's exactly-computed mixture value; over-claims are clamped to zero
and the action of the highest surviving claim is played.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Callable, List, Optional, Sequence, Tuple, Union

from . import vm
from .core import (
    Action,
    EMPTY_HISTORY,
    FixedHorizon,
    History,
    HorizonPolicy,
    Value,
    discounted_reward,
    horizon_end,
    set_field,
)
from .models import ChronologicalModel, UndefinedConditionalError, build_class_mixture
from .planner import (
    Envs,
    PolicyOracle,
    dominance_walk,
    env_node,
    functional_value,
    program_inputs,
    run_interaction,
)
from .vm import FRESH, Program, RunBudget


class Claim(Value):
    """A candidate's self-rating for the coming cycle: value estimate + action."""

    __slots__ = ("w", "y", "timed_out", "steps_used")

    def __init__(
        self, w: Union[int, Fraction], y: Action, timed_out: bool = False, steps_used: int = 0
    ):
        w = Fraction(w)
        if w < 0:
            raise ValueError("claims must be nonnegative")
        set_field(self, "w", w)
        set_field(self, "y", y)
        set_field(self, "timed_out", timed_out)
        set_field(self, "steps_used", steps_used)


class ExtendedCandidate:
    """A claim-emitting policy: either a bytecode program (two outputs per
    cycle: the claim, then the action) or a pure oracle function of the
    history.  Runtime state is incremental across cycles: a program's is its
    frozen machine state, which a copy shares."""

    __slots__ = ("label", "sort_key", "program", "oracle", "state", "cycles_run", "last")

    def __init__(
        self,
        label: str,
        sort_key: tuple,
        program: Optional[Program] = None,
        oracle: Optional[Callable[[History], Claim]] = None,
    ):
        if (program is None) == (oracle is None):
            raise ValueError("exactly one of program/oracle required")
        self.label = label
        self.sort_key = sort_key
        self.program = program
        self.oracle = oracle
        self.state = FRESH
        self.cycles_run = 0
        # The last cycle's claim as the plain values (w, y, timed_out,
        # steps_used), so a round builds no Claim it does not walk.
        self.last: Optional[tuple] = None

    @property
    def last_claim(self) -> Optional[Claim]:
        """The claim of the last cycle run, None before the first."""
        return None if self.last is None else Claim(*self.last)

    @classmethod
    def from_program(cls, p: Program) -> "ExtendedCandidate":
        return cls(p.to_hex(), (0, p.code), program=p)

    @classmethod
    def from_oracle(cls, label: str, fn: Callable[[History], Claim]) -> "ExtendedCandidate":
        # oracles sort after all bytecode candidates
        return cls(label, (1, 0), oracle=fn)

    def fresh(self) -> "ExtendedCandidate":
        return ExtendedCandidate(
            self.label, self.sort_key, program=self.program, oracle=self.oracle
        )

    def copy(self) -> "ExtendedCandidate":
        """An independent candidate in the same runtime state."""
        c = self.fresh()
        c.state = self.state
        c.cycles_run = self.cycles_run
        c.last = self.last
        return c


def _check_at(c: ExtendedCandidate, h: History) -> None:
    if c.cycles_run != len(h):
        raise ValueError(
            f"candidate has run {c.cycles_run} cycles but history has {len(h)}"
        )


def _program_claim(
    c: ExtendedCandidate, obs: int, rew: int, budget: RunBudget, num_actions: int
) -> tuple:
    """Advance the program candidate c one cycle on the inputs (obs, rew):
    its claim as the plain values (w, y, timed_out, steps_used).  The claim
    is the first output and the action the second, each 0 when not emitted;
    a budget timeout yields (0, 0)."""
    out, steps, timed_out, c.state = vm.run_machine(
        c.program._ops, c.state, obs, rew, budget.steps_per_cycle, 2
    )
    if timed_out:
        last = (0, 0, True, steps)
    else:
        w = out[0] if out else 0
        last = (w, out[1] % num_actions if len(out) == 2 else 0, False, steps)
    c.cycles_run += 1
    c.last = last
    return last


def run_candidate_cycle(
    c: ExtendedCandidate, h: History, budget: RunBudget, alphabet
) -> Claim:
    """Advance the candidate one cycle on the history so far.

    Incremental: the candidate must have been stepped on exactly the previous
    cycles.  A budget timeout yields the flagged (w=0, y=0) claim.
    """
    return Claim(*_candidate_cycle(c, h, budget, alphabet))


def _candidate_cycle(
    c: ExtendedCandidate, h: History, budget: RunBudget, alphabet
) -> tuple:
    """``run_candidate_cycle``'s claim as the plain values (w, y, timed_out,
    steps_used)."""
    _check_at(c, h)
    if c.oracle is None:
        obs, rew = program_inputs(h, alphabet)
        return _program_claim(c, obs, rew, budget, alphabet.num_actions)
    claim = c.oracle(h)
    c.cycles_run += 1
    c.last = (claim.w, claim.y, claim.timed_out, claim.steps_used)
    return c.last


def _check_not_past(c: ExtendedCandidate, h: History) -> None:
    if c.cycles_run > len(h) + 1:
        raise ValueError(
            f"candidate has run {c.cycles_run} cycles, past cycle {len(h) + 1}"
        )


def claimed(
    c: ExtendedCandidate, h: History, budget: RunBudget, alphabet
) -> ExtendedCandidate:
    """A copy of c that has emitted its claim at cycle len(h)+1.

    c must have run on a prefix of h (a fresh candidate has run on the empty
    one); the copy is stepped on the prefixes it has not seen, so a live
    candidate that has just claimed on h is only copied.
    """
    _check_not_past(c, h)
    cc = c.copy()
    while cc.cycles_run <= len(h):
        _candidate_cycle(cc, History(h.cycles[: cc.cycles_run]), budget, alphabet)
    return cc


def replay_candidate(
    c: ExtendedCandidate, h: History, budget: RunBudget, alphabet
) -> Claim:
    """From-scratch claim at cycle len(h)+1 after the given history."""
    return claimed(c.fresh(), h, budget, alphabet).last_claim


class CandidateStepper:
    """A candidate as a policy stepper: its actions, with the claims dropped."""

    def __init__(self, c: ExtendedCandidate, budget: RunBudget, alphabet):
        self.c, self.budget, self.alphabet = c, budget, alphabet

    def __call__(self, h: History) -> Action:
        return _candidate_cycle(self.c, h, self.budget, self.alphabet)[1]

    def fork(self) -> "CandidateStepper":
        return CandidateStepper(self.c.copy(), self.budget, self.alphabet)


def candidate_value(
    c: ExtendedCandidate,
    envs: Envs,
    k: int,
    m: int,
    h: History,
    budget: RunBudget,
    alphabet,
    horizon: Optional[HorizonPolicy] = None,
) -> Fraction:
    """The candidate's exact mixture value over the environments consistent
    with h, with h's actions forced: its own action at cycle k, then its
    policy, walked over the shared consistent-environment tree.

    c may be fresh, or live on h's prefixes (see ``claimed``); it is not
    stepped itself.
    """
    cc = claimed(c, h, budget, alphabet)
    node = env_node(envs, h, budget, alphabet)
    stepper = CandidateStepper(cc, budget, alphabet)
    return functional_value(node, cc.last[1], stepper, k, m, h, horizon)


def claim_bound(
    horizon: Optional[HorizonPolicy], k: int, m_k: int, alphabet
) -> Fraction:
    """U, the most a claim at cycle k can be worth: the discounted r_max
    summed over cycles k..m_k."""
    r_max = alphabet.r_max
    return sum(
        (discounted_reward(horizon, t, r_max) for t in range(k, m_k + 1)), Fraction(0)
    )


def claim_verdict(
    w: Union[int, Fraction], survived: bool, bound: Union[int, Fraction]
) -> Optional[bool]:
    """``validate_claim``'s verdict on a claim of w where it needs no walk,
    None where it does.  The value lies in [0, U], U = ``claim_bound``:
    rewards lie in [0, r_max], and an environment that times out only drops
    mass.  So once some environment is consistent with h (``survived``), a
    claim of 0 is valid and a claim above U is not; with none, no claim is."""
    if not survived:
        return False
    if w == 0:
        return True
    if w > bound:
        return False
    return None


def validate_claim(
    c: ExtendedCandidate,
    claim: Claim,
    h: History,
    envs: Envs,
    budget: RunBudget,
    alphabet,
    m_k: int,
    horizon: Optional[HorizonPolicy] = None,
) -> bool:
    """True iff the claim never overrates the candidate: w <= its exact value,
    walked only for a claim in (0, U] (``claim_verdict``)."""
    _check_not_past(c, h)
    k = len(h) + 1
    node = env_node(envs, h, budget, alphabet)
    verdict = claim_verdict(
        claim.w, bool(node.survivors), claim_bound(horizon, k, m_k, alphabet)
    )
    if verdict is not None:
        return verdict
    return _walked_verdict(c, claim.w, node, k, m_k, h, budget, alphabet, horizon)


def _walked_verdict(
    c: ExtendedCandidate,
    w: Union[int, Fraction],
    node: Envs,
    k: int,
    m_k: int,
    h: History,
    budget: RunBudget,
    alphabet,
    horizon: Optional[HorizonPolicy],
) -> bool:
    """The verdict on a claim of w that ``claim_verdict`` leaves to a walk:
    w at most the candidate's value, False where that is undefined.  The
    two are compared on ints, crossed over their denominators."""
    try:
        v = candidate_value(c, node, k, m_k, h, budget, alphabet, horizon)
    except UndefinedConditionalError:
        return False
    return w.numerator * v.denominator <= v.numerator * w.denominator


class SelectionRow(tuple):
    """One candidate's line of a best-vote round, its fields in the column
    order of ``selection.csv``: cycle, candidate, claimed_w, valid,
    selected, action and steps_used.

    A tuple, not a ``core.Value``: a round makes one per candidate, and a
    tuple is built in one call where a ``Value`` sets each field with its
    own call.  It keeps the ``Value`` contract: a row equals only a row,
    never a plain tuple; hash and repr go over the fields; and no attribute
    can be assigned or deleted.
    """

    __slots__ = ()
    _fields = ("cycle", "candidate", "claimed_w", "valid", "selected", "action", "steps_used")

    def __new__(
        cls,
        cycle: int,
        candidate: str,
        claimed_w: Union[int, Fraction],
        valid: bool,
        selected: bool,
        action: Action,
        steps_used: int,
    ):
        return tuple.__new__(
            cls, (cycle, candidate, claimed_w, valid, selected, action, steps_used)
        )

    cycle = property(itemgetter(0))
    candidate = property(itemgetter(1))
    claimed_w = property(itemgetter(2))
    valid = property(itemgetter(3))
    selected = property(itemgetter(4))
    action = property(itemgetter(5))
    steps_used = property(itemgetter(6))

    # A tuple compares equal to any tuple of the same items, a subclass's
    # too, so both answers are given here rather than left to tuple.
    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self))
        return f"SelectionRow({body})"


def selection_first(candidates: Sequence[ExtendedCandidate]) -> int:
    """The index of the candidate first in selection order: least
    ``sort_key``, the earliest of equal ones."""
    return min(range(len(candidates)), key=lambda i: candidates[i].sort_key)


def best_vote_cycle(
    candidates: Sequence[ExtendedCandidate],
    h: History,
    envs: Envs,
    budget: RunBudget,
    alphabet,
    m_k: int,
    horizon: Optional[HorizonPolicy] = None,
) -> Tuple[Action, List[SelectionRow]]:
    """One round of claims, validation, clamping, and selection.

    Every candidate is valued on one shared consistent-environment tree.  The
    highest valid claim wins, the first in selection order among equal ones;
    when no claim is both positive and valid that is ``selection_first``.

    The node, the previous percept's inputs and U are found once for the
    round, and ``claim_verdict`` judges every claim against that U; only a
    claim in (0, U] is walked, by ``candidate_value``.  A program
    candidate's claim stays ints, judged against the floor of U: an int
    is above U exactly when it is above U's floor.
    """
    if not candidates:
        raise ValueError("no candidates")
    k = len(h) + 1
    node = env_node(envs, h, budget, alphabet)
    survived = bool(node.survivors)
    bound = claim_bound(horizon, k, m_k, alphabet)
    floor_u = int(bound)  # U >= 0, so int() is its floor
    obs, rew = program_inputs(h, alphabet)
    num_actions = alphabet.num_actions
    rows = []
    best, best_w = None, 0
    for i, c in enumerate(candidates):
        if c.oracle is None:
            _check_at(c, h)
            w, y, _, steps = _program_claim(c, obs, rew, budget, num_actions)
            u = floor_u
        else:
            w, y, _, steps = _candidate_cycle(c, h, budget, alphabet)
            u = bound
        valid = claim_verdict(w, survived, u)
        if valid is None:
            valid = _walked_verdict(c, w, node, k, m_k, h, budget, alphabet, horizon)
        if valid and w > 0 and (
            w > best_w or (w == best_w and c.sort_key < candidates[best].sort_key)
        ):
            best, best_w = i, w
        rows.append(tuple.__new__(SelectionRow, (k, c.label, w, valid, False, y, steps)))
    if best is None:
        best = selection_first(candidates)
    cycle, label, w, valid, _, y, steps = rows[best]
    rows[best] = SelectionRow(cycle, label, w, valid, True, y, steps)
    return y, rows


def selection_log_csv(rows: Sequence[SelectionRow]) -> str:
    # A row formats as the tuple it is: %d writes valid and selected as 1 or 0.
    lines = [",".join(SelectionRow._fields)]
    lines += ["%d,%s,%s,%d,%d,%d,%d" % row for row in rows]
    return "\n".join(lines) + "\n"


def best_vote_policy(
    pool: Sequence[Program],
    budget: RunBudget,
    alphabet,
    lifetime: int,
    horizon: Optional[HorizonPolicy] = None,
) -> PolicyOracle:
    """The best-vote agent, with the pool's programs as both the candidates
    and the environment pool, as a policy that ``run_interaction`` calls
    once per cycle, in order; each call steps the consistent-environment
    tree's node down the cycle the previous call's history was extended by.

    The tree is rooted on the pool's behaviour classes to the lifetime
    (``build_class_mixture``), which every walk is clamped to; the walks
    step only the actions they take, so a program that reads the action is
    its own class unless its code is silent.  The candidates stay one per
    program.

    ``policy.log`` gets each cycle's selection rows and ``policy.tops`` the
    posterior leader before each cycle (``MixtureNode.top`` of the node: the
    heaviest surviving program), None once no program is left."""
    candidates = [ExtendedCandidate.from_program(p) for p in pool]
    hpol = horizon if horizon is not None else FixedHorizon(lifetime)
    log: List[SelectionRow] = []
    tops: List[Optional[str]] = []
    node = build_class_mixture(pool, budget, alphabet, lifetime, False).state(EMPTY_HISTORY)
    last: Optional[History] = None  # the history of the previous call

    def policy(h: History) -> Action:
        nonlocal node, last
        if last is not None:
            y, x = h.cycles[-1]
            node = node.child(last, y, x)
        last = h
        k = len(h) + 1
        tops.append(node.top())
        y, rows = best_vote_cycle(
            candidates, h, node, budget, alphabet, horizon_end(hpol, k, lifetime), horizon
        )
        log.extend(rows)
        return y

    policy.log = log
    policy.tops = tops
    return policy


def run_best_vote(
    pool: Sequence[Program],
    budget: RunBudget,
    env: ChronologicalModel,
    lifetime: int,
    horizon: Optional[HorizonPolicy] = None,
    seed: int = 0,
) -> Tuple[History, List[SelectionRow]]:
    """Full best-vote run (``best_vote_policy``) against env for `lifetime`
    cycles: the history and the selection rows."""
    policy = best_vote_policy(pool, budget, env.alphabet, lifetime, horizon)
    return run_interaction(policy, env, lifetime, seed), policy.log


def make_composite(
    members: Sequence[ExtendedCandidate],
    envs: Envs,
    budget: RunBudget,
    alphabet,
    lifetime: int,
    horizon: Optional[HorizonPolicy] = None,
) -> ExtendedCandidate:
    """The best-vote agent itself, packaged as an oracle candidate.

    Its claim at each history is the highest validated member claim (computed
    from scratch), paired with that member's action.
    """
    hpol = horizon if horizon is not None else FixedHorizon(lifetime)

    def oracle(h: History) -> Claim:
        k = len(h) + 1
        m_k = horizon_end(hpol, k, lifetime)
        node = env_node(envs, h, budget, alphabet)
        best = None
        for c in sorted(members, key=lambda c: c.sort_key):
            cc = claimed(c.fresh(), h, budget, alphabet)
            claim = cc.last_claim
            valid = validate_claim(cc, claim, h, node, budget, alphabet, m_k, horizon)
            w_eff = claim.w if valid else Fraction(0)
            if best is None or w_eff > best[0]:
                best = (w_eff, claim.y)
        return Claim(best[0], best[1])

    return ExtendedCandidate.from_oracle("best-vote", oracle)


def validated_claim_weight(
    c: ExtendedCandidate,
    h: History,
    envs: Envs,
    budget: RunBudget,
    alphabet,
    m_k: int,
    horizon: Optional[HorizonPolicy] = None,
) -> Fraction:
    """The candidate's claim after clamping invalid claims to zero."""
    cc = claimed(c.fresh(), h, budget, alphabet)
    if validate_claim(cc, cc.last_claim, h, envs, budget, alphabet, m_k, horizon):
        return cc.last_claim.w
    return Fraction(0)


def eff_intel_geq(
    c1: ExtendedCandidate,
    c2: ExtendedCandidate,
    depth: int,
    envs: Envs,
    budget: RunBudget,
    alphabet,
    lifetime: Optional[int] = None,
) -> bool:
    """Effective intelligence order: c1's validated claim dominates c2's on
    every history of up to `depth`-1 completed cycles, exhaustively."""

    def geq(h: History, m_k: int) -> bool:
        node = env_node(envs, h, budget, alphabet)
        w1 = validated_claim_weight(c1, h, node, budget, alphabet, m_k)
        return w1 >= validated_claim_weight(c2, h, node, budget, alphabet, m_k)

    return dominance_walk(geq, alphabet, depth, lifetime)
