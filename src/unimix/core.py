"""Shared vocabulary: alphabets, percepts, histories, horizon policies.

Everything here is an immutable value object and all rewards are exact
rationals, so downstream expectimax values compare bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

Action = int


class AlternationError(ValueError):
    """Raised when the strict action/percept alternation of a history is violated."""


class CapacityError(RuntimeError):
    """An exact enumeration was requested beyond the configured caps."""


@dataclass(frozen=True)
class Percept:
    """One environment reply: a bounded nonnegative reward plus an observation index."""

    reward: Fraction
    observation: int = 0

    def __post_init__(self):
        object.__setattr__(self, "reward", Fraction(self.reward))
        if self.reward < 0:
            raise ValueError(f"negative reward {self.reward}")
        if self.observation < 0:
            raise ValueError(f"negative observation {self.observation}")
        # Percepts key the planner's dicts; hashing a Fraction is costly.
        object.__setattr__(self, "_hash", hash((self.reward, self.observation)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True)
class Alphabet:
    """Finite I/O spaces: actions, observations, and the allowed reward levels.

    A percept is flattened to a single symbol ``r_idx * num_observations + o``
    for the bytecode machine; ``rewards`` lists the admissible reward levels in
    increasing order, with ``rewards[-1]`` acting as r_max.
    """

    num_actions: int = 2
    num_observations: int = 1
    rewards: tuple = (Fraction(0), Fraction(1))

    def __post_init__(self):
        if self.num_actions < 1 or self.num_observations < 1:
            raise ValueError("alphabet sizes must be >= 1")
        rewards = tuple(Fraction(r) for r in self.rewards)
        object.__setattr__(self, "rewards", rewards)
        if any(r < 0 for r in rewards):
            raise ValueError("rewards must be nonnegative")
        if list(rewards) != sorted(set(rewards)):
            raise ValueError("rewards must be strictly increasing")

    @property
    def r_max(self) -> Fraction:
        return self.rewards[-1]

    @property
    def num_percepts(self) -> int:
        return len(self.rewards) * self.num_observations

    def percepts(self) -> tuple:
        """All percepts in symbol order (reward-major)."""
        return self._percept_table

    @cached_property
    def _percept_table(self) -> tuple:
        # Built on first use; not a field, so eq and hash never see it.
        return tuple(
            Percept(r, o) for r in self.rewards for o in range(self.num_observations)
        )

    def actions(self) -> range:
        return range(self.num_actions)

    def symbol_of(self, x: Percept) -> int:
        return self.rewards.index(x.reward) * self.num_observations + x.observation

    def percept_of(self, symbol: int) -> Percept:
        """The percept with this symbol; out-of-range symbols wrap around."""
        table = self._percept_table
        return table[symbol % len(table)]

    def reward_index(self, x: Percept) -> int:
        return self.rewards.index(x.reward)


@dataclass(frozen=True)
class History:
    """Alternating record y1 x1 y2 x2 ... with an optional not-yet-answered action."""

    cycles: tuple = ()
    pending_action: Optional[Action] = None

    def __len__(self) -> int:
        return len(self.cycles)

    def actions(self) -> tuple:
        return tuple(y for y, _ in self.cycles)

    def percepts(self) -> tuple:
        return tuple(x for _, x in self.cycles)

    def rewards(self) -> tuple:
        return tuple(x.reward for _, x in self.cycles)

    def with_pending(self, y: Action) -> "History":
        if self.pending_action is not None:
            raise AlternationError("history already has a pending action")
        return History(self.cycles, y)

    def answer(self, x: Percept) -> "History":
        if self.pending_action is None:
            raise AlternationError("no pending action to answer")
        return History(self.cycles + ((self.pending_action, x),), None)


EMPTY_HISTORY = History()


def append_cycle(h: History, y: Action, x: Percept) -> History:
    """Extend a complete history by one full (action, percept) cycle."""
    if h.pending_action is not None:
        raise AlternationError("cannot append a cycle while an action is pending")
    return History(h.cycles + ((y, x),), None)


def encode_history(h: History) -> str:
    """Canonical textual encoding: ``y:<int> r:<p>/<q> o:<int>`` per cycle."""
    parts = []
    for y, x in h.cycles:
        parts.append(f"y:{y}")
        parts.append(f"r:{x.reward.numerator}/{x.reward.denominator}")
        parts.append(f"o:{x.observation}")
    if h.pending_action is not None:
        parts.append(f"y:{h.pending_action}")
    return " ".join(parts)


def decode_history(text: str) -> History:
    tokens = text.split()
    h = EMPTY_HISTORY
    i = 0
    while i < len(tokens):
        tag, val = tokens[i].split(":", 1)
        if tag != "y":
            raise ValueError(f"expected action token, got {tokens[i]!r}")
        y = int(val)
        if i + 1 == len(tokens):
            return h.with_pending(y)
        if i + 3 > len(tokens):
            raise ValueError(f"truncated cycle {' '.join(tokens[i:])!r}")
        rtag, rval = tokens[i + 1].split(":", 1)
        otag, oval = tokens[i + 2].split(":", 1)
        if rtag != "r" or otag != "o":
            raise ValueError("malformed history encoding")
        num, den = rval.split("/")
        h = append_cycle(h, y, Percept(Fraction(int(num), int(den)), int(oval)))
        i += 3
    return h


# --- Horizon policies -------------------------------------------------------


@dataclass(frozen=True)
class FixedHorizon:
    """Plan to a fixed final cycle m (the lifetime case m_k = m)."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m >= 1 required")


@dataclass(frozen=True)
class MovingHorizon:
    """Plan the next h cycles: m_k = k + h - 1."""

    h: int

    def __post_init__(self):
        if self.h < 1:
            raise ValueError("h >= 1 required")


@dataclass(frozen=True)
class ProportionalHorizon:
    """Farsightedness proportional to age: m_k = k + ceil(beta*k) - 1."""

    beta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "beta", Fraction(self.beta))
        if self.beta <= 0:
            raise ValueError("beta > 0 required")


@dataclass(frozen=True)
class GeometricDiscount:
    """Exponential damping r_k * gamma^k, planned to a capped final cycle."""

    gamma: Fraction
    m_cap: int

    def __post_init__(self):
        object.__setattr__(self, "gamma", Fraction(self.gamma))
        if not (0 < self.gamma < 1):
            raise ValueError("0 < gamma < 1 required")
        if self.m_cap < 1:
            raise ValueError("m_cap >= 1 required")


HorizonPolicy = Union[FixedHorizon, MovingHorizon, ProportionalHorizon, GeometricDiscount]


def _ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def horizon_end(policy: HorizonPolicy, k: int, lifetime: int) -> int:
    """Last cycle m_k counted when planning at cycle k, clamped to the lifetime."""
    if not (1 <= k <= lifetime):
        raise ValueError(f"cycle index {k} outside [1, {lifetime}]")
    if isinstance(policy, FixedHorizon):
        m = policy.m
    elif isinstance(policy, MovingHorizon):
        m = k + policy.h - 1
    elif isinstance(policy, ProportionalHorizon):
        m = k + _ceil_frac(policy.beta * k) - 1
    elif isinstance(policy, GeometricDiscount):
        m = policy.m_cap
    else:
        raise TypeError(f"unknown horizon policy {policy!r}")
    return max(k, min(m, lifetime))


def discounted_reward(policy: Optional[HorizonPolicy], k: int, r: Fraction) -> Fraction:
    """Reward as it enters the value sum: gamma^k damping, identity otherwise.

    A ``None`` policy means no discounting: a ``Fraction`` reward is returned
    as it is (not copied), any other rational as ``Fraction(r)``.
    """
    if isinstance(policy, GeometricDiscount):
        return r * policy.gamma ** k
    return r if isinstance(r, Fraction) else Fraction(r)
