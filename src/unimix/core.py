"""Shared vocabulary: alphabets, percepts, histories, horizon policies, and
the one text format of configs and environment files.

Its value objects are immutable and all rewards are exact rationals, so
downstream expectimax values compare bit-exactly."""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

Action = int


class CapacityError(RuntimeError):
    """An exact enumeration was requested beyond the configured caps."""


class ValidationError(ValueError):
    """Carries every violation found in an input, not just the first."""

    def __init__(self, violations: List[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@contextmanager
def input_errors(label: str):
    """Turn an error from building something out of an input into one
    violation, prefixed with ``label``; a ``ValidationError`` passes as it is."""
    try:
        yield
    except ValidationError:
        raise
    except KeyError as e:
        raise ValidationError([f"{label}: missing key {e}"]) from None
    except (ValueError, ArithmeticError, OSError) as e:
        raise ValidationError([f"{label}: {e}"]) from None


# --- The text format of configs and environment files ----------------------


def read_text(
    text: str,
    fields: Optional[Dict[str, Callable[[str], Any]]] = None,
    row: Optional[Tuple[Callable[[str], Any], Callable[[str], Any]]] = None,
    optional: Iterable[str] = (),
    violations: Optional[List[str]] = None,
) -> Tuple[Dict[str, Any], Dict[Any, Any]]:
    """Read ``key=value`` header lines and ``<key> | <values>`` rows.

    ``#`` starts a comment anywhere on a line; blank lines are skipped.
    ``fields`` maps each header key to the function that converts its value
    (each key not in ``optional`` is required); without it any key is kept
    as text.  ``row`` converts a row's key and values; without it rows are
    not allowed.  Returns the header and the rows by converted key.  Every
    violation is collected with its line number and appended to
    ``violations``, or, when that is not given, raised in one ``ValidationError``.
    """
    found = [] if violations is None else violations
    header, rows, seen = {}, {}, set()
    for n, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        sep = "|" if "|" in line else "="
        k, _, v = (part.strip() for part in line.partition(sep))
        try:
            if sep not in line or (sep == "|" and row is None):
                either = "" if row is None else " or <key> | <values>"
                found.append(f"line {n}: expected key=value{either}, got {line!r}")
            elif sep == "|":
                key, value = row[0](k), row[1](v)
                if key in rows:
                    found.append(f"line {n}: duplicate row {k!r}")
                rows[key] = value
            elif k in seen or (fields is not None and k not in fields):
                found.append(f"line {n}: {'duplicate' if k in seen else 'unknown'} key {k!r}")
            else:
                seen.add(k)
                header[k] = v if fields is None else fields[k](v)
        except (ValueError, ArithmeticError) as e:
            found.append(f"line {n}: bad {'row' if sep == '|' else 'value of'} {k!r}: {e}")
    given = seen.union(optional)
    found += [f"missing required key {k!r}" for k in fields or () if k not in given]
    if found and violations is None:
        raise ValidationError(found)
    return header, rows


# Where Python sets no limit on the digits of an int as text (a limit of 0,
# or a Python without one), a rational still takes at most the default
# limit's characters: ``Fraction`` applies an exponent as a power of ten
# while it parses, which takes long for a large one.
UNLIMITED_RATIONAL_DIGITS = 4300


def rational_digits() -> int:
    """The most characters a rational read from text may take, its exponent
    counted as that many more: the most digits Python writes of an int as
    text (``sys.get_int_max_str_digits``), read at each call, or
    ``UNLIMITED_RATIONAL_DIGITS`` where it sets no limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return limit or UNLIMITED_RATIONAL_DIGITS


def rational(text: str) -> Fraction:
    """``Fraction(text)`` for a value read from an input.

    Refused with a ``ValueError`` before it is parsed when the text, with
    its exponent counted as that many more characters, is longer than
    ``rational_digits()``: neither its numerator nor its denominator could
    then be written back as text, and a large exponent takes long to apply.
    A zero denominator is refused with a ``ValueError`` that quotes the text.
    """
    cap = rational_digits()
    size = len(text)
    _, e, exponent = text.lower().partition("e")
    if e and size <= cap:
        try:
            size += abs(int(exponent))
        except ValueError:  # no exponent: Fraction says what is wrong
            pass
    if size > cap:
        raise ValueError(f"a rational of more than {cap} digits, its exponent counted")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def as_fraction(value) -> Fraction:
    """``value`` as a ``Fraction``: a ``Fraction`` as it is, anything else
    through ``Fraction(value)``, which runs its type checks even on one."""
    return value if value.__class__ is Fraction else Fraction(value)


def increasing(values: Tuple[Fraction, ...]) -> bool:
    """Whether the ``Fraction`` values strictly increase, compared on ints."""
    return all(
        a.numerator * b.denominator < b.numerator * a.denominator
        for a, b in zip(values, values[1:])
    )


def write_text(header: Iterable[Tuple[str, Any]], rows: Iterable[Tuple[str, str]] = ()) -> str:
    """The text ``read_text`` reads: ``key=value`` lines, then ``key | values`` rows."""
    lines = [f"{k}={v}" for k, v in header]
    lines += [f"{k} | {v}" for k, v in rows]
    return "\n".join(lines) + "\n"


set_field = object.__setattr__


class Value:
    """Base of the immutable value classes.

    A direct subclass names its fields in ``__slots__``; a slot whose name
    starts with ``_`` is a cache, not a field.  Equality (only between objects
    of exactly the same class), hash and repr read the fields in order, and
    assigning to any attribute raises ``AttributeError``, so ``__init__``
    sets each slot with ``set_field``.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))
        # An attrgetter is no descriptor, so ``self._get`` is the getter itself.
        cls._get = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._get(self) == self._get(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._get(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Percept(Value):
    """One environment reply: a bounded nonnegative reward plus an observation index."""

    __slots__ = ("reward", "observation", "_hash")

    def __init__(self, reward: Fraction, observation: int = 0):
        reward = as_fraction(reward)
        if reward.numerator < 0:
            raise ValueError(f"negative reward {reward}")
        if observation < 0:
            raise ValueError(f"negative observation {observation}")
        set_field(self, "reward", reward)
        set_field(self, "observation", observation)
        # Percepts key the planner's dicts; hashing a Fraction is costly.
        set_field(self, "_hash", hash((reward, observation)))

    def __hash__(self) -> int:
        return self._hash


def _percepts_of(reward: Fraction, num_observations: int) -> List[Percept]:
    """The percepts of one checked reward, one per observation, the reward
    hashed once for all of them: hash((r, o)) == hash((hash(r), o)), since
    a ``Fraction``'s hash is an int that hashes to itself."""
    h = hash(reward)
    row = []
    for o in range(num_observations):
        x = object.__new__(Percept)
        set_field(x, "reward", reward)
        set_field(x, "observation", o)
        set_field(x, "_hash", hash((h, o)))
        row.append(x)
    return row


# The most percepts an alphabet holds; it builds all of them when it is made.
PERCEPT_CAP = 2**16

# The most actions an alphabet holds: a planner tries every action at every
# node, and one of 2^24 actions took 53 s over a single cycle.
ACTION_CAP = 2**16


class Alphabet(Value):
    """Finite I/O spaces: actions, observations, and the allowed reward levels.

    A percept is flattened to a single symbol ``r_idx * num_observations + o``
    for the bytecode machine; ``rewards`` lists the admissible reward levels in
    increasing order, with ``rewards[-1]`` acting as r_max.
    """

    __slots__ = (
        "num_actions", "num_observations", "rewards", "_percept_table", "_reward_index",
        "_reward_scale",
    )

    def __init__(
        self,
        num_actions: int = 2,
        num_observations: int = 1,
        rewards: tuple = (Fraction(0), Fraction(1)),
    ):
        small = [
            f"{name} {n} is below 1"
            for name, n in (("actions", num_actions), ("observations", num_observations))
            if n < 1
        ]
        if small:
            raise ValidationError(small)
        if num_actions > ACTION_CAP:
            raise CapacityError(f"more than {ACTION_CAP} actions in an alphabet")
        rewards = tuple(map(as_fraction, rewards))
        if len(rewards) * num_observations > PERCEPT_CAP:
            raise CapacityError(f"more than {PERCEPT_CAP} percepts in an alphabet")
        if any(r.numerator < 0 for r in rewards):
            raise ValueError("rewards must be nonnegative")
        if not increasing(rewards):
            raise ValueError("rewards must be strictly increasing")
        set_field(self, "num_actions", num_actions)
        set_field(self, "num_observations", num_observations)
        set_field(self, "rewards", rewards)
        # Not fields, so eq and hash never see them.
        table = tuple(x for r in rewards for x in _percepts_of(r, num_observations))
        set_field(self, "_percept_table", table)
        set_field(self, "_reward_index", {r: i for i, r in enumerate(rewards)})
        set_field(self, "_reward_scale", math.lcm(*(r.denominator for r in rewards)))

    @property
    def r_max(self) -> Fraction:
        return self.rewards[-1]

    @property
    def reward_scale(self) -> int:
        """The lcm of the rewards' denominators: each reward times it is an int."""
        return self._reward_scale

    def scaled_reward(self, x: Percept) -> int:
        """x's reward times ``reward_scale``; ``ValueError`` for a reward
        whose denominator does not divide it."""
        r = x.reward
        n, rest = divmod(self._reward_scale, r.denominator)
        if rest:
            raise ValueError(f"reward {r} is not in the alphabet")
        return r.numerator * n

    @property
    def num_percepts(self) -> int:
        return len(self.rewards) * self.num_observations

    def percepts(self) -> tuple:
        """All percepts in symbol order (reward-major)."""
        return self._percept_table

    def actions(self) -> range:
        return range(self.num_actions)

    def symbol_of(self, x: Percept) -> int:
        return self.reward_index(x) * self.num_observations + x.observation

    def percept_of(self, symbol: int) -> Percept:
        """The percept with this symbol; out-of-range symbols wrap around."""
        table = self._percept_table
        return table[symbol % len(table)]

    def reward_index(self, x: Percept) -> int:
        return self._rank(x.reward)

    def percept(self, reward, observation: int = 0) -> Percept:
        """The alphabet's own percept object for this reward and observation,
        so that a rule can answer with it instead of building an equal one."""
        if not 0 <= observation < self.num_observations:
            raise ValueError(f"observation {observation} outside [0, {self.num_observations})")
        return self._percept_table[self._rank(reward) * self.num_observations + observation]

    def _rank(self, reward) -> int:
        i = self._reward_index.get(reward)
        if i is None:
            raise ValueError(f"reward {reward} is not in the alphabet")
        return i


class History(Value):
    """The completed cycles y1 x1 ... y(k-1) x(k-1), as (action, percept)
    pairs.  The pending action y_k of a context is not part of it: a
    conditional takes it beside h, and ``encode_history`` writes it after h."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: tuple = ()):
        set_field(self, "cycles", cycles)

    def __len__(self) -> int:
        return len(self.cycles)

    def actions(self) -> tuple:
        return tuple(y for y, _ in self.cycles)

    def percepts(self) -> tuple:
        return tuple(x for _, x in self.cycles)

    def rewards(self) -> tuple:
        return tuple(x.reward for _, x in self.cycles)


EMPTY_HISTORY = History()


def append_cycle(h: History, y: Action, x: Percept) -> History:
    """h followed by the completed cycle (y, x)."""
    return History(h.cycles + ((y, x),))


def contexts(
    alphabet: Alphabet,
    depth: int,
    follow: Optional[Callable[[History, Action], Iterable[Percept]]] = None,
    h: History = EMPTY_HISTORY,
) -> Iterator[Tuple[History, Action]]:
    """Every (history, action) context of fewer than ``depth`` completed
    cycles that extends h, depth first: (h, y), then the contexts under each
    h·y·x, and only then (h, y + 1).  ``follow(h, y)`` lists the percepts to
    descend into, in the alphabet's order; by default all of them."""
    if len(h) >= depth:
        return
    for y in alphabet.actions():
        yield h, y
        if len(h) + 1 < depth:
            for x in alphabet.percepts() if follow is None else follow(h, y):
                yield from contexts(alphabet, depth, follow, append_cycle(h, y, x))


def encode_history(h: History, pending: Optional[Action] = None) -> str:
    """Canonical textual encoding: ``y:<int> r:<p>/<q> o:<int>`` per cycle,
    then ``y:<pending>`` when a pending action is given (a context's text)."""
    parts = [
        f"y:{y} r:{x.reward.numerator}/{x.reward.denominator} o:{x.observation}"
        for y, x in h.cycles
    ]
    if pending is not None:
        parts.append(f"y:{pending}")
    return " ".join(parts)


def decode_history(text: str) -> Tuple[History, Optional[Action]]:
    """Inverse of ``encode_history``: the history and its pending action,
    None when the text ends with a whole cycle; raises ``ValueError`` on
    other text."""
    tokens = text.split()
    h = EMPTY_HISTORY
    for i in range(0, len(tokens), 3):
        cycle = tokens[i : i + 3]
        if len(cycle) == 2:
            raise ValueError(f"truncated cycle {' '.join(cycle)!r}")
        if tuple(t.partition(":")[0] for t in cycle) != ("y", "r", "o")[: len(cycle)]:
            raise ValueError(f"malformed cycle {' '.join(cycle)!r}")
        y = int(cycle[0][2:])
        if len(cycle) == 1:
            return h, y
        num, den = cycle[1][2:].split("/")
        num, den = int(num), int(den)
        if not den:
            raise ValueError(f"zero denominator in {cycle[1][2:]!r}")
        h = append_cycle(h, y, Percept(Fraction(num, den), int(cycle[2][2:])))
    return h, None


# --- Horizon policies -------------------------------------------------------


class FixedHorizon(Value):
    """Plan to a fixed final cycle m (the lifetime case m_k = m)."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        if m < 1:
            raise ValueError("m >= 1 required")
        set_field(self, "m", m)


class MovingHorizon(Value):
    """Plan the next h cycles: m_k = k + h - 1."""

    __slots__ = ("h",)

    def __init__(self, h: int):
        if h < 1:
            raise ValueError("h >= 1 required")
        set_field(self, "h", h)


class ProportionalHorizon(Value):
    """Farsightedness proportional to age: m_k = k + ceil(beta*k) - 1."""

    __slots__ = ("beta",)

    def __init__(self, beta: Fraction):
        beta = Fraction(beta)
        if beta <= 0:
            raise ValueError("beta > 0 required")
        set_field(self, "beta", beta)


class GeometricDiscount(Value):
    """Exponential damping r_k * gamma^k, planned to a capped final cycle."""

    __slots__ = ("gamma", "m_cap")

    def __init__(self, gamma: Fraction, m_cap: int):
        gamma = Fraction(gamma)
        if not (0 < gamma < 1):
            raise ValueError("0 < gamma < 1 required")
        if m_cap < 1:
            raise ValueError("m_cap >= 1 required")
        set_field(self, "gamma", gamma)
        set_field(self, "m_cap", m_cap)


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


def discounted_reward(
    policy: Optional[HorizonPolicy], k: int, r: Union[int, Fraction]
) -> Union[int, Fraction]:
    """Reward as it enters the value sum: gamma^k damping, identity otherwise.

    Without a geometric discount (a ``None`` policy included) the reward is
    returned as it is, not copied: an int reward (a reward times the
    alphabet's ``reward_scale``) stays an int.
    """
    if isinstance(policy, GeometricDiscount):
        return r * policy.gamma ** k
    return r
