"""Chronological (semi)measures over percept sequences given actions.

A model maps a history plus a pending action to a (possibly sub-normalized)
distribution over the next percept.  Provided kinds: explicit tabular
environments, deterministic and stochastic rule-based environments, bytecode
programs replayed as deterministic measures, and weighted mixtures of any of
these.  All probability mass is exact rational.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import (
    Any, Callable, Dict, Hashable, List, Optional, Sequence, Tuple, Union,
)

from .core import (
    Action,
    Alphabet,
    EMPTY_HISTORY,
    History,
    Percept,
    ValidationError,
    append_cycle,
    contexts,
    decode_history,
    encode_history,
    input_errors,
    rational,
    read_text,
    write_text,
)
from . import vm
from .vm import FRESH, FrozenState, Program, RunBudget, env_step, replay_env

# The certain probability of a deterministic environment's percept, shared.
_ONE = Fraction(1)


class UndefinedConditionalError(ValueError):
    """Conditioning on a history the model assigns zero (or no) mass to."""


class ChronologicalModel:
    """Base class: subclasses supply ``alphabet`` and ``cond_map``, or
    ``state`` and ``weights``, plus ``mass`` when their weights are not
    probabilities.  A model whose future depends on less than the whole
    history overrides ``key``.
    """

    alphabet: Alphabet

    def cond_map(self, h: History, y: Action) -> Dict[Percept, Fraction]:
        """Distribution over the next percept given h and pending action y.

        May be sub-normalized (semimeasure); missing percepts carry mass 0.
        """
        raise NotImplementedError

    def state(self, h: History) -> Any:
        """What ``weights`` needs besides h to extend the complete history h."""
        return None

    def mass(self, state: Any) -> Union[int, Fraction]:
        """T, the mass of the history whose state this is; 1 for a model
        whose ``weights`` are probabilities."""
        return 1

    def weights(self, state: Any, h: History, y: Action) -> Dict[Percept, Tuple[Any, Any]]:
        """Each percept's weight w = T * p, p its probability given h and y
        and T = ``mass(state)``, paired with the state of the extended
        history; ``state`` is ``self.state(h)``.  A model that overrides
        ``mass`` gives each extended history the mass w; by default every
        mass is 1 and the row is ``cond_map(h, y)``'s."""
        return {x: (p, None) for x, p in self.cond_map(h, y).items()}

    def key(self, state: Any, h: History) -> Hashable:
        """What fixes every future conditional after h: two histories of the
        same length whose keys are equal get equal ``weights`` rows for every
        continuation, so a planner may solve them once.  ``state`` is
        ``self.state(h)``.  The default, h itself, merges nothing."""
        return h

    def base_mass(self) -> Fraction:
        """Mass of the empty history (1 for proper measures)."""
        return _ONE

    def joint(self, h: History) -> Fraction:
        """Chain-rule joint of a complete history."""
        total = self.base_mass()
        ctx = EMPTY_HISTORY
        for y, x in h.cycles:
            if total == 0:
                return Fraction(0)
            total *= self.cond_map(ctx, y).get(x, Fraction(0))
            ctx = append_cycle(ctx, y, x)
        return total


def joint_prob(rho: ChronologicalModel, h: History) -> Fraction:
    return rho.joint(h)


def cond_prob(rho: ChronologicalModel, h: History, y: Action, x: Percept) -> Fraction:
    if rho.joint(h) == 0:
        raise UndefinedConditionalError(
            f"conditioning on zero-probability history {encode_history(h)!r}"
        )
    return rho.cond_map(h, y).get(x, Fraction(0))


def evidence_gap(rho: ChronologicalModel, h: History, y: Action) -> Fraction:
    """Per-context mass deficit 1 - sum_x rho(x | h, y).  Diagnostic only."""
    if rho.joint(h) == 0:
        raise UndefinedConditionalError("evidence gap of a zero-probability context")
    return Fraction(1) - sum(rho.cond_map(h, y).values(), Fraction(0))


def check_chronological(rho: ChronologicalModel, depth: int) -> bool:
    """True iff the next-percept marginal never depends on the pending action.

    Exhaustive over every context of fewer than ``depth`` >= 1 completed
    cycles that the model can reach.
    """
    if depth < 1:
        raise ValueError("depth >= 1 required")
    a = rho.alphabet

    def marginal(h: History, y: Action) -> Fraction:
        return sum(rho.cond_map(h, y).values(), Fraction(0))

    def possible(h: History, y: Action) -> List[Percept]:
        row = rho.cond_map(h, y)
        return [x for x in a.percepts() if row.get(x, 0) > 0]

    return all(marginal(h, y) == marginal(h, 0) for h, y in contexts(a, depth, possible))


# --- Concrete environment kinds --------------------------------------------


class TabularModel(ChronologicalModel):
    """Explicit conditional tables per context up to a depth; uniform beyond.

    ``rows`` maps a context key — the textual encoding of the history with its
    pending action — to a per-percept probability row in symbol order.  Every
    row must sum to 1 exactly and be one ``cond_map`` looks up: a context of
    fewer than ``depth`` cycles in the alphabet, encoded canonically.
    """

    def __init__(self, alphabet: Alphabet, depth: int, rows: Dict[str, Sequence[Fraction]]):
        if depth < 0:
            raise ValueError("depth >= 0 required")
        self.alphabet = alphabet
        self.depth = depth
        self.rows: Dict[str, Tuple[Fraction, ...]] = {}
        n = alphabet.num_percepts
        violations = []
        for key, row in rows.items():
            row = self.rows[key] = tuple(Fraction(p) for p in row)
            if len(row) != n:
                violations.append(f"row for {key!r} has {len(row)} entries, need {n}")
            elif any(p < 0 for p in row) or sum(row) != 1:
                violations.append(f"row for {key!r} must be a probability vector")
            why = _unreachable(alphabet, depth, key)
            if why:
                violations.append(f"row for {key!r} is never looked up: {why}")
        if violations:
            raise ValidationError(violations)

    def cond_map(self, h: History, y: Action) -> Dict[Percept, Fraction]:
        a = self.alphabet
        if len(h) < self.depth:
            key = encode_history(h, y)
            row = self.rows.get(key)
            if row is not None:
                return {x: p for x, p in zip(a.percepts(), row) if p > 0}
        u = Fraction(1, a.num_percepts)
        return {x: u for x in a.percepts()}

    # -- the text format of ``core.read_text``: an alphabet and depth header,
    #    then one row per context: `<history encoding with pending action> | p1 p2 ...`

    def dumps(self) -> str:
        a = self.alphabet
        header = (
            ("actions", a.num_actions),
            ("observations", a.num_observations),
            ("rewards", ",".join(map(str, a.rewards))),
            ("depth", self.depth),
        )
        rows = ((k, " ".join(map(str, self.rows[k]))) for k in sorted(self.rows))
        return write_text(header, rows)

    @classmethod
    def loads(cls, text: str) -> "TabularModel":
        fields = {"actions": int, "observations": int, "depth": int}
        fields["rewards"] = lambda v: tuple(map(rational, v.split(",")))
        row = (
            lambda k: encode_history(*decode_history(k)),  # each context in one spelling
            lambda v: tuple(map(rational, v.split())),
        )
        found: List[str] = []
        header, rows = read_text(text, fields, row, violations=found)
        model = None
        if len(header) == len(fields):  # a whole header: the rows are checked too
            try:
                with input_errors("tabular model"):
                    a = Alphabet(header["actions"], header["observations"], header["rewards"])
                    model = cls(a, header["depth"], rows)
            except ValidationError as e:
                found += e.violations
        if found:
            raise ValidationError(found)
        return model


def _unreachable(a: Alphabet, depth: int, key: str) -> Optional[str]:
    """Why ``TabularModel.cond_map`` never looks up a row keyed ``key``, or None."""
    try:
        h, y = decode_history(key)
        for x in h.percepts():
            a.percept(x.reward, x.observation)  # raises outside the alphabet
    except (ValueError, ArithmeticError) as e:
        return str(e)
    if y is None:
        return "no pending action"
    if not all(0 <= z < a.num_actions for z in h.actions() + (y,)):
        return f"an action outside range({a.num_actions})"
    if len(h) >= depth:
        return f"{len(h)} completed cycles, not fewer than depth {depth}"
    if encode_history(h, y) != key:
        return f"the context is written {encode_history(h, y)!r}"


def random_tabular(alphabet: Alphabet, depth: int, rng: random.Random) -> TabularModel:
    """A full random tabular environment: every context up to depth gets a row."""

    def row() -> List[Fraction]:
        weights = [rng.randint(0, 8) for _ in range(alphabet.num_percepts)]
        if sum(weights) == 0:
            weights[rng.randrange(alphabet.num_percepts)] = 1
        total = sum(weights)
        return [Fraction(w, total) for w in weights]

    rows = {encode_history(h, y): row() for h, y in contexts(alphabet, depth)}
    return TabularModel(alphabet, depth, rows)


class FunctionalEnv(ChronologicalModel):
    """Deterministic environment defined by a rule (history, action) -> percept.

    The rules of ``unimix.domains`` answer with their alphabet's own percept
    objects (``Alphabet.percept``), picked when the world is made.

    ``memory(h)``, when given, is the part of h the rule reads besides
    len(h): the rule must give equal percepts on histories of one length with
    equal memories, extended alike.  It is the model's key.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        rule: Callable[[History, Action], Percept],
        memory: Optional[Callable[[History], Hashable]] = None,
    ):
        self.alphabet = alphabet
        self.rule = rule
        self.memory = memory

    def cond_map(self, h: History, y: Action) -> Dict[Percept, Fraction]:
        return {self.rule(h, y): _ONE}

    def weights(self, state: Any, h: History, y: Action) -> Dict[Percept, Tuple[Any, Any]]:
        return {self.rule(h, y): (_ONE, None)}

    def key(self, state: Any, h: History) -> Hashable:
        return h if self.memory is None else self.memory(h)


class KernelEnv(ChronologicalModel):
    """Stochastic environment from a rule (history, action) -> percept distribution."""

    def __init__(
        self,
        alphabet: Alphabet,
        kernel: Callable[[History, Action], Dict[Percept, Fraction]],
    ):
        self.alphabet = alphabet
        self.kernel = kernel

    def cond_map(self, h: History, y: Action) -> Dict[Percept, Fraction]:
        return {x: Fraction(p) for x, p in self.kernel(h, y).items() if p != 0}


class ProgramEnv(ChronologicalModel):
    """A bytecode program replayed as a deterministic measure.

    A cycle that exhausts the step budget gets an all-zero conditional (the
    program drops out of every mixture it sits in from that point on).  Its
    state is the machine's ``vm.FrozenState`` after the history's actions, or
    None once a cycle has timed out; the state is also its key.

    ``weights`` runs each (state, action) pair on the machine once per model:
    it keeps every row it computes in a transition table and answers a
    repeat from there, so the planner's solves and belief steps, and best
    vote, which share their mixture's components for a run, share its
    cycles too.  A program with no ``IN`` instruction never reads the
    action (its other input, the reward channel, is always 0 for an
    environment), so it keys its rows by (state, None): one cycle answers
    every action.  The table holds at most one row per machine cycle run,
    never more than the cycles a ``weights`` without it would run, and it lives
    as long as the model.  ``build_class_mixture`` hands each env it makes
    the rows its build ran for the program.  Rows are shared: callers must
    not mutate them.
    """

    def __init__(self, program: Program, budget: RunBudget, alphabet: Alphabet):
        self.program = program
        self.budget = budget
        self.alphabet = alphabet
        self._reads_action = program._reads_input
        # (state, action, or None for a program that never reads it) -> its row
        self._table: Dict[Tuple[FrozenState, Optional[Action]], Dict[Percept, tuple]] = {}

    def state(self, h: History) -> Optional[FrozenState]:
        """Walks h's actions through the transition table from the fresh
        machine; h's percepts are not checked."""
        s = FRESH
        for y, _ in h.cycles:
            row = self.weights(s, h, y)
            if not row:
                return None
            ((_, s),) = row.values()
        return s

    def weights(
        self, state: Optional[FrozenState], h: History, y: Action
    ) -> Dict[Percept, Tuple[Fraction, FrozenState]]:
        k = (state, y if self._reads_action else None)
        row = self._table.get(k)
        if row is None:
            if state is None:
                return {}
            out = env_step(self.program, state, y, self.budget)
            row = self._table[k] = (
                {} if out is None else {self.alphabet.percept_of(out[0]): (_ONE, out[1])}
            )
        return row

    def key(self, state: Optional[FrozenState], h: History) -> Hashable:
        return state

    def cond_map(self, h: History, y: Action) -> Dict[Percept, Fraction]:
        return {x: p for x, (p, _) in self.weights(self.state(h), h, y).items()}

    def joint(self, h: History) -> Fraction:
        percepts, ok, _ = replay_env(self.program, h.actions(), self.budget, self.alphabet)
        return Fraction(1) if ok and percepts == h.percepts() else Fraction(0)


# --- Mixtures ---------------------------------------------------------------


class PosteriorState:
    """Unnormalized per-component posterior mass after a history."""

    __slots__ = ("labels", "weights", "masses")

    def __init__(self, labels: tuple, weights: tuple, masses: tuple):
        self.labels = labels
        self.weights = weights
        self.masses = masses

    @property
    def total(self) -> Fraction:
        return sum(self.masses, Fraction(0))

    def top(self) -> str:
        """Label of the heaviest component (first on ties)."""
        best = max(range(len(self.masses)), key=lambda i: (self.masses[i], -i))
        return self.labels[best]


class MixtureNode:
    """A node of a mixture's consistent-environment tree.

    It holds the components that give the history leading to it positive
    mass, as ``survivors``: ``(index, mass, component state)`` with the mass
    scaled as in ``MixtureModel``, and their total ``mass``.  ``step(h, y)``,
    h the node's history, steps every survivor once on action y, once per
    action: the survivors split into children by the percept they emit, and
    a component that gives the percept no mass drops out.  Any number of
    walks can share the tree.
    """

    __slots__ = ("mixture", "survivors", "mass", "_children")

    def __init__(self, mixture: "MixtureModel", survivors: tuple):
        self.mixture = mixture
        self.survivors = survivors
        self.mass = sum(mass for _, mass, _ in survivors)
        self._children: Dict[Action, Dict[Percept, "MixtureNode"]] = {}

    def __eq__(self, other):
        # By value, as the tuple states before it were: a nested mixture's
        # survivors hold its component's nodes.
        if other.__class__ is self.__class__:
            return self.survivors == other.survivors
        return NotImplemented

    def step(self, h: History, y: Action) -> Dict[Percept, "MixtureNode"]:
        children = self._children.get(y)
        if children is None:
            children = self._children[y] = self.split(h, y)
        return children

    def split(self, h: History, y: Action) -> Dict[Percept, "MixtureNode"]:
        """``step(h, y)`` without keeping the children: for a walk that asks
        each node once per action, such as the expectimax, whose memo
        already solves each belief state once.  The node then holds no
        subtree, so the walk frees each child once it is solved."""
        comps = self.mixture.components
        split: Dict[Percept, list] = {}
        for i, mass, s in self.survivors:
            model = comps[i][2]
            for x, (w, child) in model.weights(s, h, y).items():
                # A program's row carries the shared _ONE: no Fraction compare.
                if w is _ONE:
                    split.setdefault(x, []).append((i, mass, child))
                elif w:
                    t = model.mass(s)  # not 1 only for a nested mixture
                    m = mass if w == t else mass * w if t == 1 else Fraction(mass * w, t)
                    split.setdefault(x, []).append((i, m, child))
        return {x: MixtureNode(self.mixture, tuple(v)) for x, v in split.items()}

    def child(self, h: History, y: Action, x: Percept) -> "MixtureNode":
        """The node one cycle (y, x) on; empty if no survivor emits x."""
        return self.step(h, y).get(x) or MixtureNode(self.mixture, ())

    def top(self) -> Optional[str]:
        """Label of the survivor whose leader is heaviest, the lowest index
        on ties (the ``posterior(mixture, h).top()`` of the node's history h
        when each component is its own leader); None if there is no
        survivor."""
        if not self.survivors:
            return None
        share = self.mixture._lead_share
        best = max(self.survivors, key=lambda s: (s[1] * share[s[0]], -s[0]))
        return self.mixture.components[best[0]][0]


class MixtureModel(ChronologicalModel):
    """Weighted mixture of component models; the computable stand-in for xi.

    The weights are positive and sum to <= 1: 2^-length over an enumerated
    program pool (``build_mixture``), or any such semimeasure-class weights.

    The state after a history h is the consistent-environment tree's node
    after h (``MixtureNode``), a fresh tree per ``state`` call; ``weights``
    splits it without keeping the children.  A survivor's mass is weight *
    component joint of h times ``_scale``, the lcm of the root masses'
    denominators (2^l_max for a program class).  So the masses of
    deterministic components stay integers, and they sum to the mixture
    joint of h times ``_scale``: the node's ``mass``.  ``weights`` steps each
    survivor one cycle and gives each percept its child's mass, so a caller
    that carries the node from cycle to cycle (``MixtureNode.child``, as best
    vote does, or the ``weights`` row, as ``planning_policy`` does) never
    replays a history; ``state`` replays it on a fresh tree.  ``cond_map``
    divides those masses by the node's.

    ``leads``, when given, is the weight of each component's leader, the
    heaviest of the programs it stands for (``build_class_mixture``):
    ``MixtureNode.top`` ranks survivors by their leaders' masses.  By
    default each component is its own leader.
    """

    def __init__(
        self,
        components: Sequence[Tuple[str, Fraction, ChronologicalModel]],
        alphabet: Alphabet,
        leads: Optional[Sequence[Fraction]] = None,
    ):
        if not components:
            raise ValueError("mixture needs at least one component")
        self.components = tuple(components)
        weights = [w for _, w, _ in self.components]
        # Checked on integers: a Fraction sum over a large pool costs more.
        if any(w.numerator <= 0 for w in weights):
            raise ValueError("component weights must be positive")
        d = math.lcm(*(w.denominator for w in weights))
        if sum(w.numerator * (d // w.denominator) for w in weights) > d:
            raise ValueError("component weights must sum to <= 1")
        # The rows are ordered by the alphabet's percepts, so every component
        # must answer in that alphabet; most share the mixture's own object,
        # and the identity check spares them a field-by-field compare.
        if any(
            m.alphabet is not alphabet and m.alphabet != alphabet
            for _, _, m in self.components
        ):
            raise ValueError("every component must have the mixture's alphabet")
        self.alphabet = alphabet
        self._rank = {x: i for i, x in enumerate(alphabet.percepts())}
        # A survivor's mass times its share is its leader's mass.
        if leads is None:
            self._lead_share = (1,) * len(weights)
        elif len(leads) != len(weights) or not all(
            0 < lead <= w for lead, w in zip(leads, weights)
        ):
            raise ValueError("each component needs one lead in (0, its weight]")
        else:
            self._lead_share = tuple(lead / w for lead, w in zip(leads, weights))
        # A component's mass starts at its weight times its own base mass,
        # which is not 1 when the component is itself a mixture.
        masses = []
        for _, w, m in self.components:
            b = m.base_mass()
            masses.append(w if b is _ONE or b == 1 else w * b)
        self._scale = math.lcm(*(r.denominator for r in masses))
        self._root = tuple(
            (i, r.numerator * (self._scale // r.denominator), m.state(EMPTY_HISTORY))
            for i, (r, (_, _, m)) in enumerate(zip(masses, self.components))
        )

    def base_mass(self) -> Fraction:
        return sum((w for _, w, _ in self.components), Fraction(0))

    def state(self, h: History) -> MixtureNode:
        """The node after h: one survivor step per cycle, on a fresh tree."""
        node = MixtureNode(self, self._root)
        ctx = EMPTY_HISTORY
        for y, x in h.cycles:
            node = node.child(ctx, y, x)
            ctx = append_cycle(ctx, y, x)
        return node

    def mass(self, state: MixtureNode) -> Union[int, Fraction]:
        return state.mass

    def weights(
        self, state: MixtureNode, h: History, y: Action
    ) -> Dict[Percept, Tuple[Union[int, Fraction], MixtureNode]]:
        """Each child's mass and node: the weight of a percept is the mass
        of the history it extends h to."""
        if state.mass == 0:
            raise UndefinedConditionalError(
                "mixture conditional on a zero-mass history"
            )
        children = state.split(h, y).items()
        if len(children) > 1:  # the row lists its percepts in alphabet order
            rank = self._rank
            children = sorted(children, key=lambda xc: rank[xc[0]])
        return {x: (c.mass, c) for x, c in children}

    def key(self, state: MixtureNode, h: History) -> Hashable:
        """The survivors' indices, masses and component keys."""
        comps = self.components
        return tuple((i, mass, comps[i][2].key(s, h)) for i, mass, s in state.survivors)

    def joint(self, h: History) -> Fraction:
        return Fraction(self.state(h).mass, self._scale)

    def cond_map(self, h: History, y: Action) -> Dict[Percept, Fraction]:
        node = self.state(h)
        return {x: Fraction(w, node.mass) for x, (w, _) in self.weights(node, h, y).items()}


def build_mixture(
    pool: Sequence[Program], budget: RunBudget, alphabet: Alphabet
) -> MixtureModel:
    """Program-class mixture with weights 2^-length over an enumerated pool."""
    if not pool:
        raise ValueError("empty program pool")
    components = [
        (q.to_hex(), q.weight, ProgramEnv(q, budget, alphabet)) for q in pool
    ]
    return MixtureModel(components, alphabet)


# The most signature entries one ``build_class_mixture`` computes before it
# gives up on classes: a signature has one entry per action where the build
# signs the programs that read the action, else one, so the cap bounds the
# table rows read whatever the number of actions.
CLASS_CAP = 2**20

# A build row, and a signature's entry, for a cycle that runs out of steps.
_TIMEOUT = -1

# The instructions that can emit (OUT) or run again in the same cycle (a JZ
# back to itself or before it).
_LOUD_OR_LOOPING = frozenset({(vm.OP_OUT, 0), (vm.OP_JZ, 0), (vm.OP_JZ, 1)})


def _silent(ops: tuple, limit: int) -> bool:
    """Whether code ``ops`` emits symbol 0 and never times out on every
    cycle from every state: without ``_LOUD_OR_LOOPING`` instructions each
    instruction runs at most once a cycle, so ``len(ops)`` steps end it."""
    return len(ops) <= limit and _LOUD_OR_LOOPING.isdisjoint(ops)


class _PastClassCap(Exception):
    """The class build needs more than ``CLASS_CAP`` signature entries."""


def _tabled_env(
    q: Program, budget: RunBudget, alphabet: Alphabet, rows: dict
) -> ProgramEnv:
    """q's ``ProgramEnv`` with the rows a class build ran for it in its table."""
    env = ProgramEnv(q, budget, alphabet)
    percepts = alphabet.percepts()
    env._table = {
        k: {} if row is _TIMEOUT else {percepts[row[0]]: (_ONE, row[1])}
        for k, row in rows.items()
    }
    return env


def build_class_mixture(
    pool: Sequence[Program],
    budget: RunBudget,
    alphabet: Alphabet,
    depth: int,
    every_action: bool,
) -> MixtureModel:
    """``build_mixture`` with one component per behaviour class: the
    programs that, on every action sequence of at most ``depth`` actions,
    emit the same percepts and time out on the same cycle.

    A program's class is its signature from the fresh machine: for each
    action, the percept's symbol and the signature of the next machine
    state one cycle shallower, or a timeout mark; it is interned to a small
    int.  The build steps ``vm.run_machine`` itself, on plain values: each
    program keeps a table of the rows it ran, (state, action, or None for a
    program with no ``IN`` instruction) -> (symbol modulo the alphabet's
    percepts, next state), or the timeout mark, so a state signed at
    several depths runs each cycle once.  The symbol stands for the percept
    ``Alphabet.percept_of`` gives it, so the partition is the one percepts
    would give.  A state that steps to itself on each input it is stepped
    on emits one symbol on every cycle left, so its signature is that
    symbol's chain, interned once a build for every depth: the state is
    signed once, not once per remaining depth.  A program whose code is
    silent (``_silent``: no ``OUT``, no ``JZ`` back or in place, and no
    more instructions than the step limit) emits symbol 0 and finishes
    every cycle, so it gets symbol 0's chain from its code alone: the build
    runs no cycle for it, charges it no entries and leaves its table empty.

    ``every_action`` is whether the caller's first walk visits every action
    sequence to ``depth``.  Only then does the build sign a program that
    reads the action (``Program._reads_input``) on every action, which runs
    no machine cycle that walk would not.  Without it, such a program whose
    code is not silent is its own class, unsigned, and its env runs its
    rows on demand, as the walks reach them.  Every program the build then
    runs ignores the action, so a signature holds one entry, not one per
    action: the build's machine cycles and entries do not depend on the
    number of actions.

    A class's component is its leader's ``ProgramEnv`` (the heaviest
    member, the lowest pool index on ties, which gives its label), handed
    the rows the build ran for it, with the summed weight of its members;
    no other program gets a ``ProgramEnv``.  A silent leader's env runs its
    rows on demand.  So the mixture equals ``build_mixture`` on every
    history of at most ``depth`` cycles: equal joints and equal
    conditionals.  ``MixtureNode.top`` still names the heaviest surviving
    program, since it ranks classes by their leaders' masses.

    A build that would compute more than ``CLASS_CAP`` signature entries
    returns ``build_mixture``'s per-program mixture instead, each
    ``ProgramEnv`` handed the rows the build ran for its program.
    """
    if not pool:
        raise ValueError("empty program pool")
    if depth < 1:
        raise ValueError("depth >= 1 required")
    actions = alphabet.actions()
    width = len(actions) if every_action else 1  # a signature's entries
    n_percepts = alphabet.num_percepts
    limit = budget.steps_per_cycle
    ids: Dict[tuple, int] = {}  # signature -> its interned int
    entries = 0
    # The program being signed: its ops, the inputs it is stepped on, its
    # rows and its (state, depth) -> signature memo.
    ops: tuple = ()
    inputs: Sequence[Optional[Action]] = ()
    rows: dict = {}
    memo: dict = {}

    def signature(s: FrozenState, d: int) -> int:
        nonlocal entries
        got = memo.get((s, d))
        if got is None:
            entries += width
            if entries > CLASS_CAP:
                raise _PastClassCap
            sig = []
            for y in inputs:
                row = rows.get((s, y))
                if row is None:
                    # Through the module, so that a count of its calls sees these.
                    outputs, _, timed_out, child = vm.run_machine(
                        ops, s, y or 0, 0, limit, 1
                    )
                    row = rows[s, y] = (
                        _TIMEOUT if timed_out
                        else ((outputs[0] if outputs else 0) % n_percepts, child)
                    )
                if row is _TIMEOUT:
                    sig.append(_TIMEOUT)
                    continue
                x, child = row
                if child == s and len(inputs) == 1:
                    # The state steps to itself on every action: it emits x
                    # on every cycle left, which is x's chain.
                    got = memo[s, d] = chain(x, d)
                    return got
                # Signatures are compared at equal depths only, so the
                # depth-0 signature may share its int with any other.
                sig.append((x, signature(child, d - 1) if d > 1 else 0))
            if len(inputs) < width:  # one row for every action
                sig *= width
            got = memo[s, d] = ids.setdefault(tuple(sig), len(ids))
        return got

    # symbol x -> the signatures, d cycles deep at index d - 1, of a state
    # that emits x on every cycle, interned as ``signature`` would intern them.
    chains: Dict[int, List[int]] = {}

    def chain(x: int, d: int) -> int:
        ints = chains.setdefault(x, [])
        while len(ints) < d:
            ints.append(ids.setdefault(((x, ints[-1] if ints else 0),) * width, len(ids)))
        return ints[d - 1]

    silent = chain(0, depth)
    # Each program's rows: (state, action or None) -> (symbol, next state) or _TIMEOUT.
    tables: List[dict] = [{} for _ in pool]
    # The weights are summed as integers over 2^l_max.
    bits = [len(q.code) for q in pool]
    l_max = max(bits)
    classes: Dict[Hashable, list] = {}  # class -> [leader's pool index, mass]
    try:
        for i, (q, rows) in enumerate(zip(pool, tables)):
            if _silent(q._ops, limit):
                c = classes.setdefault(silent, [i, 0])
            elif q._reads_input and not every_action:
                # Unsigned, alone: a key that no interned int equals.
                c = classes[(i,)] = [i, 0]
            else:
                ops, memo = q._ops, {}
                # A program that never reads the action is stepped once per
                # state, on None (input 0), for every action.
                inputs = actions if q._reads_input else (None,)
                c = classes.setdefault(signature(FRESH, depth), [i, 0])
            if bits[i] < bits[c[0]]:
                c[0] = i
            c[1] += 1 << (l_max - bits[i])
    except _PastClassCap:
        return MixtureModel(
            [
                (q.to_hex(), q.weight, _tabled_env(q, budget, alphabet, rows))
                for q, rows in zip(pool, tables)
            ],
            alphabet,
        )
    leaders = sorted(classes.values())
    components = [
        (
            pool[i].to_hex(),
            Fraction(mass, 1 << l_max),
            _tabled_env(pool[i], budget, alphabet, tables[i]),
        )
        for i, mass in leaders
    ]
    return MixtureModel(components, alphabet, [pool[i].weight for i, _ in leaders])


def posterior(m: MixtureModel, h: History) -> PosteriorState:
    """Unnormalized component masses weight * component-joint on h."""
    node = m.state(h)
    if node.mass == 0:
        raise UndefinedConditionalError("posterior on a zero-mass history")
    masses = [Fraction(0)] * len(m.components)
    for i, mass, _ in node.survivors:
        masses[i] = Fraction(mass, m._scale)
    return PosteriorState(
        tuple(label for label, _, _ in m.components),
        tuple(w for _, w, _ in m.components),
        tuple(masses),
    )


def weights_csv(m: MixtureModel, h: Optional[History] = None) -> str:
    """Component weights (and posterior masses after h) as CSV text."""
    lines = ["component,weight,mass"]
    if h is None:
        for label, w, _ in m.components:
            lines.append(f"{label},{w},{w}")
    else:
        ps = posterior(m, h)
        for label, w, mass in zip(ps.labels, ps.weights, ps.masses):
            lines.append(f"{label},{w},{mass}")
    return "\n".join(lines) + "\n"


def expected_sum(
    mu: ChronologicalModel,
    feed: Callable[[History], Action],
    score: Callable[[History, int, Action, Dict[Percept, Fraction]], Fraction],
    n: int,
    h: History = EMPTY_HISTORY,
) -> Fraction:
    """Sum of mu(h_t | h) * score(h_t, t, y_t, row_t) over cycles t = len(h)+1..n.

    h_t runs over the mu-possible extensions of h by t-1-len(h) cycles, with
    actions y_t = feed(h_t) and percept row row_t = mu.cond_map(h_t, y_t);
    zero-probability percepts are not followed.  The walk carries mu's
    state, so it takes each row from ``mu.weights``, each weight over
    ``mu.mass``, and replays no history.
    """

    def walk(h: History, state: Any) -> Fraction:
        t = len(h) + 1
        y = feed(h)
        weights, mass = mu.weights(state, h, y), mu.mass(state)
        row = {x: w if mass == 1 else Fraction(w, mass) for x, (w, _) in weights.items()}
        total = score(h, t, y, row)
        if t < n:
            for x, p in row.items():
                if p:
                    total += p * walk(append_cycle(h, y, x), weights[x][1])
        return total

    if len(h) >= n:
        return Fraction(0)
    return walk(h, mu.state(h))


def sq_distance_sum(
    m: MixtureModel,
    mu: ChronologicalModel,
    pi: Callable[[History], Action],
    n: int,
) -> Fraction:
    """Cumulative mu-expected squared prediction gap of the mixture over n cycles.

    Sum over t <= n and mu-possible histories of
    mu(h) * sum_x (m(x|h,y_t) - mu(x|h,y_t))^2 with actions supplied by pi.
    """

    def score(h: History, t: int, y: Action, mu_row: Dict[Percept, Fraction]) -> Fraction:
        try:
            m_row = m.cond_map(h, y)
        except UndefinedConditionalError:
            m_row = {}
        total = Fraction(0)
        for x in mu.alphabet.percepts():
            gap = m_row.get(x, Fraction(0)) - mu_row.get(x, Fraction(0))
            total += gap * gap
        return total

    return expected_sum(mu, pi, score, n)
