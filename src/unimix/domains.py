"""Problem-class embeddings as chronological-model constructors.

Covers sequence prediction (SP), strategic games against a minimax opponent
(SG), function minimization (FM), relation/example learning (EX), and the
demonstration environments heaven-hell, only-one, and the lazy-rest world.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from .core import (
    Action, Alphabet, History, Percept, ValidationError, Value, as_fraction, increasing,
    input_errors, rational, read_text, set_field, write_text,
)
from .models import (
    ChronologicalModel,
    FunctionalEnv,
    KernelEnv,
    MixtureModel,
)


def _ints(text: str) -> Tuple[int, ...]:
    """A row key of the game and function-class text forms: integers."""
    return tuple(int(t) for t in text.split())


def _no_memory(h: History) -> Tuple:
    """The memory of a rule that reads nothing of the history but its length."""
    return ()


# --- Sequence prediction ----------------------------------------------------


def make_sp_env(
    mu_sp: Union[Dict[Tuple[int, ...], Fraction], Sequence[Tuple[Tuple[int, ...], Fraction]]],
) -> MixtureModel:
    """Prediction environment: reward 1 iff the action matches the next bit.

    ``mu_sp`` is a proper distribution over equal-length bit sequences, as a
    dict or as a list of (sequence, probability) pairs in which no sequence
    repeats; the percept carries no observation (the reward already reveals
    the bit).  Beyond the sequence length the bit is fixed to 0.
    """
    listed: Dict[Tuple[int, ...], List[Fraction]] = {}
    for z, p in mu_sp.items() if isinstance(mu_sp, dict) else mu_sp:
        listed.setdefault(z, []).append(p)
    if not listed:
        raise ValueError("empty sequence distribution")
    lengths = {len(z) for z in listed}
    if len(lengths) != 1:
        raise ValueError("all sequences must share one length")
    violations = []
    # by name: a symbol other than 0 or 1, of any type, is named below
    for z, ps in sorted(listed.items(), key=lambda item: list(map(str, item[0]))):
        name = "".join(map(str, z))
        if len(ps) > 1:
            violations.append(f"sp sequence {name!r}: listed {len(ps)} times")
        if set(z) - {0, 1}:
            violations.append(f"sp sequence {name!r}: symbols must be 0 or 1")
        for p in ps:
            if p < 0:
                violations.append(f"sp sequence {name!r}: probability {p} is negative")
    if violations:
        raise ValidationError(violations)
    mu_sp = {z: ps[0] for z, ps in listed.items()}
    if sum(mu_sp.values(), Fraction(0)) != 1:
        raise ValueError("sequence distribution must sum to 1")
    alphabet = Alphabet(num_actions=2, num_observations=1, rewards=(Fraction(0), Fraction(1)))
    miss, hit = alphabet.percepts()

    def seq_env(z: Tuple[int, ...]) -> FunctionalEnv:
        def rule(h: History, y: Action) -> Percept:
            k = len(h)  # 0-based position of the bit being predicted
            bit = z[k] if k < len(z) else 0
            return hit if y == bit else miss

        return FunctionalEnv(alphabet, rule, _no_memory)

    components = [
        (f"seq:{''.join(map(str, z))}", p, seq_env(z))
        for z, p in sorted(mu_sp.items())
        if p > 0
    ]
    return MixtureModel(components, alphabet)


def sp_argmax(env: MixtureModel, h: History) -> int:
    """The standalone predictor: most probable next bit given the history.

    Ties break toward bit 0, matching the planner's action tie-break.
    """
    best_bit, best_p = 0, Fraction(-1)
    for bit in (0, 1):
        # predicting `bit` earns reward 1 exactly when the bit occurs
        p = env.cond_map(h, bit).get(env.alphabet.percept(1), Fraction(0))
        if p > best_p:
            best_bit, best_p = bit, p
    return best_bit


# --- Strategic games --------------------------------------------------------


class GameSpec(Value):
    """A fixed-length alternating game: we move, the opponent replies.

    ``leaf_values`` maps every complete move sequence (y1, o1, ..., yn, on)
    to a value already shifted into [0, r_max].
    """

    __slots__ = ("rounds", "num_moves", "num_replies", "leaf_values")

    def __init__(
        self,
        rounds: int,
        num_moves: int,
        num_replies: int,
        leaf_values: Dict[Tuple[int, ...], Fraction],
    ):
        leaf_values = {tuple(k): Fraction(v) for k, v in leaf_values.items()}
        violations = _game_violations(rounds, num_moves, num_replies, leaf_values, counted=True)
        if violations:
            raise ValidationError(violations)
        set_field(self, "rounds", rounds)
        set_field(self, "num_moves", num_moves)
        set_field(self, "num_replies", num_replies)
        set_field(self, "leaf_values", leaf_values)

    def dumps(self) -> str:
        header = (("rounds", self.rounds), ("moves", self.num_moves), ("replies", self.num_replies))
        leaves = ((" ".join(map(str, seq)), v) for seq, v in sorted(self.leaf_values.items()))
        return write_text(header, leaves)

    @classmethod
    def loads(cls, text: str) -> "GameSpec":
        fields = {"rounds": int, "moves": int, "replies": int}
        found: List[str] = []
        header, leaves = read_text(text, fields, (_ints, rational), violations=found)
        if len(header) == len(fields):  # a whole header: the leaves are checked too
            # A leaf line that did not read would also show as missing.
            found += _game_violations(
                header["rounds"], header["moves"], header["replies"], leaves, counted=not found
            )
        if found:
            raise ValidationError(found)
        return cls(header["rounds"], header["moves"], header["replies"], leaves)


def _game_violations(
    rounds: int, num_moves: int, num_replies: int, leaves: dict, counted: bool
) -> List[str]:
    """What is wrong with a game: each of its counts below 1, and otherwise
    each leaf no play reaches and each leaf of negative value, named by its
    move sequence, and, when ``counted`` and every leaf is in range, a leaf
    count other than (moves * replies)^rounds, with the first missing leaf."""
    counts = (("rounds", rounds), ("moves", num_moves), ("replies", num_replies))
    small = [f"{name} {n} is below 1" for name, n in counts if n < 1]
    if small:
        return small
    sizes = (num_moves, num_replies)
    found, in_range = [], True
    for k, v in leaves.items():
        seq = " ".join(map(str, k))
        if len(k) != 2 * rounds or any(not 0 <= c < sizes[i % 2] for i, c in enumerate(k)):
            found.append(f"leaf '{seq}' is not {rounds} (move, reply) pairs in range")
            in_range = False
        if v < 0:
            found.append(f"leaf '{seq}' has value {v}, not one shifted into [0, r_max]")
    # Only a leaf in range bounds the rounds, so neither the count nor a
    # missing leaf is computed without one.
    if counted and in_range:
        count = f"{len(leaves)} leaves, not {num_moves * num_replies}^{rounds}"
        if not leaves:
            found.append(count)
        elif len(leaves) != (num_moves * num_replies) ** rounds:
            seq = " ".join(map(str, _first_missing_leaf(rounds, sizes, leaves)))
            found.append(f"{count}: leaf '{seq}' is missing")
    return found


def _first_missing_leaf(rounds: int, sizes: Tuple[int, int], leaves: dict) -> Tuple[int, ...]:
    """The first move sequence, in move order, that is not a leaf; there must
    be one.  At most ``len(leaves) + 1`` sequences are looked at."""
    seq = [0] * (2 * rounds)
    while tuple(seq) in leaves:
        i = len(seq) - 1
        while seq[i] == sizes[i % 2] - 1:
            seq[i] = 0
            i -= 1
        seq[i] += 1
    return tuple(seq)


def game_value(g: GameSpec, prefix: Sequence[int] = ()) -> Fraction:
    """Exact minimax value of the position after the given move prefix."""
    prefix = tuple(prefix)
    if len(prefix) == 2 * g.rounds:
        return g.leaf_values[prefix]
    if len(prefix) % 2 == 0:  # our move: maximize
        return max(game_value(g, prefix + (y,)) for y in range(g.num_moves))
    return min(game_value(g, prefix + (o,)) for o in range(g.num_replies))


def minimax_move(g: GameSpec, prefix: Sequence[int]) -> int:
    """Lexicographically smallest optimal move at the given position."""
    prefix = tuple(prefix)
    if len(prefix) % 2 == 0:
        n, pick = g.num_moves, max
    else:
        n, pick = g.num_replies, min
    values = [game_value(g, prefix + (c,)) for c in range(n)]
    return values.index(pick(values))


def make_sg_env(g: GameSpec) -> FunctionalEnv:
    """The game as an environment: a deterministic minimax opponent.

    Rewards are 0 except at the last round of each episode, where the shifted
    leaf value is paid.  The game repeats every ``rounds`` cycles, from a
    fresh board each time.
    """
    values = sorted(set(g.leaf_values.values()) | {Fraction(0)})
    alphabet = Alphabet(
        num_actions=g.num_moves,
        num_observations=g.num_replies,
        rewards=tuple(values),
    )
    # Each leaf's percept and each reply's percept before the last round.
    leaf_percept = {seq: alphabet.percept(v, seq[-1]) for seq, v in g.leaf_values.items()}
    reply_percept = [alphabet.percept(0, o) for o in range(g.num_replies)]

    def rule(h: History, y: Action) -> Percept:
        k = len(h)  # completed cycles
        round_in_ep = k % g.rounds
        prefix: List[int] = []
        for yy, xx in h.cycles[k - round_in_ep :]:
            prefix += [yy, xx.observation]
        prefix.append(y)
        o = minimax_move(g, prefix)
        if round_in_ep == g.rounds - 1:
            return leaf_percept[(*prefix, o)]
        return reply_percept[o]

    def memory(h: History) -> Tuple:
        k = len(h)
        return h.cycles[k - k % g.rounds :]

    return FunctionalEnv(alphabet, rule, memory)


# --- Function minimization --------------------------------------------------


class FunctionClassSpec(Value):
    """A finite function class f: Y -> Z with a prior over its members."""

    __slots__ = ("num_actions", "z_values", "prior", "r_max")

    def __init__(
        self,
        num_actions: int,
        z_values: Tuple[Fraction, ...],
        prior: Tuple[Tuple[Tuple[int, ...], Fraction], ...],  # (f as z-index tuple, prob)
        r_max: Fraction = Fraction(1),
    ):
        zs = tuple(map(as_fraction, z_values))
        if not increasing(zs):
            raise ValueError("z_values must be strictly increasing")
        prior = tuple((tuple(f), as_fraction(p)) for f, p in prior)
        r_max = as_fraction(r_max)
        violations = _function_violations(num_actions, len(zs), prior)
        if num_actions < 1:
            violations.append(f"actions {num_actions} is below 1")
        if r_max.numerator < 0:
            violations.append(f"rmax {r_max} is below 0")
        if violations:
            raise ValidationError(violations)
        set_field(self, "num_actions", num_actions)
        set_field(self, "z_values", zs)
        set_field(self, "prior", prior)
        set_field(self, "r_max", r_max)

    def reward_of(self, z_index: int) -> Fraction:
        """Affine map sending z_min to r_max and z_max to 0 (minimize z)."""
        zs = self.z_values
        if len(zs) == 1:
            return self.r_max
        return (zs[-1] - zs[z_index]) / (zs[-1] - zs[0]) * self.r_max

    def dumps(self) -> str:
        z = ",".join(map(str, self.z_values))
        header = (("actions", self.num_actions), ("z", z), ("rmax", self.r_max))
        return write_text(header, ((" ".join(map(str, f)), p) for f, p in self.prior))

    @classmethod
    def loads(cls, text: str) -> "FunctionClassSpec":
        fields = {"actions": int, "rmax": rational}
        fields["z"] = lambda v: tuple(map(rational, v.split(",")))
        found: List[str] = []
        header, prior = read_text(
            text, fields, (_ints, rational), optional=("rmax",), violations=found
        )
        spec = None
        if "actions" in header and "z" in header:  # a whole header: the rows are checked too
            try:
                with input_errors("function class"):
                    spec = cls(
                        header["actions"], header["z"], tuple(prior.items()), header.get("rmax", 1)
                    )
            except ValidationError as e:
                found += e.violations
        if found:
            raise ValidationError(found)
        return spec


def _function_violations(num_actions: int, num_z: int, prior) -> List[str]:
    """What is wrong with a function class's prior: each function that is not
    one z index in range(num_z) per action and each negative weight, named by
    the function's table, and weights that do not sum to 1."""
    found = []
    for f, p in prior:
        wrong = []
        if len(f) != num_actions:
            wrong.append(f"has {len(f)} entries, not {num_actions} (one per action)")
        if any(not 0 <= zi < num_z for zi in f):
            wrong.append(f"has a z index outside range({num_z})")
        if p.numerator < 0:
            wrong.append(f"has prior {p}, below 0")
        if wrong:
            key = " ".join(map(str, f))
            found += [f"function '{key}' {why}" for why in wrong]
    # Summed on integers over the lcm of the denominators, as a mixture's weights are.
    d = math.lcm(*(p.denominator for _, p in prior))
    if sum(p.numerator * (d // p.denominator) for _, p in prior) != d:
        found.append("function prior must sum to 1")
    return found


def uniform_function_class(
    num_actions: int, z_values: Sequence[Fraction]
) -> FunctionClassSpec:
    """All |Z|^|Y| functions, uniformly weighted."""
    tables = list(itertools.product(range(len(z_values)), repeat=num_actions))
    p = Fraction(1, len(tables))
    return FunctionClassSpec(
        num_actions=num_actions,
        z_values=tuple(z_values),
        prior=tuple((f, p) for f in tables),
    )


def make_fm_env(c: FunctionClassSpec) -> MixtureModel:
    """Function minimization: query a point, observe its value, earn more for
    smaller values.  The latent function is drawn from the class prior."""
    n = len(c.z_values)
    rewards = [c.reward_of(i) for i in range(n)]
    # The reward levels, deduplicated and sorted on ints over the lcm of
    # their denominators: ordering Fractions makes an abstract-base-class
    # check per compare, and a set hashes each one.
    d = math.lcm(*(r.denominator for r in rewards))
    scaled = [r.numerator * (d // r.denominator) for r in rewards]
    level = dict(zip(scaled, rewards))
    levels = sorted(level)
    alphabet = Alphabet(
        num_actions=c.num_actions,
        num_observations=n,
        rewards=tuple(level[v] for v in levels),
    )
    # The percept of observing each z index, made once for every component.
    percepts = [alphabet.percept_of(levels.index(v) * n + zi) for zi, v in enumerate(scaled)]

    def f_env(f: Tuple[int, ...]) -> FunctionalEnv:
        row = [percepts[zi] for zi in f]

        def rule(h: History, y: Action) -> Percept:
            return row[y]

        return FunctionalEnv(alphabet, rule, _no_memory)

    components = [
        (f"f:{''.join(map(str, f))}", p, f_env(f)) for f, p in c.prior if p.numerator > 0
    ]
    return MixtureModel(components, alphabet)


def fm_expected_z(
    env: MixtureModel, c: FunctionClassSpec, h: History, y: Action
) -> Fraction:
    """Posterior-expected function value at the queried point."""
    total = Fraction(0)
    for x, p in env.cond_map(h, y).items():
        total += p * c.z_values[x.observation]
    return total


# --- Relation / example learning -------------------------------------------

QUESTION = None  # presentation marker for "(z, ?)"


class RelationSpec(Value):
    """A relation R over Z x Y with a presentation distribution.

    Presentations are either examples (z, v) with (z, v) in R, or questions
    (z, QUESTION).  Wrong examples must carry probability 0.
    """

    __slots__ = ("num_z", "num_actions", "relation", "presentation")

    def __init__(
        self,
        num_z: int,
        num_actions: int,
        relation: FrozenSet[Tuple[int, int]],
        presentation: Tuple[Tuple[Tuple[int, Optional[int]], Fraction], ...],
    ):
        relation = frozenset(relation)
        pres = tuple(((z, v), Fraction(p)) for (z, v), p in presentation)
        if sum((p for _, p in pres), Fraction(0)) != 1:
            raise ValueError("presentation distribution must sum to 1")
        for (z, v), p in pres:
            if not (0 <= z < num_z):
                raise ValueError(f"z={z} outside range")
            if v is not None and (z, v) not in relation and p > 0:
                raise ValueError(f"wrong example ({z},{v}) must have probability 0")
        set_field(self, "num_z", num_z)
        set_field(self, "num_actions", num_actions)
        set_field(self, "relation", relation)
        set_field(self, "presentation", pres)

    def obs_index(self, z: int, v: Optional[int]) -> int:
        """Flatten a presentation to an observation symbol."""
        slot = self.num_actions if v is None else v
        return z * (self.num_actions + 1) + slot


def relation_alphabet(r: RelationSpec) -> Alphabet:
    """The alphabet of r's example/question environment."""
    return Alphabet(
        num_actions=r.num_actions,
        num_observations=r.num_z * (r.num_actions + 1),
        rewards=(Fraction(0), Fraction(1)),
    )


def make_ex_env(r: RelationSpec, alphabet: Optional[Alphabet] = None) -> KernelEnv:
    """Example/question environment: presentations are drawn independently
    each cycle; the action answers the previous cycle's presentation and is
    rewarded iff that was a question (z, ?) and (z, y) is in the relation.
    Examples (and the very first cycle) reward unconditionally.

    ``alphabet`` is ``relation_alphabet(r)`` when the caller has built it:
    the environment answers with that alphabet's own percepts."""
    if alphabet is None:
        alphabet = relation_alphabet(r)

    def decode_obs(o: int) -> Tuple[int, Optional[int]]:
        z, slot = divmod(o, r.num_actions + 1)
        return z, (None if slot == r.num_actions else slot)

    # The kernel's row for each reward, made once: the presentation is drawn
    # independently of the history.  Rows are shared; KernelEnv copies them.
    rows: List[Dict[Percept, Fraction]] = []
    for reward in alphabet.rewards:
        out: Dict[Percept, Fraction] = {}
        for (z, v), p in r.presentation:
            if p == 0:
                continue
            x = alphabet.percept(reward, r.obs_index(z, v))
            out[x] = out.get(x, Fraction(0)) + p
        rows.append(out)
    miss, hit = rows

    def kernel(h: History, y: Action) -> Dict[Percept, Fraction]:
        if len(h) == 0:
            return hit
        z_prev, v_prev = decode_obs(h.cycles[-1][1].observation)
        if v_prev is None:
            return hit if (z_prev, y) in r.relation else miss
        return hit

    return KernelEnv(alphabet, kernel)


def make_relation_mixture(
    specs: Sequence[Tuple[RelationSpec, Fraction]]
) -> MixtureModel:
    """A sigma-weighted mixture over relation environments."""
    # One alphabet, so that every component answers with its percepts.
    alphabet = relation_alphabet(specs[0][0])
    if any(relation_alphabet(r) != alphabet for r, _ in specs):
        raise ValueError("all relation environments must share an alphabet")
    components = [
        (f"R{i}", Fraction(w), make_ex_env(r, alphabet)) for i, (r, w) in enumerate(specs)
    ]
    return MixtureModel(components, alphabet)


class ProductEpisodeModel(ChronologicalModel):
    """Independent fixed-length episodes: the environment forgets everything
    at each episode boundary, making the joint a product over episodes."""

    def __init__(self, episode_models: Sequence[ChronologicalModel], episode_length: int):
        if not episode_models or episode_length < 1:
            raise ValueError("need at least one episode of positive length")
        alphabet = episode_models[0].alphabet
        if any(m.alphabet != alphabet for m in episode_models):
            raise ValueError("all episodes must share an alphabet")
        self.alphabet = alphabet
        self.episodes = tuple(episode_models)
        self.episode_length = episode_length

    @property
    def boundaries(self) -> Tuple[int, ...]:
        return tuple(self.episode_length * i for i in range(len(self.episodes) + 1))

    def cond_map(self, h: History, y: Action):
        k = len(h)  # completed cycles
        ep, local = divmod(k, self.episode_length)
        if ep >= len(self.episodes):
            raise ValueError("history extends past the last episode")
        local_h = History(h.cycles[k - local :])
        return self.episodes[ep].cond_map(local_h, y)


# --- Demonstration environments --------------------------------------------

_BINARY = Alphabet(num_actions=2, num_observations=1, rewards=(Fraction(0), Fraction(1)))


def make_heavenhell(i: int) -> FunctionalEnv:
    """The first action decides everything: match i and every reward is 1,
    miss and every reward is 0.  Absorbing after cycle 1."""
    if i not in (0, 1):
        raise ValueError("i must be 0 or 1")

    hell, heaven = _BINARY.percepts()

    def rule(h: History, y: Action) -> Percept:
        first = h.cycles[0][0] if h.cycles else y
        return heaven if first == i else hell

    def memory(h: History) -> Optional[Action]:
        return h.cycles[0][0] if h.cycles else None

    return FunctionalEnv(_BINARY, rule, memory)


def make_onlyone(n: int, y_star: Action) -> FunctionalEnv:
    """Reward 1 exactly for the single correct action among n."""
    violations = [f"n={n} is below 1"] if n < 1 else []
    if y_star < 0 or 1 <= n <= y_star:
        violations.append(f"y_star={y_star} outside [0, n)")
    if violations:
        raise ValidationError(violations)
    alphabet = Alphabet(num_actions=n, num_observations=1, rewards=(Fraction(0), Fraction(1)))
    miss, hit = alphabet.percepts()

    def rule(h: History, y: Action) -> Percept:
        return hit if y == y_star else miss

    return FunctionalEnv(alphabet, rule, _no_memory)


def _ceil_sqrt(l: int) -> int:
    return math.isqrt(l - 1) + 1


def lazy_reward(actions: Sequence[int], k: int) -> bool:
    """Whether resting (action 1) at cycle k pays off.

    True iff some earlier all-zero work run of length ceil(sqrt(l)) ends
    exactly l cycles before k, entirely within cycles 1..k-1.  (Action 0 is
    work, action 1 is rest; actions is 1-cycle-indexed via actions[j-1].)
    """
    if actions[k - 1] != 1:
        return False
    for l in range(1, k):
        end = k - l
        start = end - _ceil_sqrt(l) + 1
        if start < 1:
            continue
        if all(actions[j - 1] == 0 for j in range(start, end + 1)):
            return True
    return False


def make_lazy(m: int) -> FunctionalEnv:
    """The rest-after-work world: work runs of length ceil(sqrt(l)) license
    rest l cycles later; only rest on a license earns reward."""
    if m < 2:
        raise ValueError("lifetime m >= 2 required")
    miss, hit = _BINARY.percepts()

    def rule(h: History, y: Action) -> Percept:
        actions = list(h.actions()) + [y]
        return hit if lazy_reward(actions, len(actions)) else miss

    env = FunctionalEnv(_BINARY, rule)
    env.lifetime = m
    return env
