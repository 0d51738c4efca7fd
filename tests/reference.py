"""Library steps written out on their own, the references that the library's
faster forms are compared against.

``reference_cycle`` is the machine cycle stepped on a program's
``Instruction``s and a mutable ``MachineState``, sharing no code with the
library's machine loop (``vm.run_machine``).  ``env_cycle`` and
``policy_action`` are the environment and policy cycles on it, for the
frozen-state cycles (``vm.env_step``, ``planner.ProgramStepper``) and every
table and tree built on them.
``best_vote_cycle`` is the best-vote round with one ``Claim`` per candidate,
each judged by ``validate_claim`` here, for the round on plain values
(``bestvote.best_vote_cycle``).  That ``validate_claim`` walks every positive
claim, with no bound U to spare a walk, so the library's verdicts without
one (``bestvote.claim_verdict``) are checked against the walk itself.
``parse_args`` is the command line parsed by one parser with a subparser for
every command, for the command line read from the command table without
argparse (``cli.parse_args``).
``check_chronological``, ``random_tabular`` and ``dominance_walk`` are the
history walks written out as their own recursions, for the library's forms on
the one context enumerator (``core.contexts``).
``run_best_vote`` is the best-vote run as its own interaction loop, with its
own generator, percept draw, world state and tree node, for the best-vote
policy that ``planner.run_interaction`` steps (``bestvote.best_vote_policy``).
``selection_log_csv`` is the selection log written by reading each row's
fields by name, for the library's writer that formats each row as the tuple
it is (``bestvote.selection_log_csv``).
``class_partition`` is the class build with every program it signs run on
the machine, on every action, to every depth, for the build that signs
silent programs from their code, action-blind programs on one input, and a
state that steps to itself once for every depth
(``models.build_class_mixture``).
``fraction_plan``, ``sample_percept`` and ``functional_value`` are the
expectimax, the percept draw and the rollout value on normalized ``Fraction``
probabilities, for the library's forms that sum integer masses and scaled
rewards and divide once (``planner._plan``, ``planner.sample_percept``,
``planner.functional_value``).
``scaled_sample_percept`` is the draw on the row scaled to ints for every
row, for the library's draw that takes a row of one percept directly
(``planner.sample_percept``)."""

from __future__ import annotations

import math
import random
from fractions import Fraction

from unimix import bestvote, planner
from unimix.bestvote import (
    ExtendedCandidate, SelectionRow, candidate_value, run_candidate_cycle,
)
from unimix.cli import _parser
from unimix.core import (
    EMPTY_HISTORY, CapacityError, FixedHorizon, Percept, append_cycle, discounted_reward,
    encode_history, horizon_end,
)
from unimix.models import TabularModel, UndefinedConditionalError, _silent
from unimix.planner import env_node
from unimix.vm import FRESH, run_machine


class MachineState:
    """A program's machine, mutable: accumulator, work tape and head."""

    def __init__(self, acc=0, work_tape=None, head=0):
        self.acc = acc
        self.work_tape = {} if work_tape is None else work_tape
        self.head = head

    def copy(self):
        return MachineState(self.acc, dict(self.work_tape), self.head)


def freeze(s):
    """The machine as the library's immutable state: (accumulator, sorted
    tape items, head)."""
    return s.acc, tuple(sorted(s.work_tape.items())), s.head


def reference_cycle(program, state, primary_in, secondary_in, budget, max_outputs):
    """One cycle of program on the machine state (run in place), stepped on
    the program's Instructions.  Returns (outputs padded with 0 to
    max_outputs, steps used, timed out)."""
    instrs = program.instructions
    pc = steps = 0
    outputs = []
    timed_out = False
    while 0 <= pc < len(instrs):
        if steps >= budget.steps_per_cycle:
            timed_out = True
            break
        ins = instrs[pc]
        steps += 1
        if ins.op == 0:  # END
            break
        elif ins.op == 1:  # OUT
            outputs.append(state.acc)
            if len(outputs) >= max_outputs:
                break
            pc += 1
        elif ins.op == 2:  # IN
            state.acc = primary_in
            pc += 1
        elif ins.op == 3:  # INR
            state.acc = secondary_in
            pc += 1
        elif ins.op == 4:  # LDC
            state.acc = ins.arg
            pc += 1
        elif ins.op == 5:  # JZ
            pc += (ins.arg - 1) if state.acc == 0 else 1
        elif ins.op == 6:  # INC
            state.acc += 1
            pc += 1
        else:  # MOVT
            if ins.arg == 0:
                state.head -= 1
            elif ins.arg == 1:
                state.head += 1
            elif ins.arg == 2:
                state.work_tape[state.head] = state.acc
            else:
                state.acc = state.work_tape.get(state.head, 0)
            pc += 1
    while len(outputs) < max_outputs:
        outputs.append(0)
    return tuple(outputs), steps, timed_out


def env_cycle(q, s, y, budget, alphabet):
    """One environment cycle of q on the machine s (run in place): reads the
    action, emits a percept.  Returns (percept, s, steps used, timed out);
    a timed-out cycle's percept is the zero one."""
    outputs, steps, timed_out = reference_cycle(q, s, y, 0, budget, 1)
    if timed_out:
        return Percept(Fraction(0), 0), s, steps, True
    return alphabet.percept_of(outputs[0]), s, steps, False


def policy_action(p, s, x_prev, budget, alphabet):
    """One policy cycle of p on the machine s (run in place): reads the
    previous percept x_prev ((0, 0) before the first), emits an action; a
    timed-out cycle plays action 0."""
    obs, rew = (0, 0) if x_prev is None else (x_prev.observation, alphabet.reward_index(x_prev))
    outputs, _, timed_out = reference_cycle(p, s, obs, rew, budget, 1)
    return 0 if timed_out else outputs[0] % alphabet.num_actions


def validate_claim(c, claim, h, envs, budget, alphabet, m_k, horizon=None):
    """True iff some environment is consistent with h and the claim does not
    overrate the candidate's exact value; a claim of 0 needs no walk."""
    node = env_node(envs, h, budget, alphabet)
    if not node.survivors:
        return False
    if claim.w == 0:
        return True
    try:
        v = candidate_value(c, node, len(h) + 1, m_k, h, budget, alphabet, horizon)
    except UndefinedConditionalError:
        return False
    return claim.w <= v


def best_vote_cycle(candidates, h, envs, budget, alphabet, m_k, horizon=None):
    """One round of claims, validation, clamping, and selection: every
    candidate claims through ``run_candidate_cycle`` and every claim is
    judged by ``validate_claim`` above; the entries are sorted by
    ``sort_key`` and the first of the highest clamped claims wins.  Returns
    (action, rows)."""
    if not candidates:
        raise ValueError("no candidates")
    k = len(h) + 1
    node = env_node(envs, h, budget, alphabet)
    entries = []
    for c in candidates:
        claim = run_candidate_cycle(c, h, budget, alphabet)
        valid = validate_claim(c, claim, h, node, budget, alphabet, m_k, horizon)
        w_eff = claim.w if valid else Fraction(0)
        entries.append((c, claim, valid, w_eff))
    best = None
    for entry in sorted(entries, key=lambda e: e[0].sort_key):
        if best is None or entry[3] > best[3]:
            best = entry
    rows = [
        SelectionRow(k, c.label, claim.w, valid, c is best[0], claim.y, claim.steps_used)
        for c, claim, valid, _ in entries
    ]
    return best[1].y, rows


def selection_log_csv(rows):
    lines = ["cycle,candidate,claimed_w,valid,selected,action,steps_used"]
    for r in rows:
        lines.append(
            f"{r.cycle},{r.candidate},{r.claimed_w},{int(r.valid)},"
            f"{int(r.selected)},{r.action},{r.steps_used}"
        )
    return "\n".join(lines) + "\n"


def run_best_vote(pool, budget, env, lifetime, horizon=None, seed=0, leaders=None):
    """Full best-vote run with the pool's programs as both the candidates and
    the environment pool, in its own loop: each cycle a round
    (``bestvote.best_vote_cycle``) on the carried tree node, a percept drawn
    from the world's normalized ``weights`` row, then the node and the
    world's state stepped on it.  ``leaders``, when given, gets the node's
    ``top()`` before each cycle.  Returns (history, selection rows)."""
    candidates = [ExtendedCandidate.from_program(p) for p in pool]
    alphabet = env.alphabet
    hpol = horizon if horizon is not None else FixedHorizon(lifetime)
    rng = random.Random(seed)
    h = EMPTY_HISTORY
    log = []
    node = env_node(pool, h, budget, alphabet)
    state = env.state(h)
    for k in range(1, lifetime + 1):
        m_k = horizon_end(hpol, k, lifetime)
        if leaders is not None:
            leaders.append(node.top())
        y, rows = bestvote.best_vote_cycle(candidates, h, node, budget, alphabet, m_k, horizon)
        log.extend(rows)
        row, mass = env.weights(state, h, y), env.mass(state)
        x = sample_percept(rng, {x: Fraction(w, mass) for x, (w, _) in row.items()}, alphabet)
        state = row[x][1]
        node = node.child(h, y, x)
        h = append_cycle(h, y, x)
    return h, log


def parse_args(argv):
    """``argv`` parsed by the whole CLI's parser: the top-level parser and a
    subparser for each of the four commands, all built on every call."""
    parser = _parser(
        prog="unimix", description="universal-mixture agent scenario runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override config seed")

    p_verify = sub.add_parser("verify", help="re-check invariant suites")
    p_verify.add_argument("--l", type=int, default=10, dest="l_max")
    p_verify.add_argument("--strict", action="store_true")
    p_verify.add_argument("--out", default=None)

    p_enum = sub.add_parser("enumerate", help="dump a program pool")
    p_enum.add_argument("--l", type=int, required=True, dest="l_max")
    p_enum.add_argument("--out", default=None)

    p_dis = sub.add_parser("disasm", help="disassemble a hex-coded program")
    p_dis.add_argument("program", help="program in <bits>:<hex> form")

    return parser.parse_args(argv)


def check_chronological(rho: ChronologicalModel, depth: int) -> bool:
    """True iff the next-percept marginal never depends on the pending action.

    Exhaustive over every context of up to ``depth`` cycles.
    """
    a = rho.alphabet

    def marginal(h: History, y: Action) -> Fraction:
        return sum(rho.cond_map(h, y).values(), Fraction(0))

    def walk(h: History, d: int) -> bool:
        sums = [marginal(h, y) for y in a.actions()]
        if any(s != sums[0] for s in sums):
            return False
        if d < depth:
            for y in a.actions():
                row = rho.cond_map(h, y)
                for x in a.percepts():
                    if row.get(x, Fraction(0)) > 0:
                        if not walk(append_cycle(h, y, x), d + 1):
                            return False
        return True

    return walk(EMPTY_HISTORY, 1)


def random_tabular(alphabet: Alphabet, depth: int, rng: random.Random) -> TabularModel:
    """A full random tabular environment: every context up to depth gets a row."""
    rows: Dict[str, List[Fraction]] = {}

    def row() -> List[Fraction]:
        weights = [rng.randint(0, 8) for _ in range(alphabet.num_percepts)]
        if sum(weights) == 0:
            weights[rng.randrange(alphabet.num_percepts)] = 1
        total = sum(weights)
        return [Fraction(w, total) for w in weights]

    def walk(h: History, d: int) -> None:
        if d >= depth:
            return
        for y in alphabet.actions():
            rows[encode_history(h, y)] = row()
            for x in alphabet.percepts():
                walk(append_cycle(h, y, x), d + 1)

    walk(EMPTY_HISTORY, 0)
    return TabularModel(alphabet, depth, rows)


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


def fraction_plan(q, h, t, state, actions=None, memo=None):
    """The expectimax on the model's probabilities, its ``weights`` over its
    ``mass``: (y*, V), V the max over y of the sum over x of p *
    (discounted reward + the child's V), with the same memo on
    (key, t, m_k), cap and tie-breaking as ``planner._plan``."""
    if memo is None:
        memo = {}
    model, horizon = q.model, q.horizon
    if actions is None:
        node = (model.key(state, h), t, q.m_k)
        plan = memo.get(node)
        if plan is not None:
            return plan
    last = t == q.m_k
    best, mass = None, model.mass(state)
    for y in model.alphabet.actions() if actions is None else actions:
        v = Fraction(0)
        for x, (w, child) in model.weights(state, h, y).items():
            p = Fraction(w, mass)
            if p == 0:
                continue
            r = discounted_reward(horizon, t, x.reward)
            if not last:
                r += fraction_plan(q, append_cycle(h, y, x), t + 1, child, memo=memo)[1]
            v += p * r
        if best is None or v > best[1]:
            best = (y, v)
    if actions is None:
        if len(memo) >= planner.PLAN_MEMO_CAP:
            raise CapacityError(
                f"the decisions up to cycle {q.k} solved more than "
                f"{planner.PLAN_MEMO_CAP} distinct belief states"
            )
        memo[node] = best
    return best


def sample_percept(rng, row, alphabet):
    """Inverse-CDF draw on the normalized row: ``randrange`` of the lcm of
    the normalized probabilities' denominators, against their running sums
    times it, in the alphabet's order."""
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


def scaled_sample_percept(rng, row, alphabet):
    """The draw on the row scaled to ints by the lcm of its denominators:
    ``randrange`` of their sum over their gcd, times the gcd, against their
    running sums in the alphabet's order."""
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


def functional_value(node, y, act, k, m, h, horizon=None):
    """The rollout value as a ``Fraction`` sum: child mass times discounted
    reward over the nodes the policy reaches, divided by the node's mass."""
    if len(h) != k - 1:
        raise ValueError("history length must be k-1 cycles")
    if not node.survivors:
        raise UndefinedConditionalError("no pool program is consistent with the history")

    def walk(node, y, act, t, h):
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


def class_partition(pool, budget, alphabet, depth, every_action):
    """The behaviour classes of ``pool`` up to ``depth`` cycles, as
    (label, weight, lead) per class in the order of its leader's pool index:
    the leader (the heaviest member, the first on ties) gives the label and
    the lead, and the weight sums the members'.  A program's class is its
    signature from the fresh machine: for each action, the output symbol
    modulo the alphabet's percepts and the next state's signature one cycle
    shallower, or None for a timeout.  Without ``every_action``, a program
    that reads the action is alone in its class unless its code is silent
    (``models._silent``), which the signature run here checks."""
    ids, classes = {}, {}

    def signature(ops, s, d, memo):
        got = memo.get((s, d))
        if got is None:
            sig = []
            for y in alphabet.actions():
                outputs, _, timed_out, child = run_machine(
                    ops, s, y, 0, budget.steps_per_cycle, 1
                )
                if timed_out:
                    sig.append(None)
                else:
                    x = (outputs[0] if outputs else 0) % alphabet.num_percepts
                    sig.append((x, signature(ops, child, d - 1, memo) if d > 1 else 0))
            got = memo[s, d] = ids.setdefault(tuple(sig), len(ids))
        return got

    for i, q in enumerate(pool):
        if q._reads_input and not every_action and not _silent(q._ops, budget.steps_per_cycle):
            c = classes[("alone", i)] = [i, Fraction(0)]
        else:
            c = classes.setdefault(signature(q._ops, FRESH, depth, {}), [i, Fraction(0)])
        if q.length_bits < pool[c[0]].length_bits:
            c[0] = i
        c[1] += q.weight
    return [(pool[i].to_hex(), w, pool[i].weight) for i, w in sorted(classes.values())]
