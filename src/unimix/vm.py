"""Step-budgeted chronological bytecode machine.

Programs are bit strings decoding to an instruction list terminated by END;
because END ends decoding, the set of valid codes is prefix-free and the
weights 2^-length satisfy Kraft's inequality exactly.  The same machine runs
as a policy (reads percepts, writes actions) and as an environment (reads
actions, writes percept symbols).  State persists across cycles so execution
is incremental; the program counter restarts each cycle.

A machine state is one immutable value, ``FrozenState`` = (accumulator,
sorted work tape items, head), for environments, policies and best-vote
candidates alike.  ``run_machine`` is the one loop, and the only code that
turns a state into a working tape and back: ``run_cycle`` pads its outputs
for a policy, ``env_step`` is the environment cycle, and a fork shares the
state it forks.  A cycle caught in a loop that returns to one state is
charged its whole step budget, but ``run_machine`` runs only its first
turns round the loop and adds the whole periods left.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, List, Optional, Sequence, Tuple

from .core import Action, Alphabet, History, Value, set_field

# Opcodes: 3 bits each, followed by a fixed-width operand (possibly empty).
OP_END = 0  # end of cycle / end of code
OP_OUT = 1  # emit accumulator as next output symbol
OP_IN = 2  # accumulator := primary input channel
OP_INR = 3  # accumulator := secondary input channel (reward level)
OP_LDC = 4  # accumulator := constant (2-bit operand)
OP_JZ = 5  # if accumulator == 0: pc += operand - 1  (operand 2 bits)
OP_INC = 6  # accumulator += 1
OP_MOVT = 7  # tape op (2-bit operand): 0 left, 1 right, 2 store, 3 load

OPCODE_BITS = 3
OPERAND_BITS = {
    OP_END: 0,
    OP_OUT: 0,
    OP_IN: 0,
    OP_INR: 0,
    OP_LDC: 2,
    OP_JZ: 2,
    OP_INC: 0,
    OP_MOVT: 2,
}
_MNEMONIC = {
    OP_END: "END",
    OP_OUT: "OUT",
    OP_IN: "IN",
    OP_INR: "INR",
    OP_LDC: "LDC",
    OP_JZ: "JZ",
    OP_INC: "INC",
    OP_MOVT: "MOVT",
}


class DecodeError(ValueError):
    """Bit string does not decode to a valid END-terminated program."""


@lru_cache(maxsize=64)
def _weight(length_bits: int) -> Fraction:
    """2^-length_bits, one shared object per length: a pool's programs have
    at most l_max lengths, so a mixture or best-vote build over the pool
    makes that many ``Fraction``s, not one per program."""
    return Fraction(1, 2**length_bits)


# Bits 0 and 1 as the ASCII digits ``int(..., 2)`` reads.
_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


class Program(Value):
    """Prefix-free bytecode; ``code`` is exactly the consumed bit prefix.

    ``_ops`` is the code decoded, as the machine loop reads it: one
    (op, arg) pair per instruction.  The code fixes the pairs, so a
    program's equality and hash read ``code`` alone."""

    __slots__ = ("code", "_ops", "_hex")

    def __init__(self, code: tuple, ops: tuple):
        set_field(self, "code", code)
        set_field(self, "_ops", ops)
        # A program's hex is both its best-vote candidate label and its
        # mixture component label: made once, on first use.
        set_field(self, "_hex", None)

    @property
    def length_bits(self) -> int:
        return len(self.code)

    @property
    def weight(self) -> Fraction:
        return _weight(self.length_bits)

    def to_hex(self) -> str:
        if self._hex is None:
            # length prefix keeps trailing zero bits unambiguous
            n = len(self.code)
            value = int(bytes(self.code).translate(_DIGITS) or b"0", 2)
            set_field(self, "_hex", "%d:%0*x" % (n, (n + 3) // 4 or 1, value))
        return self._hex

    @classmethod
    def from_hex(cls, text: str) -> "Program":
        """Inverse of ``to_hex``; raises ``DecodeError`` on malformed text."""
        n_str, _, hex_str = text.partition(":")
        try:
            n, value = int(n_str), int(hex_str, 16)
        except ValueError:
            raise DecodeError(f"bad program {text!r}: expected <bits>:<hex>") from None
        if n < 0 or 4 * len(hex_str) < n or value < 0 or value >> n:
            raise DecodeError(f"bad program {text!r}: {hex_str} is not {n} bits of hex")
        bits = tuple((value >> (n - 1 - i)) & 1 for i in range(n))
        return decode(bits)

    def disassemble(self) -> str:
        lines = []
        for i, (op, arg) in enumerate(self._ops):
            if OPERAND_BITS[op]:
                lines.append(f"{i:3d}  {_MNEMONIC[op]} {arg}")
            else:
                lines.append(f"{i:3d}  {_MNEMONIC[op]}")
        return "\n".join(lines)


def _bits_to_int(bits: Sequence[int]) -> int:
    v = 0
    for b in bits:
        v = (v << 1) | b
    return v


def decode(bits: Sequence[int]) -> Program:
    """Consume a prefix-free code from ``bits``; extra trailing bits are ignored."""
    bits = tuple(int(b) for b in bits)
    if any(b not in (0, 1) for b in bits):
        raise DecodeError("non-binary input")
    pos = 0
    ops = []
    while True:
        if pos + OPCODE_BITS > len(bits):
            raise DecodeError("truncated code: missing END")
        op = _bits_to_int(bits[pos : pos + OPCODE_BITS])
        pos += OPCODE_BITS
        width = OPERAND_BITS[op]
        if pos + width > len(bits):
            raise DecodeError("truncated operand")
        arg = _bits_to_int(bits[pos : pos + width])
        pos += width
        ops.append((op, arg))
        if op == OP_END:
            return Program(bits[:pos], tuple(ops))


def enumerate_programs(l_max: int) -> List[Program]:
    """All valid programs with length_bits <= l_max, in lexicographic code order."""
    if l_max < 1:
        raise ValueError("l_max >= 1 required")
    # Every instruction word once: its bits and its (op, arg) pair.  END
    # comes first and the rest follow in code order, so the depth-first walk
    # below visits codes in lexicographic order.
    words = []
    for op in range(8):
        width = OPERAND_BITS[op]
        n = OPCODE_BITS + width
        for arg in range(2 ** width):
            word = (op << width) | arg
            bits = tuple((word >> (n - 1 - i)) & 1 for i in range(n))
            words.append((bits, (op, arg)))
    (end_bits, end), *words = words
    out: List[Program] = []

    def walk(code: tuple, ops: tuple) -> None:
        out.append(Program(code + end_bits, ops + (end,)))
        room = l_max - len(code) - OPCODE_BITS  # bits a word may take, END after it
        for bits, pair in words:
            if len(bits) <= room:
                walk(code + bits, ops + (pair,))

    if l_max >= OPCODE_BITS:
        walk((), ())
    return out


def kraft_sum(pool: Iterable[Program]) -> Fraction:
    return sum((p.weight for p in pool), Fraction(0))


# A machine state as an immutable, hashable value: (accumulator, sorted work
# tape items, head).  A fork shares it; a cycle returns the next one.
FrozenState = Tuple[int, tuple, int]

# A program's machine before its first cycle.
FRESH: FrozenState = (0, (), 0)


class RunBudget(Value):
    __slots__ = ("steps_per_cycle",)

    def __init__(self, steps_per_cycle: int):
        if steps_per_cycle < 1:
            raise ValueError("steps_per_cycle >= 1 required")
        set_field(self, "steps_per_cycle", steps_per_cycle)


class CycleResult(Value):
    __slots__ = ("outputs", "steps_used", "timed_out", "state")

    def __init__(
        self, outputs: tuple, steps_used: int, timed_out: bool, state: FrozenState
    ):
        set_field(self, "outputs", outputs)
        set_field(self, "steps_used", steps_used)
        set_field(self, "timed_out", timed_out)
        set_field(self, "state", state)


def run_machine(
    ops: tuple,
    state: FrozenState,
    primary_in: int,
    secondary_in: int,
    limit: int,
    max_outputs: int,
) -> Tuple[List[int], int, bool, FrozenState]:
    """The machine loop: one cycle of the program ``ops`` ((op, arg) pairs).

    Runs from pc 0 on the frozen ``state`` until END, falling off the code,
    the ``max_outputs``-th emit or ``limit`` steps.  Returns (outputs, steps
    used, timed out, next state); the outputs are not padded, and a cycle
    that times out still returns the state it reached.

    A cycle that can never halt is not spun to the limit.  A jump goes back
    at most one instruction, and only on acc == 0, so two taken back jumps
    in a row that land on the same pc have run one instruction X between
    them (or none, for ``JZ 1``).  When they also leave the head and the
    output count as they were, X acted on a state with acc == 0 in a way
    that repeating it changes nothing: a store writes the same 0, a load
    or an input read that gave 0 gives 0 again.  So the machine is back in
    the state it had one period ago, and stays in that loop; whole periods
    are added to the steps at once, and the last steps before the limit are
    run, so the steps, outputs and state at the timeout are the stepped
    ones.  A loop that moves the head never repeats its mark and is spun.
    """
    acc, items, head = state
    tape = None  # the work tape as a dict, made at the first store or load
    n = len(ops)
    pc = steps = 0
    timed_out = False
    outputs: List[int] = []
    mark = mark_steps = None  # the last taken back jump: (pc, head, outputs), steps
    while 0 <= pc < n:  # falling off the code ends the cycle as END does
        if steps >= limit:
            timed_out = True
            break
        op, arg = ops[pc]
        steps += 1
        if op == 5:  # JZ
            if acc:
                pc += 1
            elif arg > 1:
                pc += arg - 1
            else:  # a back jump, to pc - 1 or pc
                pc += arg - 1
                seen = (pc, head, len(outputs))
                if seen == mark:
                    period = steps - mark_steps
                    steps += (limit - steps) // period * period
                mark, mark_steps = seen, steps
        elif op == 0:  # END
            break
        elif op == 1:  # OUT
            outputs.append(acc)
            if len(outputs) >= max_outputs:
                break
            pc += 1
        elif op == 2:  # IN
            acc = primary_in
            pc += 1
        elif op == 3:  # INR
            acc = secondary_in
            pc += 1
        elif op == 4:  # LDC
            acc = arg
            pc += 1
        elif op == 6:  # INC
            acc += 1
            pc += 1
        else:  # MOVT
            if arg == 0:
                head -= 1
            elif arg == 1:
                head += 1
            else:
                if tape is None:
                    tape = dict(items)
                if arg == 2:
                    tape[head] = acc
                else:
                    acc = tape.get(head, 0)
            pc += 1
    if tape is not None:
        items = tuple(sorted(tape.items()))
    return outputs, steps, timed_out, (acc, items, head)


def run_cycle(
    program: Program,
    state: FrozenState,
    primary_in: int,
    secondary_in: int,
    budget: RunBudget,
    max_outputs: int = 1,
) -> CycleResult:
    """One cycle of ``program`` from ``state``; stops at END, at max_outputs
    emits, or on budget.

    Missing outputs are padded with the default symbol 0; ``timed_out`` is set
    only when the step budget ran out before the cycle finished.
    """
    outputs, steps, timed_out, state = run_machine(
        program._ops, state, primary_in, secondary_in, budget.steps_per_cycle, max_outputs
    )
    outputs += [0] * (max_outputs - len(outputs))
    return CycleResult(tuple(outputs), steps, timed_out, state)


def env_step(
    q: Program, state: FrozenState, y: Action, budget: RunBudget
) -> Optional[Tuple[int, FrozenState]]:
    """One environment cycle of q from ``state`` on action y: the output
    symbol (0 when the cycle emits none) and the next state, or None on a
    timeout.  The machine reads the action on its primary input and 0 on the
    reward channel."""
    outputs, _, timed_out, state = run_machine(
        q._ops, state, y, 0, budget.steps_per_cycle, 1
    )
    if timed_out:
        return None
    return (outputs[0] if outputs else 0), state


def env_code(ops: tuple) -> tuple:
    """The part of code ``ops`` that an environment cycle can run: up to
    and including the first ``OUT`` when no ``JZ`` comes before it, else
    all of ``ops``.  pc runs straight to that ``OUT`` and the cycle ends
    there, at its one output, so ``run_machine`` at ``max_outputs=1``
    gives equal outputs, steps, timeout and state on either code, and
    programs with equal environment codes are one environment."""
    for i, (op, _) in enumerate(ops):
        if op == OP_OUT:
            return ops[: i + 1]
        if op == OP_JZ:
            break
    return ops


def emits_once(ops: tuple) -> bool:
    """Whether code ``ops`` emits at most one output a cycle, from every
    state and on every input: it has fewer than two ``OUT`` and no ``JZ 0``.
    That is the only jump back past an instruction (``JZ 1`` stays on
    itself), so pc runs no ``OUT`` twice in a cycle.  A best-vote candidate
    of such code never emits its action, the second output, so it plays
    action 0 on every cycle."""
    return ops.count((OP_OUT, 0)) < 2 and (OP_JZ, 0) not in ops


def replay_env(
    q: Program,
    actions: Sequence[Action],
    budget: RunBudget,
    alphabet: Alphabet,
) -> Tuple[tuple, bool, Optional[FrozenState]]:
    """Percepts q produces on an action sequence; ok=False if any cycle timed
    out.  The third value is the frozen machine after them, None on a timeout."""
    s, percepts = FRESH, []
    for y in actions:
        out = env_step(q, s, y, budget)
        if out is None:
            return tuple(percepts), False, None
        percepts.append(alphabet.percept_of(out[0]))
        s = out[1]
    return tuple(percepts), True, s


def consistent_envs(
    pool: Sequence[Program],
    h: History,
    budget: RunBudget,
    alphabet: Alphabet,
) -> List[Program]:
    """Programs whose replay on h's actions reproduces h's percepts without timeout."""
    actions, expected = h.actions(), h.percepts()
    # A timed-out replay returns fewer percepts than h has.
    return [q for q in pool if replay_env(q, actions, budget, alphabet)[0] == expected]
