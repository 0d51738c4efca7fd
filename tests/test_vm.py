import itertools
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from unimix.core import EMPTY_HISTORY, Percept, append_cycle
from unimix.planner import ProgramStepper
from unimix.vm import (
    FRESH,
    OPERAND_BITS,
    OPCODE_BITS,
    OP_END,
    DecodeError,
    Program,
    RunBudget,
    consistent_envs,
    decode,
    enumerate_programs,
    env_code,
    kraft_sum,
    replay_env,
    run_cycle,
    run_machine,
)

from reference import MachineState, env_cycle, freeze, reference_cycle, run_machine_stepwise

END = (0, 0, 0)
OUT = (0, 0, 1)
IN = (0, 1, 0)
INR = (0, 1, 1)
INC = (1, 1, 0)


def bits(*groups):
    out = []
    for g in groups:
        out.extend(g)
    return tuple(out)


LDC = lambda c: (1, 0, 0) + tuple((c >> i) & 1 for i in (1, 0))
JZ = lambda d: (1, 0, 1) + tuple((d >> i) & 1 for i in (1, 0))
MOVT = lambda a: (1, 1, 1) + tuple((a >> i) & 1 for i in (1, 0))

ECHO = decode(bits(IN, OUT, END))          # action := last input
LOOP = decode(bits(JZ(1), END))            # 1-instruction self-loop on acc=0
CONST1 = decode(bits(LDC(1), OUT, END))


def test_decode_minimal_end_program():
    p = decode(END)
    assert p.length_bits == 3
    assert p._ops == ((OP_END, 0),)


def test_decode_consumes_only_the_valid_prefix():
    p = decode(bits(IN, OUT, END) + (1,))
    assert p.code == ECHO.code


def test_decode_truncated_code_fails():
    with pytest.raises(DecodeError):
        decode(bits(IN, OUT))  # no END
    with pytest.raises(DecodeError):
        decode((1, 0))  # not even an opcode


def test_decode_refuses_bits_that_are_not_binary():
    with pytest.raises(DecodeError, match="non-binary"):
        decode((0, 2, 0))


def test_enumeration_refuses_a_length_below_one():
    with pytest.raises(ValueError, match="l_max >= 1"):
        enumerate_programs(0)


def test_enumeration_empty_below_shortest_code():
    assert enumerate_programs(2) == []


def test_enumeration_sorted_duplicate_free_and_complete():
    """Exhaustive cross-check against decoding every bit string of length <= 12."""
    pool = enumerate_programs(12)
    codes = [p.code for p in pool]
    assert codes == sorted(codes)
    assert len(set(codes)) == len(codes)
    seen = set()
    for n in range(1, 13):
        for raw in itertools.product((0, 1), repeat=n):
            try:
                p = decode(raw)
            except DecodeError:
                continue
            if len(p.code) == n:  # count each code once, at its exact length
                seen.add(p.code)
    assert seen == set(codes)


def test_prefix_freeness_exhaustive():
    codes = [p.code for p in enumerate_programs(12)]
    for a in codes:
        for b in codes:
            if a != b:
                assert b[: len(a)] != a


@pytest.mark.parametrize("l_max", range(1, 13))
def test_kraft_inequality(l_max):
    assert kraft_sum(enumerate_programs(l_max)) <= 1


# A policy's cycle is a ProgramStepper call: it reads the previous percept
# and plays its output, or action 0 on a timeout.


def test_policy_cycle_constant_program(binary_alphabet, budget):
    act = ProgramStepper(CONST1, budget, binary_alphabet)
    assert act(EMPTY_HISTORY) == 1
    assert act.state == (1, (), 0)


def test_policy_cycle_echo_program(budget):
    from unimix.core import Alphabet

    a = Alphabet(num_actions=2, num_observations=2, rewards=(Fraction(0), Fraction(1)))
    act = ProgramStepper(ECHO, budget, a)
    h = append_cycle(EMPTY_HISTORY, 0, Percept(Fraction(0), 1))
    assert act(h) == 1
    assert act(append_cycle(h, 1, Percept(Fraction(0), 0))) == 0


def test_policy_cycle_timeout_returns_default_action(binary_alphabet, budget):
    act = ProgramStepper(LOOP, budget, binary_alphabet)
    assert act(EMPTY_HISTORY) == 0
    res = run_cycle(LOOP, FRESH, 0, 0, budget)
    assert res.timed_out and res.steps_used == budget.steps_per_cycle
    assert act.state == res.state


def test_a_policy_fork_shares_the_state_and_steps_on_its_own(binary_alphabet, budget):
    act = ProgramStepper(decode(bits(MOVT(3), INC, MOVT(2), OUT, END)), budget, binary_alphabet)
    act(EMPTY_HISTORY)  # the tape cell counts the cycles
    fork = act.fork()
    assert fork.state is act.state
    fork(EMPTY_HISTORY)
    assert (act.state, fork.state) == ((1, ((0, 1),), 0), (2, ((0, 2),), 0))


def test_env_cycle_reward_copy(binary_alphabet, budget):
    # echo copies the action into the percept symbol: y=1 -> reward 1
    x, _, _, timed_out = env_cycle(ECHO, MachineState(), 1, budget, binary_alphabet)
    assert not timed_out
    assert x == Percept(Fraction(1), 0)


def test_env_cycle_timeout_percept(binary_alphabet, budget):
    x, _, _, timed_out = env_cycle(LOOP, MachineState(), 1, budget, binary_alphabet)
    assert timed_out
    assert x == Percept(Fraction(0), 0)


def test_env_replay_is_deterministic(binary_alphabet, budget, pool8):
    actions = (1, 0, 1, 1)
    for q in pool8:
        first = replay_env(q, actions, budget, binary_alphabet)[:2]
        second = replay_env(q, actions, budget, binary_alphabet)[:2]
        assert first == second


def test_incremental_equals_from_scratch(binary_alphabet, budget, pool8):
    """Running k cycles on a persistent state matches a full replay."""
    actions = (1, 1, 0, 1)
    for q in pool8:
        s = MachineState()
        incremental = []
        for y in actions:
            x, s, _, timed_out = env_cycle(q, s, y, budget, binary_alphabet)
            if timed_out:
                break
            incremental.append(x)
        scratch, _, _ = replay_env(q, actions, budget, binary_alphabet)
        assert tuple(incremental) == scratch


def test_a_replay_ends_in_the_reference_machine_frozen(binary_alphabet, pool8):
    budget = RunBudget(6)  # some programs time out
    for actions in itertools.product((0, 1), repeat=3):
        for q in pool8:
            s, ok = MachineState(), True
            for y in actions:
                _, s, _, timed_out = env_cycle(q, s, y, budget, binary_alphabet)
                if timed_out:
                    ok = False
                    break
            _, replay_ok, frozen = replay_env(q, actions, budget, binary_alphabet)
            assert (replay_ok, frozen) == (ok, freeze(s) if ok else None)


class TestConsistentEnvs:
    def test_empty_history_keeps_the_whole_pool(self, binary_alphabet, budget, pool8):
        assert consistent_envs(pool8, EMPTY_HISTORY, budget, binary_alphabet) == pool8

    def test_truth_remains_consistent_with_its_own_history(
        self, binary_alphabet, budget, pool8
    ):
        actions = (0, 1, 1)
        for q in pool8:
            percepts, ok, _ = replay_env(q, actions, budget, binary_alphabet)
            if not ok:
                continue
            h = EMPTY_HISTORY
            for y, x in zip(actions, percepts):
                h = append_cycle(h, y, x)
            assert q in consistent_envs(pool8, h, budget, binary_alphabet)

    def test_unproducible_percept_empties_the_pool(self, budget, pool8):
        from unimix.core import Alphabet

        # observation 7 requires symbol >= 7; no 8-bit program emits one
        a = Alphabet(num_actions=2, num_observations=8, rewards=(Fraction(0), Fraction(1)))
        producible = set()
        for q in pool8:
            percepts, ok, _ = replay_env(q, (0,), budget, a)
            if ok:
                producible.add(percepts[0])
        target = Percept(Fraction(1), 7)
        assert target not in producible
        h = append_cycle(EMPTY_HISTORY, 0, target)
        assert consistent_envs(pool8, h, budget, a) == []


def test_hex_round_trip(pool8):
    for p in pool8:
        assert Program.from_hex(p.to_hex()).code == p.code


def test_hex_equals_the_bit_string_formula_on_every_program_up_to_12_bits():
    for p in enumerate_programs(12):  # fresh programs: no label made yet
        n = len(p.code)
        value = int("".join(map(str, p.code)), 2)
        assert p.to_hex() == f"{n}:{value:0{(n + 3) // 4}x}"
        back = Program.from_hex(p.to_hex())
        assert back == p and back._ops == p._ops


@given(st.integers(min_value=0, max_value=2**12 - 1), st.integers(min_value=3, max_value=12))
def test_hex_round_trip_on_arbitrary_decodable_strings(value, n):
    raw = tuple((value >> (n - 1 - i)) & 1 for i in range(n))
    try:
        p = decode(raw)
    except DecodeError:
        return
    back = Program.from_hex(p.to_hex())
    assert back == p and back._ops == p._ops



@pytest.mark.parametrize("text", ["zz", "5", "x:1f", "5:zz", "5:-1", "-3:0", "5:3f", "9:88"])
def test_malformed_hex_is_a_decode_error(text):
    # no colon, not numbers, a negative count or value, more bits than n,
    # fewer hex digits than n bits need
    with pytest.raises(DecodeError, match="bad program"):
        Program.from_hex(text)

def test_disassembler_mentions_every_instruction():
    text = decode(bits(LDC(3), JZ(2), OUT, END)).disassemble()
    for mnemonic in ("LDC 3", "JZ 2", "OUT", "END"):
        assert mnemonic in text


def test_step_accounting_is_replay_stable(binary_alphabet, budget):
    r1 = run_cycle(ECHO, FRESH, 1, 0, budget)
    r2 = run_cycle(ECHO, FRESH, 1, 0, budget)
    assert r1 == r2


def reference_enumeration(l_max):
    """The enumeration as it was first written: lists per word, then a sort."""
    out = []

    def walk(code, ops):
        for op in range(8):
            width = OPERAND_BITS[op]
            if len(code) + OPCODE_BITS + width > l_max:
                continue
            op_bits = [(op >> (OPCODE_BITS - 1 - i)) & 1 for i in range(OPCODE_BITS)]
            for arg in range(2 ** width):
                arg_bits = [(arg >> (width - 1 - i)) & 1 for i in range(width)]
                new_code = code + op_bits + arg_bits
                new_ops = ops + [(op, arg)]
                if op == OP_END:
                    out.append((tuple(new_code), tuple(new_ops)))
                else:
                    walk(new_code, new_ops)

    walk([], [])
    out.sort()
    return out


@pytest.mark.parametrize("l_max", range(1, 15))
def test_enumeration_equals_the_reference(l_max):
    pool = enumerate_programs(l_max)
    assert [(p.code, p._ops) for p in pool] == reference_enumeration(l_max)
    # The two constructors agree: decoding a program's code gives its pairs.
    assert all(decode(p.code)._ops == p._ops for p in pool)


# Loops that run until the budget on acc = 0: a self-loop, a loop through IN
# (on input 0), a loop whose head drifts, and a loop entered at its jump that
# emits once a lap (until max_outputs).
HAND_LOOPS = [
    decode(bits(JZ(1), END)),
    decode(bits(IN, JZ(0), END)),
    decode(bits(MOVT(1), JZ(0), END)),
    decode(bits(JZ(3), OUT, JZ(0), END)),
]
POOL12 = enumerate_programs(12)
SMALL = st.integers(0, 3)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(st.sampled_from(HAND_LOOPS), st.sampled_from(POOL12)),
    st.integers(1, 300),
    SMALL,
    SMALL,
    st.one_of(st.just(0), SMALL),
    st.dictionaries(st.integers(-3, 3), SMALL, max_size=4),
    st.integers(-3, 3),
    st.integers(1, 2),
)
def test_a_cycle_equals_the_stepped_reference(
    q, steps, primary_in, secondary_in, acc, tape, head, max_outputs
):
    budget = RunBudget(steps)
    ref = MachineState(acc, tape, head)
    res = run_cycle(q, freeze(ref), primary_in, secondary_in, budget, max_outputs)
    expected = reference_cycle(q, ref, primary_in, secondary_in, budget, max_outputs)
    assert (res.outputs, res.steps_used, res.timed_out, res.state) == (*expected, freeze(ref))


# Loops a cycle can be caught in for good: a JZ 1 alone, or one instruction
# and a JZ 0 that leaves acc at 0, and one that moves the head each time
# round (MOVT 0) and so never repeats a state.  The last two halt: one
# emits in its loop, which ends at the second emit, and one takes two back
# jumps that land on different pcs, each time jumping on past its loop.
SPINS = [
    decode(bits(JZ(1), END)),
    decode(bits(IN, JZ(0), END)),
    decode(bits(LDC(0), JZ(0), END)),
    decode(bits(MOVT(2), JZ(0), END)),
    decode(bits(MOVT(3), JZ(0), END)),
    decode(bits(MOVT(0), JZ(0), END)),
    decode(bits(JZ(3), OUT, JZ(0), END)),
    decode(bits(JZ(3), JZ(3), JZ(0), JZ(3), JZ(3), JZ(0), END)),
]
# Any bit string of up to 16 bits, with zeros after it so that it decodes.
CODES = st.lists(st.integers(0, 1), max_size=16).map(lambda b: decode(tuple(b) + (0,) * 8))


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(st.sampled_from(SPINS), CODES),
    st.integers(1, 4096),
    SMALL,
    SMALL,
    st.one_of(st.just(0), SMALL),
    st.dictionaries(st.integers(-3, 3), SMALL, max_size=4),
    st.integers(-3, 3),
    st.integers(1, 2),
)
def test_the_machine_loop_equals_the_stepwise_loop(
    q, limit, primary_in, secondary_in, acc, tape, head, max_outputs
):
    state = (acc, tuple(sorted(tape.items())), head)
    args = (q._ops, state, primary_in, secondary_in, limit, max_outputs)
    assert run_machine(*args) == run_machine_stepwise(*args)


def test_a_cycle_that_never_halts_costs_no_more_than_its_first_loops():
    # Stepped, 10**7 steps take seconds; skipped, two are run.
    start = time.perf_counter()
    outputs, steps, timed_out, state = run_machine(LOOP._ops, FRESH, 0, 0, 10**7, 1)
    assert time.perf_counter() - start < 0.5
    assert (outputs, steps, timed_out, state) == ([], 10**7, True, FRESH)


POOL16 = enumerate_programs(16)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 40),
    SMALL,
    SMALL,
    st.one_of(st.just(0), SMALL),
    st.dictionaries(st.integers(-3, 3), SMALL, max_size=4),
    st.integers(-3, 3),
)
def test_an_environment_cycle_runs_the_same_on_the_environment_code(
    limit, primary_in, secondary_in, acc, tape, head
):
    # Every program of up to 16 bits: an environment cycle (one output)
    # gives equal outputs, steps, timeout and state on either code.
    state = (acc, tuple(sorted(tape.items())), head)
    for q in POOL16:
        code = env_code(q._ops)
        assert run_machine(code, state, primary_in, secondary_in, limit, 1) == run_machine(
            q._ops, state, primary_in, secondary_in, limit, 1
        ), q.disassemble()


@pytest.mark.parametrize(
    "program, kept",
    [
        (bits(OUT, IN, END), 1),  # the IN after the output never runs
        (bits(IN, OUT, END), 2),
        (bits(INC, OUT, OUT, END), 2),
        (bits(INC, END), 2),  # no output: all of it
        (bits(JZ(3), OUT, OUT, END), 4),  # the JZ can skip the first OUT
        (bits(OUT, JZ(3), OUT, END), 1),
    ],
)
def test_the_environment_code_ends_at_the_first_output_no_jump_can_skip(program, kept):
    q = decode(program)
    assert env_code(q._ops) == q._ops[:kept]
