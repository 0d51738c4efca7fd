"""Every function the benchmark's tracer (``perfbench/tracer.py``) wraps
still exists where the tracer looks it up, and every annotation the tracer
reads off a call still reads the real result of that call, so renaming or
deleting one, or changing what it returns, fails here instead of silently
reading 0 in a per-layer metric or failing a traced benchmark round."""

import importlib
import importlib.util
from array import array
from pathlib import Path

import pytest

from unimix.bestvote import ExtendedCandidate, run_candidate_cycle, validate_claim
from unimix.core import EMPTY_HISTORY, Alphabet, append_cycle
from unimix.vm import FRESH, RunBudget, consistent_envs, decode, replay_env, run_cycle

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _load_tracer().TARGETS


@pytest.mark.parametrize(
    "name, module_name, path", TARGETS, ids=[f"{m}.{p}" for _, m, p in TARGETS]
)
def test_every_tracer_target_resolves(name, module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:  # a method, looked up in its class's own namespace
        cls_name, attr = path.split(".")
        target = vars(getattr(module, cls_name)).get(attr)
    else:
        target = getattr(module, path, None)
    assert callable(target), f"{name}: {module_name}.{path} is gone"


# --- Every annotation reads a real result ------------------------------------

ANNOTATE = _load_tracer().ANNOTATE

A = Alphabet()
BUDGET = RunBudget(3)
SILENT = decode((0, 0, 0))  # END: claims (0, 0); as an environment, pays 0
BRAGGART = decode((1, 0, 0, 0, 1) + (0, 0, 1) * 2 + (0, 0, 0))  # LDC 1 OUT OUT END
SPINNER = decode((1, 0, 1, 0, 1, 0, 0, 0))  # JZ 1 END: loops on acc 0
H1 = append_cycle(EMPTY_HISTORY, 0, A.percepts()[0])  # action 0, reward 0


def _candidate_claim(p):
    return run_candidate_cycle(ExtendedCandidate.from_program(p), EMPTY_HISTORY, BUDGET, A)


def _validity(p):
    c = ExtendedCandidate.from_program(p)
    claim = run_candidate_cycle(c, EMPTY_HISTORY, BUDGET, A)
    return validate_claim(c, claim, EMPTY_HISTORY, [SILENT], BUDGET, A, 1)


# span name -> [(positional arguments, call, the (a, b) the tracer records)]
CALLS = {
    "vm.run_cycle": [
        ((BRAGGART, FRESH, 0, 0, BUDGET, 2), run_cycle, (3, 0)),
        ((SPINNER, FRESH, 0, 0, BUDGET, 2), run_cycle, (3, 1)),
    ],
    "vm.replay_env": [((BRAGGART, (0, 1), BUDGET, A), replay_env, (2, 0))],
    "vm.consistent_envs": [(([SILENT, BRAGGART], H1, BUDGET, A), consistent_envs, (1, 2))],
    "bestvote.run_candidate_cycle": [
        ((BRAGGART,), _candidate_claim, (3, 0)),
        ((SPINNER,), _candidate_claim, (3, 0)),
    ],
    # a claim of 0 is valid, and a claim of 1 where every environment pays 0 is not
    "bestvote.validate_claim": [((SILENT,), _validity, (1, 0)), ((BRAGGART,), _validity, (0, 0))],
}


def test_every_annotation_has_a_real_call():
    assert set(CALLS) == set(ANNOTATE)


@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_annotation_reads_the_real_result_of_its_call(name):
    """The tracer's (a, b) for a span come from its call's arguments and
    result; a result that no longer has what an annotation reads fails here,
    not only in a traced benchmark round."""
    for args, call, expected in CALLS[name]:
        got = ANNOTATE[name](args, call(*args))
        assert got == expected
        array("q", got)  # the tracer stores them as 64-bit ints
