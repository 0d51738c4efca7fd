"""Spans around the calls into each unimix layer, recorded from outside the package.

A ``Tracer`` replaces every module binding of a traced function (and the class
attribute of a traced method) with a wrapper that records one span per call:
its name, start, end, the span it was called under, and two integers taken
from the call's arguments or result (``a``, ``b``; see ``ANNOTATE``).  Spans
stay in flat arrays in memory and are written out once, after the run.
Nothing under ``src/`` is edited; ``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

# (span name, defining module, function or Class.method)
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli.run_scenario", "unimix.cli", "run_scenario"),
    ("planner.run_interaction", "unimix.planner", "run_interaction"),
    ("planner.best_action", "unimix.planner", "best_action"),
    ("planner.value_opt", "unimix.planner", "value_opt"),
    ("models.cond_map", "unimix.models", "MixtureModel.cond_map"),
    ("models.mixture_joint", "unimix.models", "MixtureModel.joint"),
    ("models.component_joint", "unimix.models", "ProgramEnv.joint"),
    ("models.component_joint", "unimix.models", "ChronologicalModel.joint"),
    ("models.posterior", "unimix.models", "posterior"),
    ("vm.enumerate_programs", "unimix.vm", "enumerate_programs"),
    ("vm.run_cycle", "unimix.vm", "run_cycle"),
    ("vm.replay_env", "unimix.vm", "replay_env"),
    ("vm.consistent_envs", "unimix.vm", "consistent_envs"),
    ("bestvote.run_best_vote", "unimix.bestvote", "run_best_vote"),
    ("bestvote.best_vote_cycle", "unimix.bestvote", "best_vote_cycle"),
    ("bestvote.validate_claim", "unimix.bestvote", "validate_claim"),
    ("bestvote.run_candidate_cycle", "unimix.bestvote", "run_candidate_cycle"),
    # FunctionalEnv.cond_map is the only caller of the domain rules.
    ("domains.env_step", "unimix.models", "FunctionalEnv.cond_map"),
    ("domains.reward_of", "unimix.domains", "FunctionClassSpec.reward_of"),
    ("core.percept_of", "unimix.core", "Alphabet.percept_of"),
    ("core.append_cycle", "unimix.core", "append_cycle"),
)

# Per-span integers (a, b) read from a call's positional arguments and result.
ANNOTATE: Dict[str, Callable[[tuple, object], Tuple[int, int]]] = {
    "vm.run_cycle": lambda args, r: (r.steps_used, int(r.timed_out)),
    "vm.replay_env": lambda args, r: (len(args[1]), 0),
    "vm.consistent_envs": lambda args, r: (len(r), len(args[0])),
    "bestvote.validate_claim": lambda args, r: (int(bool(r)), 0),
    "bestvote.run_candidate_cycle": lambda args, r: (r.steps_used, 0),
}

ARRAYS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"), ("a", "q"), ("b", "q"))


Patch = Tuple[object, str, object]  # (holder, attribute, original value)


def rebind(original: object, replacement: object) -> List[Patch]:
    """Point every binding of ``original`` in a loaded unimix module at
    ``replacement``; ``unbind`` the returned list to undo it."""
    patches = []
    for key, mod in list(sys.modules.items()):
        if key != "unimix" and not key.startswith("unimix."):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                patches.append((mod, attr, original))
                setattr(mod, attr, replacement)
    return patches


def unbind(patches: List[Patch]) -> None:
    for holder, attr, original in reversed(patches):
        setattr(holder, attr, original)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = list(dict.fromkeys(name for name, _, _ in TARGETS))
        self.spans = {field: array(code) for field, code in ARRAYS}
        self._stack = [-1]
        self._patches: List[Patch] = []

    def install(self) -> None:
        """Wrap every target; unimix and its modules must already be imported."""
        for name, modname, path in TARGETS:
            mod = importlib.import_module(modname)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[attr]
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original))
                continue
            original = getattr(mod, path)
            self._patches += rebind(original, self._wrap(name, original))

    def restore(self) -> None:
        """Put every original binding back."""
        unbind(self._patches)
        self._patches.clear()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        code = self.names.index(name)
        annotate: Optional[Callable] = ANNOTATE.get(name)
        stack = self._stack
        s = self.spans
        names, parents, starts, ends, va, vb = (s[f] for f, _ in ARRAYS)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            va.append(0)
            vb.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if annotate is not None:
                va[sid], vb[sid] = annotate(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def write(self, path: str) -> None:
        """One JSON header line (span names, count), then each array's raw bytes."""
        with open(path, "wb") as f:
            header = {"names": self.names, "count": len(self.spans["name"])}
            f.write(json.dumps(header).encode() + b"\n")
            for field, _ in ARRAYS:
                self.spans[field].tofile(f)


def read_spans(path: str) -> Tuple[List[str], Dict[str, array]]:
    """Inverse of ``Tracer.write``."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        spans = {}
        for field, code in ARRAYS:
            spans[field] = array(code)
            spans[field].fromfile(f, header["count"])
    return header["names"], spans
