"""Per-layer metrics from the spans of traced runs (see tracer.py)."""

from __future__ import annotations

from collections import Counter, defaultdict
from statistics import median
from typing import Dict, Iterable, List

from tracer import ARRAYS, read_spans

PLANNER = ("planner.best_action", "planner.value_opt")
MODEL_COND_MAP = ("models.cond_map", "domains.env_step")
INTERACT = ("planner.run_interaction", "bestvote.run_best_vote")


def _ratio(num: float, den: float) -> float:
    """num / den, and 0 when nothing was attempted (den == 0)."""
    return num / den if den else 0.0


def layer_metrics(span_files: Iterable[str]) -> Dict[str, float]:
    """Totals over all the given span files.

    A span's time counts toward its name's total unless its parent has the
    same name, so direct recursion is not counted twice.
    """
    calls: Counter = Counter()
    secs: Dict[str, float] = defaultdict(float)
    sum_a: Counter = Counter()
    sum_b: Counter = Counter()
    durations: Dict[str, List[float]] = {"planner.best_action": [], "bestvote.best_vote_cycle": []}
    expansions = 0
    planner_model_s = 0.0
    interact_s = 0.0
    joint_misses = 0
    for path in span_files:
        names, spans = read_spans(path)
        code = {n: i for i, n in enumerate(names)}
        planner = {code[n] for n in PLANNER}
        model_cond_map = {code[n] for n in MODEL_COND_MAP}
        interact = {code[n] for n in INTERACT}
        run_scenario = code["cli.run_scenario"]
        mixture_joint = code["models.mixture_joint"]
        component_joint = code["models.component_joint"]
        timed = {code[n]: durations[n] for n in durations}

        n = len(names)
        cnt, tot, sa, sb = [0] * n, [0.0] * n, [0] * n, [0] * n
        missed = set()
        codes = spans["name"]
        for c, p, t0, t1, a, b in zip(*(spans[f] for f, _ in ARRAYS)):
            d = t1 - t0
            cnt[c] += 1
            sa[c] += a
            sb[c] += b
            pc = codes[p] if p >= 0 else -1
            if pc != c:
                tot[c] += d
            if c in model_cond_map and pc in planner:
                expansions += 1
                planner_model_s += d
            elif c == component_joint and pc == mixture_joint:
                missed.add(p)
            elif c in interact and pc == run_scenario:
                interact_s += d
            if c in timed:
                timed[c].append(d)
        joint_misses += len(missed)
        for i, name in enumerate(names):
            calls[name] += cnt[i]
            secs[name] += tot[i]
            sum_a[name] += sa[i]
            sum_b[name] += sb[i]

    decide = durations["planner.best_action"]
    cycle = durations["bestvote.best_vote_cycle"]
    mixture_joints = calls["models.mixture_joint"]
    return {
        "cli.interact_s": interact_s,
        "cli.annotate_s": secs["cli.run_scenario"] - interact_s,
        "planner.best_action.calls": calls["planner.best_action"],
        "planner.decide_s.p50": median(decide) if decide else 0.0,
        "planner.decide_s.max": max(decide, default=0.0),
        "planner.expansions": expansions,
        "planner.self_s": sum(secs[n] for n in PLANNER) - planner_model_s,
        "models.cond_map.calls": calls["models.cond_map"],
        "models.cond_map.s": secs["models.cond_map"],
        "models.mixture_joint.calls": mixture_joints,
        "models.component_joint.calls": calls["models.component_joint"],
        "models.joint_cache_hit_ratio": _ratio(mixture_joints - joint_misses, mixture_joints),
        "models.posterior.s": secs["models.posterior"],
        "vm.run_cycle.calls": calls["vm.run_cycle"],
        "vm.run_cycle.s": secs["vm.run_cycle"],
        "vm.steps": sum_a["vm.run_cycle"],
        "vm.timeouts": sum_b["vm.run_cycle"],
        "vm.replay_env.calls": calls["vm.replay_env"],
        "vm.replayed_cycles": sum_a["vm.replay_env"],
        "vm.consistent_envs.calls": calls["vm.consistent_envs"],
        "vm.consistent_envs.kept_ratio": _ratio(sum_a["vm.consistent_envs"], sum_b["vm.consistent_envs"]),
        "vm.enumerate_programs.s": secs["vm.enumerate_programs"],
        "bestvote.cycle_s.p50": median(cycle) if cycle else 0.0,
        "bestvote.cycle_s.max": max(cycle, default=0.0),
        "bestvote.validate_claim.calls": calls["bestvote.validate_claim"],
        "bestvote.validate_claim.s": secs["bestvote.validate_claim"],
        "bestvote.valid_ratio": _ratio(sum_a["bestvote.validate_claim"], calls["bestvote.validate_claim"]),
        "bestvote.candidate_steps": sum_a["bestvote.run_candidate_cycle"],
        "domains.env_step.calls": calls["domains.env_step"],
        "domains.env_step.s": secs["domains.env_step"],
        "domains.reward_of.calls": calls["domains.reward_of"],
        "core.percept_of.calls": calls["core.percept_of"],
        "core.percept_of.s": secs["core.percept_of"],
        "core.append_cycle.calls": calls["core.append_cycle"],
    }
