"""`unimix run` reproduces the pinned artifacts of the benchmark workloads.

perfbench/pins.json holds the sha256 of each workload config's artifacts;
the configs here are written the way perfbench/run.py writes them.  The
test only reads the pins.
"""

import hashlib
import json
from pathlib import Path

import pytest

from unimix.cli import EXIT_OK, main

PINS = Path(__file__).resolve().parents[1] / "perfbench" / "pins.json"
LIFETIME = 2  # the self-test's lifetime
ARTIFACTS = ("trace.csv", "results.txt", "selection.csv")

# workload -> (config without lifetime and seed, heavenhell world from the seed)
WORKLOADS = {
    "mixture-heavenhell": ("scenario=heavenhell\nagent=mixture\nl=12\n", True),
    "informed-fm": ("scenario=fm\nagent=informed\nclass=uniform16\n", False),
    "bestvote-heavenhell": ("scenario=heavenhell\nagent=best-vote\nl=11\n", True),
    "informed-heavenhell": ("scenario=heavenhell\nagent=informed\n", True),
}


# The planner workloads' lifetimes in the benchmark, where a decision's
# memo answers the decisions of many later cycles.
BENCHMARK_LIFETIMES = {
    "mixture-heavenhell": 3,
    "informed-fm": 3,
    "informed-heavenhell": 12,
}


def config_text(workload: str, lifetime: int, config_seed: int) -> str:
    base, worlds = WORKLOADS[workload]
    text = f"{base}lifetime={lifetime}\nseed={config_seed}\n"
    if worlds:
        text += f"i={config_seed % 2}\n"
    return text


# Best vote and informed fm are cheap enough to check every pinned config
# seed; the others check the self-test's round, and config seeds 0-7 at their
# benchmark lifetime.
SEEDS = {w: range(64) if w == "bestvote-heavenhell" else (0, 1) for w in WORKLOADS}
BENCHMARK_SEEDS = {w: range(64) if w == "informed-fm" else range(8) for w in BENCHMARK_LIFETIMES}
CASES = [(w, LIFETIME, s) for w in sorted(WORKLOADS) for s in SEEDS[w]] + [
    (w, life, s) for w, life in sorted(BENCHMARK_LIFETIMES.items()) for s in BENCHMARK_SEEDS[w]
]
IDS = [f"{w}-{s}" if life == LIFETIME else f"{w}-lifetime{life}-{s}" for w, life, s in CASES]


@pytest.mark.parametrize("workload,lifetime,config_seed", CASES, ids=IDS)
def test_artifacts_match_the_pinned_digests(workload, lifetime, config_seed, tmp_path, capsys):
    config = tmp_path / "config.txt"
    config.write_text(config_text(workload, lifetime, config_seed))
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
        if (out / name).exists()
    }
    pins = json.loads(PINS.read_text())
    assert got == pins[f"{workload}/lifetime={lifetime}"][str(config_seed)]
