"""`unimix run` reproduces the pinned artifacts of the benchmark workloads.

perfbench/pins.json holds the sha256 of each workload config's artifacts;
the configs here are written the way perfbench/run.py writes them.  The
test only reads the pins.  ``PATH_PINS`` holds, in this file, the digests of
run paths the workloads do not take.
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


def run_digests(text, tmp_path):
    """The sha256 of each artifact `unimix run` writes for config text."""
    config = tmp_path / "config.txt"
    config.write_text(text)
    out = tmp_path / "out"
    assert main(["run", "--config", str(config), "--out", str(out)]) == EXIT_OK
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
        if (out / name).exists()
    }


@pytest.mark.parametrize("workload,lifetime,config_seed", CASES, ids=IDS)
def test_artifacts_match_the_pinned_digests(workload, lifetime, config_seed, tmp_path, capsys):
    got = run_digests(config_text(workload, lifetime, config_seed), tmp_path)
    pins = json.loads(PINS.read_text())
    assert got == pins[f"{workload}/lifetime={lifetime}"][str(config_seed)]


# Run paths off the benchmark's workloads, pinned the same way: the mixture
# on moving, proportional and geometric horizons, best vote on many-action
# and horizon-bound worlds, and both on the workloads' worlds at the largest
# step budget (where a program stuck in a loop would spin longest) and at
# t=3 (which a two-step loop's period does not divide), each at config
# seeds 0 and 1.
PATH_CONFIGS = {
    "mixture-heavenhell-moving1": "scenario=heavenhell\nagent=mixture\nl=12\nlifetime=16\nhorizon=moving:1\ni=0\n",
    "mixture-heavenhell-moving6": "scenario=heavenhell\nagent=mixture\nl=12\nlifetime=16\nhorizon=moving:6\ni=1\n",
    "mixture-heavenhell-proportional": "scenario=heavenhell\nagent=mixture\nl=12\nlifetime=16\nhorizon=proportional:1/2\ni=0\n",
    "mixture-heavenhell-geometric": "scenario=heavenhell\nagent=mixture\nl=12\nlifetime=12\nhorizon=geometric:1/2:4\ni=0\n",
    "mixture-onlyone16-moving1": "scenario=onlyone\nagent=mixture\nl=12\nlifetime=16\nhorizon=moving:1\nn=16\n",
    "mixture-lazy-moving3": "scenario=lazy\nagent=mixture\nl=12\nlifetime=16\nhorizon=moving:3\n",
    "bestvote-onlyone16": "scenario=onlyone\nagent=best-vote\nl=12\nlifetime=8\nn=16\n",
    "bestvote-onlyone256": "scenario=onlyone\nagent=best-vote\nl=12\nlifetime=4\nn=256\n",
    "bestvote-lazy": "scenario=lazy\nagent=best-vote\nl=12\nlifetime=8\n",
    "bestvote-heavenhell-moving2": "scenario=heavenhell\nagent=best-vote\nl=12\nlifetime=8\nhorizon=moving:2\ni=1\n",
    "bestvote-heavenhell-t4096": "scenario=heavenhell\nagent=best-vote\nl=11\nlifetime=2\nt=4096\ni=0\n",
    "bestvote-heavenhell-t3": "scenario=heavenhell\nagent=best-vote\nl=11\nlifetime=2\nt=3\ni=1\n",
    "mixture-heavenhell-t4096": "scenario=heavenhell\nagent=mixture\nl=12\nlifetime=3\nt=4096\ni=0\n",
    "mixture-heavenhell-t3": "scenario=heavenhell\nagent=mixture\nl=12\nlifetime=3\nt=3\ni=1\n",
}

# config -> seed -> artifact -> sha256
PATH_PINS = {
    "bestvote-heavenhell-moving2": {
        0: {
            "trace.csv": "9b34a36777fde9882cb376a6a15ff5bee33168963c0b284c69f938a087a93e5b",
            "results.txt": "3e249ab3d96eecf327489a3a790621ff7552364ed124458993900e7b12326e2e",
            "selection.csv": "b00c9e3351cd6ec7b738ff8307372692ddd16888dbae76fce11e20977587c5e2",
        },
        1: {
            "trace.csv": "9b34a36777fde9882cb376a6a15ff5bee33168963c0b284c69f938a087a93e5b",
            "results.txt": "3e249ab3d96eecf327489a3a790621ff7552364ed124458993900e7b12326e2e",
            "selection.csv": "b00c9e3351cd6ec7b738ff8307372692ddd16888dbae76fce11e20977587c5e2",
        },
    },
    "bestvote-heavenhell-t3": {
        0: {
            "trace.csv": "6f1f32e120fd81950dad964fe9c1eb8d4a8ab434944e1d0109eefe2e32d8efdc",
            "results.txt": "27b18d7378c9aa1240965d3df29655dfe2388c58225cbcbc19da02ea900b7c5c",
            "selection.csv": "320ff34a9a0966bb19b0c209e1e6debe92ed86b430dbb4fa74be902f5bc0e5dc",
        },
        1: {
            "trace.csv": "6f1f32e120fd81950dad964fe9c1eb8d4a8ab434944e1d0109eefe2e32d8efdc",
            "results.txt": "27b18d7378c9aa1240965d3df29655dfe2388c58225cbcbc19da02ea900b7c5c",
            "selection.csv": "320ff34a9a0966bb19b0c209e1e6debe92ed86b430dbb4fa74be902f5bc0e5dc",
        },
    },
    "bestvote-heavenhell-t4096": {
        0: {
            "trace.csv": "21f403083213313fa05ffdfa23f27308d6323380505e130380af1878f4a6dd63",
            "results.txt": "578f7278022846d13dd7f9291a4c21f25fe1fc0a7a7d3f4576562db114355a2f",
            "selection.csv": "39ab30213b580ea897c8996d1852b6dd047827937c743d62486cec39dc89a512",
        },
        1: {
            "trace.csv": "21f403083213313fa05ffdfa23f27308d6323380505e130380af1878f4a6dd63",
            "results.txt": "578f7278022846d13dd7f9291a4c21f25fe1fc0a7a7d3f4576562db114355a2f",
            "selection.csv": "39ab30213b580ea897c8996d1852b6dd047827937c743d62486cec39dc89a512",
        },
    },
    "bestvote-lazy": {
        0: {
            "trace.csv": "9b34a36777fde9882cb376a6a15ff5bee33168963c0b284c69f938a087a93e5b",
            "results.txt": "df44083fb27737cc3fd9188bfb65420696e01fd9ae2da31737b7bdcb37da9d3a",
            "selection.csv": "b00c9e3351cd6ec7b738ff8307372692ddd16888dbae76fce11e20977587c5e2",
        },
        1: {
            "trace.csv": "9b34a36777fde9882cb376a6a15ff5bee33168963c0b284c69f938a087a93e5b",
            "results.txt": "df44083fb27737cc3fd9188bfb65420696e01fd9ae2da31737b7bdcb37da9d3a",
            "selection.csv": "b00c9e3351cd6ec7b738ff8307372692ddd16888dbae76fce11e20977587c5e2",
        },
    },
    "bestvote-onlyone16": {
        0: {
            "trace.csv": "eb8e3a428641a0530490d7f8b907ca04cb9feb5627fa857fd0ae9f587ff5f384",
            "results.txt": "7be929facc272747d1821954cd63d33ac87332ab51dc1335a58c246a0973b0a5",
            "selection.csv": "ec2094854a52671d399f10440002bdbef9803cea959d6726c4beb6506dbc8085",
        },
        1: {
            "trace.csv": "eb8e3a428641a0530490d7f8b907ca04cb9feb5627fa857fd0ae9f587ff5f384",
            "results.txt": "7be929facc272747d1821954cd63d33ac87332ab51dc1335a58c246a0973b0a5",
            "selection.csv": "ec2094854a52671d399f10440002bdbef9803cea959d6726c4beb6506dbc8085",
        },
    },
    "bestvote-onlyone256": {
        0: {
            "trace.csv": "5e9fc2fbd4fb07636635c46ea6fe1dd169b8aa89890a3fafa5a9eb868a311a54",
            "results.txt": "ba19efeb618bc9e449b2d95d97873b2dc4c26e4fd4b7551626522b579973b64a",
            "selection.csv": "85557cf9ac58f72f8a6e4ea47b79c8a31912f43442dc4a58aae2885786e2bfa0",
        },
        1: {
            "trace.csv": "5e9fc2fbd4fb07636635c46ea6fe1dd169b8aa89890a3fafa5a9eb868a311a54",
            "results.txt": "ba19efeb618bc9e449b2d95d97873b2dc4c26e4fd4b7551626522b579973b64a",
            "selection.csv": "85557cf9ac58f72f8a6e4ea47b79c8a31912f43442dc4a58aae2885786e2bfa0",
        },
    },
    "mixture-heavenhell-geometric": {
        0: {
            "trace.csv": "9d8f5ac29b912f7d6dfe7884a20b6e436d450222348ddd173c68a7c7289c495e",
            "results.txt": "994201853957aad39185c7d9f6cf1f372b74851c72ec4d481b07ff34d6858905",
        },
        1: {
            "trace.csv": "9d8f5ac29b912f7d6dfe7884a20b6e436d450222348ddd173c68a7c7289c495e",
            "results.txt": "994201853957aad39185c7d9f6cf1f372b74851c72ec4d481b07ff34d6858905",
        },
    },
    "mixture-heavenhell-t3": {
        0: {
            "trace.csv": "c966a66f65dd8923b9ecff4dc3cb8c36d40a84230b79dd6115ad53b1feff7fc5",
            "results.txt": "81d94b343e082aa4a4e6df4d9d755a68a926e9407e86664197d20ad8433293dd",
        },
        1: {
            "trace.csv": "c966a66f65dd8923b9ecff4dc3cb8c36d40a84230b79dd6115ad53b1feff7fc5",
            "results.txt": "81d94b343e082aa4a4e6df4d9d755a68a926e9407e86664197d20ad8433293dd",
        },
    },
    "mixture-heavenhell-t4096": {
        0: {
            "trace.csv": "a8540ec1eeec925b85003492ccbd625885c16c837ed2b17b4ea4bddd447adc3e",
            "results.txt": "76456b7db2628553c4232d31596e4525edd2ce0dc3480811b4467cb0a1afa92a",
        },
        1: {
            "trace.csv": "a8540ec1eeec925b85003492ccbd625885c16c837ed2b17b4ea4bddd447adc3e",
            "results.txt": "76456b7db2628553c4232d31596e4525edd2ce0dc3480811b4467cb0a1afa92a",
        },
    },
    "mixture-heavenhell-moving1": {
        0: {
            "trace.csv": "a0f40a027c2a0f2295aaea5248034dfaac54a25ab2fe5e711cebabe4847fa887",
            "results.txt": "17ed759ace9cba4b71b5d3538c698922c7f51faadba82c61cee20338c4f1fe00",
        },
        1: {
            "trace.csv": "a0f40a027c2a0f2295aaea5248034dfaac54a25ab2fe5e711cebabe4847fa887",
            "results.txt": "17ed759ace9cba4b71b5d3538c698922c7f51faadba82c61cee20338c4f1fe00",
        },
    },
    "mixture-heavenhell-moving6": {
        0: {
            "trace.csv": "15a97e9a8f90b8ead7561384b2ca5189547b2c4a62b1b3dcc752827c6db0c981",
            "results.txt": "317eb66ea31da07eaf30707d0170b90adfd6671d2ba21a7d761c5cf5f9323274",
        },
        1: {
            "trace.csv": "15a97e9a8f90b8ead7561384b2ca5189547b2c4a62b1b3dcc752827c6db0c981",
            "results.txt": "317eb66ea31da07eaf30707d0170b90adfd6671d2ba21a7d761c5cf5f9323274",
        },
    },
    "mixture-heavenhell-proportional": {
        0: {
            "trace.csv": "a0f40a027c2a0f2295aaea5248034dfaac54a25ab2fe5e711cebabe4847fa887",
            "results.txt": "17ed759ace9cba4b71b5d3538c698922c7f51faadba82c61cee20338c4f1fe00",
        },
        1: {
            "trace.csv": "a0f40a027c2a0f2295aaea5248034dfaac54a25ab2fe5e711cebabe4847fa887",
            "results.txt": "17ed759ace9cba4b71b5d3538c698922c7f51faadba82c61cee20338c4f1fe00",
        },
    },
    "mixture-lazy-moving3": {
        0: {
            "trace.csv": "7f16b2059c1376914eeed879acd1d1914bb41a3ca801f98252096c9250079a3e",
            "results.txt": "3a73a67cdf3eb31e05ca06527800475753baf07b8ddefd3fa50ed3158fb923b1",
        },
        1: {
            "trace.csv": "7f16b2059c1376914eeed879acd1d1914bb41a3ca801f98252096c9250079a3e",
            "results.txt": "3a73a67cdf3eb31e05ca06527800475753baf07b8ddefd3fa50ed3158fb923b1",
        },
    },
    "mixture-onlyone16-moving1": {
        0: {
            "trace.csv": "94fd051ca1dc174378b5ce2749a782f36abe6d80cb08bc87595ae8d574df3c1f",
            "results.txt": "49964c4ccde1924637c4ddb4df49f2d828502132408e9a3c02d53f0ef24bc842",
        },
        1: {
            "trace.csv": "94fd051ca1dc174378b5ce2749a782f36abe6d80cb08bc87595ae8d574df3c1f",
            "results.txt": "49964c4ccde1924637c4ddb4df49f2d828502132408e9a3c02d53f0ef24bc842",
        },
    },
}


@pytest.mark.parametrize("name", sorted(PATH_CONFIGS))
@pytest.mark.parametrize("seed", (0, 1))
def test_run_paths_off_the_workloads_match_their_pinned_digests(name, seed, tmp_path, capsys):
    text = PATH_CONFIGS[name] + f"seed={seed}\n"
    assert run_digests(text, tmp_path) == PATH_PINS[name][seed]
