#!/usr/bin/env python3
"""The unimix benchmark: `unimix run` on four workloads, as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run it from the root of a checkout; unimix is imported from ./src.  One
client starts one single-threaded run process at a time and waits for it.

The seed picks a round of two configs, config seeds 2N and 2N+1 (mod 64);
for heavenhell each config also gets the world i = config seed mod 2, so a
round holds both worlds.  Rounds repeat until --seconds is spent.  Every run
is a fresh process (child.py) and must write artifacts whose sha256 equals
the digest pinned for its config in pins.json; a run that exits nonzero,
raises, passes the wall cap or writes other bytes counts as failed.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, with each run's
times scaled to a reference machine speed (REFERENCE_CALIBRATION_S).  --trace 1
alternates traced and untraced rounds and prints the per-layer metrics,
each a total over one round; the counts must repeat exactly from round to
round.  --workload all runs every workload in both modes.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean, median
from typing import Dict, List, Optional, Sequence, Tuple

from layers import layer_metrics

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
PIN_FILE = HERE / "pins.json"
PIN_SEEDS = 64  # config seeds 0..63 have pinned digests
CONFIGS_PER_ROUND = 2
RUN_CAP_S = 40.0  # a run still going after this is killed and counted as failed
DEADLINE_S = 170.0  # no run may pass this point of the invocation
ARTIFACTS = ("trace.csv", "results.txt", "selection.csv")
# Times are reported at the speed of a machine on which child.calibrate()
# takes this long.  On a shared 2-vCPU Xeon virtual machine the calibration
# took either about 3.5 ms or about 6 ms, switching from one run to the next;
# scaling each run's times by its own calibrations keeps that out of the figures.
REFERENCE_CALIBRATION_S = 0.005

# name -> (config without lifetime/seed/world, lifetime, heavenhell world from seed)
WORKLOADS: Dict[str, Tuple[str, int, bool]] = {
    "mixture-heavenhell": ("scenario=heavenhell\nagent=mixture\nl=12\n", 3, True),
    "informed-fm": ("scenario=fm\nagent=informed\nclass=uniform16\n", 3, False),
    "bestvote-heavenhell": ("scenario=heavenhell\nagent=best-vote\nl=11\n", 2, True),
    "informed-heavenhell": ("scenario=heavenhell\nagent=informed\n", 12, True),
}


def config_text(workload: str, lifetime: int, config_seed: int) -> str:
    base, _, worlds = WORKLOADS[workload]
    text = f"{base}lifetime={lifetime}\nseed={config_seed}\n"
    if worlds:
        text += f"i={config_seed % 2}\n"
    return text


def round_seeds(seed: int) -> List[int]:
    return [(CONFIGS_PER_ROUND * seed + j) % PIN_SEEDS for j in range(CONFIGS_PER_ROUND)]


def pin_key(workload: str, lifetime: int) -> str:
    return f"{workload}/lifetime={lifetime}"


def digests(out: Path) -> Dict[str, str]:
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ARTIFACTS
        if (out / name).exists()
    }


def check_artifacts(out: Path, pin: Optional[Dict[str, str]]) -> str:
    """'' when the artifacts match the pinned digests, else what differs."""
    if pin is None:
        return "no pinned digests for this config"
    got = digests(out)
    bad = sorted(n for n in set(pin) | set(got) if pin.get(n) != got.get(n))
    return f"artifacts differ from the pinned digests: {', '.join(bad)}" if bad else ""


@dataclass
class Run:
    error: str  # '' when the run passed
    setup_s: float = 0.0  # at reference speed
    run_s: float = 0.0  # at reference speed
    peak_rss_mb: float = 0.0
    wall_run_s: float = 0.0


def execute(config: Path, out: Path, spans: Optional[Path], deadline: float) -> Run:
    """One run in a fresh child process, killed at the wall cap or the deadline."""
    shutil.rmtree(out, ignore_errors=True)
    result = out.with_suffix(".json")
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--config", str(config),
           "--out", str(out), "--result", str(result)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    cap = min(RUN_CAP_S, deadline - time.perf_counter())
    if cap <= 0:
        return Run("not started: the invocation deadline has passed")
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=cap)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Run(f"killed at the wall cap of {cap:.1f} s")
    if proc.returncode != 0:
        return Run(f"exit code {proc.returncode}: {err.decode(errors='replace').strip()[-400:]}")
    r = json.loads(result.read_text())
    setup_s = r["t_ready"] - t_spawn - r["calibration_total_s"]
    run_s = r["t_end"] - r["t_ready"]
    # Set-up follows the first calibration; the run lies between both.
    setup_speed = REFERENCE_CALIBRATION_S / r["calibration_s"]
    run_speed = REFERENCE_CALIBRATION_S / mean((r["calibration_s"], r["calibration_after_s"]))
    return Run("", setup_s * setup_speed, run_s * run_speed, r["peak_rss_mb"], run_s)


@dataclass
class Result:
    runs: List[Run]
    metrics: Dict[str, float]
    notes: List[str]  # human-readable lines: sample counts, spreads
    exact: bool = True  # counts repeated exactly between traced rounds

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs if r.error)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.exact and bool(self.metrics)


def measure(workload: str, seed: int, seconds: float, traced: bool, lifetime: int,
            work: Path, exact_names: Sequence[str] = ()) -> Result:
    """Rounds until --seconds is spent; with ``traced``, each round has a traced
    half, and ``exact_names`` must read the same in every traced round."""
    pin_table = json.loads(PIN_FILE.read_text()).get(pin_key(workload, lifetime), {})
    configs = []
    for s in round_seeds(seed):
        path = work / f"config-{s}.txt"
        path.write_text(config_text(workload, lifetime, s))
        configs.append((path, pin_table.get(str(s))))

    start = time.perf_counter()
    deadline = start + DEADLINE_S
    runs: List[Run] = []
    plain_rounds: List[List[Run]] = []
    traced_rounds: List[Tuple[List[Run], Dict[str, float]]] = []

    def round_of(trace: bool) -> None:
        rnd, span_files = [], []
        for j, (config, pin) in enumerate(configs):
            out = work / f"out-{j}"
            spans = work / f"spans-{j}.bin" if trace else None
            run = execute(config, out, spans, deadline)
            if not run.error:
                run.error = check_artifacts(out, pin)
            if run.error:
                print(f"run failed ({config.name}): {run.error}", file=sys.stderr)
            rnd.append(run)
            span_files.append(spans)
        runs.extend(rnd)
        if trace:
            ok = all(not r.error for r in rnd)
            traced_rounds.append((rnd, layer_metrics(map(str, span_files)) if ok else {}))
            for f in span_files:
                f.unlink(missing_ok=True)
        else:
            plain_rounds.append(rnd)

    min_rounds = 2 if traced else 1
    while True:
        t0 = time.perf_counter()
        if traced:
            round_of(True)
        round_of(False)
        now = time.perf_counter()
        last = now - t0
        if now + last > deadline:
            break
        if len(plain_rounds) >= min_rounds and now - start + last > seconds:
            break

    notes: List[str] = []
    ok_plain = [r for r in plain_rounds if all(not x.error for x in r)]
    if not ok_plain:
        return Result(runs, {}, notes)
    if not traced:
        plain_round_s = [mean(x.run_s for x in r) for r in ok_plain]
        setups = [x.setup_s for r in plain_rounds for x in r if not x.error]
        wall = [x.wall_run_s for r in ok_plain for x in r]
        metrics = {
            "run_s": median(plain_round_s),
            "setup_s": median(setups),
            "peak_rss_mb": median(max(x.peak_rss_mb for x in r) for r in ok_plain),
        }
        notes += [
            f"run_s: median over {len(ok_plain)} rounds of the mean run time in a round "
            f"({len(wall)} runs; min {min(plain_round_s):.4f}, max {max(plain_round_s):.4f}); "
            f"each run's wall time times {REFERENCE_CALIBRATION_S} s over the mean of its two "
            f"calibrations; median wall time of a run {median(wall):.4f} s",
            f"setup_s: median over {len(setups)} runs, each times {REFERENCE_CALIBRATION_S} s "
            "over its first calibration",
            f"peak_rss_mb: median over {len(ok_plain)} rounds of the round's largest ru_maxrss",
        ]
        return Result(runs, metrics, notes)

    per_round = [m for _, m in traced_rounds if m]
    if len(per_round) < 2:
        return Result(runs, {}, notes)
    exact = True
    for name in exact_names:
        values = {m[name] for m in per_round}
        if len(values) > 1:
            exact = False
            print(f"{name} differs between traced rounds: {sorted(values)}", file=sys.stderr)
    metrics = {name: per_round[0][name] if name in exact_names else median(m[name] for m in per_round)
               for name in per_round[0]}
    # Each traced round is paired with the untraced round that follows it.
    # Like run_s, the overhead is per run and at reference speed.
    overheads = [mean(t.run_s for t in tr) - mean(p.run_s for p in pr)
                 for (tr, m), pr in zip(traced_rounds, plain_rounds)
                 if m and all(not p.error for p in pr)]
    metrics["trace.overhead_s"] = median(overheads) if overheads else 0.0
    notes += [
        f"per-layer figures are totals over one round ({CONFIGS_PER_ROUND} runs); "
        f"times are medians over {len(per_round)} traced rounds",
        f"{len(exact_names)} counts and ratios repeated exactly: {exact}",
        f"trace.overhead_s: median over {len(overheads)} pairs of a traced round's mean "
        f"run_s minus the next untraced round's",
    ]
    return Result(runs, metrics, notes, exact)


def declared_metrics() -> Dict[str, List[Tuple[str, str]]]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "e2e": [(m["name"], m["unit"]) for m in bench["end_to_end"]],
        "layer": [(m["name"], m["unit"]) for m in bench["per_layer"]],
    }


def report(title: str, res: Result, declared: List[Tuple[str, str]], prefix: str = "") -> Dict:
    """Print the human-readable block; return the JSON metrics it covers."""
    undeclared = set(res.metrics) - {name for name, _ in declared}
    if undeclared:
        raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    print(title)
    out = {}
    for name, unit in declared:
        value = res.metrics.get(name, 0.0)
        out[prefix + name] = {"value": value, "unit": unit}
        print(f"  {name:34s} {value!r:>24} {unit}")
    attempted = len(res.runs)
    print(f"  {'fail_ratio':34s} {res.failed / attempted if attempted else 0.0!r:>24} ratio"
          f"  ({res.failed} failed of {attempted} attempted)")
    for note in res.notes:
        print(f"  # {note}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "unimix" / "cli.py").is_file():
        print(f"no unimix sources under {ROOT / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    declared = declared_metrics()
    exact = [n for n, unit in declared["layer"] if unit in ("count", "ratio")]
    compileall.compile_dir(str(ROOT / "src" / "unimix"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    jobs = [(w, t) for w in WORKLOADS for t in (0, 1)] if args.workload == "all" \
        else [(args.workload, args.trace)]
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    metrics, attempted, failed, correct = {}, 0, 0, True
    try:
        for workload, trace in jobs:
            lifetime = WORKLOADS[workload][1]
            res = measure(workload, args.seed, args.seconds, bool(trace), lifetime, work, exact)
            title = (f"perfbench workload={workload} seed={args.seed} lifetime={lifetime} "
                     f"config_seeds={round_seeds(args.seed)} trace={trace}")
            prefix = f"{workload}/" if args.workload == "all" else ""
            metrics.update(report(title, res, declared["layer" if trace else "e2e"], prefix))
            attempted += len(res.runs)
            failed += res.failed
            correct = correct and res.correct
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other invocation is using it
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
