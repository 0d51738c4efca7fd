"""One `unimix run` in this fresh process, with its timings written as JSON.

    python3 perfbench/child.py --config CFG --out DIR --result FILE [--spans FILE]

Run from the checkout root: unimix is imported from ./src.  The process times
a fixed calibration loop before unimix is imported and again right after the
run, so each run's times can be put at a reference speed.  Set-up is the
import, the config parse and, for an agent whose run enumerates the program
pool, ``enumerate_programs(l)``; the run is ``unimix run --config CFG --out
DIR`` through ``unimix.cli.main``, and its first ``enumerate_programs(l)``
is handed the pool set-up built, so the pool is enumerated as often as in a
plain ``unimix run``.  With ``--spans`` the calls into every layer are
traced (see tracer.py) from before set-up until the run ends, and the spans
are written to FILE.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, List

from tracer import Tracer, rebind, unbind

# Agents whose run enumerates the program pool (cli._build_agent, run_best_vote).
ENUMERATING_AGENTS = ("mixture", "best-vote")


def calibrate() -> float:
    """Median time of five passes of a fixed pure-Python loop.

    The loop does what unimix does most (Fraction arithmetic, tuple hashing,
    dict updates) and nothing of unimix, so it measures how fast this machine
    runs Python right now.  The garbage collector is off during the loop, so
    the heap a run leaves behind does not slow the timing after the run.
    """
    gc.disable()
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        counts: dict = {}
        acc = Fraction(0)
        for i in range(1500):
            key = (i % 97, i % 13)
            counts[key] = counts.get(key, 0) + 1
            acc += Fraction(i % 7, 1 + i % 5)
        times.append(time.perf_counter() - t0)
    gc.enable()
    return sorted(times)[2]


class PoolHandBack:
    """Enumerates the pool of ``l_max`` when made; stands in for
    ``enumerate_programs`` and returns that pool on the first call for ``l_max``.
    Every other call goes to ``enumerate_programs``."""

    def __init__(self, enumerate_programs: Callable[[int], List], l_max: int) -> None:
        self.enumerate_programs = enumerate_programs
        self.l_max = l_max
        self.pool = enumerate_programs(l_max)
        self.taken = False

    def __call__(self, l_max: int) -> List:
        if l_max != self.l_max or self.taken:
            return self.enumerate_programs(l_max)
        self.taken = True
        return self.pool


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    t_cal = time.perf_counter()
    calibration_s = calibrate()
    t_cal = time.perf_counter() - t_cal

    src = Path.cwd() / "src"
    sys.path.insert(0, str(src))
    from unimix import cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"unimix was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    tracer = None
    if args.spans:
        tracer = Tracer()
        tracer.install()

    cfg = cli.load_config(args.config)
    handback, patches = None, []
    if cfg.agent in ENUMERATING_AGENTS:
        # Under tracing this is the wrapper, so set-up's enumeration is a span.
        enumerate_programs = sys.modules["unimix.vm"].enumerate_programs
        handback = PoolHandBack(enumerate_programs, cfg.l_max)
        patches = rebind(enumerate_programs, handback)
    t_ready = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["run", "--config", args.config, "--out", args.out])
    t_end = time.perf_counter()
    calibration_after_s = calibrate()
    unbind(patches)
    if handback is not None and not handback.taken:
        print("the run never asked for the pool that set-up enumerated", file=sys.stderr)
        return 4

    if tracer is not None:
        tracer.restore()
        tracer.write(args.spans)
    result = {
        "rc": rc,
        "calibration_s": calibration_s,
        "calibration_after_s": calibration_after_s,
        "calibration_total_s": t_cal,
        "t_ready": t_ready,
        "t_end": t_end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    Path(args.result).write_text(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
