#!/usr/bin/env python3
"""Record the reference sha256 of each workload config's artifacts in pins.json.

    python3 perfbench/pin.py

Run from the checkout root at the commit whose artifacts are the reference.
Pins config seeds 0..63 at each workload's lifetime, which the benchmark
uses, and the configs of the self-test (the round of seed 0 at the
self-test's lifetime).  pins.json is written anew.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
from typing import Dict, Set, Tuple

from run import PIN_FILE, PIN_SEEDS, ROOT, WORKLOADS, config_text, digests, execute, pin_key, round_seeds
from selftest import LIFETIME


def main() -> int:
    wanted: Dict[Tuple[str, int], Set[int]] = {}
    for workload, (_, lifetime, _) in WORKLOADS.items():
        wanted.setdefault((workload, lifetime), set()).update(range(PIN_SEEDS))
        wanted.setdefault((workload, LIFETIME), set()).update(round_seeds(0))

    pins = {}
    work = ROOT / ".perfbench_work" / "pin"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for (workload, lifetime), seeds in wanted.items():
            table = {}
            for s in sorted(seeds):
                config = work / "config.txt"
                config.write_text(config_text(workload, lifetime, s))
                run = execute(config, work / "out", None, time.perf_counter() + 600)
                if run.error:
                    print(f"{workload} seed {s}: {run.error}", file=sys.stderr)
                    return 1
                table[str(s)] = digests(work / "out")
            pins[pin_key(workload, lifetime)] = table
            print(f"pinned {pin_key(workload, lifetime)}: {len(seeds)} config seeds")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    PIN_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
