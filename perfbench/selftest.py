#!/usr/bin/env python3
"""Fast self-test of the benchmark at lifetime 2.

    python3 perfbench/selftest.py

Run from the checkout root.  Checks that `run.main()` for `--workload all`,
with every workload's lifetime set to 2, prints every metric of
BENCHMARK.json by name with its unit, for every workload, with no failed
run; and that a run whose artifact is corrupted counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run

LIFETIME = 2


def expect(ok: bool, what: object) -> None:
    """A check that stays under ``python -O``."""
    if not ok:
        raise AssertionError(what)


def check_all_metrics_printed() -> None:
    workloads = run.WORKLOADS
    run.WORKLOADS = {name: (base, LIFETIME, worlds) for name, (base, _, worlds) in workloads.items()}
    argv = sys.argv
    sys.argv = ["run.py", "--workload", "all", "--seed", "0", "--seconds", "0"]
    stdout = io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout):
            rc = run.main()
    finally:
        run.WORKLOADS, sys.argv = workloads, argv
    lines = stdout.getvalue().splitlines()
    result = json.loads(lines[-1])
    expect(rc == 0 and result["correct"] and result["failed"] == 0, result)
    declared = run.declared_metrics()
    expected = {}
    for workload in run.WORKLOADS:
        for name, unit in declared["e2e"] + declared["layer"]:
            expected[f"{workload}/{name}"] = unit
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == expected, sorted(set(got) ^ set(expected)))
    fields = [line.split() for line in lines[:-1] if line.startswith("  ")]
    printed = {(f[0], f[2]) for f in fields if len(f) >= 3}
    for name, unit in declared["e2e"] + declared["layer"] + [("fail_ratio", "ratio")]:
        expect((name, unit) in printed, f"{name} is not printed with unit {unit}")


def check_corrupted_artifact_fails() -> None:
    work = run.ROOT / ".perfbench_work" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    execute = run.execute

    def corrupting(config, out, spans, deadline):
        r = execute(config, out, spans, deadline)
        with open(out / "trace.csv", "ab") as f:
            f.write(b"\n")
        return r

    run.execute = corrupting
    try:
        res = run.measure("mixture-heavenhell", 0, 0, False, LIFETIME, work)
    finally:
        run.execute = execute
        shutil.rmtree(work, ignore_errors=True)
    expect(res.runs and res.failed == len(res.runs), [r.error for r in res.runs])
    expect(all("trace.csv" in r.error for r in res.runs), "the corrupted file is not named")
    expect(not res.correct, "a corrupted artifact left the result correct")


def main() -> int:
    if not (run.ROOT / "src" / "unimix" / "cli.py").is_file():
        print("run from the checkout root", file=sys.stderr)
        return 2
    check_all_metrics_printed()
    print("checking that corrupted artifacts fail; the run failures reported next are expected")
    check_corrupted_artifact_fails()
    print("perfbench selftest: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
