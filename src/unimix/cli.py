"""Scenario runner: configs in, traces and reports out.

Configs are line-oriented ``key=value`` text.  Every number in a trace or
report originates in the planner/eval modules; the CLI only wires things
together.  Exit codes: 0 success, 1 validation error, 2 capacity error,
3 bound-check failure under ``verify --strict``.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Dict, List, Optional

from . import __version__
from .bestvote import best_vote_policy, selection_log_csv
from .core import (
    CapacityError,
    FixedHorizon,
    GeometricDiscount,
    HorizonPolicy,
    MovingHorizon,
    ProportionalHorizon,
    ValidationError,
    horizon_end,
    input_errors,
    rational,
    rational_digits,
    read_text,
    write_text,
)
from .domains import (
    FunctionClassSpec,
    GameSpec,
    make_fm_env,
    make_heavenhell,
    make_lazy,
    make_onlyone,
    make_sg_env,
    make_sp_env,
    uniform_function_class,
)
from .models import (
    TabularModel,
    UndefinedConditionalError,
    build_class_mixture,
    check_chronological,
)
from .planner import ProgramStepper, planning_policy, run_interaction
from .vm import DecodeError, Program, RunBudget, decode, enumerate_programs, kraft_sum

# SHA-256 from the interpreter's builtin module: hashlib would load OpenSSL's
# libcrypto, which costs more at start-up than a typical run, to digest one
# config.  The module is picked by version so that no import is tried in vain.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256
    else:
        from _sha256 import sha256
except ImportError:  # an interpreter built without it
    from hashlib import sha256

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CAPACITY = 2
EXIT_BOUND = 3

# The largest config seed, and of run --seed.
SEED_MAX = 2**31

# The largest --l of verify and enumerate.  The pool of 18 bits (8,721
# programs) is listed in under a second; it roughly triples every two bits.
L_CAP = 18

# The extra config keys each scenario and agent reads; any other key is an error.
_SCENARIO_KEYS = {
    "heavenhell": ("i",),
    "onlyone": ("n", "y_star"),
    "lazy": (),
    "sp": ("sequences",),
    "sg": ("env_file",),
    "fm": ("class", "env_file"),
    "tabular": ("env_file",),
}
_AGENT_KEYS = {"program": ("program",)}
_SCENARIOS = tuple(_SCENARIO_KEYS)
_AGENTS = ("informed", "mixture", "greedy", "best-vote", "program")


class ScenarioConfig:
    __slots__ = (
        "scenario", "agent", "lifetime", "horizon", "l_max", "steps", "seed", "extras",
    )

    def __init__(
        self,
        scenario: str,
        agent: str,
        lifetime: int,
        horizon: HorizonPolicy,
        l_max: int,
        steps: int,
        seed: int,
        extras: Optional[Dict[str, str]] = None,
    ):
        self.scenario = scenario
        self.agent = agent
        self.lifetime = lifetime
        self.horizon = horizon
        self.l_max = l_max
        self.steps = steps
        self.seed = seed
        self.extras = {} if extras is None else extras

    def config_hash(self) -> str:
        return sha256(self.canonical().encode()).hexdigest()

    def canonical(self) -> str:
        pairs = {
            "scenario": self.scenario,
            "agent": self.agent,
            "lifetime": str(self.lifetime),
            "horizon": _horizon_str(self.horizon),
            "l": str(self.l_max),
            "t": str(self.steps),
            "seed": str(self.seed),
            **dict(sorted(self.extras.items())),
        }
        return write_text(pairs.items())


def _horizon_str(h: HorizonPolicy) -> str:
    if isinstance(h, FixedHorizon):
        return f"fixed:{h.m}"
    if isinstance(h, MovingHorizon):
        return f"moving:{h.h}"
    if isinstance(h, ProportionalHorizon):
        return f"proportional:{h.beta}"
    return f"geometric:{h.gamma}:{h.m_cap}"


def parse_horizon(text: str) -> HorizonPolicy:
    kind, _, rest = text.partition(":")
    if kind == "fixed":
        return FixedHorizon(int(rest))
    if kind == "moving":
        return MovingHorizon(int(rest))
    if kind == "proportional":
        return ProportionalHorizon(rational(rest))
    if kind == "geometric":
        gamma, _, cap = rest.partition(":")
        return GeometricDiscount(rational(gamma), int(cap))
    raise ValueError(f"unknown horizon kind {kind!r}")


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate, collecting every violation before failing."""
    violations: List[str] = []
    pairs, _ = read_text(text, violations=violations)

    def take(key: str, default: Optional[str] = None) -> Optional[str]:
        if key in pairs:
            return pairs.pop(key)
        if default is None:
            violations.append(f"missing required key {key!r}")
        return default

    scenario = take("scenario") or ""
    agent = take("agent", "informed")
    lifetime_s = take("lifetime")
    horizon_s = take("horizon", "")
    l_s = take("l", "6")
    t_s = take("t", "64")
    seed_s = take("seed", "0")

    if scenario and scenario not in _SCENARIOS:
        violations.append(f"unknown scenario {scenario!r} (choose from {_SCENARIOS})")
    if agent not in _AGENTS:
        violations.append(f"unknown agent kind {agent!r} (choose from {_AGENTS})")
    if scenario in _SCENARIO_KEYS:
        known = _SCENARIO_KEYS[scenario] + _AGENT_KEYS.get(agent, ())
        for key in pairs:
            if key not in known:
                violations.append(
                    f"unknown key {key!r} for scenario={scenario} agent={agent}"
                )
    if scenario == "fm":
        kind = pairs.get("class")
        if kind not in (None, "uniform16"):
            violations.append(f"unknown class {kind!r} for scenario=fm (choose from ('uniform16',))")
        if (kind is None) == ("env_file" not in pairs):
            violations.append("scenario=fm takes exactly one of class=uniform16 and env_file")

    def to_int(name: str, s: Optional[str], lo: int, hi: int) -> int:
        if s is None:  # missing, and listed as such
            return lo
        try:
            v = int(s)
        except ValueError:
            violations.append(f"{name} must be an integer, got {s!r}")
            return lo
        if not (lo <= v <= hi):
            violations.append(f"{name}={v} outside [{lo}, {hi}]")
        return v

    lifetime = to_int("lifetime", lifetime_s, 1, 64)
    l_max = to_int("l", l_s, 1, 12)
    steps = to_int("t", t_s, 1, 4096)
    seed = to_int("seed", seed_s, 0, SEED_MAX)
    for key in ("i", "n", "y_star"):  # read by _build_env; their worlds check the range
        if key in pairs and key in _SCENARIO_KEYS.get(scenario, ()):
            to_int(key, pairs[key], -math.inf, math.inf)

    horizon = FixedHorizon(max(1, lifetime))
    if horizon_s:
        try:
            horizon = parse_horizon(horizon_s)
        except ValueError as e:
            violations.append(f"bad horizon {horizon_s!r}: {e}")
    if isinstance(horizon, GeometricDiscount):
        # Values carry gamma^k up to k = min(m_cap, lifetime); its denominator,
        # the larger part of a gamma below 1, has fewer than k * bits * 0.30103
        # + 1 digits (0.30103 > log10 2), which must fit ``rational_digits()``.
        k, cap = min(horizon.m_cap, lifetime), rational_digits()
        if k * horizon.gamma.denominator.bit_length() * 30103 // 100000 + 1 > cap:
            violations.append(
                f"bad horizon {horizon_s!r}: gamma^{k} would have more than {cap} digits"
            )

    if violations:
        raise ValidationError(violations)
    return ScenarioConfig(scenario, agent, lifetime, horizon, l_max, steps, seed, pairs)


def load_config(path: str) -> ScenarioConfig:
    with open(path) as f:
        return parse_config(f.read())


# --- Environment and agent wiring -------------------------------------------


def _load(loads, path: str):
    """The environment file at ``path``, read by ``loads``; its violations name it."""
    try:
        with open(path) as f:
            return loads(f.read())
    except ValidationError as e:
        raise ValidationError([f"{path}: {v}" for v in e.violations]) from None


def _build_env(cfg: ScenarioConfig):
    ex = cfg.extras
    if cfg.scenario == "heavenhell":
        return make_heavenhell(int(ex.get("i", "0")))
    if cfg.scenario == "onlyone":
        return make_onlyone(int(ex.get("n", "4")), int(ex.get("y_star", "0")))
    if cfg.scenario == "lazy":
        return make_lazy(cfg.lifetime)
    if cfg.scenario == "sp":
        items = [item.partition(":") for item in ex.get("sequences", "").split(";") if item]
        if not items:
            raise ValidationError(["sp scenario needs sequences=<bits:prob;...>"])
        pairs, violations = [], []
        for bits, colon, p in items:
            try:  # a symbol other than 0 or 1 stays a character, for make_sp_env to name
                pairs.append((tuple({"0": 0, "1": 1}.get(c, c) for c in bits), rational(p)))
            except ValueError as e:
                violations.append(f"sp sequence {bits!r}: {e if colon else 'no probability'}")
        if violations:
            raise ValidationError(violations)
        return make_sp_env(pairs)
    if cfg.scenario == "sg":
        return make_sg_env(_load(GameSpec.loads, ex["env_file"]))
    if cfg.scenario == "fm":
        if ex.get("class") == "uniform16":
            spec = uniform_function_class(2, tuple(Fraction(z) for z in (1, 2, 3, 4)))
        else:
            spec = _load(FunctionClassSpec.loads, ex["env_file"])
        return make_fm_env(spec)
    if cfg.scenario == "tabular":
        return _load(TabularModel.loads, ex["env_file"])
    raise ValidationError([f"unknown scenario {cfg.scenario!r}"])


def _build_agent(cfg: ScenarioConfig, env):
    """Returns (policy, the program mixture it plans with or None).  A
    planning agent's policy records its ``values``, best vote's its ``log``
    and ``tops``."""
    budget = RunBudget(cfg.steps)
    if cfg.agent == "informed":
        return planning_policy(env, cfg.horizon, cfg.lifetime), None
    if cfg.agent == "greedy":
        return planning_policy(env, MovingHorizon(1), cfg.lifetime), None
    if cfg.agent == "mixture":
        pool = enumerate_programs(cfg.l_max)
        # horizon_end clamps every plan to the lifetime, so the classes need
        # only agree for that many cycles.  A first plan that reaches the
        # lifetime steps every program on every action sequence to it, so
        # signing the programs that read the action runs no machine cycle
        # that plan would not; a shorter first plan visits only part of that
        # walk, and such a program stays its own class.
        every_action = horizon_end(cfg.horizon, 1, cfg.lifetime) == cfg.lifetime
        xi = build_class_mixture(pool, budget, env.alphabet, cfg.lifetime, every_action)
        return planning_policy(xi, cfg.horizon, cfg.lifetime), xi
    if cfg.agent == "best-vote":
        pool = enumerate_programs(cfg.l_max)
        return best_vote_policy(pool, budget, env.alphabet, cfg.lifetime, cfg.horizon), None
    if cfg.agent == "program":
        hexcode = cfg.extras.get("program")
        if not hexcode:
            raise ValidationError(["agent=program needs program=<hex>"])
        return ProgramStepper(Program.from_hex(hexcode), budget, env.alphabet), None
    raise ValidationError([f"agent kind {cfg.agent!r} not wired here"])


class RunArtifacts:
    __slots__ = ("trace_csv", "manifest", "results", "selection_csv")

    def __init__(
        self,
        trace_csv: str,
        manifest: str,
        results: str,
        selection_csv: Optional[str] = None,
    ):
        self.trace_csv = trace_csv
        self.manifest = manifest
        self.results = results
        self.selection_csv = selection_csv


def run_scenario(cfg: ScenarioConfig) -> RunArtifacts:
    with input_errors(f"scenario={cfg.scenario}"):
        env = _build_env(cfg)
    with input_errors(f"agent={cfg.agent}"):
        policy, mixture = _build_agent(cfg, env)
    try:
        h = run_interaction(policy, env, cfg.lifetime, cfg.seed)
    except UndefinedConditionalError:
        if mixture is None:
            raise
        # Decisions 1..k found survivors, so no program reproduces cycle k.
        raise CapacityError(
            f"no program of at most {cfg.l_max} bits reproduces the history "
            f"at cycle {len(policy.values)}"
        ) from None

    # tops[k-1]: the label of the posterior leader of the agent's program
    # mixture before cycle k, read from the node its decision planned from;
    # blank for an agent without a mixture.
    tops = getattr(policy, "tops", None)
    if tops is None:
        tops = [None] * len(h)
        if mixture is not None:
            tops = [policy.beliefs[k].top() for k in range(1, len(h) + 1)]
    # A planning agent decided cycle k on exactly the prefix before it.
    values = getattr(policy, "values", {})
    log = getattr(policy, "log", None)
    selection_csv = None if log is None else selection_log_csv(log)

    rows = ["cycle,action,observation,reward,planner_value,posterior_top"]
    for k, ((y, x), top) in enumerate(zip(h.cycles, tops), start=1):
        rows.append(f"{k},{y},{x.observation},{x.reward},{values.get(k, '')},{top or ''}")
    trace_csv = "\n".join(rows) + "\n"

    a = env.alphabet
    total_reward = Fraction(sum(map(a.scaled_reward, h.percepts())), a.reward_scale)
    canonical = cfg.canonical()
    manifest = (
        f"config_hash={sha256(canonical.encode()).hexdigest()}\n"
        f"seed={cfg.seed}\n"
        f"version={__version__}\n"
        "config_begin\n" + canonical + "config_end\n"
    )
    results = (
        f"scenario={cfg.scenario}\n"
        f"agent={cfg.agent}\n"
        f"cycles={len(h)}\n"
        f"total_reward={total_reward}\n"
    )
    return RunArtifacts(trace_csv, manifest, results, selection_csv)


def emit_report(art: RunArtifacts) -> str:
    """Aggregate a finished run into a human-readable summary.

    The trace's reward column, each entry a ``Fraction`` as text (``n`` or
    ``n/d``), is summed on ints over the lcm of its denominators, with no
    ``Counter`` and no ``Fraction(str)``: both make abstract-base-class
    checks, and the first of each kind costs tens of microseconds in a
    fresh process."""
    lines = art.trace_csv.strip().splitlines()[1:]
    if not lines:
        raise ValueError("empty trace")
    num, den = 0, 1
    for ln in lines:
        n, _, d = ln.split(",")[3].partition("/")
        d = int(d) if d else 1
        lcm = math.lcm(den, d)
        num, den = num * (lcm // den) + int(n) * (lcm // d), lcm
    return f"{art.results.rstrip()}\ntrace_total_reward={Fraction(num, den)}\n"


# --- verify: the re-checkable invariant suite -------------------------------


def verify_invariants(l_max: int) -> List[BoundReport]:
    # Only verify needs evaluate; a run does not load it.
    from .evaluate import BoundReport

    reports: List[BoundReport] = []
    pool = enumerate_programs(l_max)
    ks = kraft_sum(pool)
    reports.append(
        BoundReport(ks, Fraction(1), ks <= 1, f"kraft sum at l={l_max}")
    )
    # prefix-freeness: decoding any valid code plus junk consumes only the code
    prefix_free = True
    for p in pool:
        q = decode(p.code + (1,))
        if q.code != p.code:
            prefix_free = False
            break
    reports.append(
        BoundReport(
            Fraction(0 if prefix_free else 1),
            Fraction(0),
            prefix_free,
            f"prefix-freeness at l={l_max}",
        )
    )
    hh = make_heavenhell(0)
    ok = check_chronological(hh, 3)
    reports.append(
        BoundReport(Fraction(0 if ok else 1), Fraction(0), ok, "heavenhell chronological at depth 3")
    )
    return reports


# --- The command line -------------------------------------------------------


# The CLI's surface: each command's help and its (flag, add_argument keywords).
COMMANDS = {
    "run": ("run a scenario config", (
        ("--config", {"required": True}),
        ("--out", {"default": None, "help": "output directory"}),
        ("--seed", {"type": int, "default": None, "help": "override config seed"}),
    )),
    "verify": ("re-check invariant suites", (
        ("--l", {"type": int, "default": 10, "dest": "l_max"}),
        ("--strict", {"action": "store_true"}),
        ("--out", {"default": None}),
    )),
    "enumerate": ("dump a program pool", (
        ("--l", {"type": int, "required": True, "dest": "l_max"}),
        ("--out", {"default": None}),
    )),
    "disasm": ("disassemble a hex-coded program", (
        ("program", {"help": "program in <bits>:<hex> form"}),
    )),
}


def _read(argv: List[str]) -> Optional[SimpleNamespace]:
    """The namespace the whole CLI's parser makes of ``argv``, read from
    ``COMMANDS``: argv is a command, then only that command's exact flags
    (a switch alone, any other flag with its value) and its positionals.
    None for any other argv, and for a value that starts with ``-``, a
    ``type`` that fails, a missing required argument or an extra positional;
    argparse reads those."""
    if not argv or argv[0] not in COMMANDS:
        return None
    args, options, positionals, required = {"command": argv[0]}, {}, [], set()
    for flag, keywords in COMMANDS[argv[0]][1]:
        convert = keywords.get("type", str)
        if flag[0] != "-":
            positionals.append((flag, convert))
            continue
        dest = keywords.get("dest", flag.lstrip("-").replace("-", "_"))
        switch = keywords.get("action") == "store_true"
        options[flag] = dest, switch, convert
        args[dest] = keywords.get("default", False if switch else None)
        if keywords.get("required"):
            required.add(dest)
    tokens = iter(argv[1:])
    for token in tokens:
        if token[:1] != "-":  # argparse takes '' for a positional too
            if not positionals:
                return None
            dest, convert = positionals.pop(0)
            value = token
        else:
            if token not in options:
                return None
            dest, switch, convert = options[token]
            required.discard(dest)
            if switch:
                args[dest] = True
                continue
            value = next(tokens, None)
            if value is None or value[:1] == "-":
                return None
        try:
            args[dest] = convert(value)
        except (TypeError, ValueError):
            return None
    if required or positionals:
        return None
    return SimpleNamespace(**args)


def _parser(**keywords):
    """An argparse parser that exits 1 on a usage error, like any other
    invalid input; argparse's own code, 2, is the capacity-error exit.  Only
    a command line that prints, or that ``_read`` leaves, imports argparse."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def error(self, message: str):
            self.print_usage(sys.stderr)
            self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")

    return _Parser(**keywords)


def parse_args(argv: List[str]):
    """The parsed ``argv``: read from ``COMMANDS`` when ``_read`` can read it
    in full, otherwise parsed by the whole CLI's parser (a top-level parser
    with a subparser per command), which prints the usage, help or error and
    exits, or returns its namespace."""
    args = _read(argv)
    if args is not None:
        return args
    parser = _parser(prog="unimix", description="universal-mixture agent scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_)
        for flag, keywords in arguments:
            command.add_argument(flag, **keywords)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return _dispatch(args)
    except ValidationError as e:
        for v in e.violations:
            print(f"validation error: {v}", file=sys.stderr)
        return EXIT_VALIDATION
    except DecodeError as e:
        print(f"validation error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return EXIT_CAPACITY


def _write_artifacts(out: str, art: RunArtifacts) -> None:
    """Write ``art``'s files into the directory ``out``, made if missing.  A
    file already there is overwritten; no other file is touched."""
    # An error names ``out`` as given, or the missing parent that makedirs
    # cannot make; makedirs alone would name a parent under a plain file.
    try:
        os.mkdir(out)
    except FileNotFoundError:
        os.makedirs(out, exist_ok=True)
    except OSError:
        if not os.path.isdir(out):
            raise
    for name, text in (
        ("trace.csv", art.trace_csv),
        ("manifest.txt", art.manifest),
        ("results.txt", art.results),
        ("selection.csv", art.selection_csv),
    ):
        if text is None:
            continue
        data = memoryview(text.encode())
        fd = os.open(os.path.join(out, name), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)


def _dispatch(args) -> int:
    if args.command in ("verify", "enumerate"):
        if args.l_max < 1:
            raise ValidationError([f"--l must be at least 1, got {args.l_max}"])
        if args.l_max > L_CAP:
            raise CapacityError(f"--l {args.l_max} exceeds the pool cap of {L_CAP} bits")
    if args.command == "run":
        with input_errors("--config"):
            cfg = load_config(args.config)
        if args.seed is not None:
            if not 0 <= args.seed <= SEED_MAX:
                raise ValidationError([f"--seed={args.seed} outside [0, {SEED_MAX}]"])
            cfg.seed = args.seed
        art = run_scenario(cfg)
        if args.out:
            with input_errors("--out"):
                _write_artifacts(args.out, art)
        else:
            sys.stdout.write(art.trace_csv)
        sys.stdout.write(emit_report(art))
        return EXIT_OK

    if args.command == "verify":
        from .evaluate import summary_block

        reports = verify_invariants(args.l_max)
        text = summary_block(reports)
        if args.out:
            with input_errors("--out"):
                with open(args.out, "w") as f:
                    f.write(text)
        sys.stdout.write(text)
        if args.strict and any(not r.holds for r in reports):
            return EXIT_BOUND
        return EXIT_OK

    if args.command == "enumerate":
        pool = enumerate_programs(args.l_max)
        lines = [f"{p.to_hex()}  # {p.length_bits} bits" for p in pool]
        text = "\n".join(lines) + "\n"
        if args.out:
            with input_errors("--out"):
                with open(args.out, "w") as f:
                    f.write(text)
        else:
            sys.stdout.write(text)
        return EXIT_OK

    if args.command == "disasm":
        p = Program.from_hex(args.program)
        sys.stdout.write(p.disassemble() + "\n")
        return EXIT_OK

    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
