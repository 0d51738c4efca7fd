"""Every name a library module imports is used in that module, and the
command-line entry point imports no code-generation machinery, no OpenSSL
and no more of the library than a run executes."""

import ast
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from unimix.cli import parse_config

SRC = Path(__file__).resolve().parent.parent / "src" / "unimix"
# The package root's imports are its public re-exports.
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used(tree: ast.Module) -> set:
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # Quoted annotations such as -> "itertools.product" name things too.
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                expr = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return used


def test_the_library_has_modules():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = [
        f"{name} (line {line})"
        for name, line in _imported(tree).items()
        if name not in used
    ]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def _python(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter that imports unimix
    from the source tree.  It starts without the ``site`` module (``-S``), so
    a ``.pth`` file in site-packages that imports modules at start-up cannot
    hide which modules unimix loads."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def _loaded_by_the_cli() -> set:
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import unimix.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    loaded = set(_python(code).split())
    assert "unimix.cli" in loaded
    return loaded


def test_importing_the_cli_loads_no_code_generation_modules():
    # dataclasses builds methods from source text through these modules; at
    # start-up they cost more than a typical run.
    assert not _loaded_by_the_cli() & {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_importing_the_cli_loads_neither_openssl_nor_evaluate():
    # hashlib loads OpenSSL's libcrypto, about 4.5 ms of start-up, to digest
    # one config; evaluate serves verify alone.
    assert not _loaded_by_the_cli() & {"hashlib", "_hashlib", "_ssl", "unimix.evaluate"}


def test_importing_the_cli_loads_no_argparse():
    # argparse (with gettext, and the locale that gettext loads on first
    # use) serves only a command line that prints.
    assert not _loaded_by_the_cli() & {"argparse", "gettext", "locale"}


def test_importing_the_cli_loads_no_pathlib():
    # pathlib, with fnmatch, ipaddress, ntpath and urllib.parse, would serve
    # only to read a config and write a run's files, which open() and os do.
    forbidden = {"pathlib", "fnmatch", "ipaddress", "ntpath", "urllib.parse"}
    assert not _loaded_by_the_cli() & forbidden


def _main_in_a_fresh_interpreter(argv) -> list:
    """Lines of stdout and stderr of ``main(argv)`` in a fresh interpreter,
    then its exit code and whether argparse was loaded."""
    code = (
        "import sys\n"
        "sys.stderr = sys.stdout\n"
        "from unimix.cli import main\n"
        "try:\n"
        f"    rc = main({argv!r})\n"
        "except SystemExit as e:\n"
        "    rc = e.code\n"
        "print(rc, 'argparse' in sys.modules)\n"
    )
    return _python(code).splitlines()


def test_a_valid_command_line_runs_without_argparse(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("scenario=heavenhell\nlifetime=2\n")
    hexcode = "9:088"  # IN, OUT, END
    assert _main_in_a_fresh_interpreter(["disasm", hexcode])[-1] == "0 False"
    lines = _main_in_a_fresh_interpreter(["run", "--config", str(cfg), "--out", str(tmp_path)])
    assert lines[-2:] == ["trace_total_reward=2", "0 False"]


def test_a_usage_error_still_prints_the_usage():
    lines = _main_in_a_fresh_interpreter(["run", "--threads", "2"])
    assert lines[0].startswith("usage: unimix")
    assert lines[-1] == "1 True"


def test_without_a_builtin_sha256_the_config_hash_falls_back_to_hashlib():
    text = "scenario=heavenhell\nagent=informed\nlifetime=5\ni=1\n"
    code = (
        "import sys\n"
        "sys.modules['_sha256'] = sys.modules['_sha2'] = None\n"
        "from unimix.cli import parse_config\n"
        f"cfg = parse_config({text!r})\n"
        "print('hashlib' in sys.modules, cfg.config_hash(), cfg.canonical().encode().hex())\n"
    )
    loaded, digest, canonical = _python(code).split()
    assert loaded == "True"
    assert digest == hashlib.sha256(bytes.fromhex(canonical)).hexdigest()
    assert digest == parse_config(text).config_hash()
