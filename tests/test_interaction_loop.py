"""Where ``src/unimix`` makes a random generator.  The world's percepts are
drawn in one interaction loop, ``planner.run_interaction``, and every agent is
a policy it steps; a second loop would need a generator of its own, so it
fails here."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unimix"


def _makes_generator(call):
    """True iff the call is ``random.Random(...)`` or ``Random(...)``."""
    f = call.func
    if isinstance(f, ast.Attribute):
        return f.attr == "Random" and isinstance(f.value, ast.Name) and f.value.id == "random"
    return isinstance(f, ast.Name) and f.id == "Random"


def _generator_makers(node, prefix, module):
    """The qualified name of the innermost function (or the module) around
    every call under node that makes a generator."""
    for child in ast.iter_child_nodes(node):
        inner = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{prefix}{child.name}."
        elif isinstance(child, ast.Call) and _makes_generator(child):
            yield f"{module}.{prefix}".rstrip(".")
        yield from _generator_makers(child, inner, module)


def test_only_run_interaction_makes_a_random_generator():
    found = sorted(
        name
        for path in SRC.glob("*.py")
        for name in _generator_makers(ast.parse(path.read_text()), "", path.stem)
    )
    assert found == ["planner.run_interaction"]
