"""Every function in ``src/unimix`` that calls itself by name, against the
list of recursions that stay, each with its reason.  A new recursion fails
here until it is listed; a listed one that goes must leave the list."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "unimix"

ALLOWED = {
    "core.contexts": "the one enumerator of (history, action) contexts up to a depth",
    "domains.game_value": "minimax over a game tree, the oracle the planner is checked against",
    "evaluate.all_policy_values.values": "every deterministic policy's value, by brute force",
    "models.build_class_mixture.signature": "a machine state's behaviour, memoized per depth",
    "models.expected_sum.walk": (
        "an expectation over any model's rows: it keeps no children, and the"
        " rollout, which does, is checked against it"
    ),
    "planner._plan": "the expectimax: a max over actions of sums over percepts",
    "planner.functional_value.walk": "a rollout that reuses the mixture tree's cached children",
    "vm.enumerate_programs.walk": "the prefix-free codes, in lexicographic order",
}


def _self_recursive(node, prefix, module):
    """The qualified name of every function under node whose body calls its
    own name."""
    for child in ast.iter_child_nodes(node):
        inner = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(
                isinstance(c, ast.Call) and isinstance(c.func, ast.Name) and c.func.id == child.name
                for c in ast.walk(child)
            ):
                yield f"{module}.{prefix}{child.name}"
            inner = f"{prefix}{child.name}."
        elif isinstance(child, ast.ClassDef):
            inner = f"{prefix}{child.name}."
        yield from _self_recursive(child, inner, module)


def test_every_self_recursive_function_is_listed_with_its_reason():
    found = sorted(
        name
        for path in SRC.glob("*.py")
        for name in _self_recursive(ast.parse(path.read_text()), "", path.stem)
    )
    assert found == sorted(ALLOWED)
