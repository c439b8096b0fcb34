"""The package's public surface is what training, the CLI and the benchmark
use: every public module-level function and class of src/dualac, and every
public method, is referenced by code in src/dualac or bench/ outside its own
definition, or waits for a planned caller (AWAITING).  A name that only the
tests use belongs in a tests/reference_*.py module.

References are Name and Attribute nodes of the parsed source, matched by
name; strings, docstrings and comments do not count.  A reference to another
definition of the same name counts too, so this catches the names that
nothing outside the tests mentions, not every name that is never called.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dualac"
# names whose caller outside the tests is planned, each with that caller
AWAITING = {
    "driver.load_checkpoint": "reads the checkpoint that run_experiment writes; `dualac train --resume` is to call it",
}


def _references(node) -> Counter:
    """How often each name occurs as a Name or an Attribute under node."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    )


def _public_definitions(module: ast.Module):
    """(qualified name, node) of each public module-level function and class
    and of each public method of those classes."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller_outside_the_tests():
    package = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    bench = [ast.parse(path.read_text()) for path in sorted((ROOT / "bench").rglob("*.py"))]
    everywhere = sum(map(_references, [*package.values(), *bench]), Counter())
    unused = [
        f"{module}.{name}"
        for module, tree in package.items()
        for name, node in _public_definitions(tree)
        if everywhere[node.name] == _references(node)[node.name]
    ]
    assert len(package) > 1
    assert set(unused) <= set(AWAITING), f"public names that only the tests use: {sorted(set(unused) - set(AWAITING))}"
    # an entry whose caller has come leaves the list
    assert set(unused) == set(AWAITING), f"these have callers now: {sorted(set(AWAITING) - set(unused))}"
