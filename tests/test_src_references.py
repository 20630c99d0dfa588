"""Every name that chamberforms defines is used by chamberforms itself.

Test-only helpers live in tests/conftest.py, not in the package.  This
reads src/chamberforms with ast and collects each function, method and
class, and each module-level constant.  Every one, dunders apart, must be
referenced by name (a load, an attribute or an import) somewhere in the
package outside its own definition.  A name that other code also uses,
such as a method called through another class, passes without being
reached; the check is a floor, not a reach analysis.  The reach of whole
modules is checked by running the commands: each module must be imported.
"""

import ast
from collections import Counter
from pathlib import Path

import chamberforms
from test_numpy_loading import probe

SRC = Path(chamberforms.__file__).parent


def references(tree: ast.AST) -> Counter:
    """Names loaded, read as attributes or imported anywhere in tree."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.split(".")[-1]] += 1
    return found


def definitions(tree: ast.Module):
    """(name, node) for every def and class, and every module-level
    constant; node is the subtree that defines it."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        for t in targets:
            if isinstance(t, ast.Name):
                yield t.id, node


def test_every_definition_is_referenced_in_src():
    trees = {p.name: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    used = sum((references(t) for t in trees.values()), Counter())
    unused = [f"{file}: {name}"
              for file, tree in trees.items()
              for name, node in definitions(tree)
              if not (name.startswith("__") and name.endswith("__"))
              and used[name] - references(node)[name] <= 0]
    assert unused == []


def test_every_module_is_imported_by_a_command(tmp_path):
    """The five single-input commands on an oriented-matroid and an
    arrangement fixture, and one random instance, import every module of
    the package but __main__, so dev-only modules stay out of it."""
    runs = [[command, "--input", f"fixtures/{name}"]
            for name in ("vamos.json", "cyclic-r3-n7.json")
            for command in ("check", "matrix", "det", "rhs", "invariants")]
    runs.append(["random", "--dim", "2", "--n", "4", "--count", "1", "--seed", "0"])
    codes, modules = probe(runs, tmp_path / "report.json")
    assert codes.split() == ["0"] * len(runs) + ["True"]
    expected = {"chamberforms" if p.stem == "__init__" else f"chamberforms.{p.stem}"
                for p in SRC.glob("*.py") if p.stem != "__main__"}
    assert set(modules.split()) == expected
