"""The public surface is what the CLI, demos and perfbench call.

Every name in ``dunkldyn.__all__`` and every public method of its classes
must be referenced from the package (outside the name's own definition and
``__init__.py``), a demo or a perfbench job; only the declared oracles, which
the tests check production code against, may have no such caller.
Module-level names match as a Name, an import alias or an Attribute; methods
match as an Attribute only, since a bare word such as a local variable says
nothing about a method.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dunkldyn"
ORACLES = {"apply_dunkl_direct", "evaluate", "evaluate_circle", "sup_on_disk",
           "gamma_form_log_weight"}


def _trees(paths):
    return [(path, ast.parse(path.read_text(), str(path))) for path in paths]


def _defined(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else []
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _surface(modules):
    """(name, path, defining node, is_method) for every public name and method."""
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = next(ast.literal_eval(node.value) for node in init.body
                    if isinstance(node, ast.Assign) and _defined(node) == {"__all__"})
    for path, tree in modules:
        for node in tree.body:
            for name in _defined(node) & set(exported):
                yield name, path, node, False
                if isinstance(node, ast.ClassDef):
                    yield from ((m.name, path, m, True) for m in node.body
                                if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"))


def _references(callers):
    """(path, line, word, is_attribute) for every Name, import alias and Attribute."""
    for path, tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield path, node.lineno, node.id, False
            elif isinstance(node, ast.alias):
                yield path, node.lineno, node.name.rpartition(".")[2], False
            elif isinstance(node, ast.Attribute):
                yield path, node.lineno, node.attr, True


def test_every_public_name_has_a_caller():
    modules = _trees(p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py")
    callers = modules + _trees([*sorted((ROOT / "demos").glob("*.py")),
                                *(p for p in sorted((ROOT / "perfbench").glob("*.py"))
                                  if p.name != "test_perfbench.py")])
    refs = {}
    for where, line, word, attr in _references(callers):
        refs.setdefault(word, []).append((where, line, attr))
    surface = list(_surface(modules))
    stray = sorted(
        name for name, path, node, method in surface
        if name not in ORACLES
        and not any((attr or not method)
                    and not (where == path and node.lineno <= line <= node.end_lineno)
                    for where, line, attr in refs.get(name, ())))
    assert ORACLES <= {name for name, *_ in surface}
    assert not stray, f"public names that no CLI subcommand, demo or perfbench job calls: {stray}"


def test_every_export_resolves():
    import dunkldyn

    assert [name for name in dunkldyn.__all__ if not hasattr(dunkldyn, name)] == []
