"""Every public library name has a caller outside the tests.

A public top-level function or class of `src/sqfree`, or a public method of
such a class, passes when one of these holds:

- some AST node in `src/` outside its own definition, in `demos/` or in
  `perfbench/*.py` names it (a name, an attribute, an import, or a string
  that is exactly the name, as `getattr` lookups use);
- `BENCHMARK.json` traces it in a `per_layer` metric;
- it is a CLI command registered in `cli.COMMANDS`;
- it is on the allowlist below, with its reason.

Names that only the tests call move into the tests or gain a caller.

Every private top-level function or class, and every private method, must
be named somewhere in `src/` outside its own definition, so that a refactor
leaves no stale helper behind. Likewise every name a module of `src/sqfree`
imports must be read in that module, or listed in its `__all__`.

The CLI imports only public names from the library, so every command
passes through the public functions' refusals.

No `assert` statement guards a claim in `src/`: `python -O` strips them, and
every invariant must still hold there.
"""

import ast
import json
from pathlib import Path

from sqfree import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sqfree"

ALLOWED = {
    "decode_gauge": "inverse of encode_gauge in the wire format, anchored by the JSON round-trip test",
    "decode_ring_element": "inverse of encode_ring_element in the wire format, anchored by the JSON round-trip test",
    "lscale": "the left scalar action d x of the left D-space that the twring docstring defines",
    "rscale": "the right scalar action x d that the twring docstring defines",
    "enumerate_elements": "the element order that _scan and the unit and idempotent scans follow",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _is_public(name):
    return not name.startswith("_")


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _definitions(tree, wanted=_is_public):
    """(name, def node) for the wanted top-level functions and classes and the wanted methods of every class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if wanted(node.name):
                yield node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and wanted(item.name):
                        yield item.name, item


def _referenced_names(tree, skip=None):
    """Every name, attribute, imported name and string constant in tree, outside the node skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a whole-string name, as getattr(sq.fixtures, "a3") looks it up
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _traced_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {part for metric in spec["per_layer"] for part in metric["name"].split(".")}


def uncalled_public_names():
    """module.name for each public name that no caller or trace covers, allowlist ignored."""
    src_trees = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    outside = set()
    for path in sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        outside |= _referenced_names(_parse(path))
    covered = outside | _traced_names() | {fn.__name__ for fn in cli.COMMANDS.values()}
    missing = []
    for path, tree in src_trees.items():
        for name, node in _definitions(tree):
            if name in covered:
                continue
            if any(name in _referenced_names(t, skip=node) for t in src_trees.values()):
                continue
            missing.append(f"{path.stem}.{name}")
    return missing


def unreferenced_private_names():
    """module.name for each private definition that nothing else in src/ names."""
    src_trees = {path: _parse(path) for path in sorted(SRC.glob("*.py"))}
    return [
        f"{path.stem}.{name}"
        for path, tree in src_trees.items()
        for name, node in _definitions(tree, _is_private)
        if not any(name in _referenced_names(t, skip=node) for t in src_trees.values())
    ]


def test_every_public_name_has_a_caller_or_a_reason():
    assert [m for m in uncalled_public_names() if m.partition(".")[2] not in ALLOWED] == []


def test_every_allowlisted_name_still_lacks_a_caller():
    assert sorted(m.partition(".")[2] for m in uncalled_public_names()) == sorted(ALLOWED)


def test_every_private_helper_is_used_in_src():
    assert unreferenced_private_names() == []


def unread_imports():
    """module.name for each name a src/ module imports and never reads; its __all__ counts as read."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        tree = _parse(path)
        imported, read = [], set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read.update(ast.literal_eval(node.value))
        out += [f"{path.stem}.{name}" for name in imported if name not in read]
    return out


def test_every_import_is_read():
    assert unread_imports() == []


def assert_statements():
    """module:line for each assert statement in src/."""
    return [
        f"{path.stem}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.Assert)
    ]


def test_no_library_claim_rests_on_an_assert():
    assert assert_statements() == []


def cli_private_imports():
    """Each `_`-prefixed name that src/sqfree/cli.py imports from sqfree."""
    return [
        alias.name
        for node in ast.walk(_parse(SRC / "cli.py"))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").partition(".")[0] == "sqfree")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_cli_imports_no_private_library_name():
    assert cli_private_imports() == []
