"""Every error kind raised under src/basm is documented in both lists."""
import ast
import re
from pathlib import Path

from basm.errors import KINDS
from basm.oracles import REFUSALS

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "basm"


def _raised_kinds() -> set[str]:
    """String kinds passed to BasmError(...) or as `kind=`, and `kind` defaults."""
    kinds = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "BasmError" and node.args:
                    kinds.add(node.args[0])
                kinds.update(k.value for k in node.keywords if k.arg == "kind")
            elif isinstance(node, ast.arguments):
                params = node.args[len(node.args) - len(node.defaults):] + node.kwonlyargs
                defaults = node.defaults + node.kw_defaults
                kinds.update(d for a, d in zip(params, defaults) if a.arg == "kind")
    literal = {k.value for k in kinds if isinstance(k, ast.Constant) and isinstance(k.value, str)}
    assert literal, "no error kinds found; the collector is broken"
    return literal


def test_every_raised_kind_is_documented():
    kinds = _raised_kinds()
    errors_doc = (SRC / "errors.py").read_text().split('"""')[1]
    listed = set(re.findall(r"^  ([a-z-]+)\s", errors_doc, re.M))
    formats = (REPO / "docs" / "formats.md").read_text()
    section = formats.split("## Error kinds", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"`([a-z-]+)`", section))
    assert kinds - listed == set(), "kinds missing from the list in errors.py"
    assert kinds - documented == set(), "kinds missing under 'Error kinds' in docs/formats.md"


def test_the_kinds_table_and_both_lists_name_the_same_kinds():
    errors_doc = (SRC / "errors.py").read_text().split('"""')[1]
    assert set(re.findall(r"^  ([a-z-]+)\s", errors_doc, re.M)) == KINDS
    formats = (REPO / "docs" / "formats.md").read_text()
    listing = formats.split("## Error kinds", 1)[1].split(".", 1)[0]  # the prose after it quotes more
    assert set(re.findall(r"`([a-z-]+)`", listing)) == KINDS
    assert _raised_kinds() <= KINDS


def test_every_refusal_is_an_error_kind():
    assert REFUSALS <= KINDS
