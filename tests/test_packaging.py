"""The ``test`` extra of pyproject.toml installs every third-party module the tests import."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared_test_extra() -> set[str]:
    """Distribution names in ``test = [...]`` under [project.optional-dependencies]."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    body = re.search(r"^test = \[(.*?)\]", text, re.MULTILINE | re.DOTALL).group(1)
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower() for req in re.findall(r'"([^"]+)"', body)}


def imported_top_level(path: Path) -> set[str]:
    """Top-level modules named by the import statements and ``importorskip`` calls of one file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "importorskip" and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value)
    return {name.split(".")[0] for name in names}


def test_every_third_party_test_import_is_in_the_test_extra():
    local = {path.stem for path in (ROOT / "tests").glob("*.py")} | {"slopebound"}
    imported = set().union(*(imported_top_level(path) for path in (ROOT / "tests").glob("*.py")))
    third_party = imported - set(sys.stdlib_module_names) - local
    assert third_party, "the scan found no third-party import at all"
    assert third_party - declared_test_extra() == set()
