"""Dead-code guard: every module-level function and class of the package has
a caller or a test.

A name counts as used when it occurs as a whole word somewhere in
src/perifsi or tests/ outside the lines of its own definition.  The package
__init__.py is not searched, because a re-export there is not a use.
Methods and attributes are out of scope: a plain text search cannot tell
`tables` on one class from `tables` on another, so only module-level names
are checked.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "perifsi"


def _searched_files():
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    return {p: p.read_text().splitlines() for p in files}


def test_every_module_level_name_is_used():
    files = _searched_files()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            own = range(node.lineno - 1, node.end_lineno)
            used = any(
                word.search(line)
                for p, lines in files.items()
                for i, line in enumerate(lines)
                if not (p == path and i in own)
            )
            if not used:
                unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unused, "no caller or test: " + ", ".join(unused)
