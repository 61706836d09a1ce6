"""Source hygiene that needs no linter: every module-level import of the
package is used (``__init__.py`` is exempt: its imports are re-exports)."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "projflow"


def test_no_unused_module_level_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in used:
                        unused.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not unused, unused
