"""No module under src/, tests/, demos/, tools/ or perfbench/ imports a name
it never uses."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that nothing else reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport a.b\nfrom c import d as e, f\nprint(a.b, f)\n"
    assert unused_imports(source) == ["os", "e"]


def test_no_unused_imports():
    found = [f"{path.relative_to(ROOT)}: {name}"
             for folder in ("src", "tests", "demos", "tools", "perfbench")
             for path in sorted((ROOT / folder).rglob("*.py"))
             for name in unused_imports(path.read_text())]
    assert found == []
