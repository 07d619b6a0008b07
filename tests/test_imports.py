"""The package imports nothing beyond the standard library and numpy."""

import ast
import pathlib
import sys

import zeropat

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "zeropat"}


def test_the_package_depends_on_numpy_alone():
    sources = sorted(pathlib.Path(zeropat.__file__).parent.glob("*.py"))
    assert len(sources) > 5
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                (path.name, node.lineno, name)
                for name in names
                if name.partition(".")[0] not in ALLOWED
            ]
    assert outside == []
