import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "normpart"


@pytest.mark.parametrize("path", sorted(SRC.glob("[!_]*.py")),
                         ids=lambda path: path.name)
def test_module_reads_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert sorted(imported - loaded) == []
