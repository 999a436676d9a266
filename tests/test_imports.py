import ast
import os

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "tamedbsde")
# the package's __init__ imports its public names to re-export them
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py") and name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, except on an import line
    that carries `noqa`."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if "noqa" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_the_check_sees_an_unused_import_and_its_noqa():
    assert unused_imports("import os\nfrom a import (\n    b,\n    c,\n)\nb()\n") == [
        "c (line 4)", "os (line 1)"]
    assert unused_imports("import os.path\nfrom a import b  # noqa: F401\nos.sep\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_only_what_it_uses(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


def test_studies_import_no_private_name_from_backward():
    # the studies drive the recursion through backward.sweep and its public
    # operators, not through the module's internals
    with open(os.path.join(SRC, "experiments.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "backward"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
