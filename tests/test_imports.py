import ast
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "tamedbsde")
# the package's __init__ imports its public names to re-export them
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py") and name != "__init__.py")


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def exempt_imports(source: str) -> list[str]:
    """The names imported on an import line that carries `noqa`."""
    lines = source.splitlines()
    return [alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names if "noqa" in lines[alias.lineno - 1]]


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


def test_every_exempt_import_is_a_probe_target():
    # a name imported only for the benchmark's trace probes, which look it
    # up in the module that imports it: (module, "name") in the probe list
    tree = ast.parse(_read(os.path.join(ROOT, "perfbench", "spans.py")))
    targets = {(node.elts[0].id, node.elts[1].value) for node in ast.walk(tree)
               if isinstance(node, ast.Tuple) and len(node.elts) > 1
               and isinstance(node.elts[0], ast.Name) and isinstance(node.elts[1], ast.Constant)}
    exempt = [(module[:-3], name) for module in sorted(os.listdir(SRC)) if module.endswith(".py")
              for name in exempt_imports(_read(os.path.join(SRC, module)))]
    assert exempt and [pair for pair in exempt if pair not in targets] == []


def test_studies_import_no_private_name_from_backward():
    # the studies drive the recursion through backward.sweep and its public
    # operators, not through the module's internals
    with open(os.path.join(SRC, "experiments.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    private = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "backward"
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
