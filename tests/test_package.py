"""The package's public surface: what `diffswitch.__all__` promises resolves, and no module
reaches into another module's private names."""

import ast
import re
from pathlib import Path

import diffswitch

MODULES = {path.stem for path in Path(diffswitch.__file__).parent.glob("*.py")}


def test_all_names_resolve_once():
    names = diffswitch.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(diffswitch, name)]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from diffswitch import *", namespace)
    assert set(diffswitch.__all__) <= set(namespace)


def test_readme_examples_import_only_public_names():
    # Each python block is parsed, not run, so an example that imports a removed name fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.M | re.S)
    imported = [alias.name for block in blocks for node in ast.walk(ast.parse(block))
                if isinstance(node, ast.ImportFrom) and node.module == "diffswitch"
                for alias in node.names]
    assert blocks and imported
    assert [name for name in imported
            if name not in diffswitch.__all__ or not hasattr(diffswitch, name)] == []


def test_no_module_imports_another_modules_private_names():
    # A private name stays behind its module; `_version` is the package's own.
    package = Path(diffswitch.__file__).parent
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module != "_version":
                names = [alias.name for alias in node.names if alias.name.startswith("_")]
                offenders += [f"{path.name}: {node.module}.{name}" for name in names]
            elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
                if isinstance(node.value, ast.Name) and node.value.id in MODULES:
                    offenders.append(f"{path.name}: {node.value.id}.{node.attr}")
    assert offenders == []
