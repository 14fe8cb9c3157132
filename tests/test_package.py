"""The package's layers and what they export."""

import ast
import importlib
import pathlib

import pytest

import bol2

LAYERS = ("words", "normalize", "basis", "loop", "verify", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_exists(layer):
    # The benchmark tracer wraps each layer's __all__ through getattr with a
    # default, so a stale entry would be skipped there without a word.
    module = importlib.import_module(f"bol2.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_package_exports_the_layers_names():
    # A name is public on the package exactly when its layer lists it.
    layers = [importlib.import_module(f"bol2.{layer}") for layer in LAYERS]
    joined = [name for module in layers for name in module.__all__]
    assert bol2.__all__ == joined
    assert len(set(joined)) == len(joined)
    for module in layers:
        for name in module.__all__:
            assert getattr(bol2, name) is getattr(module, name), name


ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path
    for path in [
        *(ROOT / "src" / "bol2").glob("*.py"),
        *(ROOT / "tests").glob("*.py"),
        *(ROOT / "scripts").glob("*.py"),
    ]
    if path.name != "__init__.py"  # the package's re-exports
)


def unused_imports(path: pathlib.Path) -> list[str]:
    """The names a module imports and never reads (``__all__`` counts as a
    read)."""
    imported, used = {}, set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []
