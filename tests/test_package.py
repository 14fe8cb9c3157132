"""The package's layers and what they export."""

import importlib

import pytest

LAYERS = ("words", "normalize", "basis", "loop", "verify", "cli")


@pytest.mark.parametrize("layer", LAYERS)
def test_every_exported_name_exists(layer):
    # The benchmark tracer wraps each layer's __all__ through getattr with a
    # default, so a stale entry would be skipped there without a word.
    module = importlib.import_module(f"bol2.{layer}")
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
