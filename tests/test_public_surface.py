"""The package's public surface: boolekit.__all__, the modules behind it, and the README."""

import inspect
import re
from pathlib import Path

import pytest

import boolekit
from boolekit import boole_identity, rational_core, vandermonde

README = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("module", [rational_core, vandermonde, boole_identity],
                         ids=lambda module: module.__name__)
def test_every_public_definition_is_exported(module):
    defined = {
        name for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == module.__name__
    }
    assert defined
    assert defined <= set(boolekit.__all__), sorted(defined - set(boolekit.__all__))


def test_every_export_resolves():
    assert len(set(boolekit.__all__)) == len(boolekit.__all__)
    missing = [name for name in boolekit.__all__ if not hasattr(boolekit, name)]
    assert missing == []


def test_readme_names_every_export():
    unnamed = [name for name in boolekit.__all__
               if name != "__version__" and not re.search(rf"\b{name}\b", README)]
    assert unnamed == []
