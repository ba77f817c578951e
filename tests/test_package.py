"""The package's public surface: every exported name resolves, on first use."""

from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adinkra


def test_every_exported_name_resolves() -> None:
    assert len(set(adinkra.__all__)) == len(adinkra.__all__)
    for name in adinkra.__all__:
        assert getattr(adinkra, name) is not None, name


def test_star_import_exposes_verify_presentation() -> None:
    namespace: dict = {}
    exec("from adinkra import *", namespace)
    assert namespace["verify_presentation"] is adinkra.verify_presentation
    assert set(adinkra.__all__) <= set(namespace)


def test_a_bare_import_loads_no_submodule() -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(adinkra.__file__).parents[1]))
    code = "import sys, adinkra; print(sorted(m for m in sys.modules if m.split('.')[0] == 'adinkra'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['adinkra']"


def test_dir_lists_every_export_and_submodule() -> None:
    names = set(dir(adinkra))
    assert set(adinkra.__all__) <= names
    assert {"core", "cube", "hanging", "mutation", "superspace", "constraints", "document"} <= names
    assert not {"_EXPORTS", "__getattr__", "importlib"} & names


def test_an_unknown_name_raises_the_standard_attribute_error() -> None:
    with pytest.raises(AttributeError, match=r"^module 'adinkra' has no attribute 'nope'$"):
        adinkra.nope


def test_each_name_is_the_object_its_submodule_defines() -> None:
    assert adinkra.verify_presentation is adinkra.constraints.verify_presentation
    for name, module in adinkra._EXPORTS.items():
        assert getattr(adinkra, name) is getattr(importlib.import_module(f"adinkra.{module}"), name), name


def test_every_export_is_listed_in_its_module_s_all() -> None:
    missing = [name for name, module in adinkra._EXPORTS.items() if name not in importlib.import_module(f"adinkra.{module}").__all__]
    assert missing == []


def _unused_names(source: str) -> list[str]:
    """Names bound by an import, and module-level _names, that the module never reads as a name or an attribute base."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined = [node.name]
        elif isinstance(node, ast.Assign):
            defined = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined = [node.target.id]
        else:
            continue
        bound += [name for name in defined if name.startswith("_") and not name.startswith("__")]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(set(bound) - used)


def _imported_by_siblings(module: str) -> set[str]:
    """Names the package's modules import from the given module, such as core's _solved_parity."""
    names = set()
    for path in Path(adinkra.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module:
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize(
    "path",
    [
        *sorted(p for p in Path(adinkra.__file__).parent.glob("*.py") if p.name != "__init__.py"),
        *sorted(Path(__file__).parent.glob("*.py")),
    ],
    ids=lambda p: p.name,
)
def test_every_imported_name_is_used(path) -> None:
    unused = set(_unused_names(path.read_text(encoding="utf-8"))) - _imported_by_siblings(path.stem)
    assert sorted(unused) == []


def test_an_unread_module_level_private_name_is_caught() -> None:
    source = "import os\n_PHASES = (1,)\n_SEP = os.sep\ndef _pair():\n    return _SEP\nclass _Build:\n    x: int\n"
    assert _unused_names(source) == ["_Build", "_PHASES", "_pair"]
