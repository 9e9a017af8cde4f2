"""The export lists: every ``__all__`` entry exists, and every public name the
package re-exports is listed in its module's ``__all__``.

A stale ``__all__`` string fails only under ``from kyfanreg.<module> import *``,
so nothing else in the suite would notice it.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import kyfanreg


def test_export_lists_match_the_modules():
    missing = []
    for info in pkgutil.iter_modules(kyfanreg.__path__):
        module = importlib.import_module(f"kyfanreg.{info.name}")
        missing += [f"{info.name}.{name}" for name in module.__all__ if not hasattr(module, name)]
    unlisted = []
    for node in ast.parse(Path(kyfanreg.__file__).read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module(f"kyfanreg.{node.module}")
            unlisted += [
                f"{node.module}.{alias.name}" for alias in node.names
                if not alias.name.startswith("_") and alias.name not in module.__all__
            ]
    assert (missing, unlisted) == ([], [])
