"""The public names: each module's ``__all__`` and the package's re-exports."""

import ast
import importlib
import pkgutil

import signedgrids


def test_every_name_in_a_module_all_resolves():
    modules = [importlib.import_module(f"signedgrids.{m.name}") for m in pkgutil.iter_modules(signedgrids.__path__)]
    assert sum(hasattr(m, "__all__") for m in modules) >= 5
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


def test_every_reexport_is_in_its_module_all():
    # read off the relative imports of the package's __init__
    with open(signedgrids.__file__) as fh:
        tree = ast.parse(fh.read())
    reexports = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    ]
    assert len(reexports) > 40
    stale = [
        f"{module}.{name}"
        for module, name in reexports
        if name not in importlib.import_module(f"signedgrids.{module}").__all__
    ]
    assert stale == []
