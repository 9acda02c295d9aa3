"""The public names: each module's ``__all__`` and the package's lazy re-exports."""

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import signedgrids


def test_every_name_in_a_module_all_resolves():
    modules = [importlib.import_module(f"signedgrids.{m.name}") for m in pkgutil.iter_modules(signedgrids.__path__)]
    assert sum(hasattr(m, "__all__") for m in modules) >= 5
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert missing == []


def test_every_reexport_is_in_its_module_all():
    # read off the package's table of re-exported name -> submodule
    reexports = signedgrids._EXPORTS
    assert len(reexports) > 40
    stale = [
        f"{module}.{name}"
        for name, module in reexports.items()
        if name not in importlib.import_module(f"signedgrids.{module}").__all__
    ]
    assert stale == []


def test_a_reexport_is_its_module_own_object():
    differ = [
        name
        for name, module in signedgrids._EXPORTS.items()
        if getattr(signedgrids, name) is not getattr(importlib.import_module(f"signedgrids.{module}"), name)
    ]
    assert differ == []
    assert signedgrids.__all__ == list(signedgrids._EXPORTS)
    assert {*signedgrids.__all__, "cli", "hom", "__version__"} <= set(dir(signedgrids))


@pytest.mark.parametrize("name", ["no_such_name", "colorer", "_EXPORT"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
        getattr(signedgrids, name)
    with pytest.raises(ImportError):
        exec(f"from signedgrids import {name}", {})


def test_a_bare_import_loads_no_submodule():
    # in a fresh process: names and submodules resolve on first access
    code = (
        "import sys, signedgrids\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('signedgrids.'))\n"
        "assert loaded() == [], loaded()\n"
        "from signedgrids import GridSpec\n"
        "assert loaded() == ['signedgrids.core', 'signedgrids.grids'], loaded()\n"
        "assert signedgrids.hom.find_ec_hom is signedgrids.find_ec_hom\n"
        "assert 'signedgrids.colorers' not in sys.modules\n"
        "from signedgrids import *\n"
        "assert color_tri is signedgrids.colorers.color_tri\n"
    )
    src = os.path.dirname(os.path.dirname(signedgrids.__file__))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
