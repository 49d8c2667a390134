import importlib
import pkgutil

import pytest

import wkbmc

# __main__ runs the CLI on import and exports nothing
MODULES = ["wkbmc"] + [
    f"wkbmc.{info.name}" for info in pkgutil.iter_modules(wkbmc.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    # a name left in __all__ after its definition is deleted breaks
    # "from module import *" only when someone finally runs it
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
