import importlib
import importlib.util
import pkgutil
from pathlib import Path

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


def test_trace_sites_resolve():
    # perfbench --trace 1 patches these attributes where the package's
    # callers look them up; a rename must fail here, not in the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for owner_path, attr, _, _ in tracing.SITES:
        owner = wkbmc
        for part in owner_path.split("."):
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{owner_path}.{attr}")
    if not callable(getattr(wkbmc.mc, "rng_for", None)):
        missing.append("mc.rng_for")
    assert missing == []
