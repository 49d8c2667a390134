import ast
import importlib
import importlib.util
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
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


def load_tracing():
    """perfbench's span tracer, loaded read-only from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_trace_sites_resolve():
    # perfbench --trace 1 patches these attributes where the package's
    # callers look them up; a rename must fail here, not in the benchmark
    tracing = load_tracing()
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


def test_tracer_installs_and_restores_every_site():
    # perfbench --trace 1 installs every site through tracing's own
    # lookup: each one is wrapped inside the block and put back after it.
    # One site that no longer resolves would crash every traced run
    tracing = load_tracing()
    sites = [(tracing._resolve(wkbmc, owner), attr) for owner, attr, _, _ in tracing.SITES]
    originals = [owner.__dict__[attr] for owner, attr in sites]
    assert len(sites) == 14
    tracer = tracing.Tracer()

    def reduce():
        acc = wkbmc.mc.MomentAccumulator(replicates=16)
        acc.add(0, np.arange(1.0, 41.0), 0)
        return acc.finalize()

    with tracer.installed(wkbmc):
        assert not any(owner.__dict__[attr] is f for (owner, attr), f in zip(sites, originals))
        tracer.call("estimators.reduce", reduce)
    assert all(owner.__dict__[attr] is f for (owner, attr), f in zip(sites, originals))
    # the accumulator's values are its second argument, as the counter reads them
    totals = tracer.layer_totals()["mc.reduce"]
    assert (totals["calls"], totals["rows"]) == (2, 40)


def test_one_shot_sites_record_calls():
    # a site the package no longer calls through would resolve and still
    # record nothing: the level-1 European head and the Bermudan
    # continuation must both reach every one-shot site
    from wkbmc import bermudan as brm
    from wkbmc import estimators as est
    from wkbmc import lmm

    cfg = lmm.ModelConfig(n=19, t1=1.0, delta=0.5, l0=0.035, vol=0.2, rho_inf=0.3,
                          strike=0.035, exercise_indices=tuple(range(1, 20, 2)))
    flat = brm.AndersenPolicy(cfg.exercise_indices, cfg.exercise_dates, np.zeros(10))
    tracer = load_tracing().Tracer()
    with tracer.installed(wkbmc):
        tracer.call("estimators.price",
                    lambda: est.price(est.european_inputs(cfg, 1, m=2000, seed=7)))
        tracer.call("bermudan.bermudan_price",
                    lambda: brm.bermudan_price(cfg, flat, level=1, m=2000, seed=7))
    totals = tracer.layer_totals()
    sites = ["proxy.sample_g", "lmm.to_y", "wkb.log_weight_y", "wkb.libor_c0",
             "wkb.WkbKernel.c1_taylor", "wkb.make_libor_kernel"]
    assert [name for name in sites if totals[name]["calls"] == 0] == []
    assert totals["estimators.driver"]["calls"] == totals["bermudan.driver"]["calls"] == 1


ROOT = Path(__file__).resolve().parents[1]

#: The names perfbench and the demos bind the package's modules to.
API_ALIASES = {
    "est": "wkbmc.estimators",
    "brm": "wkbmc.bermudan",
    "harness": "wkbmc.harness",
    "lmm": "wkbmc.lmm",
    "mc": "wkbmc.mc",
    "wkbmc": "wkbmc",
}

API_USERS = [
    ROOT / "perfbench" / "run.py",
    ROOT / "perfbench" / "setup_probe.py",
    *sorted((ROOT / "demos").glob("*.py")),
]


def test_bench_and_demo_api_resolves():
    # perfbench and the demos are read only here, never run: every
    # package attribute they use must exist and every call must bind to
    # its signature, positional and keyword arguments alike, so a
    # deleted name or a dropped or re-kinded parameter that would break
    # the benchmark fails this test.  Starred calls are not bound.
    bad = []
    seen = bound = 0
    for path in API_USERS:
        tree = ast.parse(path.read_text(), filename=str(path))
        calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in API_ALIASES):
                continue
            seen += 1
            where = f"{path.relative_to(ROOT)}:{node.lineno} {node.value.id}.{node.attr}"
            module = importlib.import_module(API_ALIASES[node.value.id])
            if not hasattr(module, node.attr):
                bad.append(where)
                continue
            call = calls.get(id(node))
            if call is None or any(isinstance(a, ast.Starred) for a in call.args) or any(
                    kw.arg is None for kw in call.keywords):
                continue
            try:
                inspect.signature(getattr(module, node.attr)).bind(
                    *call.args, **{kw.arg: kw.value for kw in call.keywords})
                bound += 1
            except TypeError as exc:
                bad.append(f"{where}: {exc}")
    assert seen > 30
    assert bound > 25
    assert bad == []


#: Runs in a fresh interpreter: the European calls at level 1 and the
#: Euler oracle, then a report of the scipy modules loaded by then, then
#: one Bermudan closed form, which may load scipy.
EUROPEAN_RUN = """
import json, sys
from wkbmc import bermudan as brm, estimators as est, harness, lmm
cfg = harness.build_config(lmm.load_config(sys.argv[1]), 1.0)
inp = est.european_inputs(cfg, 1, m=4096, seed=7, h=3.5e-5)
est.price(inp)
est.delta_fd(inp, 18)
est.euler_price(cfg, 1.0, inp.payoff, 4096, 7, scale=inp.scale)
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"scipy": loaded, "black76": brm.black76(1.0, 1.0, 0.4)}))
"""


def test_european_calls_load_no_scipy():
    # numpy is the only import-time dependency: a European desk call
    # must not pay scipy's import; Bermudan closed forms load it lazily
    from scipy.special import ndtr

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-c", EUROPEAN_RUN, str(ROOT / "configs" / "case_study.cfg")],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    report = json.loads(run.stdout.splitlines()[-1])
    assert report["scipy"] == []
    assert abs(report["black76"] / (2.0 * ndtr(0.2) - 1.0) - 1.0) <= 1e-14


def test_every_private_name_is_used():
    # a private module-level function, class or constant that nothing in
    # the package reads is dead code; tests alone do not keep it alive
    src = ROOT / "src" / "wkbmc"
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
                targets = [t.id for t in nodes if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(name, t) for t in targets
                        if t.startswith("_") and not (t.startswith("__") and t.endswith("__"))]
    assert len(defined) > 20
    assert [f"{name}:{t}" for name, t in defined if t not in used] == []
