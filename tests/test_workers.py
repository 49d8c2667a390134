"""Batch loops give the same bits on any number of worker threads."""
import dataclasses
import threading
import time
from functools import lru_cache

import numpy as np
import pytest

from wkbmc import bermudan as brm
from wkbmc import estimators as est
from wkbmc import lmm, mc

#: Three batches, the last one partial.
M = 2 * mc.BATCH + 5
H = 3.5e-5


def case_cfg():
    return lmm.ModelConfig(
        n=19, t1=1.0, delta=0.5, l0=0.035, vol=0.2, rho_inf=0.3, strike=0.035,
        exercise_indices=tuple(range(1, 20, 2)),
    )


@lru_cache(maxsize=None)
def case_policy():
    return brm.calibrate_policy(case_cfg(), n_paths=10_000, seed=101)


def euro(level, m=M, cfg=None):
    return est.european_inputs(cfg or case_cfg(), level, m=m, seed=7, h=H)


def audit_inputs():
    # three rates keep the audit's 2n re-anchored draws per batch cheap
    cfg = lmm.ModelConfig(n=3, t1=0.5, delta=0.5, l0=0.035, vol=0.2, rho_inf=0.3, strike=0.035)
    return euro(1, m=mc.BATCH + 5, cfg=cfg)


CALLS = {
    "price": lambda: est.price(euro(1)),
    "delta_fd": lambda: est.delta_fd(euro(1), 18),
    # the one-shot European calls read the shifted lattice and reduce per replicate
    "gamma_fd": lambda: est.gamma_fd(euro(1), 18, 18),
    "euler_price": lambda: est.euler_price(
        case_cfg(), 1.0, euro(1).payoff, m=M, seed=7, scale=euro(1).scale),
    "bermudan_price_lgn": lambda: brm.bermudan_price(
        case_cfg(), case_policy(), level="lgn", m=M, seed=7),
    "bermudan_price_1": lambda: brm.bermudan_price(
        case_cfg(), case_policy(), level=1, m=M, seed=7),
    "bermudan_price_euler": lambda: brm.bermudan_price(
        case_cfg(), case_policy(), level="euler", m=M, seed=7),
    "bermudan_delta_fd": lambda: brm.bermudan_delta_fd(
        case_cfg(), case_policy(), 18, H, level=1, m=M, seed=7),
    "exercise_frequencies": lambda: brm.exercise_frequencies(
        case_cfg(), case_policy(), level=1, m=M, seed=7),
    "stopping_disagreement": lambda: brm.stopping_disagreement(
        case_cfg(), case_policy(), 18, H, level=1, m=M, seed=7),
    "calibrate_policy": lambda: brm.calibrate_policy(case_cfg(), n_paths=M, seed=101),
    "variance_audit": lambda: est.variance_audit(audit_inputs()),
}


@pytest.fixture(autouse=True)
def no_thread_left():
    # no call of any test here may leave a worker thread running
    before = set(threading.enumerate())
    yield
    assert set(threading.enumerate()) <= before


def numbers(result) -> np.ndarray:
    """Every number a result carries, flattened in field order."""
    if isinstance(result, brm.AndersenPolicy):
        return np.concatenate([result.thresholds, result.objectives])
    if isinstance(result, est.AuditReport):
        return np.array([result.lhs, result.rhs, *result.terms, *result.norms.values()])
    if dataclasses.is_dataclass(result):
        return np.array(dataclasses.astuple(result), dtype=np.float64)
    return np.atleast_1d(np.asarray(result, dtype=np.float64))


@pytest.mark.parametrize("name", sorted(CALLS))
def test_bits_do_not_depend_on_worker_count(monkeypatch, name):
    out = {}
    for workers in (1, 3):
        monkeypatch.setattr(mc, "_usable_cpus", lambda: workers)
        out[workers] = numbers(CALLS[name]())
    assert out[1].size > 0 and np.isfinite(out[1]).any()
    # exact: equal bits, NaN (an Euler run's ESS) matching NaN
    assert np.array_equal(out[1], out[3], equal_nan=True)


def test_failed_batch_stops_the_run(monkeypatch):
    # batch 1 of ten fails at once while the others take a while:
    # _estimate raises that very exception, the batches not yet started
    # never run, and no worker thread is left behind
    monkeypatch.setattr(mc, "_usable_cpus", lambda: 2)
    err = RuntimeError("batch 1 failed")
    ran = []

    def head(seed, bi, rows, payoff):
        ran.append(bi)
        if bi == 1:
            raise err
        time.sleep(0.05)
        return None, None, [np.zeros(rows)], None

    threads = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        est._estimate([(np.ones(1), 1.0)], head, 10 * mc.BATCH, seed=0)
    assert info.value is err
    assert 1 in ran and len(ran) < 10
    assert threading.active_count() == threads
