"""Monte Carlo swaption pricing in a full-factor lognormal forward-rate model.

The sampler draws terminal states from a one-shot lognormal proxy and
reweights them with a truncated short-time expansion of the true
transition density, so prices, deltas and gammas at several expansion
orders come out of a single simulation.  A log-Euler path simulator of
the same dynamics serves as the reference throughout.

Modules
-------
lmm         model configuration, volatility structure, log-Euler scheme
payoffs     deflated swaption payoffs and the reporting scale
wkb         expansion kernels: generic recursion and closed forms
proxy       one-shot lognormal sampling density
estimators  price / delta / gamma estimators and variance diagnostics
bermudan    exercise-policy calibration and lower-bound pricing
harness     benchmark tables, cost sweep, self test, CSV output
mc          RNG streams and order-independent accumulation
lattice     randomly shifted lattice normals of the one-shot European calls
"""
from __future__ import annotations

from . import bermudan, estimators, harness, lattice, lmm, mc, payoffs, proxy, wkb  # noqa: F401
from .bermudan import AndersenPolicy, bermudan_price, calibrate_policy
from .estimators import McResult, delta_fd, euler_price, european_inputs, price
from .lmm import ModelConfig, VolStructure, build_vol_structure, load_config
from .payoffs import SwaptionSpec, swaption_payoff

__all__ = [
    "AndersenPolicy",
    "McResult",
    "ModelConfig",
    "SwaptionSpec",
    "VolStructure",
    "bermudan_price",
    "build_vol_structure",
    "calibrate_policy",
    "delta_fd",
    "euler_price",
    "european_inputs",
    "load_config",
    "price",
    "swaption_payoff",
    "bermudan",
    "estimators",
    "harness",
    "lattice",
    "lmm",
    "mc",
    "payoffs",
    "proxy",
    "wkb",
]
