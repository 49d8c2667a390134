"""Swaption payoffs in units of the terminal bond.

All payoffs are written as functions of the forward-rate vector at the
exercise date and are already deflated by B_{n+1}, so their expectation
under the terminal measure times B_{n+1}(0) is a price.  The deflated
value of one currency unit paid at T_{j+1} is the bond ratio

    br_j(L) = B_{j+1} / B_{n+1} = prod_{k=j+1}^{n} (1 + delta_k L_k).

Two payout conventions for a payer swaption with first reset T_i:

* 'on_sum'  : ( sum_{j>=i} br_j delta_j (L_j - theta) )^+ , an option
  on the deflated value of the whole swap;
* 'per_leg' : sum_{j>=i} br_j delta_j (L_j - theta)^+ , a cap-like sum
  of per-period options, an upper bound for the former.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SwaptionSpec",
    "bond_ratios",
    "swaption_payoff",
    "swaption_payoff_grad",
    "terminal_bond_now",
    "report_scale",
]


@dataclass(frozen=True)
class SwaptionSpec:
    """Payoff description.

    Attributes
    ----------
    strike : float
        Fixed rate theta.
    first_leg : int
        1-based tenor index of the first reset date covered.
    style : str
        'on_sum' or 'per_leg'.
    """

    strike: float
    first_leg: int
    style: str = "on_sum"

    def __post_init__(self) -> None:
        if self.style not in ("on_sum", "per_leg"):
            raise ValueError(f"unknown payoff style {self.style!r}")
        if self.first_leg < 1:
            raise ValueError(f"first_leg is a 1-based tenor index, got {self.first_leg}")


def bond_ratios(delta: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Deflated bonds br_j = prod_{k>j} (1 + delta_k L_k), j = 1..n.

    The last ratio is the empty product 1.  Vectorised over leading
    axes of ``L``.
    """
    g = 1.0 + delta * L
    out = np.empty_like(g)
    out[..., -1] = 1.0
    np.cumprod(g[..., :0:-1], axis=-1, out=out[..., -2::-1])
    return out


def _payoff_from_ratios(d: np.ndarray, L: np.ndarray, br: np.ndarray, strike: float, style: str):
    """Deflated payoff of the legs ``d``, ``L`` whose bond ratios ``br`` are at hand.

    All three cover the same legs, the first one the first leg paid;
    a caller that needs the ratios for more than the payoff builds them
    once and passes them here.
    """
    if style == "per_leg":
        return np.sum(br * d * np.maximum(L - strike, 0.0), axis=-1)
    return np.maximum(np.sum(br * d * (L - strike), axis=-1), 0.0)


def swaption_payoff(delta: np.ndarray, L: np.ndarray, spec: SwaptionSpec) -> np.ndarray:
    """Deflated payer-swaption payoff at its exercise date.

    The bond ratios of the paid legs read only the rates from
    ``first_leg`` on, so no earlier rate is touched.

    Parameters
    ----------
    delta : ndarray, shape (n,)
    L : ndarray, shape (..., n)
        Forward rates at the exercise date.
    spec : SwaptionSpec

    Returns
    -------
    ndarray, shape (...,)
    """
    j0 = spec.first_leg - 1
    d = delta[j0:]
    lj = L[..., j0:]
    return _payoff_from_ratios(d, lj, bond_ratios(d, lj), spec.strike, spec.style)


def swaption_payoff_grad(delta: np.ndarray, L: np.ndarray, spec: SwaptionSpec) -> np.ndarray:
    """Derivative of the deflated payoff in every rate (a.e. exact).

    Each rate enters through its own leg and through the bond ratios of
    all earlier legs: d br_j / d L_k = br_j delta_k / (1 + delta_k L_k)
    for k > j.  At payoff kinks the one-sided value is returned; those
    states have measure zero under any of the samplers.

    Returns shape (..., n); components below ``first_leg`` are zero.
    """
    j0 = spec.first_leg - 1
    br = bond_ratios(delta, L)
    legs = np.zeros_like(br)
    own = delta * br
    own[..., :j0] = 0.0
    if spec.style == "per_leg":
        legs[..., j0:] = br[..., j0:] * delta[j0:] * np.maximum(L[..., j0:] - spec.strike, 0.0)
        own = own * (L > spec.strike)
    else:
        legs[..., j0:] = br[..., j0:] * delta[j0:] * (L[..., j0:] - spec.strike)
    prefix = np.cumsum(legs, axis=-1) - legs
    grad = own + prefix * delta / (1.0 + delta * L)
    if spec.style == "on_sum":
        grad = grad * (np.sum(legs, axis=-1) > 0.0)[..., None]
    return grad


def terminal_bond_now(cfg, x: np.ndarray | None = None) -> float:
    """Time-zero price of the terminal bond B_{n+1}(0).

    Discounts across the tenor grid with the forward curve ``x``
    (default: the initial curve of ``cfg``) and over the stub [0, T_1]
    with simple interest at the spot rate, taken as the first initial
    forward: 1 / (1 + T_1 L_1(0)).  The stub rate is a separate money
    market quote and stays frozen when ``x`` carries a bumped curve, so
    d B / d x_i = -B delta_i / (1 + delta_i x_i) for every tenor rate.
    """
    rates = cfg.l0 if x is None else np.asarray(x, dtype=float)
    core = float(np.prod(1.0 / (1.0 + cfg.delta * rates)))
    stub = 1.0 / (1.0 + cfg.t1 * cfg.l0[0])
    return core * stub


def report_scale(cfg, x: np.ndarray | None = None) -> float:
    """Factor turning a deflated expectation into basis points.

    Prices are reported as 1e4 B_{n+1}(0) E[f].  Sensitivities to the
    initial forwards differentiate this whole product, so the scale is
    re-evaluated on each bumped curve rather than held fixed.
    """
    return 1e4 * terminal_bond_now(cfg, x)
