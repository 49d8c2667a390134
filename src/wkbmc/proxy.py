"""One-shot lognormal importance-sampling proxy.

Freezing the percentage drift and the volatility of every rate at the
start state x turns the step [s, t] into a plain lognormal move

    zeta_i = x_i exp(xi_i),   xi ~ N(mean_shift, (t - s) a),

which is both an explicit sampler g(x, z) and an explicit density
phi(x, .).  The pair satisfies the exact change-of-variables identity
phi(x, g(x, z)) |det dg/dz| = lambda(z) against the standard normal
reference, which is what makes reweighting by any kernel p unbiased and
keeps the finite-difference sensitivities well behaved: bumping x moves
the sampler and the density together.

The mean shift carries the -|gamma_i|^2 / 2 term of the log-drift, so
the proxy is a log-Euler step frozen at x.  ``make_proxy`` is the one
constructor: it checks the step length dt = t - s and the anchor and
computes the mean shift.  Sampler and density read the step only
through that length, so it takes the length and not the endpoints.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lmm import VolStructure, drift_mu

__all__ = [
    "LognormalProxy",
    "make_proxy",
    "sample_g",
    "log_density",
]


@dataclass(frozen=True)
class LognormalProxy:
    """Frozen-coefficient sampler/density pair for one time step.

    Attributes
    ----------
    vs : VolStructure
    dt : float
        Step length t - s in years.
    anchor : ndarray, shape (n,) or (rows, n)
        The start state x at which the coefficients are frozen: one
        shared by every draw, or one per row of draws.
    mean_shift : ndarray, the shape of ``anchor``
        E xi over the step.
    """

    vs: VolStructure
    dt: float
    anchor: np.ndarray
    mean_shift: np.ndarray

    @property
    def n(self) -> int:
        return self.anchor.shape[-1]

    @property
    def cov_factor(self) -> np.ndarray:
        """sqrt(dt) Gamma, the square factor of Cov(xi) = dt a."""
        return np.sqrt(self.dt) * self.vs.gamma


def make_proxy(
    vs: VolStructure,
    delta: np.ndarray,
    dt: float,
    anchor: np.ndarray,
) -> LognormalProxy:
    """The proxy for a step of length ``dt`` frozen at ``anchor``.

    mean_shift_i = dt (-a_ii/2 - sum_{j>i} a_ij delta_j x_j/(1+delta_j x_j)).
    """
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be finite and > 0, got {dt}")
    anchor = np.asarray(anchor, dtype=np.float64)
    if not np.all((anchor > 0.0) & np.isfinite(anchor)):
        raise ValueError("anchor rates must be positive and finite")
    dt = float(dt)
    mean = dt * (-0.5 * vs.a_diag + drift_mu(vs, delta, anchor))
    return LognormalProxy(vs=vs, dt=dt, anchor=anchor, mean_shift=mean)


def sample_g(proxy: LognormalProxy, z: np.ndarray) -> np.ndarray:
    """Map standard normals to terminal rates: x exp(m + sqrt(dt) Gamma z)."""
    g = np.sqrt(proxy.dt) * (z @ proxy.vs.gamma.T)
    return proxy.anchor * np.exp(proxy.mean_shift + g)


def log_density(proxy: LognormalProxy, v: np.ndarray) -> np.ndarray:
    """ln phi(x, v), vectorised over leading axes of ``v``."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all((v > 0.0) & np.isfinite(v)):
        raise ValueError("proxy density is supported on positive finite rates only")
    vs = proxy.vs
    e = np.log(v / proxy.anchor) - proxy.mean_shift
    d = e @ vs.gamma_inv.T
    quad = np.sum(d * d, axis=-1) / (2.0 * proxy.dt)
    log_norm = 0.5 * proxy.n * np.log(2.0 * np.pi * proxy.dt)
    log_jac = np.sum(np.log(v), axis=-1) + np.sum(np.log(np.diag(vs.gamma)))
    return -log_norm - quad - log_jac
