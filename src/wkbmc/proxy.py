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
the proxy is a log-Euler step frozen at x.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lmm import VolStructure, drift_mu

__all__ = [
    "LognormalProxy",
    "proxy_moments",
    "make_proxy",
    "sample_g",
    "log_density",
]


def proxy_moments(
    vs: VolStructure,
    delta: np.ndarray,
    s: float,
    t: float,
    x: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the frozen log-increment xi over [s, t].

    mean_i = (t-s) (-a_ii/2 - sum_{j>i} a_ij delta_j x_j/(1+delta_j x_j)),
    cov    = (t-s) a.

    ``x`` may carry leading batch axes; the covariance does not depend
    on x and is returned once.
    """
    if t <= s:
        raise ValueError(f"need t > s, got s={s}, t={t}")
    x = np.asarray(x, dtype=np.float64)
    if np.any(x <= 0.0):
        raise ValueError("anchor rates must be positive")
    dt = t - s
    mean = dt * (-0.5 * vs.a_diag + drift_mu(vs, delta, x))
    return mean, dt * vs.a


@dataclass(frozen=True)
class LognormalProxy:
    """Frozen-coefficient sampler/density pair for one time step.

    Attributes
    ----------
    vs : VolStructure
    delta : ndarray, shape (n,)
    s, t : float
        Step endpoints in years.
    anchor : ndarray, shape (n,)
        The start state x at which the coefficients are frozen.
    mean_shift : ndarray, shape (n,)
        E xi over the step.
    """

    vs: VolStructure
    delta: np.ndarray
    s: float
    t: float
    anchor: np.ndarray
    mean_shift: np.ndarray

    @property
    def dt(self) -> float:
        return self.t - self.s

    @property
    def n(self) -> int:
        return self.anchor.shape[0]

    @property
    def cov_factor(self) -> np.ndarray:
        """sqrt(t - s) Gamma, the square factor of Cov(xi)."""
        return np.sqrt(self.dt) * self.vs.gamma


def make_proxy(
    vs: VolStructure,
    delta: np.ndarray,
    s: float,
    t: float,
    anchor: np.ndarray,
) -> LognormalProxy:
    anchor = np.asarray(anchor, dtype=np.float64)
    mean, _ = proxy_moments(vs, delta, s, t, anchor)
    return LognormalProxy(
        vs=vs,
        delta=np.asarray(delta, dtype=np.float64),
        s=float(s),
        t=float(t),
        anchor=anchor,
        mean_shift=mean,
    )


def sample_g(proxy: LognormalProxy, z: np.ndarray) -> np.ndarray:
    """Map standard normals to terminal rates: x exp(m + sqrt(dt) Gamma z)."""
    g = np.sqrt(proxy.dt) * (z @ proxy.vs.gamma.T)
    return proxy.anchor * np.exp(proxy.mean_shift + g)


def log_density(proxy: LognormalProxy, v: np.ndarray) -> np.ndarray:
    """ln phi(x, v), vectorised over leading axes of ``v``."""
    v = np.asarray(v, dtype=np.float64)
    if np.any(v <= 0.0):
        raise ValueError("proxy density is supported on positive rates only")
    vs = proxy.vs
    e = np.log(v / proxy.anchor) - proxy.mean_shift
    d = e @ vs.gamma_inv.T
    quad = np.sum(d * d, axis=-1) / (2.0 * proxy.dt)
    log_norm = 0.5 * proxy.n * np.log(2.0 * np.pi * proxy.dt)
    log_jac = np.sum(np.log(v), axis=-1) + np.sum(np.log(np.diag(vs.gamma)))
    return -log_norm - quad - log_jac
