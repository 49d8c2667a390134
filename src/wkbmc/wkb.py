"""Truncated short-time expansion of the transition density.

In the unit-diffusion coordinates Y = Gamma^{-1} log L the rates follow
dY = b(Y) dt + dW, and the transition density over a step of length dt
is approximated by

    p_l(x, y) = (2 pi dt)^{-n/2} exp(-|y - x|^2 / (2 dt)
                                     + sum_{k=0}^{l} c_k(x, y) dt^k).

The coefficients obey a one-dimensional integral recursion along the
straight segment between the endpoints:

    c_0(x, y)    = sum_i (y_i - x_i) int_0^1 b_i(y + s (x - y)) ds,
    c_{k+1}(x,y) = int_0^1 R_k(y + s (x - y), y) s^k ds,
    R_k(z, y)    = 1/2 sum_{l=0}^{k} grad c_l . grad c_{k-l}
                   + 1/2 lap c_k + b(z) . grad c_k,

with all derivatives in the first argument.  Truncation stops at
l = 1, so only c_0, R_0 and c_1 are implemented; the second-order
coefficient would need third-derivative chains.

c_0 and R_0 exist twice: once generically for an arbitrary smooth
drift (closed quadrature forms, used by the toy oracles and
cross-checks) and once in closed form for the Libor drift (used in
production).  The c_1 segment integral exists once and serves both
drifts.  Production never forms the density itself, only its log ratio
to the lognormal proxy started at the same state, ``log_weight_y``.
That start is always explicit: one state shared by every row (a draw
from the anchor at time zero) or one per row (the Bermudan continuation
starts each row at its own state).  There c_1(start, y) splits in two.
On the diagonal the Libor drift gives the closed form c_1(s, s) =
-|b(s)|^2 / 2, which cancels against the proxy's mean shift.  The rest,
c_1(start, y) - c_1(start, start), is the second-order Taylor
polynomial of y -> c_1(anchor, y) around the kernel's anchor, translated
to the start, so a weight costs no quadrature per sample.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cache, partial
from typing import Callable

import numpy as np

from .lmm import VolStructure, drift_mu_y, to_y

__all__ = [
    "FlatDriftModel",
    "constant_drift_model",
    "linear_drift_model",
    "c0_generic",
    "grad_c0_generic",
    "lap_c0_generic",
    "r0_generic",
    "c1_generic",
    "generic_log_density",
    "linear_drift_exact_log_density",
    "libor_c0",
    "libor_c0_grad",
    "libor_r0",
    "libor_c1",
    "libor_c1_taylor2",
    "WkbKernel",
    "make_libor_kernel",
    "log_weight_y",
    "grad_log_weight_y",
]


@cache
def _gauss_legendre_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1], one read-only pair per order."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes = 0.5 * (nodes + 1.0)
    weights = 0.5 * weights
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# ---------------------------------------------------------------------------
# generic drift machinery


@dataclass(frozen=True)
class FlatDriftModel:
    """A drift field on R^n with optional analytic derivatives.

    Attributes
    ----------
    b : callable
        (..., n) -> (..., n) drift values.
    grad : callable or None
        (..., n) -> (..., n, n) with J[i, j] = db_i/dz_j; None means
        identically zero (constant drift).
    lap : callable or None
        (..., n) -> (..., n) componentwise Laplacian of b; None means
        identically zero.
    """

    b: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray] | None = None
    lap: Callable[[np.ndarray], np.ndarray] | None = None


def constant_drift_model(b: np.ndarray) -> FlatDriftModel:
    b = np.asarray(b, dtype=np.float64)
    return FlatDriftModel(b=lambda z: np.broadcast_to(b, z.shape).copy())


def linear_drift_model(B: np.ndarray) -> FlatDriftModel:
    B = np.asarray(B, dtype=np.float64)
    return FlatDriftModel(
        b=lambda z: z @ B.T,
        grad=lambda z: np.broadcast_to(B, z.shape + (B.shape[0],)).copy(),
    )


def _segment(x: np.ndarray, y: np.ndarray, nodes: np.ndarray) -> np.ndarray:
    """Points y + s (x - y) for each node s; node axis inserted at -2."""
    y = np.asarray(y, dtype=np.float64)
    zs = nodes[:, None] * (np.asarray(x, dtype=np.float64) - y)[..., None, :]
    zs += y[..., None, :]
    return zs


def c0_generic(model: FlatDriftModel, x: np.ndarray, y: np.ndarray, order: int = 16) -> np.ndarray:
    """Leading coefficient by quadrature: (y - x) . avg of b along the segment."""
    nodes, weights = _gauss_legendre_01(order)
    zs = _segment(x, y, nodes)
    avg = np.einsum("k,...ki->...i", weights, model.b(zs))
    return np.sum((np.asarray(y, dtype=np.float64) - x) * avg, axis=-1)


def grad_c0_generic(model: FlatDriftModel, z: np.ndarray, y: np.ndarray, order: int = 16) -> np.ndarray:
    """Gradient of c_0 in its first argument, by closed quadrature forms.

    d c_0/dz_p = -avg_p + sum_i (y - z)_i int_0^1 s J_ip(y + s (z - y)) ds.
    """
    nodes, weights = _gauss_legendre_01(order)
    zs = _segment(z, y, nodes)
    avg = np.einsum("k,...ki->...i", weights, model.b(zs))
    out = -avg
    if model.grad is not None:
        d = np.asarray(y, dtype=np.float64) - z
        jterm = np.einsum("k,...i,...kip->...p", weights * nodes, d, model.grad(zs))
        out = out + jterm
    return out


def lap_c0_generic(model: FlatDriftModel, z: np.ndarray, y: np.ndarray, order: int = 16) -> np.ndarray:
    """Laplacian of c_0 in its first argument, by closed quadrature forms.

    lap c_0 = -2 int_0^1 s tr J ds + int_0^1 s^2 (y - z) . lap b ds.
    """
    out = np.zeros(np.broadcast_shapes(np.shape(z)[:-1], np.shape(y)[:-1]))
    if model.grad is None and model.lap is None:
        return out
    nodes, weights = _gauss_legendre_01(order)
    zs = _segment(z, y, nodes)
    if model.grad is not None:
        tr = np.trace(model.grad(zs), axis1=-2, axis2=-1)
        out = out - 2.0 * np.einsum("k,...k->...", weights * nodes, tr)
    if model.lap is not None:
        d = np.asarray(y, dtype=np.float64) - z
        out = out + np.einsum("k,...i,...ki->...", weights * nodes**2, d, model.lap(zs))
    return out


def r0_generic(model: FlatDriftModel, z: np.ndarray, y: np.ndarray, order: int = 16) -> np.ndarray:
    """First recursion right-hand side R_0(z, y) for an arbitrary drift.

    R_0 = 1/2 |grad c_0|^2 + 1/2 lap c_0 + b(z) . grad c_0, derivatives
    in the first argument, each by its closed quadrature form.
    """
    grad = grad_c0_generic(model, z, y, order)
    b = model.b(np.asarray(z, dtype=np.float64))
    return (
        0.5 * np.sum(grad * grad, axis=-1)
        + 0.5 * lap_c0_generic(model, z, y, order)
        + np.sum(b * grad, axis=-1)
    )


def _c1_quadrature(r0, x, y, order: int) -> np.ndarray:
    """c_1(x, y) = int_0^1 r0(y + s (x - y), y) ds by Gauss-Legendre."""
    nodes, weights = _gauss_legendre_01(order)
    zs = _segment(x, y, nodes)
    ybr = np.broadcast_to(np.asarray(y, dtype=np.float64)[..., None, :], zs.shape)
    return np.einsum("k,...k->...", weights, r0(zs, ybr))


def c1_generic(model: FlatDriftModel, x: np.ndarray, y: np.ndarray, order: int = 16) -> np.ndarray:
    """Second coefficient c_1(x, y), the segment integral of :func:`r0_generic`."""
    return _c1_quadrature(partial(r0_generic, model, order=order), x, y, order)


#: Rows per slice of :func:`generic_log_density`.  A 50k-point level-1
#: call on a 3-d constant drift took 1.43 s in 4096-row slices against
#: 1.78 s in one pass (2-vCPU Xeon, numpy 2.4).
_GENERIC_ROWS = 4096


def generic_log_density(
    model: FlatDriftModel,
    level: int,
    x: np.ndarray,
    y: np.ndarray,
    dt: float,
    order: int = 16,
) -> np.ndarray:
    """log p_l for an arbitrary flat-coordinate drift (toy/oracle path).

    c_1 is evaluated exactly by its segment integral at each (x, y),
    with no Taylor shortcut.  Point sets go through in slices of
    ``_GENERIC_ROWS`` rows along the first axis, which bounds the
    quadrature's nested (rows, order, order, n) point sets.
    """
    if level >= 2:
        raise NotImplementedError("truncation stops at level 1")
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    if x.ndim > 1 and x.shape[0] > _GENERIC_ROWS:
        return np.concatenate([
            generic_log_density(model, level, x[lo:lo + _GENERIC_ROWS],
                                y[lo:lo + _GENERIC_ROWS], dt, order)
            for lo in range(0, x.shape[0], _GENERIC_ROWS)
        ])
    n = x.shape[-1]
    d2 = np.sum((y - x) ** 2, axis=-1)
    phase = c0_generic(model, x, y, order)
    if level >= 1:
        phase = phase + dt * c1_generic(model, x, y, order)
    return -0.5 * n * np.log(2.0 * np.pi * dt) - d2 / (2.0 * dt) + phase


def linear_drift_exact_log_density(B: np.ndarray, x: np.ndarray, y: np.ndarray, dt: float) -> np.ndarray:
    """Exact kernel of dZ = B Z dt + dW: Gaussian with mean e^{B dt} x.

    The covariance integral int_0^dt e^{Bu} e^{B^T u} du comes from the
    block-matrix exponential expm([[-B, I], [0, B^T]] dt): with blocks
    F12, F22 of the result, Q = F22^T F12.
    """
    # imported here so that the production path never loads scipy
    from scipy.linalg import expm

    B = np.asarray(B, dtype=np.float64)
    n = B.shape[0]
    blk = np.zeros((2 * n, 2 * n))
    blk[:n, :n] = -B
    blk[:n, n:] = np.eye(n)
    blk[n:, n:] = B.T
    f = expm(blk * dt)
    q = f[n:, n:].T @ f[:n, n:]
    mean = np.asarray(x, dtype=np.float64) @ expm(B * dt).T
    resid = np.asarray(y, dtype=np.float64) - mean
    sol = np.linalg.solve(q, resid[..., :, None])[..., 0]
    quad = np.sum(resid * sol, axis=-1)
    _, logdet = np.linalg.slogdet(q)
    return -0.5 * (n * np.log(2.0 * np.pi) + logdet + quad)


# ---------------------------------------------------------------------------
# Libor drift closed forms
#
# With u = (Gamma x)_l and v = (Gamma y)_l (the log-rates at the two
# ends), the segment average of q_l = delta_l e^{(.)}/(1 + delta_l
# e^{(.)}) has the primitive H(.) = log(1 + delta_l e^{(.)}):
#
#   F_l = (H(u) - H(v)) / (u - v)           segment average of q_l,
#   G_l = dF_l/du = (q(u) - F) / w,
#   K_l = d^2F_l/du^2 = (h2(u) - 2 G) / w,     w = u - v,
#
# each switching to a Taylor series around v when |w| is small enough
# that the direct ratio loses precision.  The switch points sit where
# the two branches are about equally accurate (~1e-9 relative for G,
# ~1e-8 for K); K cancels one order harder, so its window is wider.
#
# c_0 needs F alone, so F has its own evaluator and G and K are formed
# only for the derivatives.  Each branch runs only on the entries that
# use it: on a one-shot draw the series window holds well under 1% of
# the entries, while in the kernel-build stencil it holds nearly all.

_FG_SERIES_EPS = 1e-3
_K_SERIES_EPS = 5e-3


def _expit(t: np.ndarray) -> np.ndarray:
    """Logistic 1 / (1 + e^-t); e^-t overflows to inf below t = -709, giving 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-t))


def _logistic_chain(t: np.ndarray, depth: int = 5) -> list[np.ndarray]:
    """q and its first ``depth - 1`` derivatives as polynomials in q."""
    q = _expit(t)
    h2 = q * (1.0 - q)
    chain = [q, h2, h2 * (1.0 - 2.0 * q)]
    if depth > 3:
        chain.append(h2 * (1.0 - 6.0 * q + 6.0 * q * q))
    if depth > 4:
        chain.append(h2 * (1.0 - 14.0 * q + 36.0 * q * q - 24.0 * q * q * q))
    return chain[:depth]


def _softplus(t: np.ndarray, out=None, where=True) -> np.ndarray:
    """H(t) = log(1 + e^t); overflows only for t > 709, i.e. delta L > 1e308."""
    out = np.exp(t, out=out, where=where)
    return np.log1p(out, out=out, where=where)


def _segment_f(delta: np.ndarray, u: np.ndarray, v: np.ndarray, series=None) -> np.ndarray:
    """F for every rate, batched over leading axes (u and v broadcast).

    ``series`` may carry the first four entries of the logistic chain at
    v + log delta on the series window |u - v| < ``_FG_SERIES_EPS``,
    when the caller has formed them already.
    """
    shift = np.log(delta)
    tu = u + shift
    w = u - v
    tv = np.broadcast_to(v + shift, w.shape)
    small = np.abs(w) < _FG_SERIES_EPS
    big = ~small
    # a one-shot draw shares one anchor row u, so H(u) costs n entries
    if tu.size < w.size:
        hu = _softplus(tu)
    else:
        hu = _softplus(tu, out=np.empty(w.shape), where=big)
    f = _softplus(tv, out=np.empty(w.shape), where=big)
    np.subtract(hu, f, out=f, where=big)
    np.divide(f, w, out=f, where=big)
    if small.any():
        ws = w[small]
        qv, h2v, h3v, h4v = _logistic_chain(tv[small], depth=4) if series is None else series
        f[small] = qv + 0.5 * h2v * ws + h3v * ws * ws / 6.0 + h4v * ws * ws * ws / 24.0
    return f


def _segment_fgk(delta: np.ndarray, u: np.ndarray, v: np.ndarray, want_k: bool):
    """F, G and optionally K for every rate, batched over leading axes."""
    shift = np.log(delta)
    w = u - v
    tu = np.broadcast_to(u + shift, w.shape)
    tv = np.broadcast_to(v + shift, w.shape)

    small = np.abs(w) < _FG_SERIES_EPS
    small_k = np.abs(w) < _K_SERIES_EPS if want_k else np.zeros_like(small)
    # one logistic chain over both series windows serves F, G and K
    window = small | small_k
    chain = _logistic_chain(tv[window], depth=5 if want_k else 4)
    fg_series = [h[small[window]] for h in chain[:4]]
    f = _segment_f(delta, u, v, fg_series)

    g = np.empty(w.shape)
    big = ~small
    if big.any():
        g[big] = (_expit(tu[big]) - f[big]) / w[big]
    if small.any():
        ws = w[small]
        h2v, h3v, h4v = fg_series[1:]
        g[small] = 0.5 * h2v + h3v * ws / 3.0 + h4v * ws * ws / 8.0
    if not want_k:
        return f, g, None

    k = np.empty(w.shape)
    big = ~small_k
    if big.any():
        qu = _expit(tu[big])
        k[big] = (qu * (1.0 - qu) - 2.0 * g[big]) / w[big]
    if small_k.any():
        ws = w[small_k]
        h3v, h4v, h5v = (h[small_k[window]] for h in chain[2:5])
        k[small_k] = h3v / 3.0 + h4v * ws / 4.0 + h5v * ws * ws / 10.0
    return f, g, k


def _c0_pieces(vs: VolStructure, delta: np.ndarray, x: np.ndarray, y: np.ndarray, want_k: bool):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    u = x @ vs.gamma.T
    v = y @ vs.gamma.T
    d = y - x
    m = d @ vs.gamma_inv
    f, g, k = _segment_fgk(delta, u, v, want_k)
    return m, f, g, k


def libor_c0(vs: VolStructure, delta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Closed-form leading coefficient for the Libor drift, Y-coordinates.

    c_0 = (y - x) . V - sum_j m_j sum_{l>j} a_jl F_l with m = (y - x)
    Gamma^{-1}; this is the generic line integral done analytically.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    d = y - x
    m = d @ vs.gamma_inv
    f = _segment_f(delta, x @ vs.gamma.T, y @ vs.gamma.T)
    return d @ vs.y_drift - np.sum(m * (f @ vs.a_upper.T), axis=-1)


def _grad_from_pieces(vs: VolStructure, m, f, g) -> np.ndarray:
    t = f @ vs.a_upper.T
    cw = m @ vs.a_upper
    return -vs.y_drift + t @ vs.gamma_inv.T - (cw * g) @ vs.gamma


def _lap_from_pieces(vs: VolStructure, m, k) -> np.ndarray:
    """Laplacian of c_0 in the first argument.

    The mixed-derivative contributions cancel through Gamma Gamma^{-1},
    leaving -sum_l a_ll cw_l K_l; no mixed terms are ever formed.
    """
    return -((m @ vs.a_upper) * k) @ vs.a_diag


def libor_c0_grad(vs: VolStructure, delta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of libor_c0 in the first argument."""
    m, f, g, _ = _c0_pieces(vs, delta, x, y, want_k=False)
    return _grad_from_pieces(vs, m, f, g)


def libor_r0(vs: VolStructure, delta: np.ndarray, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """First recursion right-hand side R_0(z, y) for the Libor drift.

    One evaluation of the segment averages serves both the gradient and
    the Laplacian.
    """
    z = np.asarray(z, dtype=np.float64)
    m, f, g, k = _c0_pieces(vs, delta, z, y, want_k=True)
    grad = _grad_from_pieces(vs, m, f, g)
    lap = _lap_from_pieces(vs, m, k)
    b = drift_mu_y(vs, delta, z)
    return 0.5 * np.sum(grad * grad, axis=-1) + 0.5 * lap + np.sum(b * grad, axis=-1)


#: Gauss-Legendre nodes of the Libor c_1 segment integral.
_C1_NODES = 16

#: Gauss-Legendre nodes of the c_1 integrals in libor_c1_taylor2.  Its
#: stencil segments are about 1e-4 long, so the integrand is a
#: polynomial of low degree to far below the difference's rounding.
#: Against ``_C1_NODES`` nodes, at 4 and 19 rates, the value agrees to
#: 1e-13 and the gradient to 4e-11 relative, and the Hessian moves by
#: 3e-6 of its largest entry, as much as a 10% change of the difference
#: step moves it (1.3e-6 to 1.7e-6): the difference's own rounding.
_STENCIL_NODES = 4

#: Stencil points per c_1 evaluation in libor_c1_taylor2.  With
#: ``_STENCIL_NODES`` nodes that is 384 (point, node) rows, whose
#: temporaries stay in a 2 MiB L2 cache; for the 381-point stencil of
#: 19 rates, 64-96 points per call built the kernel in a median 6 ms,
#: 128 points in 7 ms and one call over all of them in 8 ms (2-vCPU
#: Xeon, numpy 2.4, one BLAS thread).
_STENCIL_CHUNK = 96

#: Relative central-difference step of libor_c1_taylor2.
_TAYLOR_REL_STEP = 1e-4


def libor_c1(vs: VolStructure, delta: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """c_1(x, y), the segment integral of :func:`libor_r0`."""
    return _c1_quadrature(partial(libor_r0, vs, delta), x, y, _C1_NODES)


def libor_c1_taylor2(
    vs: VolStructure, delta: np.ndarray, x: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Second-order Taylor data of y -> c_1(x, y) around y = x.

    Central differences with per-coordinate steps eps_i =
    ``_TAYLOR_REL_STEP`` * max(|x_i|, 1).  The stencil is the anchor, the
    2n axis points x +- eps_i e_i and, per pair i < j, the diagonal pair
    x +- (eps_i e_i + eps_j e_j); each mixed partial reuses the axis
    points:

        H_ij = [f(+i,+j) + f(-i,-j) - f(+i) - f(-i) - f(+j) - f(-j) + 2 f0]
               / (2 eps_i eps_j),

    which has the O(eps^2) error of the four-point rule at 1 + n^2
    points instead of 1 + 2n^2.  The c_1 evaluations are batched into
    quadrature calls of ``_STENCIL_CHUNK`` points each, on
    ``_STENCIL_NODES`` nodes.  Returns (value,
    gradient, Hessian), the Hessian symmetric by construction.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    eps = _TAYLOR_REL_STEP * np.maximum(np.abs(x), 1.0)
    iu, ju = np.triu_indices(n, k=1)
    axis = np.diag(eps)
    pair = axis[iu] + axis[ju]
    ys = x + np.concatenate([np.zeros((1, n)), axis, -axis, pair, -pair])

    r0 = partial(libor_r0, vs, delta)
    vals = np.concatenate([
        _c1_quadrature(r0, x, ys[lo : lo + _STENCIL_CHUNK], _STENCIL_NODES)
        for lo in range(0, ys.shape[0], _STENCIL_CHUNK)
    ])
    f0 = float(vals[0])
    fplus, fminus = vals[1 : 1 + n], vals[1 + n : 1 + 2 * n]
    fpp, fmm = np.split(vals[1 + 2 * n :], 2)
    grad = (fplus - fminus) / (2.0 * eps)
    # second differences along each axis and along each diagonal
    d2 = fplus - 2.0 * f0 + fminus
    hess = np.diag(d2 / eps**2)
    mixed = (fpp - 2.0 * f0 + fmm - d2[iu] - d2[ju]) / (2.0 * eps[iu] * eps[ju])
    hess[iu, ju] = hess[ju, iu] = mixed
    return f0, grad, hess


# ---------------------------------------------------------------------------
# the anchored kernel


@dataclass(frozen=True)
class WkbKernel:
    """Anchored evaluator of the truncated density.

    The anchor is the state the Taylor data is taken at; every
    evaluation names its start state, the anchor itself or states near
    it.  For level 1 the gradient and Hessian of y -> c_1(anchor, y) at
    y = anchor are precomputed once, so that a weight evaluation is
    quadrature-free.  c_1 on the diagonal needs no data: it is the
    closed form in :func:`log_weight_y`.
    """

    level: int
    vs: VolStructure
    delta: np.ndarray
    c1_grad: np.ndarray | None = None
    c1_hess: np.ndarray | None = None

    def c1_taylor(self, y: np.ndarray, start_y: np.ndarray) -> np.ndarray:
        """The surrogate of c_1(start, y) - c_1(start, start), one start or one per row.

        With d = y - start, row by row, the anchor's quadratic translated
        to the start:

            d . c1_grad + d' c1_hess d / 2.
        """
        d = np.asarray(y, dtype=np.float64) - start_y
        return d @ self.c1_grad + 0.5 * np.sum((d @ self.c1_hess) * d, axis=-1)


def make_libor_kernel(
    vs: VolStructure,
    delta: np.ndarray,
    anchor_rates: np.ndarray,
    level: int = 1,
) -> WkbKernel:
    """Build the kernel anchored at the rate vector ``anchor_rates``."""
    if level not in (0, 1):
        raise ValueError(f"truncation level must be 0 or 1, got {level}")
    anchor_rates = np.asarray(anchor_rates, dtype=np.float64)
    if not np.all((anchor_rates > 0.0) & np.isfinite(anchor_rates)):
        raise ValueError("anchor rates must be positive and finite")
    delta = np.asarray(delta, dtype=np.float64)
    c1g = c1h = None
    if level == 1:
        _, c1g, c1h = libor_c1_taylor2(vs, delta, to_y(vs, anchor_rates))
    return WkbKernel(level=level, vs=vs, delta=delta, c1_grad=c1g, c1_hess=c1h)


#: OpenBLAS (0.3, Haswell kernels) computes the rows of a product in
#: groups of this many and the last (rows mod 4) by other code, which
#: can round differently.  ``x @ a`` for a C-ordered matrix or a vector
#: ``a`` does so; with a transposed ``a`` (``x @ b.T``) no row measured
#: different.  :func:`log_weight_y` takes both kinds, so it grows its
#: rows to whole groups with copies of the last one: every row then
#: gets the code the others get, and its bits do not depend on where it
#: sits in a slice, nor, in a Bermudan leg, on which other rows still
#: run.  A slice of whole groups (1024 rows at 19 rates) is not copied.
_BLAS_ROWS = 4


def log_weight_y(
    kernel: WkbKernel,
    dt: float,
    y_to: np.ndarray,
    kappa: np.ndarray,
    start_y: np.ndarray,
) -> np.ndarray:
    """ln(p_l / phi) for a proxy with the same start and step.

    ``start_y`` is one start state shared by every row, or one per row
    (flat coordinates, rows matching ``y_to``), and ``kappa`` the
    proxy's mean shift from it, likewise.  In flat coordinates the proxy
    is N(start + kappa, dt I), so the normalizations, chart Jacobians
    and the common |y - start|^2 part cancel algebraically.  With
    d = y - start, level 0 reads

        ln w = (|kappa|^2 - 2 d . kappa) / (2 dt) + c_0(start, y).

    At level 1, kappa = b(start) dt and the Libor drift is
    divergence-free in flat coordinates (mu_i reads only the later
    rates), so c_1(s, s) = R_0(s, s) = -|b(s)|^2 / 2 exactly and
    dt c_1(start, start) cancels the |kappa|^2 term:

        ln w = -d . kappa / dt + c_0(start, y) + dt c_1~(start, y),

    with c_1~ the surrogate of :meth:`WkbKernel.c1_taylor`.  Expanding
    the difference of quadratic forms analytically keeps the 1/dt terms
    from ever being formed, so there is no cancellation loss for small
    dt.  The full log density is this plus the proxy's.
    """
    y_to = np.asarray(y_to, dtype=np.float64)
    pad = -y_to.shape[0] % _BLAS_ROWS if y_to.ndim == 2 else 0
    if pad:  # whole row groups: see _BLAS_ROWS
        grown = [np.concatenate([a, np.repeat(a[-1:], pad, axis=0)]) if np.ndim(a) == 2 else a
                 for a in (y_to, kappa, start_y)]
        return log_weight_y(kernel, dt, *grown)[:y_to.shape[0]]
    dot = partial(np.einsum, "...i,...i->...")  # row by row, either side broadcast
    c0 = libor_c0(kernel.vs, kernel.delta, start_y, y_to)
    if kernel.level == 0:
        return (dot(kappa, kappa) - 2.0 * dot(y_to - start_y, kappa)) / (2.0 * dt) + c0
    return -dot(y_to - start_y, kappa) / dt + c0 + dt * kernel.c1_taylor(y_to, start_y)


def grad_log_weight_y(
    kernel: WkbKernel,
    dt: float,
    y_to: np.ndarray,
    kappa: np.ndarray,
    start_y: np.ndarray,
) -> np.ndarray:
    """Gradient of :func:`log_weight_y` in ``y_to``, in closed form.

    c_0 is a line integral, so c_0(start, y) = -c_0(y, start) and its
    gradient in y is minus :func:`libor_c0_grad` with the arguments
    swapped:

        grad ln w = -kappa / dt - grad_1 c_0(y, start)
                    + dt (c1_grad + (y - start) c1_hess).
    """
    y_to = np.asarray(y_to, dtype=np.float64)
    out = -kappa / dt - libor_c0_grad(kernel.vs, kernel.delta, y_to, start_y)
    if kernel.level >= 1:
        out = out + dt * (kernel.c1_grad + (y_to - start_y) @ kernel.c1_hess)
    return out
