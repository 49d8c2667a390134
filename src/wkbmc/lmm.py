"""Forward-Libor market model under its terminal measure.

The state is a vector of simply compounded forward rates L_1 .. L_n on
a tenor grid T_1 < ... < T_{n+1} with accrual fractions delta_i =
T_{i+1} - T_i.  Deflating by the terminal bond B_{n+1} makes the last
rate a martingale and gives every rate the dynamics

    dL_i / L_i = mu_i(L) dt + gamma_i . dW,
    mu_i(L)    = - sum_{j > i} delta_j L_j a_ij / (1 + delta_j L_j),

where gamma_i is the (constant) volatility vector of rate i and
a_ij = gamma_i . gamma_j.  The module provides:

* the exponentially decaying correlation structure and the square
  factorisation a = Gamma Gamma^T with Gamma upper triangular,
* the terminal-measure drift, a log-Euler step, and the one path
  stepper (``evolve_log_euler``) behind the Euler oracle, the oracle's
  Bermudan continuation and the policy fit; it steps in the row slices of
  ``mc.row_slices`` on one reused normals buffer, steps only the live
  rates a caller names (the trailing block is a model of its own) and
  draws normals for exactly those rates of the rows it is handed,
* the unit-diffusion coordinates Y = Gamma^{-1} log L in which the
  transition density expansion is carried out,
* a plain-text configuration format for experiment settings.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import mc

__all__ = [
    "correlation_matrix",
    "VolStructure",
    "build_vol_structure",
    "ModelConfig",
    "drift_mu",
    "log_euler_step",
    "evolve_log_euler",
    "to_y",
    "from_y",
    "drift_mu_y",
    "load_config",
    "save_config",
    "make_config",
]


def correlation_matrix(n: int, rho_inf: float) -> np.ndarray:
    """Exponentially decaying instantaneous correlation.

    rho_ij = exp(|i - j| / (n - 1) * ln rho_inf), so adjacent rates are
    strongly correlated and the first/last pair has correlation
    ``rho_inf`` exactly.

    Parameters
    ----------
    n : int
        Number of forward rates, at least 2.
    rho_inf : float
        Correlation between the first and last rate.  Must lie strictly
        inside (0, 1); the flat case rho_inf = 1 makes the structure
        rank one and is rejected.
    """
    if n < 2:
        raise ValueError(f"need at least two rates, got n={n}")
    if not (0.0 < rho_inf < 1.0):
        raise ValueError(
            f"rho_inf must lie strictly inside (0, 1), got {rho_inf}; "
            "a perfectly correlated curve has no invertible square root"
        )
    idx = np.arange(n, dtype=np.float64)
    return np.exp(np.abs(idx[:, None] - idx[None, :]) / (n - 1) * np.log(rho_inf))


@dataclass(frozen=True)
class VolStructure:
    """Factorised covariance structure of the log-rates.

    Attributes
    ----------
    vol : ndarray, shape (n,)
        Per-rate volatility norms |gamma_i|.
    corr : ndarray, shape (n, n)
        Instantaneous correlation of the driving noise.
    a : ndarray, shape (n, n)
        Covariance rates a_ij = |gamma_i| |gamma_j| rho_ij.
    gamma : ndarray, shape (n, n)
        Upper-triangular square root, a = gamma gamma^T.  Row i is the
        volatility vector gamma_i of rate i.
    gamma_inv : ndarray, shape (n, n)
        Inverse of gamma (upper triangular as well).
    a_diag : ndarray, shape (n,)
        Diagonal of ``a``, i.e. |gamma_i|^2.
    a_upper : ndarray, shape (n, n)
        ``a`` with everything at or below the diagonal zeroed; the
        drift sum over j > i contracts against this.
    y_drift : ndarray, shape (n,)
        State-independent part of the drift of Y = Gamma^{-1} log L,
        equal to -Gamma^{-1} diag(a) / 2.
    """

    vol: np.ndarray
    corr: np.ndarray
    a: np.ndarray
    gamma: np.ndarray
    gamma_inv: np.ndarray
    a_diag: np.ndarray
    a_upper: np.ndarray
    y_drift: np.ndarray

    @property
    def n(self) -> int:
        return self.vol.shape[0]

    def trailing(self, first: int) -> "VolStructure":
        """The structure of rates ``first``.. (0-based) on their own.

        Rate i's drift sums over the rates after it only and Gamma is
        upper triangular, so the trailing block of every field is the
        model of the trailing rates by themselves.
        """
        b = slice(first, None)
        return VolStructure(
            vol=self.vol[b],
            corr=self.corr[b, b],
            a=self.a[b, b],
            gamma=self.gamma[b, b],
            gamma_inv=self.gamma_inv[b, b],
            a_diag=self.a_diag[b],
            a_upper=self.a_upper[b, b],
            y_drift=self.y_drift[b],
        )


def build_vol_structure(vol: np.ndarray, corr: np.ndarray) -> VolStructure:
    """Build the factorised covariance structure.

    The square root is taken upper triangular: reversing the index
    order, taking the ordinary (lower) Cholesky factor, and reversing
    back yields an upper-triangular Gamma with Gamma Gamma^T = a.  The
    last row of Gamma then has a single nonzero entry, which matches
    the terminal rate being driven by one Brownian component only.
    """
    vol = np.atleast_1d(np.asarray(vol, dtype=np.float64))
    corr = np.asarray(corr, dtype=np.float64)
    n = vol.shape[0]
    if corr.shape != (n, n):
        raise ValueError(f"correlation shape {corr.shape} does not match {n} rates")
    if np.any(vol <= 0.0):
        raise ValueError("volatilities must be positive")
    a = np.outer(vol, vol) * corr
    rev = np.linalg.cholesky(a[::-1, ::-1])
    gamma = rev[::-1, ::-1]
    # reversal of a lower-triangular factor is upper triangular
    gamma = np.triu(gamma)
    gamma_inv = np.linalg.inv(gamma)
    a_upper = np.triu(a, k=1)
    a_diag = np.diag(a).copy()
    y_drift = -0.5 * gamma_inv @ a_diag
    return VolStructure(
        vol=vol,
        corr=corr,
        a=a,
        gamma=gamma,
        gamma_inv=gamma_inv,
        a_diag=a_diag,
        a_upper=a_upper,
        y_drift=y_drift,
    )


@dataclass
class ModelConfig:
    """Model and experiment settings for one maturity.

    Attributes
    ----------
    n : int
        Number of forward rates spanning the swap.
    t1 : float
        First tenor date T_1 (the option maturity), in years.
    delta : ndarray, shape (n,)
        Accrual fractions T_{i+1} - T_i.
    l0 : ndarray, shape (n,)
        Initial forward rates.
    vol : ndarray, shape (n,)
        Volatility norms |gamma_i|.
    rho_inf : float
        First/last correlation of the decaying structure.
    strike : float
        Fixed rate theta of the underlying swap.
    payoff_style : str
        'on_sum' for an option on the deflated swap value, 'per_leg'
        for a sum of per-period options.
    exercise_indices : tuple of int
        1-based tenor indices of the Bermudan exercise dates.
    dt_euro : float
        Log-Euler step for European-maturity oracle runs.
    dt_berm : float
        Log-Euler step used on Bermudan segments.
    """

    n: int
    t1: float
    delta: np.ndarray
    l0: np.ndarray
    vol: np.ndarray
    rho_inf: float
    strike: float
    payoff_style: str = "on_sum"
    exercise_indices: tuple[int, ...] = ()
    dt_euro: float = 0.1
    dt_berm: float = 0.05
    vs: VolStructure = field(init=False, repr=False)
    tenor: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.delta = np.broadcast_to(np.asarray(self.delta, dtype=np.float64), (self.n,)).copy()
        self.l0 = np.broadcast_to(np.asarray(self.l0, dtype=np.float64), (self.n,)).copy()
        self.vol = np.broadcast_to(np.asarray(self.vol, dtype=np.float64), (self.n,)).copy()
        if self.payoff_style not in ("on_sum", "per_leg"):
            raise ValueError(f"unknown payoff_style {self.payoff_style!r}")
        for name in ("t1", "delta", "l0", "vol", "dt_euro", "dt_berm", "rho_inf", "strike"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            positive = name not in ("rho_inf", "strike")
            bad = ~np.isfinite(value) | (positive & ~(value > 0.0))
            if np.any(bad):
                need = "finite and positive" if positive else "finite"
                if value.ndim:
                    j = int(np.argmax(bad))
                    name, value = f"{name}[{j}]", value[j]
                raise ValueError(f"{name} must be {need}, got {value}")
        ex = tuple(self.exercise_indices)
        if any(b <= a for a, b in zip(ex, ex[1:])):
            raise ValueError(f"exercise_indices must be strictly increasing, got {ex}")
        if ex and not (1 <= ex[0] and ex[-1] <= self.n):
            raise ValueError(f"exercise_indices must lie in 1..{self.n}, got {ex}")
        self.vs = build_vol_structure(self.vol, correlation_matrix(self.n, self.rho_inf))
        # tenor[k] = T_{k+1}: dates T_1 .. T_{n+1}
        self.tenor = np.concatenate([[self.t1], self.t1 + np.cumsum(self.delta)])

    def tenor_date(self, idx: int) -> float:
        """Date T_idx for a 1-based tenor index (1 .. n+1)."""
        if not (1 <= idx <= self.n + 1):
            raise ValueError(f"tenor index {idx} outside 1..{self.n + 1}")
        return float(self.tenor[idx - 1])

    @property
    def exercise_dates(self) -> np.ndarray:
        return np.array([self.tenor_date(i) for i in self.exercise_indices])


def drift_mu(vs: VolStructure, delta: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Terminal-measure percentage drift mu_i(L); non-positive.

    Broadcasts over leading axes of ``L``.
    """
    q = delta * L
    q /= q + 1.0
    np.negative(q, out=q)
    return q @ vs.a_upper.T


def log_euler_step(
    vs: VolStructure,
    delta: np.ndarray,
    k_state: np.ndarray,
    dt: float,
    shock: np.ndarray,
) -> np.ndarray:
    """One log-Euler update of K = log L.

    K_i += (mu_i - a_ii / 2) dt + shock_i, where ``shock`` is the
    diffusion increment sqrt(dt) Gamma z of a matrix z of independent
    standard normals, broadcast over the leading axes of ``k_state``.
    Members of a group that share their normals share the increment, so
    it is formed once, by the caller.
    """
    step = drift_mu(vs, delta, np.exp(k_state))
    step -= 0.5 * vs.a_diag
    step *= dt
    step += k_state
    step += shock
    return step


def evolve_log_euler(
    cfg: ModelConfig,
    group: list,
    n_steps: int,
    dt: float,
    rng: np.random.Generator,
    first: int = 0,
) -> list:
    """Advance a group of (B, n) rate arrays by ``n_steps`` log-Euler steps.

    Only the live rates, 0-based columns ``first``.., are logged, stepped
    and exponentiated: ``cfg.vs.trailing(first)`` is their model.  Each
    step draws one (B, n - first) block of standard normals from ``rng``
    into one reused buffer, whatever the group size, so a step takes
    exactly B (n - first) normals.  The step itself runs in the
    cache-sized slices of ``mc.row_slices``: each slice forms its
    diffusion increment sqrt(dt) Gamma z once, and every member adds it
    to its log-rates in place, so all members see the same increments
    (bump-and-revalue stencils share them).  Returns the final rates,
    one array per member; the rates before ``first`` come back holding
    the finite values they came in with.
    """
    vs, delta = cfg.vs.trailing(first), cfg.delta[first:]
    ks = [np.log(np.asarray(g, dtype=np.float64)[:, first:]) for g in group]
    z = np.empty(ks[0].shape)
    parts = mc.row_slices(*z.shape)
    for _ in range(n_steps):
        rng.standard_normal(z.shape, out=z)
        for part in parts:
            shock = z[part] @ vs.gamma.T
            shock *= np.sqrt(dt)
            for k in ks:
                k[part] = log_euler_step(vs, delta, k[part], dt, shock)
    out = []
    for g, k in zip(group, ks):
        x = np.empty((z.shape[0], cfg.n))
        x[:, :first] = g[:, :first]
        np.exp(k, out=x[:, first:])
        out.append(x)
    return out


def to_y(vs: VolStructure, L: np.ndarray) -> np.ndarray:
    """Map rates to the unit-diffusion coordinates Y = Gamma^{-1} log L."""
    return np.log(L) @ vs.gamma_inv.T


def from_y(vs: VolStructure, Y: np.ndarray) -> np.ndarray:
    """Inverse of :func:`to_y`."""
    return np.exp(Y @ vs.gamma.T)


def drift_mu_y(vs: VolStructure, delta: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Drift of Y: constant part plus Gamma^{-1} mu(exp(Gamma Y))."""
    L = from_y(vs, Y)
    return vs.y_drift + drift_mu(vs, delta, L) @ vs.gamma_inv.T


# ---------------------------------------------------------------------------
# configuration files: plain "key = value" lines, '#' comments, vectors
# as comma-separated lists, exercise dates as 1-based tenor indices.

_VECTOR_KEYS = ("delta", "l0", "vol")
_SCALAR_FLOAT_KEYS = ("rho_inf", "strike", "dt_euro", "dt_berm")
_KEYS = ("n", *_SCALAR_FLOAT_KEYS, *_VECTOR_KEYS, "exercise_dates", "payoff_style")


def load_config(path) -> dict:
    """Read raw settings from a config file into a dict.

    An unknown key, a malformed number, a key given twice, or a vector
    whose length is neither one nor ``n`` raises ValueError naming the
    offending ``path:line``.
    """
    raw: dict = {}
    seen: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key in seen:
            raise ValueError(
                f"{path}:{lineno}: duplicate key {key!r}, first set at {path}:{seen[key]}"
            )
        seen[key] = lineno
        if key not in _KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            if key == "n":
                raw[key] = int(value)
            elif key in _SCALAR_FLOAT_KEYS:
                raw[key] = float(value)
            elif key in _VECTOR_KEYS:
                parts = [float(p) for p in value.split(",") if p.strip()]
                raw[key] = parts[0] if len(parts) == 1 else np.array(parts)
            elif key == "exercise_dates":
                raw["exercise_indices"] = tuple(int(p) for p in value.split(",") if p.strip())
            else:
                raw[key] = value
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from None
    for key in _VECTOR_KEYS:
        value = raw.get(key)
        if "n" in raw and isinstance(value, np.ndarray) and value.shape[0] != raw["n"]:
            raise ValueError(
                f"{path}:{seen[key]}: {key} has {value.shape[0]} entries, but n = {raw['n']}"
            )
    return raw


def save_config(path, raw: dict) -> None:
    """Write raw settings back out in the same plain-text format."""
    lines = []
    for key, value in raw.items():
        if key == "exercise_indices":
            lines.append("exercise_dates = " + ", ".join(str(i) for i in value))
        elif isinstance(value, np.ndarray):
            lines.append(f"{key} = " + ", ".join(f"{v:.10g}" for v in value))
        else:
            lines.append(f"{key} = {value}")
    Path(path).write_text("\n".join(lines) + "\n")


def make_config(raw: dict, t1: float) -> ModelConfig:
    """Build a :class:`ModelConfig` for maturity ``t1`` from raw settings.

    Settings without a default (``n`` and the market data) must all be
    there; a missing one raises ValueError naming it.
    """
    missing = [k for k in ("n", *_VECTOR_KEYS, "rho_inf", "strike") if k not in raw]
    if missing:
        raise ValueError(f"config lacks {', '.join(missing)}")
    return ModelConfig(t1=t1, **raw)
