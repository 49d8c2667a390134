"""Randomly shifted rank-1 lattice points, read as standard normals.

The one-shot estimators integrate over one n-dimensional normal vector
per row, a low and fixed dimension, where randomised quasi-Monte Carlo
pays.  Row g of a call goes to replicate g mod R as point index g div R
(``R`` from :func:`replicates`).  Replicate r reads the points of an
embedded rank-1 lattice sequence in radical-inverse order, each
coordinate moved by its own integer shift from the (seed, r) cell of
stream ``mc.STREAM_SHIFT`` (L'Ecuyer and Lemieux 2000, Oper. Res.
48(2)).  The whole chain stays in integers on a grid of 2**BITS cells,

    cell = (bitrev(i) z_j + s_j) mod 2**BITS,

and each cell becomes a normal by one ``take`` from :func:`normal_table`,
which holds Phi^-1(tent(cell centre)) with tent(u) = 1 - |2u - 1| (the
baker's transform).  A uniform shift on the grid moves every point to a
uniform cell, so each replicate mean is exactly unbiased for the
integrand read at cell centres, and replicates are independent; their
spread is the honest error bar.  At BITS = 17 the table's mean is
exactly 0 (it is odd about the middle of each half) and its variance is
1 - 2.0e-5; that is the only way its law differs from N(0, 1).

``GENERATING_VECTOR`` comes from ``tools/cbc.py`` (fast component-by-
component search for an embedded lattice, Cools, Kuo and Nuyens 2006,
SIAM J. Sci. Comput. 28(6)) and covers up to ``MAX_DIM`` coordinates.
The table is built on first use, once per process, by a numpy port of
Wichura's AS241, so no call that uses it loads scipy.
"""
from __future__ import annotations

from functools import cache

import numpy as np

from . import mc

__all__ = [
    "BITS",
    "MAX_DIM",
    "GENERATING_VECTOR",
    "ndtri",
    "normal_table",
    "replicates",
    "shifts",
    "normals",
]

#: The grid has 2**BITS cells per coordinate and each replicate has
#: 2**BITS points; :func:`replicates` adds replicates past R 2**BITS rows.
BITS = 17
_MASK = (1 << BITS) - 1
_REPLICATES = 16

#: ``python tools/cbc.py``.  Coordinate j drives normal column n - 1 - j:
#: Gamma is upper triangular, so the last column moves every rate and
#: gets the coordinate with the largest weight in the search.  In that
#: order the variance ratios over pseudo-random normals measured higher
#: than in column order (``demos/lattice_gain.py`` prints the gains).
GENERATING_VECTOR = (
    1, 51417, 61749, 15009, 52207, 58655, 62943, 39089, 2863, 7341, 41335, 35267,
    57611, 64363, 2461, 4455, 55621, 4649, 19639, 15587, 4209, 32541, 48615, 32531,
)
MAX_DIM = len(GENERATING_VECTOR)

# Wichura, AS241 PPND16 (Appl. Statist. 37(3), 1988): numerator and
# denominator coefficients, lowest order first, for the central region
# |p - 1/2| <= 0.425 and the two tail regions r = sqrt(-ln min(p, 1-p)) <= 5
# and beyond.
_A = (3.3871328727963666080e0, 1.3314166789178437745e+2, 1.9715909503065514427e+3,
      1.3731693765509461125e+4, 4.5921953931549871457e+4, 6.7265770927008700853e+4,
      3.3430575583588128105e+4, 2.5090809287301226727e+3)
_B = (1.0, 4.2313330701600911252e+1, 6.8718700749205790830e+2, 5.3941960214247511077e+3,
      2.1213794301586595867e+4, 3.9307895800092710610e+4, 2.8729085735721942674e+4,
      5.2264952788528545610e+3)
_C = (1.42343711074968357734e0, 4.63033784615654529590e0, 5.76949722146069140550e0,
      3.64784832476320460504e0, 1.27045825245236838258e0, 2.41780725177450611770e-1,
      2.27238449892691845833e-2, 7.74545014278341407640e-4)
_D = (1.0, 2.05319162663775882187e0, 1.67638483018380384940e0, 6.89767334985100004550e-1,
      1.48103976427480074590e-1, 1.51986665636164571966e-2, 5.47593808499534494600e-4,
      1.05075007164441684324e-9)
_E = (6.65790464350110377720e0, 5.46378491116411436990e0, 1.78482653991729133580e0,
      2.96560571828504891230e-1, 2.65321895265761230930e-2, 1.24266094738807843860e-3,
      2.71155556874348757815e-5, 2.01033439929228813265e-7)
_F = (1.0, 5.99832206555887937690e-1, 1.36929880922735805310e-1, 1.48753612908506148525e-2,
      7.86869131145613259100e-4, 1.84631831751005468180e-5, 1.42151175831644588870e-7,
      2.04426310338993978564e-15)


def _poly(coef, r: np.ndarray) -> np.ndarray:
    out = np.full_like(r, coef[-1])
    for c in coef[-2::-1]:
        out *= r
        out += c
    return out


def ndtri(p) -> np.ndarray:
    """Phi^-1(p) for p in (0, 1) by Wichura's AS241, about 1e-16 relative."""
    p = np.asarray(p, dtype=np.float64)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("ndtri needs probabilities strictly inside (0, 1)")
    q = p - 0.5
    x = np.empty_like(p)
    mid = np.abs(q) <= 0.425
    r = 0.180625 - q[mid] ** 2
    x[mid] = q[mid] * _poly(_A, r) / _poly(_B, r)
    tail = ~mid
    r = np.sqrt(-np.log(np.minimum(p[tail], 1.0 - p[tail])))
    near = r <= 5.0
    xt = np.where(near, _poly(_C, r - 1.6) / _poly(_D, r - 1.6),
                  _poly(_E, r - 5.0) / _poly(_F, r - 5.0))
    x[tail] = np.where(q[tail] < 0.0, -xt, xt)
    return x


@cache
def normal_table() -> np.ndarray:
    """Phi^-1(tent((c + 1/2) / 2**BITS)) for every cell c; read-only."""
    u = (np.arange(1 << BITS) + 0.5) / (1 << BITS)
    table = ndtri(1.0 - np.abs(2.0 * u - 1.0))
    table.flags.writeable = False
    return table


def replicates(m: int) -> int:
    """R for a call of ``m`` rows: 16, or the next multiple of 16 holding them all.

    No replicate ever reads more than its 2**BITS points, so no point is
    read twice.
    """
    return _REPLICATES * max(1, -(-m // (_REPLICATES << BITS)))


def _bitrev(i: np.ndarray) -> np.ndarray:
    """The low BITS bits of ``i`` in reverse order (uint32)."""
    x = i.astype(np.uint32)
    for s, m in ((1, 0x55555555), (2, 0x33333333), (4, 0x0F0F0F0F), (8, 0x00FF00FF)):
        x = ((x >> s) & m) | ((x & m) << s)
    x = (x >> 16) | (x << 16)
    return x >> (32 - BITS)


def shifts(seed: int, r: int, n: int) -> np.ndarray:
    """(r, n) uint32 grid shifts, row k from the (seed, k) cell of ``mc.STREAM_SHIFT``.

    ``n`` past the generating vector's coordinates is refused.
    """
    if n > MAX_DIM:
        raise ValueError(
            f"the lattice covers at most {MAX_DIM} coordinates (lattice.MAX_DIM), got {n}")
    return np.array([mc.rng_for(seed, k, mc.STREAM_SHIFT).integers(0, 1 << BITS, n)
                     for k in range(r)], dtype=np.uint32)


def normals(shift: np.ndarray, lo: int, rows: int) -> np.ndarray:
    """(rows, n) normals of global rows lo .. lo + rows - 1 under ``shift``.

    ``shift`` is :func:`shifts`' array, one row per replicate; row g
    reads point g div R of replicate g mod R.  The integer chain runs in
    uint32, whose products wrap modulo 2**32, a multiple of the grid
    size.  Each slice of ``mc.row_slices`` forms bitrev(i) z once per
    point index and adds the R shifts by broadcasting, so its
    temporaries stay in cache.
    """
    r, n = shift.shape
    z = np.asarray(GENERATING_VECTOR[n - 1::-1], dtype=np.uint32)
    table = normal_table()
    out = np.empty((rows, n))
    for part in mc.row_slices(rows, n):
        a, b = lo + part.start, lo + part.stop
        i0 = a // r
        cell = (_bitrev(np.arange(i0, (b - 1) // r + 1))[:, None] * z)[:, None, :] + shift
        cell &= _MASK
        table.take(cell.reshape(-1, n)[a - i0 * r:b - i0 * r], out=out[part])
    return out
