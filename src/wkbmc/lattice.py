"""Randomly shifted rank-1 lattice points, read as standard normals.

The one-shot estimators integrate over one n-dimensional normal vector
per row, a low and fixed dimension, where randomised quasi-Monte Carlo
pays; a one-shot Bermudan path adds one coordinate per live rate and
gap after it (100 in all at the case study), still fixed.  Row g of a
call goes to replicate g mod R as point index g div R (``R`` from
:func:`replicates`).  Replicate r reads the points of an
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
SIAM J. Sci. Comput. 28(6)) and covers up to ``MAX_DIM`` = 300
coordinates: n(n + 1) / 2 at n = 24, a Bermudan exercisable at every
tenor date.  A call needing more is refused with that limit named.
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
#: than in column order (``demos/lattice_gain.py`` prints the gains).  A
#: Bermudan leg's block follows the same rule from its first coordinate.
#: The search weighs the first 19 coordinates by 0.6**j, the European
#: head's, and the rest by j**-2, which resolve the legs' coordinates.
GENERATING_VECTOR = (
    1, 51417, 61749, 15009, 52207, 58655, 62943, 39089, 2863, 7341, 41335, 35267,
    57611, 64363, 2461, 4455, 55621, 4649, 19639, 15587, 4209, 48615, 31629, 6769,
    63097, 47875, 53515, 4563, 32107, 14373, 46469, 48965, 42413, 58161, 49821, 55131,
    45643, 22409, 39729, 27697, 49289, 29247, 62223, 31019, 35133, 52509, 12983, 45213,
    13843, 25513, 46179, 56135, 4305, 14051, 4849, 6587, 48761, 44925, 681, 16313,
    20433, 12819, 40711, 56401, 45131, 2835, 43561, 11405, 32531, 52649, 58339, 5305,
    34375, 3973, 4495, 21663, 27317, 61579, 25133, 22343, 6281, 63513, 29209, 56083,
    58331, 24367, 40819, 34341, 49513, 59805, 51983, 29841, 44981, 3677, 35147, 10681,
    10095, 54119, 1879, 17021, 14289, 14311, 55933, 42515, 38799, 26309, 28791, 51895,
    9461, 40643, 23321, 4389, 3253, 8633, 24475, 36679, 6171, 58405, 31051, 30971,
    18173, 22505, 53709, 47701, 51759, 61123, 27067, 7869, 40599, 45705, 42035, 12665,
    40157, 62073, 21865, 50341, 34937, 3023, 64931, 34501, 13497, 40443, 30787, 42285,
    47165, 5371, 57099, 20855, 60903, 55461, 2035, 55277, 26247, 42901, 31913, 36315,
    32141, 57237, 55115, 1413, 60665, 48187, 60445, 29459, 40913, 59885, 17533, 14929,
    23789, 29451, 44591, 27115, 9245, 18347, 975, 53811, 16025, 4989, 18845, 6079,
    61589, 3849, 8967, 63303, 19037, 14505, 54853, 19607, 46031, 13711, 12579, 16629,
    22059, 59723, 25625, 53223, 23587, 43931, 10213, 48753, 54601, 34861, 17653, 15301,
    49203, 43065, 17079, 54345, 27099, 56897, 9091, 49875, 26983, 5207, 56045, 10071,
    20781, 64817, 12243, 49293, 50025, 9337, 38763, 7031, 32995, 44215, 25961, 21141,
    8977, 23471, 7847, 62501, 37961, 8341, 7891, 3959, 4235, 2419, 23281, 54881,
    32451, 61395, 937, 51117, 36749, 33235, 51531, 15371, 32603, 28617, 24059, 38217,
    25901, 17805, 33917, 35927, 50201, 31363, 22359, 41743, 33571, 47289, 34153, 8509,
    22901, 17197, 62691, 6983, 22481, 54603, 30791, 34159, 41753, 53069, 28395, 56957,
    7487, 61025, 58243, 50151, 12371, 59963, 38535, 31379, 46825, 51793, 19407, 24471,
    40017, 22829, 36685, 4153, 35375, 8333, 63441, 13925, 34181, 23609, 41733, 47463,
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


def normals(shift: np.ndarray, rows, start: int = 0) -> np.ndarray:
    """(len(rows), w) normals of the global ``rows`` at coordinates start .. start + w - 1.

    ``shift`` holds those coordinates' columns of :func:`shifts`' array,
    (R, w), one row per replicate; row g reads point g div R of
    replicate g mod R.  Coordinate start + j drives column w - 1 - j, so
    the block's first coordinate moves its last column.  ``rows`` is a
    ``range`` (a batch's contiguous rows) or an array of global row
    numbers in any order (the running rows of a Bermudan leg); a row's
    normals depend only on its number and the block.  The integer chain
    runs in uint32, whose products wrap modulo 2**32, a multiple of the
    grid size.  On a ``range`` each slice of ``mc.row_slices`` forms
    bitrev(i) z once per point index and adds the R shifts by
    broadcasting, so its temporaries stay in cache; otherwise each row
    gathers its replicate's shifts.
    """
    r, w = shift.shape
    z = np.asarray(GENERATING_VECTOR[start:start + w][::-1], dtype=np.uint32)
    table = normal_table()
    out = np.empty((len(rows), w))
    for part in mc.row_slices(len(rows), w):
        if isinstance(rows, range):
            a, b = rows[part.start], rows[part.stop - 1] + 1
            i0 = a // r
            cell = (_bitrev(np.arange(i0, (b - 1) // r + 1))[:, None] * z)[:, None, :] + shift
            cell = cell.reshape(-1, w)[a - i0 * r:b - i0 * r]
        else:
            g = rows[part]
            cell = _bitrev(g // r)[:, None] * z + shift[g % r]
        cell &= _MASK
        table.take(cell, out=out[part])
    return out
