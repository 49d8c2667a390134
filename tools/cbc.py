"""Build the embedded rank-1 lattice behind the one-shot draw by fast CBC.

Prints the generating vector that ``wkbmc.lattice.GENERATING_VECTOR``
holds; ``tests/test_lattice.py`` runs this search again and compares.

    python tools/cbc.py            # the committed vector, one line

The rule is the embedded lattice sequence of Cools, Kuo and Nuyens
(SIAM J. Sci. Comput. 28(6), 2006) in base 2: the first 2**k points of
the 2**BITS-point lattice in radical-inverse order are the 2**k-point
lattice with the same vector, for every k.  The search is
component-by-component (CBC): coordinate d takes the odd multiplier that
minimises the sum over k = K_MIN..BITS of ln e2_k, where e2_k is the
shift-averaged worst-case error squared of the 2**k-point rule in the
weighted Korobov space of smoothness one,

    e2_k(z) = -1 + 2**-k sum_i prod_j (1 + gamma_j omega(i z_j / 2**k mod 1)),
    omega(x) = 2 pi^2 (x^2 - x + 1/6),     gamma_j = 0.6**j.

Summing logarithms weighs every k alike, whatever its size.  The search
over all 2**(BITS-2) candidates of a coordinate is fast: the odd residues
modulo 2**L are +-5**a, omega is even about 1/2, so each 2-adic layer
of the point index is one cyclic correlation, taken by FFT (Nuyens and
Cools, Math. Comp. 75, 2006).  All of it takes well under a second.
"""
from __future__ import annotations

import numpy as np

BITS = 17
DIMS = 24
K_MIN = 6
WEIGHT = 0.6


def omega(x: np.ndarray) -> np.ndarray:
    return 2.0 * np.pi**2 * (x * x - x + 1.0 / 6.0)


def fast_cbc(dims: int = DIMS, bits: int = BITS, k_min: int = K_MIN,
             weight: float = WEIGHT) -> list[int]:
    """The generating vector, one odd multiplier below 2**bits per coordinate."""
    n = 1 << bits
    prod = np.ones(n)  # prod_j (1 + gamma_j omega(i z_j / n)) over chosen j
    cands = np.ones(n >> 2, dtype=np.int64)  # 5**b mod n, b = 0 .. n/4 - 1
    for b in range(1, n >> 2):
        cands[b] = cands[b - 1] * 5 % n
    # layer v holds the indices i = 2**v u, u odd below 2**(bits - v); for
    # L = bits - v >= 3, u runs over +-5**a mod 2**L, a < 2**(L - 2)
    layers = []
    for v in range(bits):
        L = bits - v
        q = 1 << L
        if L >= 3:
            pos = cands[: q >> 2] % q
            idx = (pos << v, ((q - pos) % q) << v)
            corr = np.fft.rfft(omega(pos / q))
        else:  # u = 1 or u in {1, 3}: omega takes one value on them
            idx = (np.arange(1, q, 2) << v,)
            corr = None
        layers.append((v, idx, corr))
    z = []
    for d in range(dims):
        gamma = weight ** (d + 1)
        # per layer: sum of prod over its indices, and the candidates' Q_v
        base = np.empty(bits + 1)
        q_by_layer = np.empty((bits + 1, n >> 2))
        for v, idx, corr in layers:
            f = sum(prod[i] for i in idx)
            base[v] = f.sum()
            if corr is None:
                q_by_layer[v] = (f * omega(np.arange(1, 1 << (bits - v), 2)
                                           / (1 << (bits - v)))).sum()
            else:
                h = f.shape[0]
                qv = np.fft.irfft(np.conj(np.fft.rfft(f)) * corr, n=h)
                q_by_layer[v] = np.tile(qv, (n >> 2) // h)
        base[bits] = prod[0]
        q_by_layer[bits] = prod[0] * omega(0.0)
        # e2 of the 2**k-point rule sums the layers v >= bits - k
        base_k = np.cumsum(base[::-1])[::-1]
        q_k = np.cumsum(q_by_layer[::-1], axis=0)[::-1]
        crit = np.zeros(n >> 2)
        for k in range(k_min, bits + 1):
            v0 = bits - k
            crit += np.log(-1.0 + (base_k[v0] + gamma * q_k[v0]) / (1 << k))
        best = 0 if d == 0 else int(np.argmin(crit))
        c = int(cands[best])
        c = min(c, n - c)
        z.append(c)
        prod *= 1.0 + gamma * omega((np.arange(n, dtype=np.int64) * c % n) / n)
    return z


if __name__ == "__main__":
    print(fast_cbc())
