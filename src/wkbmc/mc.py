"""Deterministic Monte Carlo plumbing.

Random numbers come from SFC64 generators, one per (seed, stream,
batch index) cell of the random tableau, each seeded through a
``SeedSequence`` whose spawn key is the (stream, batch) pair.  Every
batch of every estimator therefore draws an independent, reproducible
stream regardless of execution order.  One stream is keyed by replicate
instead of batch: ``STREAM_SHIFT``'s cell (seed, r) holds the random
shifts of replicate r of the lattice that the one-shot European calls
and the one-shot Bermudan price integrate on (``lattice``), one per
coordinate, so a replicate's shifts do not depend on which batches its
rows fall in; the first n of them do not depend on how many follow.
One source per batch, ``estimators._Normals``, hands every one-shot
crossing its block: on pseudo-random normals the head's is the batch's
STREAM_XI draw and each Bermudan leg's the next STREAM_CONT draw, for
the live rates of the rows still running only, so that cell's stream
is consumed in running order.
Reductions accumulate per-batch partial moments and combine them in
batch order, which makes totals bit-identical no matter
how the batches were scheduled; on a lattice call the one accumulator
also keeps a partial mean per replicate and reports the spread of the
replicate means.  That is what lets ``map_batches`` run the batches of
every loop at once, one thread per usable CPU, with results
bit-identical to a serial run.
Inside a batch, every per-row kernel and every per-row BLAS product
works in the cache-sized slices of ``row_slices``, sized by the number
of entries they hold (``CHUNK`` says why).
"""
from __future__ import annotations

import os

import numpy as np

#: Number of samples processed per batch.  Fixed so that the sample ->
#: random number mapping never depends on memory pressure or equipment.
BATCH = 1 << 14

#: Rows evaluated together inside one batch at the case study's 19
#: rates; :func:`row_slices` holds every slice to the same element
#: count, ``CHUNK * 19``, whatever its width.  A (16384, 19) float64
#: temporary is 2.5 MB, more than a 2 MiB L2 cache, so elementwise
#: chains over a whole batch stream from memory.  Per-batch time of
#: draw, weight and payoff was flat from 512 to 2048 rows per chunk and
#: twice as high at 4096.  A narrow block in 1024-row slices pays the
#: per-call overhead instead: a bump pair's log-Euler step on a batch
#: cost 92 ns per entry at width 1 against 38 ns at width 19, and 56 ns
#: at width 1 in slices of ``CHUNK * 19`` entries (2-vCPU Xeon, numpy
#: 2.4, one BLAS thread).  The one-shot mover (head and legs alike), the
#: log-Euler step and the still-alive Europeans' cross term all work in
#: the slices :func:`row_slices` cuts, and no
#: per-row BLAS product may run on a whole batch: OpenBLAS 0.3 threads a
#: product past about 1.1-1.3M multiply-adds (a (4096, 19) @ (19, 19)
#: ran at 1.98 CPU seconds per wall second, a (1024, 19) one at 1.00),
#: and after it its worker spin-waits on the CPU a batch could use.
CHUNK = 1024

# Stream labels.  One logical purpose per stream, shared by every
# estimator so that common random numbers line up across estimators
# that use the same seed.
STREAM_XI = 0       # proxy draws (or the primary normals of a toy model)
STREAM_CONT = 1     # continuation normals after the first date (Bermudan)
STREAM_EULER = 2    # log-Euler evolution started at time zero
STREAM_SHIFT = 3    # lattice shifts of the one-shot draws, one cell per replicate

_MASK48 = (1 << 48) - 1
_MASK64 = (1 << 64) - 1


def rng_for(seed: int, batch_index: int, stream: int = STREAM_XI) -> np.random.Generator:
    """Generator for one (seed, stream, batch) cell of the random tableau.

    The seed is taken modulo 2**64, the stream modulo 2**16 and the
    batch index modulo 2**48.  The (stream, batch) pair goes in as the
    spawn key, not as more entropy: ``SeedSequence`` cuts each integer
    into as few 32-bit words as hold it and pads short entropy with
    zeros, so entropy ``[seed, stream, batch]`` would give the cells
    (2**32, stream 0, batch 0) and (0, stream 1, batch 0) one stream.
    """
    if batch_index < 0:
        raise ValueError(f"batch_index must be non-negative, got {batch_index}")
    seq = np.random.SeedSequence(
        seed & _MASK64, spawn_key=(stream & 0xFFFF, batch_index & _MASK48))
    return np.random.Generator(np.random.SFC64(seq))


def row_slices(rows: int, width: int) -> list[slice]:
    """Slices of ``rows`` rows of ``width`` entries, none of them a lone row.

    Each slice holds about ``CHUNK * 19`` entries: ``CHUNK`` rows at
    the case study's 19 rates, proportionally more rows when fewer rates
    are live.  Every row's arithmetic is its own, so the cuts move no
    result.  A lone row would go through BLAS's matrix-vector product,
    whose sums can differ in the last bit from the matrix-matrix product
    that rows in a block get, so a one-row tail joins the slice before it
    (a one-row group the one-shot mover moves as two copies of its row).
    The one-shot log weight also evens out BLAS's row groups inside a
    slice (``wkb._BLAS_ROWS``).
    """
    cuts = list(range(0, rows, max(CHUNK * 19 // width, 2))) + [rows]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


def batch_slices(m: int) -> list[tuple[int, int, int]]:
    """Split ``m`` samples into ``BATCH``-sized batches: list of (index, lo, hi)."""
    if m <= 0:
        raise ValueError(f"sample count must be positive, got {m}")
    out = []
    lo = 0
    bi = 0
    while lo < m:
        hi = min(lo + BATCH, m)
        out.append((bi, lo, hi))
        lo = hi
        bi += 1
    return out


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_batches(fn, m: int) -> list:
    """``[fn(bi, lo, hi) for (bi, lo, hi) in batch_slices(m)]``, batches run at once.

    The batches run on ``min(batches, usable CPUs)`` threads; numpy's
    random fills, ufuncs and BLAS release the interpreter lock, so they
    overlap.  Each batch draws from its own cells of the random tableau,
    so the results, handed back in batch order, are those of a serial
    run whatever the schedule.  ``fn`` may write shared state only where
    each batch has its own slot, as ``MomentAccumulator.add`` does.  If
    a batch raises, the batches not yet started are cancelled and the
    first failure in batch order is raised once every running batch has
    ended; no worker thread outlives the call.
    """
    slices = batch_slices(m)
    workers = min(len(slices), _usable_cpus())
    if workers == 1:
        return [fn(*s) for s in slices]
    # imported here so that loading the package stays cheap
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    pool = ThreadPoolExecutor(workers)
    try:
        futures = [pool.submit(fn, *s) for s in slices]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # workers take batches in order, so no cancelled batch precedes a failed one
    return [f.result() for f in futures]


class MomentAccumulator:
    """First and second moments accumulated batch by batch.

    Each batch contributes one partial (count, mean, sum of squared
    deviations from that mean, max absolute value).  ``finalize`` merges
    the partials in batch order with the pairwise update of Chan, Golub
    and LeVeque, so the result neither depends on the order the batches
    were computed in nor loses the variance of values far from zero.
    With R ``replicates``, row g of the call also belongs to replicate
    g mod R: each batch adds a row count and a row mean per replicate,
    merged in batch order with the same mean update, and the standard
    error is the spread of the R replicate means instead of the rows'.
    Batches may ``add`` from several threads at once: each writes only
    its own entry.
    """

    def __init__(self, replicates: int = 1) -> None:
        self.replicates = replicates
        self._parts: dict[int, tuple] = {}

    def add(self, batch_index: int, values: np.ndarray, lo: int = 0) -> None:
        """The partials of rows lo, lo + 1, .. holding ``values``."""
        v = np.asarray(values, dtype=np.float64)
        # moments about the first value: a constant batch gives its value
        # and a zero spread exactly
        shift = float(v.flat[0]) if v.size else 0.0
        d = v - shift
        d_mean = float(np.mean(d)) if v.size else 0.0
        part = (
            v.size,
            shift + d_mean,
            float(np.sum((d - d_mean) ** 2)),
            float(np.max(np.abs(v))) if v.size else 0.0,
        )
        if self.replicates > 1:
            rep = (lo + np.arange(v.size)) % self.replicates
            count = np.bincount(rep, minlength=self.replicates)
            d_sum = np.bincount(rep, weights=d, minlength=self.replicates)
            part += (count, shift + d_sum / np.maximum(count, 1))
        self._parts[batch_index] = part

    def finalize(self) -> tuple[float, float, int, float]:
        """Return (mean, standard error of the mean, count, max abs).

        With replicates the standard error is std(replicate means,
        ddof=1) / sqrt(k) over the k replicates holding rows, taken about
        the first mean, so equal means give exactly zero.
        """
        if not self._parts:
            raise RuntimeError("no batches accumulated")
        parts = [self._parts[bi] for bi in sorted(self._parts)]
        m, mean, m2, vmax = parts[0][:4]
        for mb, mean_b, m2_b, max_b in (p[:4] for p in parts[1:]):
            total = m + mb
            gap = mean_b - mean
            mean += gap * mb / total
            m2 += m2_b + gap * gap * m * mb / total
            m = total
            vmax = max(vmax, max_b)
        if self.replicates == 1:
            return mean, float(np.sqrt(m2 / m / m)), m, vmax
        n, means = parts[0][4:]
        for nb, mean_b in (p[4:] for p in parts[1:]):
            total = n + nb
            means = means + (mean_b - means) * nb / np.maximum(total, 1)
            n = total
        d = means[n > 0] - means[0]
        d -= np.mean(d)
        return mean, float(np.sqrt(np.sum(d * d) / (d.size - 1) / d.size)), m, vmax


__all__ = [
    "BATCH",
    "CHUNK",
    "STREAM_XI",
    "STREAM_CONT",
    "STREAM_EULER",
    "STREAM_SHIFT",
    "rng_for",
    "row_slices",
    "batch_slices",
    "map_batches",
    "MomentAccumulator",
]
