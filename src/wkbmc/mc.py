"""Deterministic Monte Carlo plumbing.

Random numbers come from SFC64 generators, one per (seed, stream,
batch index) cell of the random tableau, each seeded through a
``SeedSequence`` whose spawn key is the (stream, batch) pair.  Every
batch of every estimator therefore draws an independent, reproducible
stream regardless of execution order.  One stream is keyed by replicate
instead of batch: ``STREAM_SHIFT``'s cell (seed, r) holds the random
shift of replicate r of the lattice that the European one-shot calls
integrate on (``lattice``), so a replicate's shift does not depend on
which batches its rows fall in.  A draw takes exactly the normals
its rows need: the Bermudan continuation draws normals only for the
live rates of the rows still running, so a cell's stream is consumed
in running order.  Reductions accumulate per-batch partial moments and
combine them in batch order, which makes totals bit-identical no matter
how the batches were scheduled; a lattice call keeps one such
accumulator per replicate and reports the spread of the replicate
means (``ReplicateMeans``).  That is what lets ``map_batches`` run
the batches of every loop at once, one thread per usable CPU, with
results bit-identical to a serial run; a map that leaves a usable CPU
idle lends it to ``normal_blocks`` to draw a batch's next normals ahead.
Inside a batch, every per-row kernel and every per-row BLAS product
works in the cache-sized slices of ``row_slices``, sized by the number
of entries they hold (``CHUNK`` says why).
"""
from __future__ import annotations

import os
import threading
from contextlib import contextmanager

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
#: 2.4, one BLAS thread).  The one-shot weight, the continuation's
#: proxy transition, the log-Euler step and the still-alive Europeans'
#: cross term all work in the slices :func:`row_slices` cuts, and no
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
STREAM_SHIFT = 3    # lattice shifts of the one-shot European draw, one cell per replicate

_batch = threading.local()  # .spare: the running map leaves a usable CPU idle

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
    that rows in a block get, so a one-row tail joins the slice before it.
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
    ended; no worker thread outlives the call.  A thread-local flag
    tells :func:`normal_blocks` if the map leaves a usable CPU idle.
    """
    slices = batch_slices(m)
    cpus = _usable_cpus()
    workers = min(len(slices), cpus)

    def run(*s):
        outer, _batch.spare = getattr(_batch, "spare", False), workers < cpus
        try:
            return fn(*s)
        finally:
            _batch.spare = outer

    if workers == 1:
        return [run(*s) for s in slices]
    # imported here so that loading the package stays cheap
    from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait

    pool = ThreadPoolExecutor(workers)
    try:
        futures = [pool.submit(run, *s) for s in slices]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    # workers take batches in order, so no cancelled batch precedes a failed one
    return [f.result() for f in futures]


@contextmanager
def normal_blocks(rng: np.random.Generator, shape: tuple, count: int):
    """Iterator over ``count`` blocks of ``rng.standard_normal(shape)``.

    A block is valid until the next is taken; nothing else may draw
    from ``rng`` inside the ``with``.  In a :func:`map_batches` batch
    that leaves a CPU idle, a helper thread fills block s + 1 into a
    second buffer while the caller works on block s; elsewhere each
    block is drawn in place on the caller.  Both draw the same blocks in
    order, so every bit and ``rng``'s final state match.  The helper is
    joined on leaving the ``with``, by an error too.
    """
    if count < 2 or not getattr(_batch, "spare", False):
        buf = np.empty(shape)
        yield (rng.standard_normal(shape, out=buf) for _ in range(count))
        return
    from concurrent.futures import ThreadPoolExecutor

    pool, bufs = ThreadPoolExecutor(1), (np.empty(shape), np.empty(shape))

    def blocks():
        ahead = pool.submit(rng.standard_normal, shape, out=bufs[0])
        for s in range(1, count + 1):
            z = ahead.result()
            if s < count:  # into the buffer of block s - 2, which the caller is done with
                ahead = pool.submit(rng.standard_normal, shape, out=bufs[s % 2])
            yield z

    try:
        yield blocks()
    finally:
        pool.shutdown(cancel_futures=True)


class MomentAccumulator:
    """First and second moments accumulated batch by batch.

    Each batch contributes one partial (count, mean, sum of squared
    deviations from that mean, max absolute value).  ``finalize`` merges
    the partials in batch order with the pairwise update of Chan, Golub
    and LeVeque, so the result neither depends on the order the batches
    were computed in nor loses the variance of values far from zero.
    Batches may ``add`` from several threads at once: each writes only
    its own entry.
    """

    def __init__(self) -> None:
        self._parts: dict[int, tuple[int, float, float, float]] = {}

    def add(self, batch_index: int, values: np.ndarray) -> None:
        v = np.asarray(values, dtype=np.float64)
        # moments about the first value: a constant batch gives its value
        # and a zero spread exactly
        shift = float(v.flat[0]) if v.size else 0.0
        d = v - shift
        d_mean = float(np.mean(d)) if v.size else 0.0
        self._parts[batch_index] = (
            v.size,
            shift + d_mean,
            float(np.sum((d - d_mean) ** 2)),
            float(np.max(np.abs(v))) if v.size else 0.0,
        )

    def finalize(self) -> tuple[float, float, int, float]:
        """Return (mean, standard error of the mean, count, max abs)."""
        if not self._parts:
            raise RuntimeError("no batches accumulated")
        parts = [self._parts[bi] for bi in sorted(self._parts)]
        m, mean, m2, vmax = parts[0]
        for mb, mean_b, m2_b, max_b in parts[1:]:
            total = m + mb
            gap = mean_b - mean
            mean += gap * mb / total
            m2 += m2_b + gap * gap * m * mb / total
            m = total
            vmax = max(vmax, max_b)
        sd_mean = np.sqrt(m2 / m / m)
        return mean, float(sd_mean), m, vmax


class ReplicateMeans:
    """Means of R replicates of a call's rows, and their standard error.

    Row g of the call belongs to replicate g mod R.  Each batch adds one
    partial per replicate, its row count and its row mean about the
    batch's first value; ``finalize`` merges the partials in batch order
    with the mean update of ``MomentAccumulator``, so the result does not
    depend on the schedule and equal values give exactly that value.
    """

    def __init__(self, replicates: int) -> None:
        self.replicates = replicates
        self._parts: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def add(self, batch_index: int, lo: int, values: np.ndarray) -> None:
        """The partials of rows lo, lo + 1, .. holding ``values``."""
        v = np.asarray(values, dtype=np.float64)
        rep = (lo + np.arange(v.size)) % self.replicates
        count = np.bincount(rep, minlength=self.replicates)
        d_sum = np.bincount(rep, weights=v - v[0], minlength=self.replicates)
        self._parts[batch_index] = (count, v[0] + d_sum / np.maximum(count, 1))

    def finalize(self) -> float:
        """std(replicate means, ddof=1) / sqrt(k) over the k replicates holding rows.

        Taken about the first mean, so equal means give exactly zero.
        """
        parts = [self._parts[bi] for bi in sorted(self._parts)]
        n, mean = parts[0]
        for nb, mean_b in parts[1:]:
            total = n + nb
            mean = mean + (mean_b - mean) * nb / np.maximum(total, 1)
            n = total
        d = mean[n > 0] - mean[0]
        d -= np.mean(d)
        return float(np.sqrt(np.sum(d * d) / (d.size - 1) / d.size))


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
    "normal_blocks",
    "MomentAccumulator",
    "ReplicateMeans",
]
