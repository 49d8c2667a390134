import sys
import threading
import time

import numpy as np
import pytest

from wkbmc import mc


class TestRngFor:
    def test_cells_draw_apart(self):
        # every coordinate of the (seed, batch, stream) key moves the
        # stream, including seed 2**32 on stream 0 against seed 0 on
        # stream 1, which SeedSequence entropy [seed, stream, batch] merges
        cells = [(7, 0, mc.STREAM_XI), (8, 0, mc.STREAM_XI), (7, 1, mc.STREAM_XI),
                 (7, 0, mc.STREAM_CONT), (7, 0, mc.STREAM_EULER),
                 (2**32, 0, mc.STREAM_XI), (0, 0, mc.STREAM_CONT), (0, 1, 0), (0, 2**32, 0)]
        firsts = [mc.rng_for(*cell).standard_normal() for cell in cells]
        assert len(set(firsts)) == len(cells)

    def test_seed_taken_modulo_2_64(self):
        a = mc.rng_for(-1, 2, mc.STREAM_CONT).standard_normal(3)
        b = mc.rng_for(2**64 - 1, 2, mc.STREAM_CONT).standard_normal(3)
        assert np.array_equal(a, b)

    def test_negative_batch_refused(self):
        with pytest.raises(ValueError, match="non-negative"):
            mc.rng_for(7, -1)


def chunk_row_cuts(rows):
    """``CHUNK``-row slices, a lone tail row joined to the slice before it."""
    cuts = list(range(0, rows, mc.CHUNK)) + [rows]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return [slice(lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]


class TestRowSlices:
    @pytest.mark.parametrize("width", [1, 2, 7, 18, 19, 40])
    @pytest.mark.parametrize("rows", [1, 2, 1023, 1025, 2 * mc.CHUNK + 1, 19457, mc.BATCH + 1])
    def test_every_row_once_and_no_lone_row(self, rows, width):
        parts = mc.row_slices(rows, width)
        covered = np.concatenate([np.arange(rows)[p] for p in parts])
        assert np.array_equal(covered, np.arange(rows))
        assert rows == 1 or all(p.stop - p.start > 1 for p in parts)
        # each slice holds the entries of CHUNK rows of 19 rates, plus at
        # most one tail row
        assert all((p.stop - p.start - 1) * width <= mc.CHUNK * 19 for p in parts)

    @pytest.mark.parametrize("rows", [1, 2, 1024, 1025, 2 * mc.CHUNK + 1, 5000, mc.BATCH])
    def test_full_width_cuts_chunk_rows(self, rows):
        assert mc.row_slices(rows, 19) == chunk_row_cuts(rows)

    def test_narrow_blocks_get_wider_slices(self):
        assert [p.stop - p.start for p in mc.row_slices(mc.BATCH, 2)] == [9728, 6656]
        assert mc.row_slices(mc.BATCH, 1) == [slice(0, mc.BATCH)]


class TestMomentAccumulator:
    def test_standard_error_far_from_zero(self):
        # a one-pass s2/m - mean^2 loses every digit of a unit variance
        # sitting on 1e8; merged per-batch central moments keep it
        rng = np.random.default_rng(17)
        batches = [1e8 + rng.standard_normal(size) for size in (4000, 3000, 2500)]
        acc = mc.MomentAccumulator()
        for bi, values in enumerate(batches):
            acc.add(bi, values)
        mean, sd_mean, count, vmax = acc.finalize()
        pooled = np.concatenate(batches)
        assert count == pooled.size
        assert abs(sd_mean / (np.std(pooled) / np.sqrt(pooled.size)) - 1.0) < 1e-6
        assert abs(mean / np.mean(pooled) - 1.0) < 1e-15
        assert vmax == np.max(np.abs(pooled))


class TestMapBatches:
    def test_results_in_batch_order(self, monkeypatch):
        # early batches sleep longest, so later ones finish first; the
        # results still come back in batch order.  The earlier batches
        # start their sleeps only once the last one has finished, so a
        # late thread start on a busy machine cannot reorder the finish
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 4)
        finished = []
        last_done = threading.Event()

        def fn(bi, lo, hi):
            if bi < 3:
                assert last_done.wait(10.0)
                time.sleep(0.05 * (3 - bi))
            finished.append(bi)
            if bi == 3:
                last_done.set()
            return bi, lo, hi

        assert mc.map_batches(fn, 3 * mc.BATCH + 7) == mc.batch_slices(3 * mc.BATCH + 7)
        assert finished[0] == 3 and finished[-1] == 0

    def test_one_batch_runs_on_the_caller(self):
        assert mc.map_batches(lambda *s: threading.get_ident(), 5) == [threading.get_ident()]

    def test_shared_accumulator_loses_no_batch(self, monkeypatch):
        # more workers than cores and a short switch interval: every batch
        # adds its own partial, so the totals match a serial run bit for bit
        monkeypatch.setattr(mc, "_usable_cpus", lambda: 8)
        m = 64 * mc.BATCH
        rng = np.random.default_rng(3)
        values = [rng.standard_normal(5) for _ in mc.batch_slices(m)]
        serial = mc.MomentAccumulator()
        for bi, v in enumerate(values):
            serial.add(bi, v)
        acc = mc.MomentAccumulator()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            mc.map_batches(lambda bi, lo, hi: acc.add(bi, values[bi]), m)
        finally:
            sys.setswitchinterval(interval)
        assert acc.finalize() == serial.finalize()
