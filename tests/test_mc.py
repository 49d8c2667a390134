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
