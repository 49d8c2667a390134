import numpy as np

from wkbmc import mc


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
