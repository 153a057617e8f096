import numpy as np
import pytest

from shipplume.enhance import QUEEN, moran_enhance, moran_on_high, moran_stats
from shipplume.grid import GridImage, GridSpec

from conftest import random_image


def dense_moran_oracle(image, offsets=QUEEN):
    """Literal double-loop evaluation of the local statistic."""
    vals, valid = image.values, image.valid
    v = vals[valid]
    mu = v.mean()
    var = ((v - mu) ** 2).mean()
    rows, cols = vals.shape
    out = np.full(vals.shape, np.nan)
    for r in range(rows):
        for c in range(cols):
            if not valid[r, c]:
                continue
            acc = 0.0
            for dr, dc in offsets:
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols and valid[rr, cc]:
                    acc += vals[rr, cc] - mu
            out[r, c] = (vals[r, c] - mu) / var * acc
    return out


def image_3x3_center9():
    spec = GridSpec(0.0, 0.0, 1.0, 3, 3)
    values = np.zeros((3, 3))
    values[1, 1] = 9.0
    return GridImage(spec, values, np.ones((3, 3), bool))


class TestMoranEnhance:
    def test_hand_computed_center(self):
        out = moran_enhance(image_3x3_center9())
        assert out.values[1, 1] == pytest.approx(-8.0)

    def test_hand_computed_corners(self):
        out = moran_enhance(image_3x3_center9())
        for r, c in ((0, 0), (0, 2), (2, 0), (2, 2)):
            assert out.values[r, c] == pytest.approx(-0.75)

    def test_stats_population_variance(self):
        st = moran_stats(image_3x3_center9())
        assert st.mean == pytest.approx(1.0)
        assert st.variance == pytest.approx(8.0)
        assert st.n == 9

    def test_constant_image_error(self):
        spec = GridSpec(0.0, 0.0, 1.0, 3, 3)
        img = GridImage(spec, np.full((3, 3), 2.5), np.ones((3, 3), bool))
        with pytest.raises(ValueError, match="constant image"):
            moran_enhance(img)

    def test_insufficient_pixels_error(self):
        spec = GridSpec(0.0, 0.0, 1.0, 3, 3)
        valid = np.zeros((3, 3), bool)
        valid[0, 0] = True
        img = GridImage(spec, np.ones((3, 3)), valid)
        with pytest.raises(ValueError, match="insufficient pixels"):
            moran_enhance(img)

    def test_matches_dense_oracle(self, rng):
        for _ in range(20):
            img = random_image(rng)
            out = moran_enhance(img)
            expect = dense_moran_oracle(img)
            np.testing.assert_allclose(out.values[img.valid],
                                       expect[img.valid], rtol=1e-9, atol=1e-12)
            np.testing.assert_array_equal(out.valid, img.valid)

    def test_affine_invariance(self, rng):
        img = random_image(rng, invalid_fraction=0.1)
        base = moran_enhance(img)
        scaled = GridImage(img.spec,
                           np.where(img.valid, 3.7 * img.values - 11.0, np.nan),
                           img.valid.copy())
        out = moran_enhance(scaled)
        np.testing.assert_allclose(out.values[img.valid],
                                   base.values[img.valid], rtol=1e-9)

    def test_sum_identity_against_double_loop(self, rng):
        img = random_image(rng, n_rows=12, n_cols=14)
        out = moran_enhance(img)
        vals, valid = img.values, img.valid
        v = vals[valid]
        mu = v.mean()
        var = ((v - mu) ** 2).mean()
        total = 0.0
        rows, cols = vals.shape
        for r in range(rows):
            for c in range(cols):
                if not valid[r, c]:
                    continue
                for dr, dc in QUEEN:
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols and valid[rr, cc]:
                        total += (vals[r, c] - mu) * (vals[rr, cc] - mu)
        assert np.nansum(out.values[valid]) == pytest.approx(total / var,
                                                             rel=1e-9)

    def test_cluster_enhanced_positive(self):
        spec = GridSpec(0.0, 0.0, 1.0, 12, 12)
        values = np.zeros((12, 12))
        values[4:8, 4:8] = 5.0
        img = GridImage(spec, values, np.ones((12, 12), bool))
        out = moran_enhance(img)
        assert (out.values[5:7, 5:7] > 0).all()


class TestMoranOnHigh:
    def test_median_zeroing_distinct_values(self):
        spec = GridSpec(0.0, 0.0, 1.0, 2, 2)
        img = GridImage(spec, np.array([[1.0, 2.0], [3.0, 4.0]]),
                        np.ones((2, 2), bool))
        # median 2.5: pixels 1 and 2 are zeroed before enhancement
        zeroed = GridImage(spec, np.array([[0.0, 0.0], [3.0, 4.0]]),
                           np.ones((2, 2), bool))
        out = moran_on_high(img)
        expect = moran_enhance(zeroed)
        np.testing.assert_allclose(out.values, expect.values)

    def test_majority_at_maximum(self):
        spec = GridSpec(0.0, 0.0, 1.0, 3, 3)
        values = np.full((3, 3), 7.0)
        values[0, 0] = 1.0
        values[0, 1] = 2.0
        img = GridImage(spec, values, np.ones((3, 3), bool))
        zeroed = values.copy()
        zeroed[0, 0] = zeroed[0, 1] = 0.0
        expect = moran_enhance(GridImage(spec, zeroed, np.ones((3, 3), bool)))
        out = moran_on_high(img)
        np.testing.assert_allclose(out.values, expect.values)

    def test_composition_oracle(self, rng):
        for _ in range(10):
            img = random_image(rng)
            med = np.median(img.values[img.valid])
            zeroed = np.where(img.valid & (img.values < med), 0.0, img.values)
            expect = moran_enhance(GridImage(img.spec, zeroed, img.valid.copy()))
            out = moran_on_high(img)
            np.testing.assert_allclose(out.values[img.valid],
                                       expect.values[img.valid], rtol=1e-12)

    def test_error_propagates(self):
        spec = GridSpec(0.0, 0.0, 1.0, 2, 2)
        # zeroing below the median makes the image constant
        img = GridImage(spec, np.array([[-1.0, -2.0], [0.0, 0.0]]),
                        np.ones((2, 2), bool))
        with pytest.raises(ValueError, match="constant image"):
            moran_on_high(img)
