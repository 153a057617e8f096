import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from shipplume.grid import (SAMPLE_DTYPE, GridImage, GridSpec, crop,
                            grid_to_csv, parse_grid_csv, parse_samples_csv,
                            quality_filter, regrid, table_to_csv)

from conftest import columns, random_image


def sample_array(*rows):
    """Samples from (lat, lon, value[, qa, cloud_fraction]) tuples; qa
    defaults to 1 and cloud_fraction to 0."""
    return np.array([tuple(r) + (1.0, 0.0)[len(r) - 3:] for r in rows],
                    dtype=SAMPLE_DTYPE)


def make_samples(rng, n, spec, spread=1.2):
    out = []
    for _ in range(n):
        out.append((float(rng.uniform(spec.lat_min - spread * 0.1,
                                      spec.lat_max + spread * 0.1)),
                    float(rng.uniform(spec.lon_min - spread * 0.1,
                                      spec.lon_max + spread * 0.1)),
                    float(rng.normal()), float(rng.random()),
                    float(rng.random())))
    return sample_array(*out)


class TestQualityFilter:
    def test_kept_sample(self):
        s = sample_array((0.0, 0.0, 1.0, 0.6, 0.2))
        assert quality_filter(s).tolist() == s.tolist()

    def test_boundary_qa_dropped(self):
        s = sample_array((0.0, 0.0, 1.0, 0.5, 0.2))
        assert len(quality_filter(s)) == 0

    def test_boundary_cloud_dropped(self):
        s = sample_array((0.0, 0.0, 1.0, 0.9, 0.5))
        assert len(quality_filter(s)) == 0

    def test_matches_brute_force_scan(self, rng):
        spec = GridSpec(31.5, 19.5, 0.045, 10, 10)
        samples = make_samples(rng, 1000, spec)
        got = quality_filter(samples)
        expected = [s for s in samples.tolist() if s[3] > 0.5 and s[4] < 0.5]
        assert got.tolist() == expected

    @given(st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1))))
    def test_idempotent(self, qa_cf):
        samples = sample_array(*((0.0, 0.0, 1.0, q, c) for q, c in qa_cf))
        once = quality_filter(samples)
        assert quality_filter(once).tolist() == once.tolist()


class TestRegrid:
    def test_single_sample_at_center(self):
        spec = GridSpec(0.0, 0.0, 1.0, 3, 3)
        img = regrid(sample_array((1.5, 1.5, 3.0)), spec)
        assert img.values[1, 1] == 3.0
        assert img.valid[1, 1]
        assert img.valid.sum() == 1

    def test_two_samples_one_cell(self):
        spec = GridSpec(0.0, 0.0, 1.0, 2, 2)
        img = regrid(sample_array((0.2, 0.3, 2.0), (0.8, 0.9, 4.0)), spec)
        assert img.values[0, 0] == 3.0

    def test_outside_samples_ignored(self):
        spec = GridSpec(0.0, 0.0, 1.0, 2, 2)
        img = regrid(sample_array((-0.5, 0.5, 9.0), (0.5, 2.5, 9.0)), spec)
        assert img.valid.sum() == 0

    def test_matches_bucketed_average_oracle(self, rng):
        spec = GridSpec(31.5, 19.5, 0.045, 8, 12)
        samples = make_samples(rng, 500, spec)
        img = regrid(samples, spec)
        buckets = {}
        for lat, lon, value, _, _ in samples.tolist():
            r = math.floor((lat - spec.lat_min) / spec.cell_size)
            c = math.floor((lon - spec.lon_min) / spec.cell_size)
            if 0 <= r < spec.n_rows and 0 <= c < spec.n_cols:
                buckets.setdefault((r, c), []).append(value)
        for r in range(spec.n_rows):
            for c in range(spec.n_cols):
                if (r, c) in buckets:
                    assert img.valid[r, c]
                    expect = np.mean(buckets[(r, c)])
                    assert img.values[r, c] == pytest.approx(expect, rel=1e-12)
                else:
                    assert not img.valid[r, c]

    def test_valid_count_bounded(self, rng):
        spec = GridSpec(31.5, 19.5, 0.045, 5, 7)
        img = regrid(make_samples(rng, 200, spec), spec)
        assert img.valid.sum() <= spec.n_rows * spec.n_cols


class TestCrop:
    def test_default_dims_capped_at_18(self, rng):
        spec = GridSpec(31.5, 19.5, 0.045, 40, 40)
        img = GridImage(spec, rng.normal(size=(40, 40)), np.ones((40, 40), bool))
        for _ in range(50):
            lat = float(rng.uniform(spec.lat_min, spec.lat_max))
            lon = float(rng.uniform(spec.lon_min, spec.lon_max))
            sub = crop(img, lat, lon)
            assert sub.spec.n_rows <= 18
            assert sub.spec.n_cols <= 18

    def test_geometry_oracle(self, rng):
        # cells selected = centers inside the closed square, per a direct scan
        spec = GridSpec(0.0, 0.0, 0.045, 20, 20)
        img = GridImage(spec, rng.normal(size=(20, 20)), np.ones((20, 20), bool))
        for _ in range(50):
            lat = float(rng.uniform(spec.lat_min, spec.lat_max))
            lon = float(rng.uniform(spec.lon_min, spec.lon_max))
            h = float(rng.uniform(0.03, 0.3))
            sub = crop(img, lat, lon, h)
            rows = [r for r in range(20)
                    if abs(spec.lat_min + (r + 0.5) * 0.045 - lat) <= h]
            cols = [c for c in range(20)
                    if abs(spec.lon_min + (c + 0.5) * 0.045 - lon) <= h]
            assert sub.spec.n_rows == len(rows)
            assert sub.spec.n_cols == len(cols)
            assert sub.spec.lat_min == pytest.approx(
                spec.lat_min + rows[0] * 0.045)

    def test_half_cell_extent_alignment(self):
        spec = GridSpec(0.0, 0.0, 1.0, 10, 10)
        img = GridImage(spec, np.zeros((10, 10)), np.ones((10, 10), bool))
        # centered on a cell center: only that center falls in the square
        sub = crop(img, 4.5, 4.5, 0.5)
        assert (sub.spec.n_rows, sub.spec.n_cols) == (1, 1)
        # centered on a cell corner: the square touches both neighbor centers
        sub = crop(img, 4.0, 4.0, 0.5)
        assert (sub.spec.n_rows, sub.spec.n_cols) == (2, 2)

    def test_identity_crop(self, rng):
        img = random_image(rng)
        full = crop(img, (img.spec.lat_min + img.spec.lat_max) / 2,
                    (img.spec.lon_min + img.spec.lon_max) / 2,
                    half_extent=10.0)
        assert full.spec == img.spec
        np.testing.assert_array_equal(full.valid, img.valid)
        np.testing.assert_array_equal(full.values[full.valid],
                                      img.values[img.valid])

    def test_center_out_of_bounds(self, rng):
        img = random_image(rng)
        with pytest.raises(ValueError, match="center out of bounds"):
            crop(img, img.spec.lat_max + 1.0, img.spec.lon_min)

    def test_regrid_crop_commutes(self, rng):
        spec = GridSpec(31.5, 19.5, 0.045, 20, 20)
        samples = make_samples(rng, 800, spec)
        clat, clon = 31.95, 19.95
        h = 0.3
        a = crop(regrid(samples, spec), clat, clon, h)
        sub_spec = a.spec
        lat, lon = samples["lat"], samples["lon"]
        inside = samples[(sub_spec.lat_min <= lat) & (lat < sub_spec.lat_max)
                         & (sub_spec.lon_min <= lon) & (lon < sub_spec.lon_max)]
        b = regrid(inside, sub_spec)
        np.testing.assert_array_equal(a.valid, b.valid)
        np.testing.assert_allclose(a.values[a.valid], b.values[b.valid],
                                   rtol=1e-12)


class TestGridCsv:
    def test_round_trip_bytes(self, rng):
        img = random_image(rng)
        text = grid_to_csv(img)
        again = grid_to_csv(parse_grid_csv(text))
        assert text == again

    def test_invalid_cells_nan(self, rng):
        img = random_image(rng, invalid_fraction=0.5)
        back = parse_grid_csv(grid_to_csv(img))
        np.testing.assert_array_equal(back.valid, img.valid)
        np.testing.assert_array_equal(back.values[back.valid],
                                      img.values[img.valid])

    @pytest.mark.parametrize("cell, message", [
        ("inf", "infinite value"), ("-inf", "infinite value"),
        ("x", "could not convert string to float: 'x'"),
    ])
    def test_bad_cells_rejected_with_line(self, cell, message):
        text = ("#lat_min=0.0\n#lon_min=0.0\n#cell_size=1.0\n#n_rows=2\n"
                "#n_cols=2\n1.0,nan\n2.0," + cell + "\n")
        with pytest.raises(ValueError, match=f"^grid-csv line 7: {message}"):
            parse_grid_csv(text)

    @pytest.mark.parametrize("lines, message", [
        (["#n_cols=1"], "line 6: repeated or unknown header #n_cols="),
        (["#lat_min=0.0"], "line 6: repeated or unknown header #lat_min="),
        (["#cell_sise=2"], "line 6: repeated or unknown header #cell_sise="),
        (["# a comment"], "line 6: repeated or unknown header # a comment="),
    ], ids=["n_cols-twice", "lat_min-twice", "misspelt-key", "comment"])
    def test_bad_header_lines_rejected_with_line(self, lines, message):
        text = "\n".join(["#lat_min=0.0", "#lon_min=0.0", "#cell_size=1.0",
                          "#n_rows=1", "#n_cols=2", *lines, "1.0,2.0"])
        with pytest.raises(ValueError, match=f"^grid-csv {message}$"):
            parse_grid_csv(text)

    def test_samples_round_trip(self, rng):
        spec = GridSpec(31.5, 19.5, 0.045, 5, 5)
        samples = make_samples(rng, 40, spec)
        text = table_to_csv(columns(samples))
        assert table_to_csv(columns(parse_samples_csv(text))) == text

    def test_samples_bad_rows_rejected_with_line(self):
        text = table_to_csv(columns(sample_array((31.5, 19.5, 1.0, 0.9,
                                                  0.1))))
        for bad, message in (("nan,19.5,1.0,0.9,0.1", "non-finite"),
                             ("31.5,19.5,inf,0.9,0.1", "non-finite"),
                             ("31.5,19.5,1.0,0.9", "wrong field count"),
                             ("31.5,19.5,1.0,1.5,0.1", "qa must lie"),
                             ("31.5,19.5,1.0,0.9,-0.1",
                              "cloud_fraction must lie")):
            with pytest.raises(ValueError,
                               match=f"^samples CSV line 3: {message}"):
                parse_samples_csv(text + bad + "\n")
