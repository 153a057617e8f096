import math

import numpy as np
import pytest

from shipplume.dataset import (FEATURE_BASE, ShipImage,
                               assemble, dataset_to_csv, feature_names,
                               labels_to_csv, parse_dataset_csv,
                               parse_labels_csv, select_ships,
                               wind_direction_features)
from shipplume.grid import GridImage, GridSpec
from shipplume.sector import ShipSector
from shipplume.tracks import KNOT_MS, ShipInfo, Track, WindVector

from conftest import label_dict, label_table

T0 = 1554120000.0


def track_at(lat, lon, mmsi=1):
    return Track(mmsi, [T0 - 600.0, T0], [lat, lat], [lon, lon])


def ship(mmsi, speed_kt, lat, lon, length=200.0):
    return (ShipInfo(mmsi=mmsi, length_m=length, speed_ms=speed_kt * KNOT_MS),
            track_at(lat, lon, mmsi))


class TestSelectShips:
    def test_speed_threshold_strict(self):
        kept = select_ships([ship(1, 14.0, 32.0, 20.0)])
        assert kept == []
        kept = select_ships([ship(1, 14.01, 32.0, 20.0)])
        assert len(kept) == 1

    def test_pairwise_duplicate_keeps_fastest(self):
        a = ship(1, 16.0, 32.0, 20.0)
        b = ship(2, 18.0, 32.0, 20.1)
        kept = select_ships([a, b])
        assert [info.mmsi for info, _ in kept] == [2]

    def test_far_apart_ships_both_kept(self):
        a = ship(1, 16.0, 32.0, 20.0)
        b = ship(2, 18.0, 33.0, 21.0)
        assert len(select_ships([a, b])) == 2

    def test_transitive_cluster_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 25))
            fleet = [ship(i, float(rng.uniform(10, 25)),
                          float(rng.uniform(31.5, 33.0)),
                          float(rng.uniform(19.5, 21.0))) for i in range(n)]
            kept = select_ships(fleet)
            # brute-force oracle: filter, BFS transitive clusters, argmax speed
            fast = [s for s in fleet if s[0].speed_ms / KNOT_MS > 14.0]
            centers = [(np.mean(tr.lat), np.mean(tr.lon)) for _, tr in fast]
            unvisited = set(range(len(fast)))
            expect = set()
            while unvisited:
                seed_idx = min(unvisited)
                stack, cluster = [seed_idx], set()
                while stack:
                    i = stack.pop()
                    if i in cluster:
                        continue
                    cluster.add(i)
                    for j in range(len(fast)):
                        if j not in cluster and math.hypot(
                                centers[i][0] - centers[j][0],
                                centers[i][1] - centers[j][1]) <= 0.4:
                            stack.append(j)
                unvisited -= cluster
                best = max(cluster,
                           key=lambda i: (fast[i][0].speed_ms, -fast[i][0].mmsi))
                expect.add(fast[best][0].mmsi)
            assert {info.mmsi for info, _ in kept} == expect


def tiny_ship_image(group_id="1_2019-04-01", mmsi=1, wind=WindVector(3.0, 0.0),
                    n=3, moran_value=0.5, no2_value=2.0, bad_pixel=None):
    spec = GridSpec(31.5, 19.5, 0.045, 4, 4)
    shape = (4, 4)
    crop_img = GridImage(spec, np.full(shape, no2_value), np.ones(shape, bool))
    moran_img = GridImage(spec, np.full(shape, moran_value), np.ones(shape, bool))
    high_img = GridImage(spec, np.full(shape, moran_value / 2), np.ones(shape, bool))
    if bad_pixel is not None:
        moran_img.values[bad_pixel] = np.nan
    pixels = np.array([(r, 1) for r in range(n)], dtype=int).reshape(-1, 2)
    level = np.minimum(5, np.arange(n) + 1)
    sub_sector = np.full(n, 3)
    sector = ShipSector(mmsi, (31.6, 19.6),
                        ((31.6, 19.6), (31.9, 19.6), (31.9, 19.9)), 0.0)
    info = ShipInfo(mmsi=mmsi, length_m=180.0, speed_ms=8.0)
    return ShipImage(group_id=group_id, info=info, wind=wind, crop=crop_img,
                     moran=moran_img, moran_high=high_img, sector=sector,
                     pixels=pixels, level=level, sub_sector=sub_sector)


class TestAssemble:
    def test_unlabeled_cardinality(self):
        ds = assemble([tiny_ship_image(n=4)], labels=None)
        assert len(ds.rows) == 4
        assert all(label == -1 for label in ds.labels)

    def test_wind_due_east(self):
        ds = assemble([tiny_ship_image(wind=WindVector(5.0, 0.0))], labels=None)
        assert ds.column("wind_dir_sin")[0] == pytest.approx(0.0)
        assert ds.column("wind_dir_cos")[0] == pytest.approx(1.0)

    def test_direction_unit_norm(self):
        for wind in (WindVector(0.0, 0.0), WindVector(-3.0, 4.0),
                     WindVector(1e-3, -1e-3)):
            s, c = wind_direction_features(wind)
            assert s * s + c * c == pytest.approx(1.0, abs=1e-9)

    def test_feature_recompute_oracle(self):
        im = tiny_ship_image(n=3)
        ds = assemble([im], labels=label_table({("1_2019-04-01", 0, 1): 1}))
        names = feature_names()
        assert len(ds.rows) == 3
        for i, feats in enumerate(ds.X):
            r, c = im.pixels[i]
            assert (ds.rows[i], ds.cols[i]) == (r, c)
            assert feats[names.index("moran_i")] == im.moran.values[r, c]
            assert feats[names.index("no2")] == im.crop.values[r, c]
            assert feats[names.index("wind_speed")] == im.wind.speed
            assert feats[names.index("ship_speed")] == im.info.speed_ms
            assert feats[names.index("ship_length")] == im.info.length_m
            onehot_l = feats[7:12]
            onehot_s = feats[12:17]
            assert sum(onehot_l) == 1.0 and onehot_l[im.level[i] - 1] == 1.0
            assert sum(onehot_s) == 1.0 and onehot_s[im.sub_sector[i] - 1] == 1.0
            assert ds.moran_high[i] == im.moran_high.values[r, c]
        assert ds.labels.tolist() == [1, 0, 0]
        assert ds.class_counts == (2, 1)

    def test_feature_vector_length(self):
        ds = assemble([tiny_ship_image()], labels=None)
        assert ds.X.shape == (len(ds.rows), 17)

    def test_orphan_label_error(self):
        with pytest.raises(ValueError, match="orphan label"):
            assemble([tiny_ship_image(n=2)],
                     labels=label_table({("1_2019-04-01", 3, 3): 1}))

    def test_nonfinite_rows_dropped_and_counted(self):
        im = tiny_ship_image(n=3, bad_pixel=(1, 1))
        ds = assemble([im], labels=None)
        assert len(ds.rows) == 2
        assert ds.n_dropped == 1

    def test_label_on_dropped_pixel_is_not_orphan(self):
        im = tiny_ship_image(n=3, bad_pixel=(1, 1))
        ds = assemble([im], labels=label_table({("1_2019-04-01", 1, 1): 1}))
        assert len(ds.rows) == 2

    def test_groups_contiguous_and_constant(self):
        images = [tiny_ship_image(group_id="9_2019-04-02", mmsi=9),
                  tiny_ship_image(group_id="1_2019-04-01", mmsi=1)]
        ds = assemble(images, labels=None)
        gids = ds.group_ids.tolist()
        assert gids == sorted(gids)
        for gid in set(gids):
            ship_feats = {tuple(f) for f in ds.X[ds.group_ids == gid, 2:7].tolist()}
            assert len(ship_feats) == 1


class TestCsvFormats:
    def test_dataset_round_trip_bytes(self, rng):
        im = tiny_ship_image(n=4)
        ds = assemble([im], labels=label_table({("1_2019-04-01", 0, 1): 1}))
        text = dataset_to_csv(ds)
        again = dataset_to_csv(parse_dataset_csv(text))
        assert text == again

    def test_unlabeled_round_trip(self):
        ds = assemble([tiny_ship_image(n=2)], labels=None)
        text = dataset_to_csv(ds)
        back = parse_dataset_csv(text)
        assert all(label == -1 for label in back.labels)
        assert dataset_to_csv(back) == text

    def test_labels_round_trip(self):
        table = {("1_2019-04-01", 0, 1): 1, ("1_2019-04-01", 2, 2): 0,
                 ("7_2019-05-02", 3, 0): 1}
        text = labels_to_csv(label_table(table))
        assert label_dict(parse_labels_csv(text)) == table
        assert labels_to_csv(parse_labels_csv(text)) == text

    def test_dataset_bad_values_rejected_with_line(self):
        labels = label_table({("1_2019-04-01", 0, 1): 1})
        text = dataset_to_csv(assemble([tiny_ship_image(n=3)], labels=labels))
        lines = text.splitlines()
        # fields: group_id,row,col, 17 features (3-19), moran_high (20), label;
        # ship_speed is field 8 and ship_length field 9; line 2 holds pixel
        # (0, 1) and line 3 pixel (1, 1)
        for field, token, message in (
                (3, "nan", "non-finite"), (4, "inf", "non-finite"),
                (20, "-inf", "non-finite"), (21, "2", "bad label"),
                (21, "-1", "bad label"), (21, "x", "bad label"),
                (9, "0.0", "ship_length must be > 0"),
                (9, "-5.0", "ship_length must be > 0"),
                (8, "-0.5", "ship_speed must be >= 0"),
                (1, "0", "duplicate key 1_2019-04-01,0,1$"),
                (1, "00", "duplicate key 1_2019-04-01,00,1$")):
            parts = lines[2].split(",")
            parts[field] = token
            bad = "\n".join([*lines[:2], ",".join(parts), *lines[3:]]) + "\n"
            with pytest.raises(ValueError,
                               match=f"^dataset CSV line 3: {message}"):
                parse_dataset_csv(bad)

    @pytest.mark.parametrize("edits, message", [
        ({3: {1: "0", 21: "2"}}, "line 3: bad label '2'"),
        ({2: {3: "nan"}, 4: {1: "0"}},
         "line 4: duplicate key 1_2019-04-01,0,1"),
    ], ids=["bad_label_before_repeat", "repeat_before_earlier_non_finite"])
    def test_line_rules_come_first(self, edits, message):
        """On a line the label token is checked before the repeated key, and
        every line's own rules before the value rules of the whole table."""
        lines = dataset_to_csv(assemble([tiny_ship_image(n=3)])).splitlines()
        for k, tokens in edits.items():   # line k of the file
            parts = lines[k - 1].split(",")
            for field, token in tokens.items():
                parts[field] = token
            lines[k - 1] = ",".join(parts)
        with pytest.raises(ValueError) as exc:
            parse_dataset_csv("\n".join(lines) + "\n")
        assert str(exc.value) == f"dataset CSV {message}"

    def test_zero_ship_speed_accepted(self):
        text = dataset_to_csv(assemble([tiny_ship_image(n=2)], labels=None))
        parts = text.splitlines()[1].split(",")
        parts[8] = "0.0"
        text = text.replace(text.splitlines()[1], ",".join(parts))
        assert parse_dataset_csv(text).column("ship_speed")[0] == 0.0

    def test_bad_label_value_rejected(self):
        with pytest.raises(ValueError):
            parse_labels_csv("group_id,row,col,label\na_1,0,0,2\n")

    @pytest.mark.parametrize("rows, message", [
        (["1_d,5,8,1", "1_d,5,8,0"], "line 3: duplicate key 1_d,5,8"),
        (["1_d,5,8,1", "1_d,5,8,1"], "line 3: duplicate key 1_d,5,8"),
        (["1_d,5,8"], "line 2: wrong field count"),
        (["1_d,5,8,1", "1_d,5,x,1"], "line 3: invalid literal for int"),
        (["1_d,5,8,2"], "line 2: label must be 0 or 1"),
    ], ids=["conflicting", "repeated", "field_count", "non_integer_col",
            "label_2"])
    def test_bad_label_rows_rejected_with_line(self, rows, message):
        text = "\n".join(["group_id,row,col,label", *rows]) + "\n"
        with pytest.raises(ValueError, match=f"^labels CSV {message}"):
            parse_labels_csv(text)

    def test_header_shape(self):
        assert len(feature_names()) == 17
        assert feature_names()[:7] == list(FEATURE_BASE)
