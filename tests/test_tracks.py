import math

import numpy as np
import pytest

from shipplume.grid import M_PER_DEG_LAT, table_to_csv
from shipplume.tracks import (AIS_DTYPE, KNOT_MS, REGISTRY_DTYPE, WIND_DTYPE,
                              Track, WindVector, extreme_tracks,
                              interpolate_track, lookup_wind,
                              overpass_speed_ms, parse_ais_csv,
                              parse_registry_csv, parse_wind_csv, wind_shift)

from conftest import columns, table

T0 = 1554120000.0


def straight_records(mmsi=1, lat0=32.0, lon0=20.0, heading=90.0, speed=16.0,
                     times=None):
    times = times if times is not None else [T0 - 7200, T0]
    sp = speed * 1852.0 / 3600.0
    north = sp * math.cos(math.radians(heading))
    east = sp * math.sin(math.radians(heading))
    recs = []
    for t in times:
        dt = T0 - t
        recs.append((mmsi, t,
                     lat0 - north * dt / M_PER_DEG_LAT,
                     lon0 - east * dt / (M_PER_DEG_LAT
                                         * math.cos(math.radians(lat0))),
                     speed, heading))
    return table(AIS_DTYPE, recs)


def reference_track(recs, t_overpass, window_s, step_s):
    """The resampling rule one grid time at a time, in Python floats:
    linear between records, dead-reckoned up to one step beyond them from
    a record whose heading is in [0, 360)."""
    recs = recs.tolist()   # (mmsi, t, lat, lon, speed_kt, heading_deg) tuples
    ts = [r[1] for r in recs]

    def reckon(rec, t):
        _, t_rec, lat, lon, speed, heading = rec
        sp = speed * KNOT_MS
        north = sp * math.cos(math.radians(heading))
        east = sp * math.sin(math.radians(heading))
        return (lat + north * (t - t_rec) / M_PER_DEG_LAT,
                lon + east * (t - t_rec)
                / (M_PER_DEG_LAT * math.cos(math.radians(lat))))

    out = []
    for k in range(int(math.floor(window_s / step_s + 1e-9)), -1, -1):
        t = t_overpass - k * step_s
        if t in ts:
            rec = recs[ts.index(t)]
            out.append((t, rec[2], rec[3]))
        elif ts[0] < t < ts[-1]:
            i = max(j for j in range(len(ts)) if ts[j] < t)
            a, b = recs[i], recs[i + 1]
            w = (t - a[1]) / (b[1] - a[1])
            out.append((t, a[2] + w * (b[2] - a[2]), a[3] + w * (b[3] - a[3])))
        elif 0 < ts[0] - t <= step_s and 0 <= recs[0][5] < 360:
            out.append((t, *reckon(recs[0], t)))
        elif 0 < t - ts[-1] <= step_s and 0 <= recs[-1][5] < 360:
            out.append((t, *reckon(recs[-1], t)))
    return out


class TestTrack:
    def test_timestamps_strictly_increasing(self):
        for t in ([T0, T0], [T0, T0 - 1.0]):
            with pytest.raises(ValueError, match="strictly increasing"):
                Track(1, t, [0.0, 0.0], [0.0, 0.0])

    def test_columns_equal_length(self):
        with pytest.raises(ValueError, match="equal length"):
            Track(1, [T0 - 1.0, T0], [0.0], [0.0, 0.0])


class TestInterpolateTrack:
    def test_two_endpoint_records_collinear(self):
        track = interpolate_track(straight_records(), T0)
        assert len(track.t) == 25
        lats, lons = track.lat, track.lon
        # uniform spacing along a line
        np.testing.assert_allclose(np.diff(lats), np.diff(lats)[0], atol=1e-12)
        np.testing.assert_allclose(np.diff(lons), np.diff(lons)[0], atol=1e-12)

    def test_timestamps_exact_grid(self):
        track = interpolate_track(straight_records(), T0, window_s=7200,
                                  step_s=300)
        expected = [T0 - k * 300.0 for k in range(24, -1, -1)]
        assert track.t.tolist() == expected

    def test_piecewise_linear_oracle(self, rng):
        times = sorted(rng.uniform(T0 - 8000, T0 + 100, size=40).tolist())
        recs = table(AIS_DTYPE, [(7, t, float(rng.uniform(31, 33)),
                                  float(rng.uniform(19, 21)), 15.0, 0.0)
                                 for t in times])
        track = interpolate_track(recs, T0)
        ts = recs["timestamp"]
        for t, plat, plon in zip(track.t, track.lat, track.lon):
            if ts[0] <= t <= ts[-1]:
                lat = np.interp(t, ts, recs["lat"])
                lon = np.interp(t, ts, recs["lon"])
                assert plat == pytest.approx(lat, abs=1e-12)
                assert plon == pytest.approx(lon, abs=1e-12)

    def test_matches_scalar_reference_bit_for_bit(self, rng):
        # random record times give interpolated, exact-hit, dead-reckoned
        # and truncated grid times; steps of 250 s put grid times on records;
        # in every third trial about half the headings are 511, "not available"
        for trial in range(200):
            n = int(rng.integers(2, 10))
            if trial % 2:
                times = sorted(set((T0 - 250.0 * rng.integers(-2, 35, n)).tolist()))
            else:
                times = sorted(rng.uniform(T0 - 9000, T0 + 500, n).tolist())
            recs = table(AIS_DTYPE, [(3, t, float(rng.uniform(-60, 60)),
                                      float(rng.uniform(-180, 180)),
                                      float(rng.uniform(0, 30)),
                                      float(rng.uniform(0, 360)))
                                     for t in times])
            if trial % 3 == 0:
                recs["heading_deg"][rng.random(len(recs)) < 0.5] = 511.0
            expected = reference_track(recs, T0, 7200.0, 250.0)
            if len(expected) < 2:
                with pytest.raises(ValueError, match="insufficient AIS"):
                    interpolate_track(recs, T0, step_s=250.0)
                continue
            track = interpolate_track(recs, T0, step_s=250.0)
            assert list(zip(track.t.tolist(), track.lat.tolist(),
                            track.lon.tolist())) == expected

    def test_single_record_error(self):
        with pytest.raises(ValueError, match="insufficient AIS coverage"):
            interpolate_track(straight_records(times=[T0]), T0)

    def test_far_records_truncate(self):
        # records cover only the last half hour; earlier grid times drop
        recs = straight_records(times=[T0 - 1800, T0])
        track = interpolate_track(recs, T0)
        assert track.t[0] == T0 - 2100  # one step of reckoning
        assert np.all(track.t >= T0 - 2100)

    @pytest.mark.parametrize("heading", [511.0, 360.0, -1.0])
    def test_unknown_heading_is_not_dead_reckoned(self, heading):
        # 0.01 deg north per 300 s from T0 - 7000 to T0 - 100: the grid times
        # T0 - 7200 and T0 fall 200 s before and 100 s after the records
        def records(heading):
            return table(AIS_DTYPE, [(1, T0 - 7000 + 300.0 * k, 32.0 + 0.01 * k,
                                      20.0, 15.0, heading) for k in range(24)])

        north = interpolate_track(records(0.0), T0)
        assert north.t[0] == T0 - 7200 and north.t[-1] == T0
        assert north.lat[0] == pytest.approx(31.98614, abs=1e-5)
        assert north.lat[-1] == pytest.approx(32.23693, abs=1e-5)
        # without a heading both reckoned ends are dropped, and the rest stays
        unknown = interpolate_track(records(heading), T0)
        assert unknown.t.tolist() == north.t[1:-1].tolist()
        assert unknown.lat.tolist() == north.lat[1:-1].tolist()
        assert unknown.lon.tolist() == north.lon[1:-1].tolist()
        # a track left with one point is too short
        with pytest.raises(ValueError, match="insufficient AIS coverage"):
            interpolate_track(records(heading)[-2:], T0 + 50, window_s=300.0)


class TestWindShift:
    def test_zero_wind_identity(self):
        track = interpolate_track(straight_records(), T0)
        shifted = wind_shift(track, WindVector(0.0, 0.0), T0)
        np.testing.assert_array_equal(shifted.lat, track.lat)
        np.testing.assert_array_equal(shifted.lon, track.lon)

    def test_hand_computed_advection(self):
        track = Track(1, [T0 - 3600.0, T0], [0.0, 0.0], [10.0, 10.1])
        shifted = wind_shift(track, WindVector(10.0, 0.0), T0)
        assert shifted.lon[0] - 10.0 == pytest.approx(
            36000.0 / M_PER_DEG_LAT, abs=1e-9)
        assert shifted.lat[0] == 0.0

    def test_overpass_point_unchanged(self):
        track = interpolate_track(straight_records(), T0)
        shifted = wind_shift(track, WindVector(12.0, -7.0), T0)
        assert shifted.lat[-1] == track.lat[-1]
        assert shifted.lon[-1] == track.lon[-1]

    def test_matches_scalar_reference_bit_for_bit(self, rng):
        track = Track(1, T0 - 300.0 * np.arange(24, -1, -1),
                      rng.uniform(-75, 75, 25), rng.uniform(-1, 1, 25))
        wind = WindVector(-7.5, 11.25)
        shifted = wind_shift(track, wind, T0)
        for t, lat, lon, s_lat, s_lon in zip(
                *(a.tolist() for a in (track.t, track.lat, track.lon,
                                       shifted.lat, shifted.lon))):
            dt = T0 - t
            assert s_lat == lat + wind.v * dt / M_PER_DEG_LAT
            assert s_lon == lon + wind.u * dt / (
                M_PER_DEG_LAT * math.cos(math.radians(lat)))

    def test_linear_in_elapsed_time(self):
        lat = 45.0
        track = Track(1, [T0 - 2400.0, T0 - 1200.0, T0], [lat] * 3, [5.0] * 3)
        shifted = wind_shift(track, WindVector(4.0, 3.0), T0)
        d1 = (shifted.lat[1] - lat, shifted.lon[1] - 5.0)
        d2 = (shifted.lat[0] - lat, shifted.lon[0] - 5.0)
        assert d2[0] == pytest.approx(2 * d1[0], rel=1e-12)
        assert d2[1] == pytest.approx(2 * d1[1], rel=1e-12)


class TestExtremeTracks:
    def test_zero_uncertainty_equals_wind_shift(self):
        track = interpolate_track(straight_records(), T0)
        wind = WindVector(3.0, 4.0)
        plus, minus = extreme_tracks(track, wind, T0, dspeed=0.0, dangle=0.0)
        base = wind_shift(track, wind, T0)
        for ext in (plus, minus):
            np.testing.assert_allclose(ext.lat, base.lat)
            np.testing.assert_allclose(ext.lon, base.lon)

    def test_rotation_oracle_90_degrees(self):
        track = Track(1, [T0 - 3600.0, T0], [0.0, 0.0], [10.0, 10.0])
        plus, minus = extreme_tracks(track, WindVector(10.0, 0.0), T0,
                                     dspeed=0.0, dangle=90.0)

        def implied_wind(shifted):
            u = float(shifted.lon[0] - 10.0) * M_PER_DEG_LAT / 3600.0
            v = float(shifted.lat[0] - 0.0) * M_PER_DEG_LAT / 3600.0
            return round(u, 6), round(v, 6)

        # counterclockwise-positive rotation of (10, 0) by +-90 degrees
        assert implied_wind(plus) == (0.0, 10.0)
        assert implied_wind(minus) == (0.0, -10.0)

    def test_default_magnitude_margin(self):
        track = Track(1, [T0 - 3600.0, T0], [0.0, 0.0], [10.0, 10.0])
        wind = WindVector(3.0, 4.0)
        plus, _ = extreme_tracks(track, wind, T0)
        u = (plus.lon[0] - 10.0) * M_PER_DEG_LAT / 3600.0
        v = plus.lat[0] * M_PER_DEG_LAT / 3600.0
        assert math.hypot(u, v) == pytest.approx(wind.speed + 5.0, rel=1e-9)

    def test_mirror_images_about_boosted_wind_shift(self):
        # with the unperturbed magnitude already |w| + dspeed, the two extremes
        # are reflections of each other across the wind-shifted track
        k = np.arange(5, -1, -1)
        track = Track(1, T0 - 600.0 * k, np.zeros(6), 10.0 + 0.01 * k)
        wind = WindVector(6.0, 2.0)
        boosted = WindVector(wind.u * (wind.speed + 5) / wind.speed,
                             wind.v * (wind.speed + 5) / wind.speed)
        plus, minus = extreme_tracks(track, wind, T0, dspeed=5.0, dangle=30.0)
        axis = np.array([boosted.u, boosted.v]) / boosted.speed
        for i in range(len(track.t)):
            dp = np.array([plus.lon[i] - track.lon[i], plus.lat[i] - track.lat[i]])
            dm = np.array([minus.lon[i] - track.lon[i],
                           minus.lat[i] - track.lat[i]])
            # reflect dp across the spine direction; lat 0 so no cos distortion
            refl = 2 * np.dot(dp, axis) * axis - dp
            np.testing.assert_allclose(refl, dm, atol=1e-12)


class TestCsvFormats:
    def test_ais_round_trip(self, rng):
        recs = straight_records(times=[T0 - 600 * k for k in range(12, -1, -1)])
        text = table_to_csv(columns(recs))
        assert table_to_csv(columns(parse_ais_csv(text))) == text

    def test_wind_round_trip(self):
        samples = table(WIND_DTYPE, [(T0, 31.5, 19.5, 3.25, -1.5),
                                     (T0, 34.2, 29.5, 3.25, -1.5)])
        text = table_to_csv(columns(samples))
        assert table_to_csv(columns(parse_wind_csv(text))) == text

    def test_registry_round_trip(self):
        text = table_to_csv(columns(table(REGISTRY_DTYPE,
                                          [(123, 180.0), (456, 250.5)])))
        parsed = parse_registry_csv(text)
        assert table_to_csv(columns(table(
            REGISTRY_DTYPE, sorted(parsed.items())))) == text

    def test_ais_bad_rows_rejected_with_line(self):
        text = table_to_csv(columns(straight_records()[:1]))
        for bad, message in (("1,1554120000,nan,20,16,90", "non-finite"),
                             ("1,1554120000,32,20,inf,90", "non-finite"),
                             ("1,1554120000,32,20,16,90,0", "wrong field count"),
                             ("1,1554120000,32,20,-0.5,90",
                              "speed_kt must be >= 0"),
                             ("x1,1554120000,32,20,16,90", "invalid literal"),
                             ("9223372036854775808,1554120000,32,20,16,90",
                              "mmsi must fit in 64 bits")):
            with pytest.raises(ValueError, match=f"^AIS CSV line 3: {message}"):
                parse_ais_csv(text + bad + "\n")
        # 511 is AIS for "heading not available"
        parsed = parse_ais_csv(text + "1,1554120000,32,20,0,511\n")
        assert parsed[1]["heading_deg"] == 511

    def test_wind_bad_rows_rejected_with_line(self):
        text = table_to_csv(columns(table(WIND_DTYPE,
                                          [(T0, 31.5, 19.5, 3.25, -1.5)])))
        for bad, message in (("1554120000,31.5,19.5,nan,-1.5", "non-finite"),
                             ("1554120000,31.5,19.5,3.25", "wrong field count")):
            with pytest.raises(ValueError,
                               match=f"^wind CSV line 3: {message}"):
                parse_wind_csv(text + bad + "\n")

    def test_registry_bad_rows_rejected_with_line(self):
        text = table_to_csv(columns(table(REGISTRY_DTYPE, [(123, 180.0)])))
        for bad, message in (("456,nan", "non-finite"),
                             ("456,-5", "length_m must be > 0"),
                             ("456,0", "length_m must be > 0"),
                             ("456,180,1", "wrong field count"),
                             ("123,300", "duplicate mmsi 123")):
            with pytest.raises(ValueError,
                               match=f"^ship registry CSV line 3: {message}"):
                parse_registry_csv(text + bad + "\n")

    def test_lookup_wind_nearest(self):
        samples = table(WIND_DTYPE, [(T0, 31.0, 19.0, 1.0, 0.0),
                                     (T0, 34.0, 29.0, 2.0, 0.0),
                                     (T0 - 21600, 31.0, 19.0, 9.0, 0.0),
                                     (T0, 31.0, 19.0, 4.0, 0.0)])
        wind = lookup_wind(samples, T0, 31.1, 19.2)
        assert wind.u == 1.0   # the first of two equally near samples
        with pytest.raises(ValueError, match="no wind samples"):
            lookup_wind(samples[:0], T0, 31.1, 19.2)

    def test_overpass_speed_from_nearest_record(self):
        # T0 + 100 comes first in the file and T0 - 100 twice: the earlier
        # time of two equally near wins, and the first of its two records
        recs = table(AIS_DTYPE, [(1, T0 + 100, 32.0, 20.0, 20.0, 0.0),
                                 (1, T0 - 100, 32.0, 20.0, 10.0, 0.0),
                                 (1, T0 - 100, 32.0, 20.0, 30.0, 0.0),
                                 (1, T0 - 7200, 32.0, 20.0, 40.0, 0.0)])
        assert overpass_speed_ms(recs, T0) == 10.0 * KNOT_MS
        assert overpass_speed_ms(recs, T0 + 60) == 20.0 * KNOT_MS
        with pytest.raises(ValueError, match="no AIS records"):
            overpass_speed_ms(recs[:0], T0)
