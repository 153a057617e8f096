import math

import numpy as np
import pytest

from shipplume.grid import M_PER_DEG_LAT
from shipplume.tracks import (AISRecord, Track, TrackPoint, WindVector,
                              ais_to_csv, extreme_tracks, interpolate_track,
                              lookup_wind, parse_ais_csv, parse_registry_csv,
                              parse_wind_csv, registry_to_csv, wind_shift,
                              wind_to_csv, WindSample)

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
        recs.append(AISRecord(mmsi, t,
                              lat0 - north * dt / M_PER_DEG_LAT,
                              lon0 - east * dt / (M_PER_DEG_LAT
                                                  * math.cos(math.radians(lat0))),
                              speed, heading))
    return recs


class TestInterpolateTrack:
    def test_two_endpoint_records_collinear(self):
        track = interpolate_track(straight_records(), T0)
        assert len(track.points) == 25
        lats = np.array([p.lat for p in track.points])
        lons = np.array([p.lon for p in track.points])
        # uniform spacing along a line
        np.testing.assert_allclose(np.diff(lats), np.diff(lats)[0], atol=1e-12)
        np.testing.assert_allclose(np.diff(lons), np.diff(lons)[0], atol=1e-12)

    def test_timestamps_exact_grid(self):
        track = interpolate_track(straight_records(), T0, window_s=7200,
                                  step_s=300)
        expected = [T0 - k * 300.0 for k in range(24, -1, -1)]
        assert [p.timestamp for p in track.points] == expected

    def test_piecewise_linear_oracle(self, rng):
        times = sorted(rng.uniform(T0 - 8000, T0 + 100, size=40).tolist())
        recs = [AISRecord(7, t, float(rng.uniform(31, 33)),
                          float(rng.uniform(19, 21)), 15.0, 0.0)
                for t in times]
        track = interpolate_track(recs, T0)
        ts = [r.timestamp for r in recs]
        for p in track.points:
            if ts[0] <= p.timestamp <= ts[-1]:
                lat = np.interp(p.timestamp, ts, [r.lat for r in recs])
                lon = np.interp(p.timestamp, ts, [r.lon for r in recs])
                assert p.lat == pytest.approx(lat, abs=1e-12)
                assert p.lon == pytest.approx(lon, abs=1e-12)

    def test_single_record_error(self):
        with pytest.raises(ValueError, match="insufficient AIS coverage"):
            interpolate_track(straight_records(times=[T0]), T0)

    def test_far_records_truncate(self):
        # records cover only the last half hour; earlier grid times drop
        recs = straight_records(times=[T0 - 1800, T0])
        track = interpolate_track(recs, T0)
        assert track.points[0].timestamp == T0 - 2100  # one step of reckoning
        assert all(p.timestamp >= T0 - 2100 for p in track.points)


class TestWindShift:
    def test_zero_wind_identity(self):
        track = interpolate_track(straight_records(), T0)
        shifted = wind_shift(track, WindVector(0.0, 0.0), T0)
        for a, b in zip(track.points, shifted.points):
            assert (a.lat, a.lon) == (b.lat, b.lon)

    def test_hand_computed_advection(self):
        track = Track(1, (TrackPoint(T0 - 3600.0, 0.0, 10.0),
                          TrackPoint(T0, 0.0, 10.1)))
        shifted = wind_shift(track, WindVector(10.0, 0.0), T0)
        assert shifted.points[0].lon - 10.0 == pytest.approx(
            36000.0 / M_PER_DEG_LAT, abs=1e-9)
        assert shifted.points[0].lat == 0.0

    def test_overpass_point_unchanged(self):
        track = interpolate_track(straight_records(), T0)
        shifted = wind_shift(track, WindVector(12.0, -7.0), T0)
        assert shifted.points[-1].lat == track.points[-1].lat
        assert shifted.points[-1].lon == track.points[-1].lon

    def test_linear_in_elapsed_time(self):
        lat = 45.0
        track = Track(1, (TrackPoint(T0 - 2400.0, lat, 5.0),
                          TrackPoint(T0 - 1200.0, lat, 5.0),
                          TrackPoint(T0, lat, 5.0)))
        shifted = wind_shift(track, WindVector(4.0, 3.0), T0)
        d1 = (shifted.points[1].lat - lat, shifted.points[1].lon - 5.0)
        d2 = (shifted.points[0].lat - lat, shifted.points[0].lon - 5.0)
        assert d2[0] == pytest.approx(2 * d1[0], rel=1e-12)
        assert d2[1] == pytest.approx(2 * d1[1], rel=1e-12)


class TestExtremeTracks:
    def test_zero_uncertainty_equals_wind_shift(self):
        track = interpolate_track(straight_records(), T0)
        wind = WindVector(3.0, 4.0)
        plus, minus = extreme_tracks(track, wind, T0, dspeed=0.0, dangle=0.0)
        base = wind_shift(track, wind, T0)
        for a, b, c in zip(base.points, plus.points, minus.points):
            assert (a.lat, a.lon) == pytest.approx((b.lat, b.lon))
            assert (a.lat, a.lon) == pytest.approx((c.lat, c.lon))

    def test_rotation_oracle_90_degrees(self):
        track = Track(1, (TrackPoint(T0 - 3600.0, 0.0, 10.0),
                          TrackPoint(T0, 0.0, 10.0)))
        plus, minus = extreme_tracks(track, WindVector(10.0, 0.0), T0,
                                     dspeed=0.0, dangle=90.0)

        def implied_wind(shifted):
            p = shifted.points[0]
            u = (p.lon - 10.0) * M_PER_DEG_LAT / 3600.0
            v = (p.lat - 0.0) * M_PER_DEG_LAT / 3600.0
            return round(u, 6), round(v, 6)

        # counterclockwise-positive rotation of (10, 0) by +-90 degrees
        assert implied_wind(plus) == (0.0, 10.0)
        assert implied_wind(minus) == (0.0, -10.0)

    def test_default_magnitude_margin(self):
        track = Track(1, (TrackPoint(T0 - 3600.0, 0.0, 10.0),
                          TrackPoint(T0, 0.0, 10.0)))
        wind = WindVector(3.0, 4.0)
        plus, _ = extreme_tracks(track, wind, T0)
        p = plus.points[0]
        u = (p.lon - 10.0) * M_PER_DEG_LAT / 3600.0
        v = p.lat * M_PER_DEG_LAT / 3600.0
        assert math.hypot(u, v) == pytest.approx(wind.speed + 5.0, rel=1e-9)

    def test_mirror_images_about_boosted_wind_shift(self):
        # with the unperturbed magnitude already |w| + dspeed, the two extremes
        # are reflections of each other across the wind-shifted track
        track = Track(1, tuple(TrackPoint(T0 - 600.0 * k, 0.0, 10.0 + 0.01 * k)
                               for k in range(5, -1, -1)))
        wind = WindVector(6.0, 2.0)
        boosted = WindVector(wind.u * (wind.speed + 5) / wind.speed,
                             wind.v * (wind.speed + 5) / wind.speed)
        plus, minus = extreme_tracks(track, wind, T0, dspeed=5.0, dangle=30.0)
        spine = wind_shift(track, boosted, T0)
        axis = np.array([boosted.u, boosted.v]) / boosted.speed
        for p, m, s, o in zip(plus.points, minus.points, spine.points,
                              track.points):
            dp = np.array([p.lon - o.lon, p.lat - o.lat])
            dm = np.array([m.lon - o.lon, m.lat - o.lat])
            ds = np.array([s.lon - o.lon, s.lat - o.lat])
            # reflect dp across the spine direction; lat 0 so no cos distortion
            refl = 2 * np.dot(dp, axis) * axis - dp
            np.testing.assert_allclose(refl, dm, atol=1e-12)
            del ds


class TestCsvFormats:
    def test_ais_round_trip(self, rng):
        recs = straight_records(times=[T0 - 600 * k for k in range(12, -1, -1)])
        text = ais_to_csv(recs)
        assert ais_to_csv(parse_ais_csv(text)) == text

    def test_wind_round_trip(self):
        samples = [WindSample(T0, 31.5, 19.5, 3.25, -1.5),
                   WindSample(T0, 34.2, 29.5, 3.25, -1.5)]
        text = wind_to_csv(samples)
        assert wind_to_csv(parse_wind_csv(text)) == text

    def test_registry_round_trip(self):
        text = registry_to_csv([(123, 180.0), (456, 250.5)])
        parsed = parse_registry_csv(text)
        assert registry_to_csv(sorted(parsed.items())) == text

    def test_ais_bad_rows_rejected_with_line(self):
        text = ais_to_csv(straight_records()[:1])
        for bad, message in (("1,1554120000,nan,20,16,90", "non-finite"),
                             ("1,1554120000,32,20,inf,90", "non-finite"),
                             ("1,1554120000,32,20,16,90,0", "wrong field count"),
                             ("x1,1554120000,32,20,16,90", "invalid literal")):
            with pytest.raises(ValueError, match=f"^AIS CSV line 3: {message}"):
                parse_ais_csv(text + bad + "\n")

    def test_wind_bad_rows_rejected_with_line(self):
        text = wind_to_csv([WindSample(T0, 31.5, 19.5, 3.25, -1.5)])
        for bad, message in (("1554120000,31.5,19.5,nan,-1.5", "non-finite"),
                             ("1554120000,31.5,19.5,3.25", "wrong field count")):
            with pytest.raises(ValueError,
                               match=f"^wind CSV line 3: {message}"):
                parse_wind_csv(text + bad + "\n")

    def test_registry_bad_rows_rejected_with_line(self):
        text = registry_to_csv([(123, 180.0)])
        for bad, message in (("456,nan", "non-finite"),
                             ("456,-5", "length_m must be > 0"),
                             ("456,0", "length_m must be > 0"),
                             ("456,180,1", "wrong field count")):
            with pytest.raises(ValueError,
                               match=f"^ship registry CSV line 3: {message}"):
                parse_registry_csv(text + bad + "\n")

    def test_lookup_wind_nearest(self):
        samples = [WindSample(T0, 31.0, 19.0, 1.0, 0.0),
                   WindSample(T0, 34.0, 29.0, 2.0, 0.0),
                   WindSample(T0 - 21600, 31.0, 19.0, 9.0, 0.0)]
        wind = lookup_wind(samples, T0, 31.1, 19.2)
        assert wind.u == 1.0
