import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geometry_oracle as geo
from shipplume.grid import GridImage, GridSpec, M_PER_DEG_LAT
from shipplume.sector import (ShipSector, build_sector, normalize,
                              normalize_points, pixels_in_sector,
                              sectors_to_geojson)
from shipplume.tracks import (Track, WindVector, extreme_tracks,
                              interpolate_track, wind_shift)

from test_tracks import T0, straight_records


def make_sector(heading=90.0, wind=WindVector(3.0, 1.0), lat0=32.0, lon0=20.0,
                speed=16.0, dspeed=5.0, dangle=40.0):
    track = interpolate_track(straight_records(lat0=lat0, lon0=lon0,
                                               heading=heading, speed=speed), T0)
    left, right = extreme_tracks(track, wind, T0, dspeed=dspeed, dangle=dangle)
    return track, build_sector(track, left, right, angle_half_width=dangle)


def shoelace_deg(polygon):
    lat = np.array([p[0] for p in polygon])
    lon = np.array([p[1] for p in polygon])
    return 0.5 * abs(float(np.dot(lon, np.roll(lat, -1))
                           - np.dot(lat, np.roll(lon, -1))))


def lonlat(polygon):
    """A (lat, lon) polygon as (x, y) = (lon, lat) vertices."""
    return [(p[1], p[0]) for p in polygon]


def pixel_set(pixels):
    return set(map(tuple, pixels.tolist()))


def oracle_pixel_set(sector, spec):
    """(row, col) of every cell whose center the exact oracle puts inside
    or on the sector polygon."""
    cells = [(r, c) for r in range(spec.n_rows) for c in range(spec.n_cols)]
    lat, lon = np.array([(spec.lat_centers()[r], spec.lon_centers()[c])
                         for r, c in cells]).T
    inside = geo.covers(lonlat(sector.polygon), lon, lat)
    return {cell for cell, ok in zip(cells, inside) if ok}


class TestBuildSector:
    def test_zero_wind_symmetric_wedge(self):
        # ship course along the pure-uncertainty drift axis (east-west): the
        # wedge is symmetric about that axis, and the reference direction
        # lies on it (the plume trails behind the moving ship)
        from shipplume.sector import _points_in_polygon
        track, sector = make_sector(heading=90.0, wind=WindVector(0.0, 0.0),
                                    lat0=0.0)
        assert math.sin(math.radians(sector.reference_angle)) == \
            pytest.approx(0.0, abs=1e-9)
        # region symmetry: membership is mirror-invariant about the axis
        rng = np.random.default_rng(0)
        lat0, lon0 = sector.origin
        dlat = rng.uniform(-0.6, 0.6, size=400)
        dlon = rng.uniform(-0.9, 0.3, size=400)
        up = _points_in_polygon(lat0 + dlat, lon0 + dlon, sector.polygon)
        down = _points_in_polygon(lat0 - dlat, lon0 + dlon, sector.polygon)
        # ignore points hugging the boundary, where jitter decides membership
        interior = np.abs(dlat) > 1e-3
        np.testing.assert_array_equal(up[interior], down[interior])
        assert up[interior].sum() > 20

    def test_degenerate_sector_error(self):
        track = interpolate_track(straight_records(), T0)
        left, right = extreme_tracks(track, WindVector(0.0, 0.0), T0,
                                     dspeed=0.0, dangle=0.0)
        with pytest.raises(ValueError, match="degenerate sector"):
            build_sector(track, left, right)

    def test_mismatched_tracks_error(self):
        track = interpolate_track(straight_records(), T0)
        left, right = extreme_tracks(track, WindVector(2.0, 1.0), T0)
        short = Track(left.mmsi, left.t[:-1], left.lat[:-1], left.lon[:-1])
        later = Track(left.mmsi, left.t + 1.0, left.lat, left.lon)
        for bad in (short, later):
            with pytest.raises(ValueError, match="share timestamps"):
                build_sector(track, bad, right)

    def test_area_matches_shoelace_oracle(self, rng):
        for _ in range(20):
            _, sector = make_sector(heading=float(rng.uniform(0, 360)),
                                    wind=WindVector(float(rng.uniform(-6, 6)),
                                                    float(rng.uniform(-6, 6))))
            area = shoelace_deg(sector.polygon)
            assert area > 0
            oracle = lonlat(sector.polygon)
            assert area == pytest.approx(float(geo.area(oracle)), rel=1e-9)
            assert geo.is_convex_and_simple(oracle)

    def test_origin_on_boundary_and_track_inside(self, rng):
        from shipplume.sector import _points_in_polygon
        for _ in range(10):
            heading = float(rng.uniform(0, 360))
            wind = WindVector(float(rng.uniform(-5, 5)),
                              float(rng.uniform(-5, 5)))
            if math.hypot(wind.u, wind.v) < 0.5:
                wind = WindVector(2.0, 1.0)
            track, sector = make_sector(heading=heading, wind=wind)
            # the origin is always within the region; it is a vertex whenever
            # the drift cannot overtake the ship (cone opening below 180 deg)
            assert _points_in_polygon(np.array([sector.origin[0]]),
                                      np.array([sector.origin[1]]),
                                      sector.polygon).all()
            if sector.origin in sector.polygon:
                assert sector.polygon[0] == sector.origin
            # the wind-shifted track (expected plume spine) stays inside
            spine = wind_shift(track, wind, T0)
            inside = _points_in_polygon(spine.lat, spine.lon, sector.polygon)
            assert inside.all()


class TestPixelsInSector:
    def covering_image(self, sector, n=24):
        lats = [p[0] for p in sector.polygon]
        lons = [p[1] for p in sector.polygon]
        lat_min, lat_max = min(lats), max(lats)
        lon_min, lon_max = min(lons), max(lons)
        pad = 0.05
        cell = max(lat_max - lat_min, lon_max - lon_min, 0.01) / n + 1e-9
        spec = GridSpec(lat_min - pad, lon_min - pad, cell,
                        int((lat_max - lat_min + 2 * pad) / cell) + 1,
                        int((lon_max - lon_min + 2 * pad) / cell) + 1)
        shape = (spec.n_rows, spec.n_cols)
        return GridImage(spec, np.zeros(shape), np.ones(shape, bool))

    def test_superset_polygon_gets_all_valid(self, rng):
        spec = GridSpec(0.0, 0.0, 1.0, 5, 5)
        valid = rng.random((5, 5)) > 0.3
        img = GridImage(spec, np.zeros((5, 5)), valid)
        sector = ShipSector(1, (0.0, 0.0),
                            ((-10.0, -10.0), (-10.0, 20.0), (20.0, 20.0),
                             (20.0, -10.0)), 0.0)
        got = pixels_in_sector(sector, img)
        assert got.shape == (int(valid.sum()), 2)
        assert list(map(tuple, got.tolist())) == \
            [(int(r), int(c)) for r, c in zip(*np.nonzero(valid))]

    def test_center_on_edge_included(self):
        spec = GridSpec(0.0, 0.0, 1.0, 4, 4)
        img = GridImage(spec, np.zeros((4, 4)), np.ones((4, 4), bool))
        # horizontal bottom edge passes exactly through the row-1 centers
        sector = ShipSector(1, (1.5, 0.0),
                            ((1.5, 0.0), (1.5, 4.0), (3.5, 4.0), (3.5, 0.0)),
                            0.0)
        got = pixel_set(pixels_in_sector(sector, img))
        assert all((r, c) in got for r in (1, 2, 3) for c in range(4))
        assert not any(r == 0 for r, _ in got)

    def test_membership_matches_exact_oracle(self, rng):
        for _ in range(25):
            _, sector = make_sector(heading=float(rng.uniform(0, 360)),
                                    wind=WindVector(float(rng.uniform(-6, 6)),
                                                    float(rng.uniform(-6, 6))))
            img = self.covering_image(sector)
            assert pixel_set(pixels_in_sector(sector, img)) == \
                oracle_pixel_set(sector, img.spec)

    def test_subset_of_valid(self, rng):
        _, sector = make_sector()
        img = self.covering_image(sector)
        img.valid[::2, :] = False
        got = pixels_in_sector(sector, img)
        assert all(img.valid[r, c] for r, c in got)


class TestNormalize:
    def test_origin_pixel(self):
        _, sector = make_sector()
        lat0, lon0 = sector.origin
        nd = normalize_points(sector, np.array([lat0, lat0 + 0.1]),
                              np.array([lon0, lon0 + 0.1]))
        assert nd["radius_norm"][0] == 0.0
        assert nd["level"][0] == 1

    def test_max_radius_on_reference_direction(self):
        _, sector = make_sector()
        lat0, lon0 = sector.origin
        ang = math.radians(sector.reference_angle)
        coslat = math.cos(math.radians(lat0))
        pts_lat, pts_lon = [], []
        for dist in (10000.0, 30000.0, 60000.0):
            pts_lat.append(lat0 + dist * math.sin(ang) / M_PER_DEG_LAT)
            pts_lon.append(lon0 + dist * math.cos(ang)
                           / (M_PER_DEG_LAT * coslat))
        nd = normalize_points(sector, np.array(pts_lat), np.array(pts_lon),
                              n_levels=5, n_subsectors=5)
        assert nd["radius_norm"][-1] == pytest.approx(1.0)
        assert nd["level"][-1] == 5
        assert list(nd["sub_sector"]) == [3, 3, 3]

    def test_rotation_invariance_of_bins(self, rng):
        for _ in range(20):
            _, sector = make_sector(heading=float(rng.uniform(0, 360)))
            lat0, lon0 = sector.origin
            coslat = math.cos(math.radians(lat0))
            x = rng.uniform(-40000, 40000, size=25)
            y = rng.uniform(-40000, 40000, size=25)
            phi = math.radians(float(rng.uniform(0, 360)))
            xr = x * math.cos(phi) - y * math.sin(phi)
            yr = x * math.sin(phi) + y * math.cos(phi)

            def to_latlon(xs, ys):
                return (lat0 + ys / M_PER_DEG_LAT,
                        lon0 + xs / (M_PER_DEG_LAT * coslat))

            rotated = ShipSector(sector.mmsi, sector.origin, sector.polygon,
                                 sector.reference_angle + math.degrees(phi),
                                 sector.angle_half_width)
            a = normalize_points(sector, *to_latlon(x, y))
            b = normalize_points(rotated, *to_latlon(xr, yr))
            assert list(a["level"]) == list(b["level"])
            assert list(a["sub_sector"]) == list(b["sub_sector"])

    @given(st.integers(2, 40), st.integers(0, 10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_bins_always_in_range(self, n_points, seed):
        rng = np.random.default_rng(seed)
        _, sector = make_sector()
        lat0, lon0 = sector.origin
        lats = lat0 + rng.uniform(-0.5, 0.5, size=n_points)
        lons = lon0 + rng.uniform(-0.5, 0.5, size=n_points)
        nd = normalize_points(sector, lats, lons)
        assert ((nd["level"] >= 1) & (nd["level"] <= 5)).all()
        assert ((nd["sub_sector"] >= 1) & (nd["sub_sector"] <= 5)).all()

    def test_single_pixel_degenerate(self):
        _, sector = make_sector()
        spec = GridSpec(sector.origin[0] - 0.1, sector.origin[1] - 0.1,
                        0.045, 3, 3)
        img = GridImage(spec, np.zeros((3, 3)), np.ones((3, 3), bool))
        level, sub_sector = normalize(sector, np.array([[1, 2]]), img)
        assert level.tolist() == [1]
        assert 1 <= sub_sector[0] <= 5

    def test_empty_pixels_error(self):
        _, sector = make_sector()
        spec = GridSpec(0.0, 0.0, 1.0, 2, 2)
        img = GridImage(spec, np.zeros((2, 2)), np.ones((2, 2), bool))
        with pytest.raises(ValueError):
            normalize(sector, np.zeros((0, 2), dtype=int), img)


class TestGeoJson:
    def test_feature_collection(self):
        import json
        _, sector = make_sector()
        obj = json.loads(sectors_to_geojson([sector]))
        assert obj["type"] == "FeatureCollection"
        feat = obj["features"][0]
        assert feat["properties"]["mmsi"] == sector.mmsi
        ring = feat["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]
        assert ring[0] == [sector.polygon[0][1], sector.polygon[0][0]]
