"""The per-ship pass of ``pipeline.build_ship_images``: which ships become
plume images, and how the others are counted."""

import numpy as np
import pytest

from shipplume import pipeline
from shipplume.grid import GridImage, GridSpec
from shipplume.pipeline import SKIP_REASONS, PipelineParams, build_ship_images
from shipplume.tracks import AIS_DTYPE, WIND_DTYPE

from conftest import table

T0 = 1554120000.0
SPEC = GridSpec(lat_min=30.0, lon_min=10.0, cell_size=0.045, n_rows=160,
                n_cols=160)


def northbound(mmsi, lat0, lon0, speed_kt=20.0, n_records=25, moving=True):
    """AIS records, one every 300 s, of a ship sailing due north that
    reaches (lat0, lon0) at T0; one not moving stays at (lat0, lon0) but
    still reports speed_kt."""
    dlat = speed_kt * 1852.0 / 3600.0 * 300.0 / 111_320.0 if moving else 0.0
    return table(AIS_DTYPE, [(mmsi, T0 - 300.0 * k, lat0 - dlat * k, lon0,
                              speed_kt, 0.0) for k in range(n_records)])


def box(lat0, lon0):
    """Grid cells in a box about the crop of a northbound ship at
    (lat0, lon0) in an eastward 3 m/s wind."""
    lat = SPEC.lat_centers()[:, None]
    lon = SPEC.lon_centers()[None, :]
    return ((lat0 - 0.9 <= lat) & (lat <= lat0 + 0.2)
            & (lon0 - 0.5 <= lon) & (lon <= lon0 + 0.7))


def skip_scene():
    """One ship that becomes an image, and ships that each fail one step."""
    ships = {
        101: (31.5, 11.0),  # passes
        102: (31.5, 11.1),  # slower duplicate of 101
        103: (31.5, 13.0),  # not in the registry
        104: (31.5, 14.5),  # one AIS record
        105: (33.0, 11.0),  # 10 kt
        106: (40.0, 11.0),  # north of the grid
        107: (33.0, 13.0),  # crop without valid cells
        108: (33.0, 15.5),  # constant crop
        109: (35.0, 11.0),  # no wind, so its tracks coincide
        110: (35.0, 13.0),  # valid cells only west of its track
    }
    speeds = {102: 16.0, 105: 10.0}
    records = np.concatenate([northbound(mmsi, lat, lon,
                                         speeds.get(mmsi, 20.0),
                                         1 if mmsi == 104 else 25)
                              for mmsi, (lat, lon) in ships.items()])
    wind = table(WIND_DTYPE, [(T0, lat - 0.3, lon, 0.0 if mmsi == 109 else 3.0,
                               0.0) for mmsi, (lat, lon) in ships.items()])
    registry = {mmsi: 200.0 for mmsi in ships if mmsi != 103}
    values = np.random.default_rng(0).normal(5.0, 1.0, (SPEC.n_rows,
                                                         SPEC.n_cols))
    valid = np.ones(values.shape, dtype=bool)
    valid[box(*ships[107])] = False
    values[box(*ships[108])] = 5.0
    valid[box(*ships[110])] = False
    lat0, lon0 = ships[110]
    col = int((lon0 - 0.2 - SPEC.lon_min) / SPEC.cell_size)
    for lat in (lat0 - 0.3, lat0 - 0.4):
        valid[int((lat - SPEC.lat_min) / SPEC.cell_size), col] = True
    values = np.where(valid, values, np.nan)
    return GridImage(SPEC, values, valid), records, wind, registry


def test_every_skip_reason_is_counted():
    params = PipelineParams(dspeed=0.0)
    images, skipped = build_ship_images(*skip_scene(), T0, params)
    assert [im.info.mmsi for im in images] == [101]
    assert skipped == {"no registry entry": 1, "insufficient AIS coverage": 1,
                       "speed/duplicate selection": 2,
                       "center out of bounds": 1, "insufficient pixels": 1,
                       "constant image": 1, "degenerate sector": 1,
                       "empty sector": 1}
    # a crop narrower than a cell misses every cell center from a corner
    corner = (SPEC.lat_min + 20 * SPEC.cell_size,
              SPEC.lon_min + 20 * SPEC.cell_size)
    image = GridImage(SPEC, np.ones((SPEC.n_rows, SPEC.n_cols)),
                      np.ones((SPEC.n_rows, SPEC.n_cols), dtype=bool))
    images, narrow = build_ship_images(
        image, northbound(201, *corner, moving=False),
        table(WIND_DTYPE, [(T0, *corner, 0.0, 0.0)]), {201: 200.0}, T0,
        PipelineParams(half_extent=0.01))
    assert images == [] and narrow == {"empty crop": 1}
    assert set(skipped) | set(narrow) == SKIP_REASONS


def test_unlisted_value_error_propagates(monkeypatch):
    def broken_crop(*args):
        raise ValueError("values/valid must have shape (3, 3)")

    monkeypatch.setattr(pipeline, "crop", broken_crop)
    with pytest.raises(ValueError, match=r"values/valid must have shape"):
        build_ship_images(*skip_scene(), T0, PipelineParams(dspeed=0.0))
