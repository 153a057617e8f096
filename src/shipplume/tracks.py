"""Ship tracks from AIS records, wind-advected tracks, and the extreme
(uncertainty-margin) tracks that bound the plume search region.

Geometry is equirectangular with a per-point cos(lat) longitude scale, which
is accurate at the sub-100 km displacements involved here. Headings follow the
compass convention (0 = north, 90 = east); wind vectors are (u east, v north)
in m/s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import M_PER_DEG_LAT, _finite, _parse_rows, parse_table, table_dtype

KNOT_MS = 1852.0 / 3600.0  # one knot in m/s


@dataclass(frozen=True)
class ShipInfo:
    mmsi: int
    length_m: float
    speed_ms: float  # speed over ground at overpass, m/s

    def __post_init__(self) -> None:
        if self.length_m <= 0:
            raise ValueError("length_m must be > 0")
        if self.speed_ms < 0:
            raise ValueError("speed_ms must be >= 0")


@dataclass(eq=False)
class Track:
    """A ship track, or a wind-shifted copy of one (same timestamps), as
    equal-length float columns: point i is (t[i], lat[i], lon[i])."""

    mmsi: int
    t: np.ndarray    # UTC seconds, strictly increasing
    lat: np.ndarray
    lon: np.ndarray

    def __post_init__(self) -> None:
        self.t = np.asarray(self.t, dtype=float)
        self.lat = np.asarray(self.lat, dtype=float)
        self.lon = np.asarray(self.lon, dtype=float)
        if self.t.ndim != 1 or self.lat.shape != self.t.shape \
                or self.lon.shape != self.t.shape:
            raise ValueError("track columns must be 1-D and of equal length")
        if np.any(np.diff(self.t) <= 0):
            raise ValueError("track timestamps must be strictly increasing")


@dataclass(frozen=True)
class WindVector:
    u: float  # m/s eastward
    v: float  # m/s northward

    @property
    def speed(self) -> float:
        return math.hypot(self.u, self.v)


def interpolate_track(records: np.ndarray, t_overpass: float,
                      window_s: float = 7200.0, step_s: float = 300.0) -> Track:
    """Resample a ship's AIS records (an AIS_DTYPE table) onto the uniform
    time grid {t_overpass - k*step_s} covering the pre-overpass window.

    Positions are piecewise-linear in lat/lon between records. Times up to one
    step beyond record coverage are dead-reckoned from the nearest record,
    unless its heading is outside [0, 360) (AIS writes 511 for "not
    available"); anything further is dropped (the track is truncated).
    """
    # sorted by time, without the records that do not advance the clock
    recs = records[np.argsort(records["timestamp"], kind="stable")]
    recs = recs[np.diff(recs["timestamp"], prepend=-np.inf) > 0]
    if len(recs) < 2:
        raise ValueError("insufficient AIS coverage")
    ts, lats, lons = recs["timestamp"], recs["lat"], recs["lon"]
    reckons = (recs["heading_deg"] >= 0) & (recs["heading_deg"] < 360)
    n_steps = int(math.floor(window_s / step_s + 1e-9))
    t = t_overpass - np.arange(n_steps, -1, -1) * step_s
    # record at or before t, and the segment [i, i + 1] that brackets t
    j = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 1)
    i = np.minimum(j, len(ts) - 2)
    w = (t - ts[i]) / (ts[i + 1] - ts[i])
    at_record = ts[j] == t
    lat = np.where(at_record, lats[j], lats[i] + w * (lats[i + 1] - lats[i]))
    lon = np.where(at_record, lons[j], lons[i] + w * (lons[i + 1] - lons[i]))
    before = (t < ts[0]) & (ts[0] - t <= step_s) & reckons[0]
    after = (t > ts[-1]) & (t - ts[-1] <= step_s) & reckons[-1]
    for near, rec in ((before, recs[0]), (after, recs[-1])):
        # constant speed and heading from the record, also back in time
        _, t_rec, lat_rec, lon_rec, speed_kt, heading = rec.item()
        dt = t - t_rec
        sp = speed_kt * KNOT_MS
        north = sp * math.cos(math.radians(heading))
        east = sp * math.sin(math.radians(heading))
        lat = np.where(near, lat_rec + north * dt / M_PER_DEG_LAT, lat)
        lon = np.where(near, lon_rec + east * dt / (
            M_PER_DEG_LAT * math.cos(math.radians(lat_rec))), lon)
    keep = ((ts[0] <= t) & (t <= ts[-1])) | before | after
    if keep.sum() < 2:
        raise ValueError("insufficient AIS coverage")
    return Track(int(recs["mmsi"][0]), t[keep], lat[keep], lon[keep])


def mean_position(track: Track) -> tuple[float, float]:
    """Mean (lat, lon) of the track points."""
    # a sequential sum, which rounds differently from numpy's pairwise one
    n = len(track.t)
    return sum(track.lat.tolist()) / n, sum(track.lon.tolist()) / n


def wind_shift(track: Track, wind: WindVector, t_overpass: float) -> Track:
    """Advect every track point downwind by its age at overpass time.

    A point at time t moves by wind * (t_overpass - t); the point at overpass
    time itself is unchanged.
    """
    if np.any(track.t > t_overpass):
        raise ValueError("track extends past the overpass time")
    dt = t_overpass - track.t
    lat = track.lat + wind.v * dt / M_PER_DEG_LAT
    lon = track.lon + wind.u * dt / (M_PER_DEG_LAT
                                     * np.cos(np.radians(track.lat)))
    return Track(track.mmsi, track.t, lat, lon)


def extreme_tracks(track: Track, wind: WindVector, t_overpass: float,
                   dspeed: float = 5.0, dangle: float = 40.0,
                   ) -> tuple[Track, Track]:
    """Wind-shifted tracks under worst-case wind uncertainty: the wind speed is
    increased by dspeed and the direction rotated by +dangle and -dangle
    (positive = counterclockwise). The two results bound the plume position.
    """
    mag = wind.speed + dspeed
    theta = math.atan2(wind.v, wind.u)
    a = math.radians(dangle)
    w_plus = WindVector(mag * math.cos(theta + a), mag * math.sin(theta + a))
    w_minus = WindVector(mag * math.cos(theta - a), mag * math.sin(theta - a))
    return (wind_shift(track, w_plus, t_overpass),
            wind_shift(track, w_minus, t_overpass))


# --- file formats ---------------------------------------------------------

AIS_HEADER = "mmsi,timestamp,lat,lon,speed_kt,heading_deg"
AIS_DTYPE = table_dtype(AIS_HEADER)


def _ais_record(fields: list[str]) -> tuple:
    record = (int(fields[0]), *map(_finite, fields[1:]))
    if not -2 ** 63 <= record[0] < 2 ** 63:
        raise ValueError("mmsi must fit in 64 bits")
    if record[4] < 0:  # heading is free: AIS writes 511 for "unknown"
        raise ValueError("speed_kt must be >= 0")
    return record


def parse_ais_csv(text: str) -> np.ndarray:
    return parse_table(text, AIS_DTYPE, "AIS", _ais_record)


WIND_HEADER = "timestamp,lat,lon,u,v"
WIND_DTYPE = table_dtype(WIND_HEADER)


def parse_wind_csv(text: str) -> np.ndarray:
    return parse_table(text, WIND_DTYPE, "wind",
                       lambda f: tuple(map(_finite, f)))


REGISTRY_HEADER = "mmsi,length_m"
REGISTRY_DTYPE = table_dtype(REGISTRY_HEADER)


def parse_registry_csv(text: str) -> dict[int, float]:
    """{mmsi: length_m}; a repeated mmsi is rejected with its line."""
    out: dict[int, float] = {}

    def add(fields: list[str]) -> None:
        length = _finite(fields[1])
        if length <= 0:
            raise ValueError("length_m must be > 0")
        mmsi = int(fields[0])
        if mmsi in out:
            raise ValueError(f"duplicate mmsi {mmsi}")
        out[mmsi] = length

    _parse_rows(text, REGISTRY_HEADER, "ship registry", add)
    return out


def lookup_wind(samples: np.ndarray, t: float, lat: float, lon: float) -> WindVector:
    """Nearest wind sample in time, then in space (ties resolved by file order)."""
    if not len(samples):
        raise ValueError("no wind samples")
    k = np.lexsort(((samples["lat"] - lat) ** 2 + (samples["lon"] - lon) ** 2,
                    np.abs(samples["timestamp"] - t)))[0]
    return WindVector(float(samples["u"][k]), float(samples["v"][k]))


def overpass_speed_ms(records: np.ndarray, t_overpass: float) -> float:
    """Speed over ground at the overpass, from the record nearest in time
    (the earlier of two equally near, the first of two at one time)."""
    if not len(records):
        raise ValueError("no AIS records")
    ts = records["timestamp"]
    k = np.lexsort((ts, np.abs(ts - t_overpass)))[0]
    return float(records["speed_kt"][k]) * KNOT_MS
