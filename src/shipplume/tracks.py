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

from .grid import M_PER_DEG_LAT, _finite, _parse_rows, fmt_float

KNOT_MS = 1852.0 / 3600.0  # one knot in m/s


@dataclass(frozen=True)
class AISRecord:
    mmsi: int
    timestamp: float  # UTC seconds
    lat: float
    lon: float
    speed: float      # knots
    heading: float    # degrees in [0, 360)


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


def clean_records(records: list[AISRecord]) -> list[AISRecord]:
    """Sort by timestamp and drop records that do not advance the clock."""
    out: list[AISRecord] = []
    for rec in sorted(records, key=lambda r: r.timestamp):
        if not out or rec.timestamp > out[-1].timestamp:
            out.append(rec)
    return out


def _dead_reckon(rec: AISRecord, t: np.ndarray,
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Constant speed/heading positions at times t (which may precede the
    record)."""
    dt = t - rec.timestamp
    sp = rec.speed * KNOT_MS
    north = sp * math.cos(math.radians(rec.heading))
    east = sp * math.sin(math.radians(rec.heading))
    lat = rec.lat + north * dt / M_PER_DEG_LAT
    lon = rec.lon + east * dt / (M_PER_DEG_LAT * math.cos(math.radians(rec.lat)))
    return lat, lon


def interpolate_track(records: list[AISRecord], t_overpass: float,
                      window_s: float = 7200.0, step_s: float = 300.0) -> Track:
    """Resample a ship's AIS records onto the uniform time grid
    {t_overpass - k*step_s} covering the pre-overpass window.

    Positions are piecewise-linear in lat/lon between records. Times up to one
    step beyond record coverage are dead-reckoned from the nearest record;
    anything further is dropped (the track is truncated).
    """
    recs = clean_records(records)
    if len(recs) < 2:
        raise ValueError("insufficient AIS coverage")
    ts = np.array([r.timestamp for r in recs])
    lats = np.array([r.lat for r in recs])
    lons = np.array([r.lon for r in recs])
    n_steps = int(math.floor(window_s / step_s + 1e-9))
    t = t_overpass - np.arange(n_steps, -1, -1) * step_s
    # record at or before t, and the segment [i, i + 1] that brackets t
    j = np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 1)
    i = np.minimum(j, len(ts) - 2)
    w = (t - ts[i]) / (ts[i + 1] - ts[i])
    at_record = ts[j] == t
    lat = np.where(at_record, lats[j], lats[i] + w * (lats[i + 1] - lats[i]))
    lon = np.where(at_record, lons[j], lons[i] + w * (lons[i + 1] - lons[i]))
    before = (t < ts[0]) & (ts[0] - t <= step_s)
    after = (t > ts[-1]) & (t - ts[-1] <= step_s)
    for near, rec in ((before, recs[0]), (after, recs[-1])):
        lat_dr, lon_dr = _dead_reckon(rec, t)
        lat = np.where(near, lat_dr, lat)
        lon = np.where(near, lon_dr, lon)
    keep = ((ts[0] <= t) & (t <= ts[-1])) | before | after
    if keep.sum() < 2:
        raise ValueError("insufficient AIS coverage")
    return Track(recs[0].mmsi, t[keep], lat[keep], lon[keep])


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


def ais_to_csv(records: list[AISRecord]) -> str:
    lines = [AIS_HEADER]
    for r in records:
        lines.append(f"{r.mmsi},{fmt_float(r.timestamp)},{fmt_float(r.lat)},"
                     f"{fmt_float(r.lon)},{fmt_float(r.speed)},{fmt_float(r.heading)}")
    return "\n".join(lines) + "\n"


def _ais_record(fields: list[str]) -> AISRecord:
    record = AISRecord(int(fields[0]), *map(_finite, fields[1:]))
    if record.speed < 0:  # heading is free: AIS writes 511 for "unknown"
        raise ValueError("speed_kt must be >= 0")
    return record


def parse_ais_csv(text: str) -> list[AISRecord]:
    return _parse_rows(text, AIS_HEADER, "AIS", _ais_record)


@dataclass(frozen=True)
class WindSample:
    timestamp: float
    lat: float
    lon: float
    u: float
    v: float


WIND_HEADER = "timestamp,lat,lon,u,v"


def wind_to_csv(samples: list[WindSample]) -> str:
    lines = [WIND_HEADER]
    for s in samples:
        lines.append(",".join(fmt_float(x) for x in
                              (s.timestamp, s.lat, s.lon, s.u, s.v)))
    return "\n".join(lines) + "\n"


def parse_wind_csv(text: str) -> list[WindSample]:
    return _parse_rows(text, WIND_HEADER, "wind",
                       lambda f: WindSample(*map(_finite, f)))


REGISTRY_HEADER = "mmsi,length_m"


def registry_to_csv(entries: list[tuple[int, float]]) -> str:
    lines = [REGISTRY_HEADER]
    for mmsi, length in entries:
        lines.append(f"{mmsi},{fmt_float(length)}")
    return "\n".join(lines) + "\n"


def _registry_entry(fields: list[str]) -> tuple[int, float]:
    length = _finite(fields[1])
    if length <= 0:
        raise ValueError("length_m must be > 0")
    return int(fields[0]), length


def parse_registry_csv(text: str) -> dict[int, float]:
    return dict(_parse_rows(text, REGISTRY_HEADER, "ship registry",
                            _registry_entry))


def lookup_wind(samples: list[WindSample], t: float, lat: float, lon: float) -> WindVector:
    """Nearest wind sample in time, then in space (ties resolved by file order)."""
    if not samples:
        raise ValueError("no wind samples")
    best = min(enumerate(samples),
               key=lambda kv: (abs(kv[1].timestamp - t),
                               (kv[1].lat - lat) ** 2 + (kv[1].lon - lon) ** 2,
                               kv[0]))
    return WindVector(best[1].u, best[1].v)


def overpass_speed_ms(records: list[AISRecord], t_overpass: float) -> float:
    """Speed over ground at the overpass, from the record nearest in time."""
    recs = clean_records(records)
    if not recs:
        raise ValueError("no AIS records")
    nearest = min(recs, key=lambda r: (abs(r.timestamp - t_overpass), r.timestamp))
    return nearest.speed * KNOT_MS
