"""Reference writers of the scene tables (point samples, AIS, wind, ship
registry): one row at a time, every value formatted with its own
``fmt_float`` call, the AIS and wind rows held in per-row dataclasses.

``grid.table_to_csv`` formats each column at once, a float column through
``fmt_floats``, once per distinct value; it must write the same text as
these. Test-only code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from shipplume.grid import SAMPLES_HEADER
from shipplume.tracks import AIS_HEADER, REGISTRY_HEADER, WIND_HEADER


def fmt_float(x: float) -> str:
    """Shortest decimal form that parses back to the same float."""
    return repr(float(x))


def samples_to_csv(samples: np.ndarray) -> str:
    lines = [SAMPLES_HEADER]
    lines += [",".join(map(fmt_float, s)) for s in samples.tolist()]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class AISRecord:
    mmsi: int
    timestamp: float  # UTC seconds
    lat: float
    lon: float
    speed: float      # knots
    heading: float    # degrees in [0, 360)


def ais_to_csv(records: list[AISRecord]) -> str:
    lines = [AIS_HEADER]
    for r in records:
        lines.append(f"{r.mmsi},{fmt_float(r.timestamp)},{fmt_float(r.lat)},"
                     f"{fmt_float(r.lon)},{fmt_float(r.speed)},{fmt_float(r.heading)}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class WindSample:
    timestamp: float
    lat: float
    lon: float
    u: float
    v: float


def wind_to_csv(samples: list[WindSample]) -> str:
    lines = [WIND_HEADER]
    for s in samples:
        lines.append(",".join(fmt_float(x) for x in
                              (s.timestamp, s.lat, s.lon, s.u, s.v)))
    return "\n".join(lines) + "\n"


def registry_to_csv(entries: list[tuple[int, float]]) -> str:
    lines = [REGISTRY_HEADER]
    for mmsi, length in entries:
        lines.append(f"{mmsi},{fmt_float(length)}")
    return "\n".join(lines) + "\n"
