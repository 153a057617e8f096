"""Per-ship regions of interest (sectors), pixel membership, and the
normalized sector frame with its radial/angular sub-regions.

The sector polygon is the convex hull of the ship track and its two extreme
wind-shifted tracks, anchored at the ship's overpass position: every plume
position between zero drift and worst-case drift lies inside it. All angles
are degrees, measured counterclockwise from east in a local tangent plane
anchored at the sector origin.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridImage, M_PER_DEG_LAT
from .tracks import Track


@dataclass(frozen=True)
class ShipSector:
    mmsi: int
    origin: tuple[float, float]                    # (lat, lon) at overpass
    polygon: tuple[tuple[float, float], ...]       # (lat, lon) vertices, implicitly closed
    reference_angle: float                         # deg, mean drift direction at the origin
    angle_half_width: float = 40.0                 # deg, angular half-span of the wedge


def local_xy(origin: tuple[float, float], lats: np.ndarray, lons: np.ndarray,
             ) -> tuple[np.ndarray, np.ndarray]:
    """Project lat/lon onto a tangent plane at the origin, in meters."""
    lat0, lon0 = origin
    x = (np.asarray(lons) - lon0) * M_PER_DEG_LAT * math.cos(math.radians(lat0))
    y = (np.asarray(lats) - lat0) * M_PER_DEG_LAT
    return x, y


def _polygon_area_m2(origin: tuple[float, float],
                     vertices: list[tuple[float, float]]) -> float:
    lats = np.array([p[0] for p in vertices])
    lons = np.array([p[1] for p in vertices])
    x, y = local_xy(origin, lats, lons)
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _convex_hull(points: list[tuple[float, float]]) -> list[int]:
    """Andrew's monotone chain; returns indices of hull vertices in
    counterclockwise order. Collinear boundary points are dropped."""
    order = sorted(range(len(points)), key=lambda i: points[i])

    def cross(o: int, a: int, b: int) -> float:
        ox, oy = points[o]
        return ((points[a][0] - ox) * (points[b][1] - oy)
                - (points[a][1] - oy) * (points[b][0] - ox))

    lower: list[int] = []
    for i in order:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], i) <= 0:
            lower.pop()
        lower.append(i)
    upper: list[int] = []
    for i in reversed(order):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], i) <= 0:
            upper.pop()
        upper.append(i)
    return lower[:-1] + upper[:-1]


def build_sector(ship_track: Track, ext_left: Track, ext_right: Track,
                 angle_half_width: float = 40.0) -> ShipSector:
    """Close the plume search region into a simple polygon anchored at the
    ship's overpass position.

    The region must bound every plausible plume position: its near boundary is
    the ship track itself (zero drift) and its far boundary the two extreme
    wind-shifted tracks, so the polygon is the convex hull of all three
    tracks. The reference angle is the polar angle of the centroid of the
    pointwise midpoint of the two extreme tracks (the wedge bisector).
    """
    if not (np.array_equal(ext_left.t, ship_track.t)
            and np.array_equal(ext_right.t, ship_track.t)):
        raise ValueError("tracks must share timestamps")

    origin = (float(ship_track.lat[-1]), float(ship_track.lon[-1]))

    mid_lat = (ext_left.lat + ext_right.lat) / 2.0
    mid_lon = (ext_left.lon + ext_right.lon) / 2.0
    cx, cy = local_xy(origin, mid_lat.mean(), mid_lon.mean())
    reference_angle = math.degrees(math.atan2(float(cy), float(cx)))

    # hull candidates: the origin, then the points of all three tracks. The
    # hull is taken in the local meter plane (an axis scaling of lat/lon, so
    # the same vertex set as in degrees, but with a scale-free collinearity
    # test)
    lats = np.concatenate([[origin[0]], ship_track.lat, ext_left.lat,
                           ext_right.lat])
    lons = np.concatenate([[origin[1]], ship_track.lon, ext_left.lon,
                           ext_right.lon])
    x, y = local_xy(origin, lats, lons)
    xy = list(zip(x.tolist(), y.tolist()))
    hull = _convex_hull(xy)
    if len(hull) < 3:
        raise ValueError("degenerate sector")
    vertices = list(zip(lats[hull].tolist(), lons[hull].tolist()))
    if origin in vertices:
        k = vertices.index(origin)
        vertices = vertices[k:] + vertices[:k]

    span = max(float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    if span == 0.0 or _polygon_area_m2(origin, vertices) <= 1e-9 * span * span:
        raise ValueError("degenerate sector")

    return ShipSector(mmsi=ship_track.mmsi, origin=origin,
                      polygon=tuple(vertices), reference_angle=reference_angle,
                      angle_half_width=angle_half_width)


def _points_in_polygon(plat: np.ndarray, plon: np.ndarray,
                       polygon: tuple[tuple[float, float], ...]) -> np.ndarray:
    """Even-odd membership, inclusive of points on the boundary."""
    x, y = np.asarray(plon, dtype=float), np.asarray(plat, dtype=float)
    vy, vx = np.array(polygon, dtype=float).T
    scale = max(float(np.ptp(vx)), float(np.ptp(vy)), 1e-300)
    eps = 1e-12 * scale
    # edge i (vertex i to i + 1) against every point at index i of axis 0
    x1, y1, x2, y2 = (v.reshape((-1,) + (1,) * max(x.ndim, y.ndim))
                      for v in (vx, vy, np.roll(vx, -1), np.roll(vy, -1)))
    # ray casting (horizontal ray toward +x)
    cond = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xin = (x2 - x1) * (y - y1) / (y2 - y1) + x1
    inside = np.logical_xor.reduce(cond & (x < xin), axis=0)
    # boundary inclusion
    cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
    within = ((x >= np.minimum(x1, x2) - eps) & (x <= np.maximum(x1, x2) + eps)
              & (y >= np.minimum(y1, y2) - eps) & (y <= np.maximum(y1, y2) + eps))
    on_edge = ((np.abs(cross) <= eps * scale) & within).any(axis=0)
    return inside | on_edge


def pixels_in_sector(sector: ShipSector, image: GridImage) -> np.ndarray:
    """(row, col) of the valid cells whose centers lie inside or on the
    sector polygon, as an (n, 2) int array in row-major order."""
    spec = image.spec
    glat, glon = np.meshgrid(spec.lat_centers(), spec.lon_centers(),
                             indexing="ij")
    member = _points_in_polygon(glat.ravel(), glon.ravel(), sector.polygon)
    return np.argwhere(member.reshape(spec.n_rows, spec.n_cols) & image.valid)


def _wrap_deg(a: np.ndarray) -> np.ndarray:
    """Wrap angles to (-180, 180]."""
    return -((-np.asarray(a) + 180.0) % 360.0 - 180.0)


def normalize_points(sector: ShipSector, lats: np.ndarray, lons: np.ndarray,
                     n_levels: int = 5, n_subsectors: int = 5,
                     ) -> dict[str, np.ndarray]:
    """Normalized-sector coordinates and bins for arbitrary points.

    radius_norm is the polar radius about the origin (in meters) over the
    maximum radius in the set; angle_in_sector maps the wedge's angular span
    about the reference direction onto [0, 1]. level and sub_sector bin them
    into n_levels radial and n_subsectors angular sub-regions, from 1.
    """
    lats = np.atleast_1d(np.asarray(lats, dtype=float))
    lons = np.atleast_1d(np.asarray(lons, dtype=float))
    if lats.size == 0:
        raise ValueError("no points to normalize")
    x, y = local_xy(sector.origin, lats, lons)

    r = np.hypot(x, y)
    rmax = float(r.max())
    if lats.size == 1 or rmax == 0.0:
        radius_norm = np.zeros_like(r)
    else:
        radius_norm = r / rmax

    ang = np.degrees(np.arctan2(y, x))
    delta = _wrap_deg(ang - sector.reference_angle)
    half = sector.angle_half_width
    angle_in_sector = np.clip((delta + half) / (2.0 * half), 0.0, 1.0)

    level = np.minimum(n_levels, 1 + np.floor(radius_norm * n_levels).astype(int))
    sub = np.minimum(n_subsectors,
                     1 + np.floor(angle_in_sector * n_subsectors).astype(int))
    return {"radius_norm": radius_norm, "angle_in_sector": angle_in_sector,
            "level": level, "sub_sector": sub}


def normalize(sector: ShipSector, pixels: np.ndarray, image: GridImage,
              n_levels: int = 5, n_subsectors: int = 5,
              ) -> tuple[np.ndarray, np.ndarray]:
    """(level, sub_sector) bins of the grid pixels given as (row, col) rows."""
    if len(pixels) == 0:
        raise ValueError("no pixels to normalize")
    spec = image.spec
    nd = normalize_points(sector, spec.lat_centers()[pixels[:, 0]],
                          spec.lon_centers()[pixels[:, 1]], n_levels,
                          n_subsectors)
    return nd["level"], nd["sub_sector"]


def sectors_to_geojson(sectors: list[ShipSector]) -> str:
    """One GeoJSON Polygon feature per ship (coordinates are [lon, lat])."""
    features = []
    for s in sectors:
        ring = [[p[1], p[0]] for p in s.polygon]
        ring.append(ring[0])
        features.append({
            "type": "Feature",
            "geometry": {"type": "Polygon", "coordinates": [ring]},
            "properties": {"mmsi": s.mmsi, "reference_angle": s.reference_angle},
        })
    return json.dumps({"type": "FeatureCollection", "features": features},
                      sort_keys=True, indent=2) + "\n"
