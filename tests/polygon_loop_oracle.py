"""``sector._points_in_polygon`` as one loop over the polygon's edges.

The library evaluates every edge against every point in one broadcast; this
loop does the same operations, edge by edge, and is the reference its
membership must equal bit for bit.
"""

from __future__ import annotations

import numpy as np


def points_in_polygon(plat: np.ndarray, plon: np.ndarray,
                      polygon: tuple[tuple[float, float], ...]) -> np.ndarray:
    """Even-odd membership, inclusive of points on the boundary."""
    x = np.asarray(plon, dtype=float)
    y = np.asarray(plat, dtype=float)
    vy = np.array([p[0] for p in polygon])
    vx = np.array([p[1] for p in polygon])
    scale = max(float(np.ptp(vx)), float(np.ptp(vy)), 1e-300)
    eps = 1e-12 * scale
    inside = np.zeros(x.shape, dtype=bool)
    on_edge = np.zeros(x.shape, dtype=bool)
    n = len(polygon)
    for i in range(n):
        x1, y1 = vx[i], vy[i]
        x2, y2 = vx[(i + 1) % n], vy[(i + 1) % n]
        # ray casting (horizontal ray toward +x)
        cond = (y1 > y) != (y2 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xin = (x2 - x1) * (y - y1) / (y2 - y1) + x1
        inside ^= cond & (x < xin)
        # boundary inclusion
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        within = ((x >= min(x1, x2) - eps) & (x <= max(x1, x2) + eps)
                  & (y >= min(y1, y2) - eps) & (y <= max(y1, y2) + eps))
        on_edge |= (np.abs(cross) <= eps * scale) & within
    return inside | on_edge
