"""Exact planar geometry for test oracles, independent of the library's own
floating-point predicates.

Orientation signs are decided in floating point when Shewchuk's error bound
proves the sign, and with exact rational arithmetic (fractions.Fraction)
otherwise, so every predicate here is exact for float inputs. Points and
polygons are (x, y) pairs; polygons are implicitly closed vertex sequences.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast Robust
# Geometric Predicates" (1997): |det| above this times (|detleft| +
# |detright|) has the sign of the exact determinant.
_EPS = 2.0 ** -53
_CCW_ERRBOUND_A = (3.0 + 16.0 * _EPS) * _EPS


def _exact_orient(ax: float, ay: float, bx: float, by: float,
                  px: float, py: float) -> int:
    ax, ay, bx, by, px, py = map(Fraction, (ax, ay, bx, by, px, py))
    det = (ax - px) * (by - py) - (ay - py) * (bx - px)
    return (det > 0) - (det < 0)


def orientation(ax, ay, bx, by, px, py) -> np.ndarray:
    """Sign of the turn a -> b -> p: +1 counterclockwise (p left of a->b),
    -1 clockwise, 0 collinear. Broadcasts over array arguments."""
    args = np.broadcast_arrays(*(np.asarray(v, dtype=float)
                                 for v in (ax, ay, bx, by, px, py)))
    shape = args[0].shape
    ax, ay, bx, by, px, py = (v.ravel() for v in args)
    detleft = (ax - px) * (by - py)
    detright = (ay - py) * (bx - px)
    det = detleft - detright
    sign = np.sign(det).astype(int)
    unsure = ~(np.abs(det) > _CCW_ERRBOUND_A * (np.abs(detleft)
                                                + np.abs(detright)))
    for i in np.flatnonzero(unsure):
        sign[i] = _exact_orient(ax[i], ay[i], bx[i], by[i], px[i], py[i])
    return sign.reshape(shape)


def covers(polygon, px, py) -> np.ndarray:
    """Closed point-in-polygon: True inside or on the boundary. Nonzero
    winding number, so any simple polygon in either orientation works."""
    px = np.asarray(px, dtype=float)
    py = np.asarray(py, dtype=float)
    winding = np.zeros(px.shape, dtype=int)
    on_edge = np.zeros(px.shape, dtype=bool)
    n = len(polygon)
    for i in range(n):
        (ax, ay), (bx, by) = polygon[i], polygon[(i + 1) % n]
        turn = orientation(ax, ay, bx, by, px, py)
        on_edge |= ((turn == 0) & (min(ax, bx) <= px) & (px <= max(ax, bx))
                    & (min(ay, by) <= py) & (py <= max(ay, by)))
        winding += (ay <= py) & (by > py) & (turn > 0)
        winding -= (ay > py) & (by <= py) & (turn < 0)
    return on_edge | (winding != 0)


def area(polygon) -> Fraction:
    """Exact shoelace area (unsigned) of a simple polygon."""
    pts = [(Fraction(x), Fraction(y)) for x, y in polygon]
    twice = sum(x0 * y1 - x1 * y0
                for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]))
    return abs(twice) / 2


def is_convex_and_simple(polygon) -> bool:
    """Convex and not self-crossing: no turn against the others, no vertex
    where the boundary doubles back, and one full turn in total. Straight
    vertices (collinear with both neighbours, pointing on) are allowed."""
    n = len(polygon)
    total = 0.0
    turns = set()
    for i in range(n):
        (ax, ay), (bx, by), (cx, cy) = (polygon[i - 1], polygon[i],
                                        polygon[(i + 1) % n])
        turn = int(orientation(ax, ay, bx, by, cx, cy))
        if turn == 0:
            ax, ay, bx, by, cx, cy = map(Fraction, (ax, ay, bx, by, cx, cy))
            if (bx - ax) * (cx - bx) + (by - ay) * (cy - by) <= 0:
                return False
        turns.add(turn)
        angle = math.atan2(cy - by, cx - bx) - math.atan2(by - ay, bx - ax)
        total += (angle + math.pi) % (2.0 * math.pi) - math.pi
    return (turns - {0} in ({1}, {-1})
            and abs(abs(total) - 2.0 * math.pi) < 1e-6)


def distance(polygon, px: float, py: float) -> float:
    """Euclidean distance from a point to the closed polygon region
    (0 inside or on the boundary)."""
    if covers(polygon, px, py):
        return 0.0
    best = math.inf
    n = len(polygon)
    for i in range(n):
        (ax, ay), (bx, by) = polygon[i], polygon[(i + 1) % n]
        dx, dy = bx - ax, by - ay
        t = ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)
        t = min(1.0, max(0.0, t))
        best = min(best, math.hypot(px - (ax + t * dx), py - (ay + t * dy)))
    return best
