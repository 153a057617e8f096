"""sector._points_in_polygon, every edge against every point in one
broadcast, against the loop over the edges it replaced: the same membership
on generated polygons, probed on their vertices, on their edges, along
collinear runs of vertices and on a grid of cell centres."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from polygon_loop_oracle import points_in_polygon
from shipplume.sector import _points_in_polygon


@st.composite
def polygons(draw):
    """3-50 (lat, lon) vertices: integer lattice points scaled to a 0.045
    degree cell, or random reals, with collinear runs (points inserted on
    an edge) and repeated vertices."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(3, 30))
    if draw(st.booleans()):
        pts = 31.5 + 0.045 * rng.integers(-6, 7, size=(n, 2))
    else:
        pts = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-3, 3)
    out = []
    for i in range(n):
        out.append(pts[i])
        nxt = pts[(i + 1) % n]
        for t in rng.choice([0.0, 0.25, 0.5, 1 / 3], rng.integers(0, 3)):
            out.append(pts[i] + t * (nxt - pts[i]))
    return tuple(map(tuple, np.array(out[:50]).tolist()))


def probes(polygon, rng):
    """Vertices, points along each edge and beyond its ends (on the line of
    a collinear run), a grid of cell centres over the polygon's box, and
    random points."""
    v = np.array(polygon)
    w = np.roll(v, -1, axis=0)
    t = np.array([0.0, 0.5, 1 / 3, 0.9, 1.0, -0.5, 1.5])[:, None, None]
    on_lines = (v + t * (w - v)).reshape(-1, 2)
    lo, hi = v.min(axis=0), v.max(axis=0)
    lat, lon = np.meshgrid(np.linspace(lo[0], hi[0], 18),
                           np.linspace(lo[1], hi[1], 18), indexing="ij")
    grid = np.column_stack([lat.ravel(), lon.ravel()])
    noise = lo + rng.random((200, 2)) * (hi - lo + 1e-9) * 1.2
    return np.concatenate([v, on_lines, grid, noise])


@settings(max_examples=200, deadline=None)
@given(polygon=polygons(), seed=st.integers(0, 2 ** 32 - 1))
def test_same_membership_as_the_edge_loop(polygon, seed):
    pts = probes(polygon, np.random.default_rng(seed))
    got = _points_in_polygon(pts[:, 0], pts[:, 1], polygon)
    want = points_in_polygon(pts[:, 0], pts[:, 1], polygon)
    assert got.dtype == want.dtype == bool
    np.testing.assert_array_equal(got, want)
    # any point shape: a 2-D block and one scalar point
    block = pts[:pts.shape[0] // 2 * 2].reshape(2, -1, 2)
    np.testing.assert_array_equal(
        _points_in_polygon(block[..., 0], block[..., 1], polygon),
        points_in_polygon(block[..., 0], block[..., 1], polygon))
    assert _points_in_polygon(pts[0, 0], pts[0, 1], polygon).shape == ()
    assert (_points_in_polygon(pts[0, 0], pts[0, 1], polygon)
            == points_in_polygon(pts[0, 0], pts[0, 1], polygon))
