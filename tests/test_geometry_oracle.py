import math
from fractions import Fraction

import numpy as np

import geometry_oracle as geo

SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
L_SHAPE = [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0),
           (0.0, 2.0)]


def fraction_sign(ax, ay, bx, by, px, py):
    ax, ay, bx, by, px, py = map(Fraction, (ax, ay, bx, by, px, py))
    det = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
    return (det > 0) - (det < 0)


class TestOrientation:
    def test_matches_rational_sign_near_collinear(self, rng):
        a = rng.uniform(20.0, 35.0, size=(400, 2))
        b = rng.uniform(20.0, 35.0, size=(400, 2))
        t = rng.uniform(-1.0, 2.0, size=400)
        # points on the float-rounded line through a and b lie off it by a
        # rounding error, where a plain float determinant gets signs wrong
        p = a + t[:, None] * (b - a)
        got = geo.orientation(a[:, 0], a[:, 1], b[:, 0], b[:, 1],
                              p[:, 0], p[:, 1])
        expect = [fraction_sign(*a[i], *b[i], *p[i]) for i in range(400)]
        assert got.tolist() == expect
        naive = np.sign((b[:, 0] - a[:, 0]) * (p[:, 1] - a[:, 1])
                        - (b[:, 1] - a[:, 1]) * (p[:, 0] - a[:, 0]))
        assert (naive != expect).any()

    def test_signs_and_scalar_shape(self):
        assert geo.orientation(0, 0, 1, 0, 0.5, 1) == 1
        assert geo.orientation(0, 0, 1, 0, 0.5, -1) == -1
        assert geo.orientation(0, 0, 1, 0, 3.0, 0) == 0
        assert geo.orientation(0, 0, 1, 0, 0.5, 1).shape == ()


class TestCovers:
    def test_square_inside_boundary_outside(self):
        px = np.array([0.5, 0.0, 1.0, 0.5, 1.0, 1.5, -1e-300, 0.5])
        py = np.array([0.5, 0.0, 0.5, 1.0, 1.0, 0.5, 0.5, 1.0 + 2 ** -52])
        expect = [True, True, True, True, True, False, False, False]
        assert geo.covers(SQUARE, px, py).tolist() == expect
        assert geo.covers(SQUARE[::-1], px, py).tolist() == expect

    def test_concave_notch(self):
        px = np.array([0.5, 1.5, 1.5, 1.0, 0.5])
        py = np.array([1.5, 0.5, 1.5, 1.5, 2.0])
        assert geo.covers(L_SHAPE, px, py).tolist() == [True, True, False,
                                                        True, True]


class TestArea:
    def test_exact_values(self):
        assert geo.area(SQUARE) == 1
        assert geo.area(L_SHAPE[::-1]) == 3
        tri = [(0.0, 0.0), (0.1, 0.0), (0.0, 0.1)]
        assert geo.area(tri) == Fraction(0.1) ** 2 / 2


class TestConvexAndSimple:
    def test_convex_polygons(self):
        assert geo.is_convex_and_simple(SQUARE)
        assert geo.is_convex_and_simple(SQUARE[::-1])
        # a straight vertex on an edge keeps the polygon convex
        assert geo.is_convex_and_simple([(0.0, 0.0), (0.5, 0.0), (1.0, 0.0),
                                         (1.0, 1.0)])

    def test_rejects_concave_crossing_and_degenerate(self):
        star = [(math.cos(math.radians(90 + 144 * k)),
                 math.sin(math.radians(90 + 144 * k))) for k in range(5)]
        bowtie = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
        spike = [(0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (0.5, 1.0)]
        flat = [(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]
        for poly in (L_SHAPE, star, bowtie, spike, flat, SQUARE[:2]):
            assert not geo.is_convex_and_simple(poly)


class TestDistance:
    def test_hand_values(self):
        assert geo.distance(SQUARE, 0.5, 0.5) == 0.0
        assert geo.distance(SQUARE, 1.0, 0.3) == 0.0
        assert geo.distance(SQUARE, 2.0, 0.5) == 1.0
        assert geo.distance(SQUARE, 2.0, 2.0) == math.sqrt(2.0)
        assert geo.distance(L_SHAPE, 1.5, 1.5) == 0.5
