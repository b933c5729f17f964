"""Unit tests for repro.geometry.rect."""

import pytest

from repro.geometry import Point, Rect, as_rect


def test_degenerate_rect_rejected():
    with pytest.raises(ValueError):
        Rect(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Rect(0.0, 1.0, 1.0, 0.0)


def test_zero_area_rect_allowed():
    r = Rect(1.0, 2.0, 1.0, 2.0)
    assert r.area == 0.0
    assert r.contains_point(Point(1.0, 2.0))


def test_from_points_bounds_all():
    pts = [Point(1, 5), Point(-2, 3), Point(4, -1)]
    r = Rect.from_points(pts)
    assert r == Rect(-2, -1, 4, 5)
    for p in pts:
        assert r.contains_point(p)


def test_from_points_empty_raises():
    with pytest.raises(ValueError):
        Rect.from_points([])


def test_from_center():
    r = Rect.from_center(Point(5, 5), 4, 2)
    assert r == Rect(3, 4, 7, 6)
    assert r.center == Point(5, 5)


def test_measures():
    r = Rect(0, 0, 4, 3)
    assert r.width == 4
    assert r.height == 3
    assert r.area == 12


def test_contains_point_boundary_inclusive():
    r = Rect(0, 0, 2, 2)
    assert r.contains_point(Point(0, 0))
    assert r.contains_point(Point(2, 2))
    assert r.contains_xy(1, 2)
    assert not r.contains_point(Point(2.0001, 1))


def test_contains_rect():
    outer = Rect(0, 0, 10, 10)
    assert outer.contains_rect(Rect(1, 1, 9, 9))
    assert outer.contains_rect(outer)
    assert not outer.contains_rect(Rect(5, 5, 11, 9))
    assert not Rect(1, 1, 9, 9).contains_rect(outer)


def test_intersects_cases():
    a = Rect(0, 0, 2, 2)
    assert a.intersects(Rect(1, 1, 3, 3))          # overlap
    assert a.intersects(Rect(2, 2, 4, 4))          # corner touch
    assert a.intersects(Rect(0.5, 0.5, 1.5, 1.5))  # containment
    assert not a.intersects(Rect(2.1, 0, 3, 2))    # disjoint in x
    assert not a.intersects(Rect(0, 2.1, 2, 3))    # disjoint in y


def test_intersects_is_symmetric():
    a = Rect(0, 0, 2, 2)
    b = Rect(1, -1, 5, 0.5)
    assert a.intersects(b) == b.intersects(a)


def test_union():
    assert Rect(0, 0, 1, 1).union(Rect(2, 2, 3, 3)) == Rect(0, 0, 3, 3)


def test_expanded_to():
    assert Rect(0, 0, 1, 1).expanded_to(Point(5, -2)) == Rect(0, -2, 5, 1)
    assert Rect(0, 0, 1, 1).expanded_to(Point(0.5, 0.5)) == Rect(0, 0, 1, 1)


def test_intersection():
    a = Rect(0, 0, 4, 4)
    assert a.intersection(Rect(2, 2, 6, 6)) == Rect(2, 2, 4, 4)
    assert a.intersection(Rect(5, 5, 6, 6)) is None
    # touching edge yields a degenerate but valid rectangle
    assert a.intersection(Rect(4, 0, 6, 4)) == Rect(4, 0, 4, 4)


def test_as_tuple():
    assert Rect(1, 2, 3, 4).as_tuple() == (1, 2, 3, 4)


def test_any_contained():
    from array import array

    r = Rect(1, 1, 3, 3)
    xs = array("d", [0.0, 2.0, 5.0])
    ys = array("d", [0.0, 2.0, 5.0])
    assert r.any_contained(xs, ys)
    assert not r.any_contained(xs, ys, 2)       # only (5, 5) left
    assert not r.any_contained(xs, ys, 0, 1)    # only (0, 0)
    assert r.any_contained(xs, ys, 1, 2)        # exactly (2, 2)
    assert not r.any_contained(xs, ys, 1, 1)    # empty range
    assert not Rect(10, 10, 11, 11).any_contained(xs, ys)
    # Boundary points are inside (closed-region semantics).
    assert Rect(2, 2, 9, 9).any_contained(xs, ys)


def test_any_contained_matches_contains_point():
    from array import array

    points = [Point(0.5, 0.5), Point(1.5, 2.5), Point(4.0, 0.1)]
    xs = array("d", (p.x for p in points))
    ys = array("d", (p.y for p in points))
    for r in (Rect(0, 0, 1, 1), Rect(1, 2, 2, 3), Rect(6, 6, 7, 7)):
        assert r.any_contained(xs, ys) == any(
            r.contains_point(p) for p in points
        )


def test_first_contained():
    from array import array

    r = Rect(1, 1, 3, 3)
    xs = array("d", [0.0, 2.0, 2.5, 5.0])
    ys = array("d", [0.0, 2.0, 2.5, 5.0])
    assert r.first_contained(xs, ys) == 1
    assert r.first_contained(xs, ys, 2) == 2     # indices are absolute
    assert r.first_contained(xs, ys, 3) == -1
    assert r.first_contained(xs, ys, 0, 1) == -1
    assert r.first_contained(xs, ys, 1, 1) == -1  # empty range


# ----------------------------------------------------------------------
# as_rect: the region forms every query surface accepts
# ----------------------------------------------------------------------
def test_as_rect_passes_rect_through_unchanged():
    rect = Rect(0.0, 0.0, 1.0, 1.0)
    assert as_rect(rect) is rect


def test_as_rect_coerces_sequences():
    assert as_rect((0.0, 0.25, 1.0, 0.75)) == Rect(0.0, 0.25, 1.0, 0.75)
    assert as_rect([0, 0, 1, 1]) == Rect(0.0, 0.0, 1.0, 1.0)


def test_as_rect_rejects_junk():
    with pytest.raises(TypeError, match="region must be a Rect"):
        as_rect("0,0,1,1")
    with pytest.raises(TypeError, match="region must be a Rect"):
        as_rect((0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        as_rect((1.0, 0.0, 0.0, 1.0))  # degenerate, same as Rect(...)
