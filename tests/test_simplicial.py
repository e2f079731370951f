"""Truncated pointed simplicial sets and the minimal circle model."""

import pytest

from lambda_homology.errors import ValidationError
from lambda_homology.simplicial import (
    PointedSimplicialSet,
    circle,
    simplicial_from_json,
    sphere2,
    simplicial_to_json,
)


def test_circle_sizes():
    x = circle(5)
    assert x.sizes == (1, 2, 3, 4, 5, 6)


def test_circle_validates_at_every_level():
    for n in range(1, 7):
        assert circle(n).validate() == []


def test_circle_identities_exhaustively():
    # d_i d_j = d_{j-1} d_i for i < j, checked on every simplex directly
    x = circle(5)
    for n in range(2, 6):
        for j in range(1, n + 1):
            for i in range(j):
                for s in range(x.size(n)):
                    assert x.face(n - 1, i, x.face(n, j, s)) == \
                        x.face(n - 1, j - 1, x.face(n, i, s))


def test_circle_needs_positive_level():
    with pytest.raises(ValidationError):
        circle(0)


def test_circle_fibers_have_one_merge_each():
    # at every (n, i) exactly one fiber has two simplices, the rest are
    # singletons; that one merge is where candidate orderings differ
    x = circle(4)
    for n in range(1, 5):
        for i in range(n + 1):
            part = x.fibers(n, i)
            sizes = sorted(len(part.get(t, ()))
                           for t in range(x.size(n - 1)))
            assert sizes == [1] * (x.size(n - 1) - 1) + [2]


def test_circle_last_face_fiber_puts_basepoint_last():
    # the wrap-around face merges the top simplex with the basepoint; the
    # basepoint is ordered last so the plain reading of the fiber is the
    # classical wrap product
    x = circle(3)
    for n in range(1, 4):
        part = x.fibers(n, n)
        merged = [f for f in (part.get(t, ()) for t in range(x.size(n - 1)))
                  if len(f) == 2]
        assert merged == [(n, 0)]


def test_first_face_fiber_is_ordered():
    x = circle(3)
    part = x.fibers(3, 0)
    merged = [f for f in (part.get(t, ()) for t in range(x.size(2)))
              if len(f) == 2]
    assert merged == [(0, 1)]


@pytest.mark.parametrize("x", [circle(4), sphere2(4)], ids=["circle4", "sphere2_4"])
def test_fibers_are_the_grouped_face_images(x):
    """``fibers(n, i)`` is a plain dict from each target that is hit to its
    preimages, ascending, except that the basepoint goes last when i == n."""
    for n in range(1, x.max_level + 1):
        for i in range(n + 1):
            images = x.face_images(n, i)
            expected = {}
            for t in sorted(set(images)):
                fiber = [s for s in range(x.size(n)) if images[s] == t]
                if i == n and fiber[0] == 0:
                    fiber = fiber[1:] + fiber[:1]
                expected[t] = tuple(fiber)
            part = x.fibers(n, i)
            assert type(part) is dict
            assert part == expected


def test_truncate():
    x = circle(4)
    y = x.truncate(2)
    assert y.max_level == 2
    assert y.sizes == (1, 2, 3)
    assert y.validate() == []
    with pytest.raises(ValidationError):
        x.truncate(7)


def test_json_round_trip():
    x = circle(3)
    again = simplicial_from_json(simplicial_to_json(x))
    assert again.sizes == x.sizes
    assert again.faces == x.faces
    assert again.degeneracies == x.degeneracies


def test_two_level_fixture_round_trips(two_level):
    again = simplicial_from_json(simplicial_to_json(two_level))
    assert again.faces == two_level.faces


def test_validate_catches_broken_identities():
    # two level-1 simplices whose level-2 faces break d_0 d_2 = d_1 d_0
    x = PointedSimplicialSet(
        max_level=2,
        sizes=(2, 2, 2),
        faces=(
            ((0, 1), (0, 0)),
            ((0, 1), (0, 0), (0, 1)),
        ),
        label="broken",
    )
    bad = x.validate()
    assert bad
    assert any(v.get("kind") == "identity" for v in bad)


def test_validate_catches_basepoint_escape():
    x = PointedSimplicialSet(
        max_level=1,
        sizes=(2, 2),
        faces=(((1, 1), (0, 0)),),   # d_0 of the basepoint is not basepoint
        label="unpointed",
    )
    bad = x.validate()
    assert any(v.get("kind") == "pointed" for v in bad)


def test_validate_catches_range_error():
    x = PointedSimplicialSet(
        max_level=1,
        sizes=(1, 2),
        faces=(((0, 7), (0, 0)),),
        label="out-of-range",
    )
    bad = x.validate()
    assert any(v.get("kind") == "range" for v in bad)


def test_face_out_of_range_raises():
    x = circle(2)
    with pytest.raises(ValidationError):
        x.face_images(3, 0)
    with pytest.raises(ValidationError):
        x.size(9)


def test_from_json_rejects_malformed():
    with pytest.raises(ValidationError):
        simplicial_from_json({"max_level": 1, "sizes": [1]})


def test_from_json_reads_the_circle_builtin():
    x = simplicial_from_json({"builtin": "circle", "max_level": 3})
    assert simplicial_to_json(x) == simplicial_to_json(circle(3))
    with pytest.raises(ValidationError, match="needs 'max_level'"):
        simplicial_from_json({"builtin": "circle"})
    with pytest.raises(ValidationError, match="unknown builtin"):
        simplicial_from_json({"builtin": "sphere", "max_level": 3})
