"""Plane incidence structure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgarc.plane import (
    CapacityExceededError,
    DuplicatePointsError,
    PointRangeError,
    SamePointError,
    _normalized,
    build_plane,
    plane_of,
)
from pgarc.gf import build_field, primitive_moduli
from oracles import cross, det3, incidence_scan, random_arc, recount_coverage
from support import get_field, get_plane

SMALL_Q = [2, 3, 4, 5, 7, 8, 9]


def test_counts():
    assert get_plane(2).size == 7
    assert get_plane(31).size == 993
    pl32 = get_plane(32)
    assert pl32.size == 1057
    assert all(len(pts) == 33 for pts in pl32.points_on_line)
    assert all(len(pts) == 3 for pts in get_plane(2).points_on_line)


def test_capacity_limit():
    with pytest.raises(CapacityExceededError):
        build_plane(get_field(128))


@pytest.mark.parametrize("q", SMALL_Q)
def test_two_points_one_line_exhaustive(q):
    pl = get_plane(q)
    n = pl.size
    for i in range(n):
        for j in range(i + 1, n):
            li = pl.line_through(i, j)
            mask = pl.line_masks[li]
            assert (mask >> i) & 1 and (mask >> j) & 1
            # unique: no other line contains both
            both = (1 << i) | (1 << j)
            assert sum(1 for m in pl.line_masks if m & both == both) == 1


@pytest.mark.parametrize("q", SMALL_Q)
def test_two_lines_one_point_exhaustive(q):
    pl = get_plane(q)
    for a in range(pl.size):
        ma = pl.line_masks[a]
        for b in range(a + 1, pl.size):
            assert bin(ma & pl.line_masks[b]).count("1") == 1


@pytest.mark.parametrize("q", SMALL_Q + [31, 32])
def test_degree_regularity(q):
    pl = get_plane(q)
    assert all(len(pts) == q + 1 for pts in pl.points_on_line)
    on_point = [0] * pl.size
    for pts in pl.points_on_line:
        for p in pts:
            on_point[p] += 1
    assert all(c == q + 1 for c in on_point)


@given(
    st.sampled_from([2, 3, 5, 8, 9, 16, 27, 31, 32]),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_normalization_idempotent_and_scale_invariant(q, data):
    pl = get_plane(q)
    f = get_field(q)
    triple = tuple(
        data.draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(3)
    )
    if triple == (0, 0, 0):
        with pytest.raises(ValueError):
            pl.normalize(triple)
        return
    norm = pl.normalize(triple)
    assert pl.normalize(norm) == norm
    assert next(c for c in norm if c) == 1
    scalar = data.draw(st.integers(min_value=1, max_value=q - 1))
    scaled = tuple(f.mul(scalar, c) for c in triple)
    assert pl.normalize(scaled) == norm


@pytest.mark.parametrize("q", [4, 7, 9, 16, 27, 32])
def test_normalized_is_the_scalar_multiple_led_by_one(q):
    """The one normalizer of points, lines and matrices, on seeded random
    nonzero vectors of length 3 and 9 with leading zeros, against the one
    of the q - 1 scalar multiples whose first nonzero entry is 1."""
    f = get_field(q)
    rng = random.Random(q)
    for length in (3, 9):
        for _ in range(60):
            zeros = rng.randrange(length)
            v = [0] * zeros + [rng.randrange(q) for _ in range(length - zeros)]
            if not any(v):
                v[-1] = rng.randrange(1, q)
            led = [m for m in (tuple(f.mul(s, c) for c in v) for s in range(1, q))
                   if next(c for c in m if c) == 1]
            assert len(led) == 1 and _normalized(f, v) == led[0], v
    with pytest.raises(ValueError):
        _normalized(f, [0] * 9)


def test_zero_triple_rejected():
    with pytest.raises(ValueError, match="zero triple"):
        get_plane(5).normalize((0, 0, 0))


def test_line_through_symmetric_and_incident():
    for q in (3, 7, 9):
        pl = get_plane(q)
        for i in range(0, pl.size, 3):
            for j in range(1, pl.size, 7):
                if i == j:
                    continue
                li = pl.line_through(i, j)
                assert li == pl.line_through(j, i)
                assert i in pl.points_on_line[li] and j in pl.points_on_line[li]


def test_line_through_same_point_rejected():
    with pytest.raises(SamePointError):
        get_plane(3).line_through(5, 5)


def test_fano_line_through_solves():
    pl = get_plane(2)
    a = pl.point_index[(0, 0, 1)]
    b = pl.point_index[(0, 1, 0)]
    li = pl.line_through(a, b)
    want = {pl.point_index[t] for t in [(0, 0, 1), (0, 1, 0), (0, 1, 1)]}
    assert set(pl.points_on_line[li]) == want
    assert pl.lines[li] == (1, 0, 0)  # the line x0 = 0


def test_q3_pair_cover_double_count():
    """13 points pair into 78 pairs; each of the 13 lines is hit by exactly
    C(4,2) = 6 of them (brute-force double count)."""
    pl = get_plane(3)
    assert pl.size == 13
    hits = [0] * pl.size
    pairs = 0
    for i in range(pl.size):
        for j in range(i + 1, pl.size):
            hits[pl.line_through(i, j)] += 1
            pairs += 1
    assert pairs == 78
    assert hits == [6] * 13


def test_collinear_examples():
    pl = get_plane(7)
    c = pl.point_index
    assert pl.collinear(c[(0, 0, 1)], c[(0, 1, 0)], c[(0, 1, 1)])
    assert not pl.collinear(c[(0, 0, 1)], c[(0, 1, 0)], c[(1, 0, 0)])
    with pytest.raises(DuplicatePointsError):
        pl.collinear(1, 2, 1)


def test_frame_in_general_position_q31():
    pl = get_plane(31)
    frame = [pl.point_index[t] for t in [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]]
    from itertools import combinations

    for tri in combinations(frame, 3):
        assert not pl.collinear(*tri)


@pytest.mark.parametrize("q", [2, 5, 8, 9])
def test_collinear_matches_determinant(q):
    pl = get_plane(q)
    f = pl.field
    import random

    rng = random.Random(q)
    for _ in range(300):
        i, j, k = rng.sample(range(pl.size), 3)
        want = det3(f, pl.points[i], pl.points[j], pl.points[k]) == 0
        assert pl.collinear(i, j, k) == want


def test_cross_product_gives_joining_line():
    for q in (4, 7):
        pl = get_plane(q)
        import random

        rng = random.Random(q)
        for _ in range(100):
            i, j = rng.sample(range(pl.size), 2)
            li = pl.line_through(i, j)
            assert pl.lines[li] == cross(pl, pl.points[i], pl.points[j])


def _secant_oracle(pl, ids):
    """Points on a line through 2 of ids, via determinants."""
    return sum(1 << x for x, c in enumerate(recount_coverage(pl, ids)) if c)


@pytest.mark.parametrize("q", [2, 5, 8, 9])
def test_secant_mask_matches_determinant(q):
    """On arcs and on sets with collinear triples, which the verifier
    also passes in."""
    import random

    pl = get_plane(q)
    rng = random.Random(50 + q)
    for _ in range(20):
        arc = random_arc(pl, rng, max_size=rng.randint(1, q + 2))
        assert pl.secant_mask(arc) == _secant_oracle(pl, arc)
        line = pl.points_on_line[rng.randrange(pl.size)]
        extra = rng.sample(range(pl.size), rng.randint(0, 3))
        ids = sorted(set(rng.sample(line, 3)) | set(extra))
        assert pl.collinear_triple(ids) is not None
        assert pl.secant_mask(ids) == _secant_oracle(pl, ids)


def test_repeated_ids_rejected():
    """A repeated id would read line_rows[a][a] == -1 and so
    the last line of the plane; it raises, naming the repeated point."""
    pl = get_plane(5)
    last = pl.points_on_line[-1]
    assert 3 not in last
    for ids in ([3, 3], [3, 9, 3], [9, 3, 3, 20]):
        with pytest.raises(DuplicatePointsError, match="point 3 is repeated"):
            pl.secant_mask(ids)
    for x in last[:2]:
        with pytest.raises(DuplicatePointsError, match="point 3 is repeated"):
            pl.collinear_triple([3, 3, x])
    assert pl.secant_mask([3]) == 0
    assert pl.collinear_triple([3, last[0]]) is None


def _assert_tables_match_scan(pl):
    """The tables of a freshly built plane against the slow scan.  It
    holds no pair -> line row; rows read in a seeded random order are
    built one per first read, and then read by index (iterating the
    lookup would give its keys, not its rows)."""
    want = incidence_scan(pl.field)
    n, rows = pl.size, pl.line_rows
    assert len(rows) == 0
    for i, a in enumerate(random.Random(n).sample(range(n), n), 1):
        assert rows[a] == want["pair_line"][a * n:(a + 1) * n]
        assert len(rows) == i and rows[a] is rows[a]
    assert pl.points_on_line == want["points_on_line"]
    assert pl.line_masks == want["line_masks"]
    assert [li for a in range(n) for li in rows[a]] == want["pair_line"]
    assert pl.frob_point_perms == want["frob_point_perms"]


@pytest.mark.parametrize("q", SMALL_Q + [16, 27, 31, 32])
def test_tables_match_incidence_scan(q):
    _assert_tables_match_scan(build_plane(get_field(q)))


@pytest.mark.parametrize("q", [5, 31, 32])
def test_points_on_line_holds_one_int_per_point(q):
    """Every line holds the same int object for a point: the lines of a
    plane share plane.size ints."""
    pl = build_plane(get_field(q))
    assert len({id(i) for pts in pl.points_on_line for i in pts}) == pl.size


def test_plane_of_keeps_one_plane_per_field_spec(monkeypatch):
    """Two separately built tables of one field spec get the same plane,
    two GF(32) moduli different ones; build_plane builds anew."""
    import pgarc.plane as plane_layer
    from pgarc import search

    monkeypatch.setattr(plane_layer, "_PLANES", {})
    (m0, _), (m1, _) = list(primitive_moduli(2, 5))[:2]
    pl = plane_of(build_field(2, 5, list(m0)))
    assert plane_of(build_field(2, 5, list(m0))) is pl is search.default_plane(32)
    assert plane_of(build_field(2, 5, list(m1))) is not pl
    assert build_plane(pl.field) is not pl


@pytest.mark.parametrize("q", [31, 32])
def test_plane_of_equals_a_fresh_build(q):
    """The cached plane, shared with earlier callers, has the tables of a
    plane built afresh over the same field."""
    cached, fresh = plane_of(get_field(q)), build_plane(get_field(q))
    assert cached.points == fresh.points
    assert cached.points_on_line == fresh.points_on_line
    assert cached.line_masks == fresh.line_masks
    assert cached.frob_point_perms == fresh.frob_point_perms


def test_line_rows_reject_keys_that_are_not_point_ids():
    """A list of rows read key -1 as the last row, and a row filled on
    first read would be stored under any key: a key that is not an int
    in [0, n) raises and stores nothing, before and after a row is in."""
    pl = build_plane(get_field(5))
    n, rows = pl.size, pl.line_rows
    bad = (-1, -n, n, n + 7, 2.5, 3.0, "3", None, True)
    for k in bad:
        with pytest.raises(PointRangeError):
            rows[k]
    assert len(rows) == 0
    assert rows[n - 1][n - 1] == -1
    for k in bad:
        with pytest.raises(PointRangeError):
            rows[k]
    assert list(rows) == [n - 1]


@pytest.mark.parametrize("modulus", [m for m, _ in primitive_moduli(2, 5)])
def test_tables_match_incidence_scan_every_gf32_modulus(modulus):
    """The certificate sweep builds PG(2,32) over each of these."""
    _assert_tables_match_scan(build_plane(build_field(2, 5, list(modulus))))


def test_point_ids_out_of_range_rejected():
    """A flat pair table read id n as the next row's id 0, and a negative
    id as a row from the end; every entry point raises instead."""
    pl = get_plane(5)
    n = pl.size
    for a, b in ((0, n), (-1, 5), (n, 0)):
        with pytest.raises(PointRangeError):
            pl.line_through(a, b)
    with pytest.raises(PointRangeError):
        pl.collinear(0, 1, n)
    with pytest.raises(PointRangeError):
        pl.collinear(-3, 1, 2)
    for ids in ([3, n + 2], [-2, 0, 1], [n]):
        with pytest.raises(PointRangeError):
            pl.secant_mask(ids)
        with pytest.raises(PointRangeError):
            pl.collinear_triple(ids)


def test_coordinates_outside_the_field_rejected():
    """(0, 0, 7) once normalized to point 0 at q = 5, (1, 9, 2) raised a
    bare KeyError and (0, 5, 1) a bare IndexError."""
    pl = get_plane(5)
    for triple in ((0, 0, 7), (1, 9, 2), (0, 5, 1), (1, -1, 0), (5, 0, 0)):
        with pytest.raises(PointRangeError, match="outside GF\\(5\\)"):
            pl.point_id(triple)
        with pytest.raises(PointRangeError):
            pl.normalize(triple)
    assert pl.point_id((0, 0, 4)) == 0
