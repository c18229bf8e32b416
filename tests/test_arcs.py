"""Extension candidates of an arc as a bitmask (``candidate_mask``)."""

import random
from itertools import combinations

import pytest

from pgarc.arcs import candidate_mask, iter_bits
from pgarc.collineation import standard_frame
from pgarc.plane import DuplicatePointsError, PointRangeError
from oracles import brute_force_is_complete, random_arc, recount_coverage
from support import get_plane


def test_frame_is_an_arc():
    pl = get_plane(31)
    frame = standard_frame(pl)
    assert pl.collinear_triple(frame) is None
    assert candidate_mask(pl, frame) != 0


def test_every_4_arc_in_fano_plane_is_complete():
    pl = get_plane(2)
    n_arcs = 0
    for quad in combinations(range(7), 4):
        if pl.collinear_triple(quad) is None:
            n_arcs += 1
            assert candidate_mask(pl, quad) == 0
    assert n_arcs == 7


def test_incremental_coverage_matches_recount_q7():
    """200 random growth paths; after every addition the candidates are
    exactly the non-members that no secant covers, recounted from scratch."""
    pl = get_plane(7)
    rng = random.Random(777)
    for _ in range(200):
        target = random_arc(pl, rng, max_size=rng.randint(4, 8))
        members = []
        cand = pl.all_points_mask
        order = sorted(target, key=lambda _: rng.random())
        for p in order:
            if not (cand >> p) & 1:
                continue
            members.append(p)
            cand = candidate_mask(pl, members)
            cov = recount_coverage(pl, members)
            want_candidates = {
                x for x in range(pl.size) if x not in members and cov[x] == 0
            }
            assert set(iter_bits(cand)) == want_candidates


def test_is_complete_against_brute_force_spot():
    for q in (5, 7, 9):
        pl = get_plane(q)
        rng = random.Random(q)
        for _ in range(25):
            members = random_arc(pl, rng, max_size=rng.randint(3, q + 2))
            complete = candidate_mask(pl, members) == 0
            assert complete == brute_force_is_complete(pl, members)


def test_candidate_mask_of_greedy_maximal_arc_is_empty():
    pl = get_plane(9)
    rng = random.Random(99)
    members = random_arc(pl, rng)  # grown until no point extends it
    assert candidate_mask(pl, members) == 0


def test_candidate_mask_rejects_repeated_members():
    pl = get_plane(5)
    assert bin(candidate_mask(pl, [3])).count("1") == pl.size - 1
    with pytest.raises(DuplicatePointsError, match="point 3 is repeated"):
        candidate_mask(pl, [3, 3])
    with pytest.raises(DuplicatePointsError, match="point 0 is repeated"):
        candidate_mask(pl, [*standard_frame(pl), 0])


def test_candidate_mask_rejects_ids_out_of_range():
    """An id -1 once raised "negative shift count", as the member bits
    were set before the ids were checked; every bad id raises
    PointRangeError."""
    pl = get_plane(7)
    for members in ([-1, 3, 5], [3, 5, 57], [200]):
        with pytest.raises(PointRangeError):
            candidate_mask(pl, members)
