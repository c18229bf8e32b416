"""Group action, frame maps, canonical forms, stabilizers."""

import hashlib
import random
from itertools import combinations, permutations
from math import comb

import pytest

from pgarc.collineation import (
    Collineation,
    DegenerateQuadrupleError,
    DegenerateSetError,
    IDENTITY,
    PGAMMAL,
    PGL,
    apply,
    apply_matrix,
    canonical_children,
    canonicalize,
    compose,
    frame_images,
    frame_map,
    generating_subset,
    group_order,
    inverse,
    stabilizer,
    standard_frame,
    _every_frame,
    _five_point_table,
    _frames,
    _invariant_frames,
    _least_fives,
    _side_logs,
    _tails,
)
import oracles
from oracles import all_pgl_matrices_q2, collineation, group_closure, is_canonical, mask_image
from pgarc.plane import DuplicatePointsError, PointRangeError
from support import classification, get_field, get_plane


def random_collineation(plane, rng, group=PGL):
    """Rejection-sample an invertible matrix, plus a random Frobenius part."""
    f = plane.field
    while True:
        m = tuple(rng.randrange(f.q) for _ in range(9))
        try:
            frob = rng.randrange(f.h) if group == PGAMMAL else 0
            return collineation(f, m, frob)
        except ValueError:
            continue


def test_identity_fixes_every_point():
    pl = get_plane(5)
    for i in range(pl.size):
        assert apply(pl, IDENTITY, i) == i


@pytest.mark.parametrize("q", [2, 3, 5, 7, 9])
def test_collineations_map_lines_to_lines(q):
    pl = get_plane(q)
    rng = random.Random(q)
    line_set = set(pl.line_masks)
    group = PGAMMAL if pl.field.h > 1 else PGL
    for _ in range(5):
        g = random_collineation(pl, rng, group)
        perm = [apply(pl, g, i) for i in range(pl.size)]
        assert sorted(perm) == list(range(pl.size))  # bijective
        for mask in pl.line_masks:
            assert mask_image(mask, perm) in line_set


def test_q2_full_matrix_group_order_and_transitivity():
    f = get_field(2)
    pl = get_plane(2)
    mats = all_pgl_matrices_q2(f)
    assert len(mats) == 168 == group_order(2)
    orbit = {0}
    from pgarc.collineation import apply_matrix

    for m in mats:
        orbit.add(apply_matrix(pl, m, 0))
    assert orbit == set(range(7))


def test_apply_matrix_rejects_a_kernel_point_of_a_singular_matrix():
    """diag(1, 1, 0) sends (0, 0, 1), point 0, to the zero triple: that
    raises instead of landing on point 0."""
    from pgarc.collineation import apply_matrix

    pl = get_plane(5)
    m = (1, 0, 0, 0, 1, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="zero triple"):
        apply_matrix(pl, m, 0)
    assert apply_matrix(pl, m, pl.point_index[(1, 2, 3)]) == pl.point_index[(1, 2, 0)]


def test_group_orders():
    assert group_order(2) == 168
    assert group_order(4, PGAMMAL) == 2 * group_order(4, PGL)
    assert group_order(32, PGAMMAL) > group_order(31, PGL)


def test_frame_map_of_standard_frame_is_identity():
    pl = get_plane(7)
    assert frame_map(pl, standard_frame(pl)) == IDENTITY


def test_frame_map_of_swapped_frame_is_involution():
    pl = get_plane(7)
    a, b, c, d = standard_frame(pl)
    g = frame_map(pl, (b, a, c, d))
    assert g != IDENTITY
    assert compose(pl.field, g, g) == IDENTITY


def test_frame_map_degenerate_quadruple_rejected():
    pl = get_plane(3)
    line = pl.points_on_line[0]
    with pytest.raises(DegenerateQuadrupleError):
        frame_map(pl, (line[0], line[1], line[2], 12))
    with pytest.raises(DegenerateQuadrupleError):
        frame_map(pl, (0, 0, 1, 2))


def random_frame(plane, rng):
    while True:
        quad = tuple(rng.sample(range(plane.size), 4))
        if all(
            not plane.collinear(*tri) for tri in combinations(quad, 3)
        ):
            return quad


def test_frame_map_sends_frame_to_standard_frame_q5():
    pl = get_plane(5)
    rng = random.Random(55)
    frame = standard_frame(pl)
    seen = {}
    for _ in range(100):
        quad = random_frame(pl, rng)
        g = frame_map(pl, quad)
        assert tuple(apply(pl, g, p) for p in quad) == frame
        # sharp transitivity: distinct ordered frames get distinct maps
        assert seen.setdefault(g, quad) == quad
    assert len(seen) > 1


def test_compose_convention_matches_pointwise_action():
    pl = get_plane(4)
    rng = random.Random(4)
    for _ in range(30):
        g1 = random_collineation(pl, rng, PGAMMAL)
        g2 = random_collineation(pl, rng, PGAMMAL)
        g12 = compose(pl.field, g1, g2)
        for i in range(0, pl.size, 3):
            assert apply(pl, g12, i) == apply(pl, g1, apply(pl, g2, i))


def test_inverse_round_trip():
    pl = get_plane(8)
    rng = random.Random(8)
    for _ in range(30):
        g = random_collineation(pl, rng, PGAMMAL)
        assert compose(pl.field, g, inverse(pl.field, g)) == IDENTITY
        assert compose(pl.field, inverse(pl.field, g), g) == IDENTITY


def test_compose_with_zero_matrix_rejected():
    """A product that is the zero matrix has no normalized form."""
    f = get_field(7)
    zero = Collineation((0,) * 9)
    for g1, g2 in ((zero, IDENTITY), (IDENTITY, zero)):
        with pytest.raises(ValueError):
            compose(f, g1, g2)


def test_any_4_arc_canonicalizes_to_standard_frame():
    for q in (5, 7, 31):
        pl = get_plane(q)
        rng = random.Random(q)
        want = tuple(sorted(standard_frame(pl)))
        for _ in range(10):
            quad = random_frame(pl, rng)
            form = canonicalize(pl, quad, PGL)
            assert form.canon == want
            assert tuple(sorted(apply(pl, form.witness, p) for p in quad)) == want


def test_canonicalize_small_sets_and_empty():
    """Fewer than 4 points hold no frame: canonicalize, frame_images,
    is_canonical and canonical_children refuse them, and the empty set
    keeps its own error.  Repeated ids are refused, not merged, so
    [17, 17, 30, 30] is no 2-point set.  The conventional frame prefixes
    live on in the oracle."""
    pl = get_plane(5)
    from pgarc.collineation import EmptySetError

    for check in (canonicalize, frame_images, is_canonical, canonical_children):
        with pytest.raises(EmptySetError):
            check(pl, [])
        for pts in ([0], [17], [0, 1], [17, 30], [0, 1, 6], [17, 30, 4]):
            with pytest.raises(DegenerateSetError, match="at least 4 points"):
                check(pl, pts)
        with pytest.raises(DuplicatePointsError):
            check(pl, [17, 17, 30, 30])
    assert oracles.small_canonical(pl, [17]).canon == (0,)
    assert oracles.small_canonical(pl, [17, 30]).canon == (0, 1)
    tri = oracles.small_canonical(pl, [17, 30, 4])
    assert tri.canon == (0, 1, 6)
    assert tuple(sorted(apply(pl, tri.witness, p) for p in [17, 30, 4])) == tri.canon


def test_canonicalize_invariance_under_group():
    for q, group in [(5, PGL), (7, PGL), (8, PGAMMAL)]:
        pl = get_plane(q)
        rng = random.Random(q * 11)
        import oracles

        arc = oracles.random_arc(pl, rng, max_size=6)
        base = canonicalize(pl, arc, group).canon
        for _ in range(50):
            g = random_collineation(pl, rng, group)
            image = [apply(pl, g, p) for p in arc]
            assert canonicalize(pl, image, group).canon == base


def test_canonicalize_is_least_over_group_images():
    """For arcs the canonical form is the minimum over the whole group:
    no random element produces a lexicographically smaller sorted image."""
    for q, group in ((5, PGL), (9, PGAMMAL)):
        pl = get_plane(q)
        rng = random.Random(q * 17)
        import oracles

        for _ in range(5):
            arc = oracles.random_arc(pl, rng, max_size=6)
            canon = canonicalize(pl, arc, group).canon
            assert canon <= tuple(sorted(arc))
            for _ in range(200):
                g = random_collineation(pl, rng, group)
                image = tuple(sorted(apply(pl, g, p) for p in arc))
                assert canon <= image


@pytest.mark.parametrize(
    "q, group", [(5, PGL), (7, PGL), (4, PGAMMAL), (8, PGAMMAL), (9, PGAMMAL)]
)
def test_frame_images_hold_every_image_on_the_frame(q, group):
    """Property: for random arcs A and random collineations g, if g(A)
    contains the standard frame, then it is in frame_images(A).  g is a
    random element followed by the frame map of the image of a random
    ordered 4-subset of A, so g(A) always holds the frame.  Conversely
    there is one image per Frobenius power and ordered 4-subset, each
    holds the frame and lies in A's class, and the least is A's
    canonical form."""
    pl = get_plane(q)
    rng = random.Random(f"frame_images:{q}:{group}")
    frame = set(standard_frame(pl))
    h = pl.field.h if group == PGAMMAL else 1
    for _ in range(4):
        arc = oracles.random_arc(pl, rng, max_size=rng.randint(5, min(q + 2, 8)))
        k = len(arc)
        images = list(frame_images(pl, arc, group))
        assert len(images) == h * k * (k - 1) * (k - 2) * (k - 3)
        image_set = set(images)
        canon = canonicalize(pl, arc, group).canon
        assert min(image_set) == canon
        for image in rng.sample(images, 10):
            assert frame <= set(image)
            assert canonicalize(pl, image, group).canon == canon
        for _ in range(30):
            g = random_collineation(pl, rng, group)
            quad = [apply(pl, g, p) for p in rng.sample(arc, 4)]
            g = compose(pl.field, frame_map(pl, quad), g)
            image = tuple(sorted(apply(pl, g, p) for p in arc))
            assert frame <= set(image)
            assert image in image_set, (arc, g)


def test_canonicalize_witness_achieves_canon():
    pl = get_plane(9)
    rng = random.Random(9)
    import oracles

    for _ in range(20):
        arc = oracles.random_arc(pl, rng, max_size=7)
        form = canonicalize(pl, arc, PGAMMAL)
        assert tuple(sorted(apply(pl, form.witness, p) for p in arc)) == form.canon


def on_a_secant(plane, arc):
    """A point outside the arc on the line through its first two points."""
    line = plane.points_on_line[plane.line_through(arc[0], arc[1])]
    return next(x for x in line if x not in arc)


@pytest.mark.parametrize("q, group", [(7, PGL), (8, PGAMMAL)])
def test_canonicalize_rejects_non_arcs(q, group):
    pl = get_plane(q)
    frame = list(standard_frame(pl))
    five = frame + [on_a_secant(pl, frame)]
    assert pl.collinear_triple(five) is not None
    with pytest.raises(DegenerateSetError):
        canonicalize(pl, five, group)
    with pytest.raises(DegenerateSetError, match="not an arc"):
        frame_images(pl, five, group)
    # rejected before the frame-prefix test can answer False
    line = pl.points_on_line[pl.line_through(0, 1)][:3]
    for bad in (five, line):
        with pytest.raises(DegenerateSetError):
            is_canonical(pl, bad, group)
        with pytest.raises(DegenerateSetError):
            canonical_children(pl, bad, group)


def test_is_canonical_agrees_with_canonicalize():
    """is_canonical(S) holds exactly when S is its own canonical form: on
    every child of every representative (all candidates, not only those
    above the representative's last point), and on random q = 31 arcs,
    their canonical forms and the children of those."""

    def agrees(pl, pts, group):
        want = canonicalize(pl, pts, group).canon == tuple(sorted(pts))
        return is_canonical(pl, pts, group) == want

    from pgarc.arcs import candidate_mask, iter_bits

    for q, group in ((7, PGL), (9, PGAMMAL)):
        pl = get_plane(q)
        for lv in classification(q, group, q + 2):
            for rep in lv.representatives:
                assert is_canonical(pl, rep, group)
                for x in iter_bits(candidate_mask(pl, rep)):
                    assert agrees(pl, rep + (x,), group), (q, group, rep, x)

    pl = get_plane(31)
    rng = random.Random("is_canonical:31")
    for n in (6, 7, 8):
        for _ in range(3):
            arc = oracles.random_arc(pl, rng, max_size=n)
            canon = canonicalize(pl, arc, PGL).canon
            parent = canon[:-1]
            cands = list(iter_bits(candidate_mask(pl, parent)))
            children = [parent + (x,) for x in rng.sample(cands, 8)]
            for pts in (arc, canon, *children):
                assert agrees(pl, pts, PGL), pts


def _children_above(pl, rep):
    from pgarc.arcs import candidate_mask, iter_bits

    return [x for x in iter_bits(candidate_mask(pl, rep)) if x > rep[-1]]


def _check_canonical_children(pl, group, parents):
    """canonical_children against the is_canonical oracle on every child
    above each parent's last point; returns how many of those children a
    nontrivial element of the parent's stabilizer maps below themselves
    (the y < x test of the frames inside the parent that fix it)."""
    stab_rejected = 0
    for rep in parents:
        above = _children_above(pl, rep)
        want = [x for x in above if is_canonical(pl, rep + (x,), group)]
        assert canonical_children(pl, rep, group) == [rep + (x,) for x in want], (pl.q, group, rep)
        elements, _ = stabilizer(pl, rep, group)
        stab_rejected += sum(1 for x in above if min(apply(pl, g, x) for g in elements) < x)
    return stab_rejected


@pytest.mark.parametrize("q, group, threshold", [
    (7, PGL, 9), (9, PGL, 11), (11, PGL, 13), (13, PGL, 7),
    (8, PGAMMAL, 10), (9, PGAMMAL, 11), (16, PGAMMAL, 6),
])
def test_canonical_children_matches_is_canonical(q, group, threshold):
    """The parent-amortized test against one early-exit sweep per child,
    on every child above the last point of every representative."""
    pl = get_plane(q)
    parents = [rep for lv in classification(q, group, threshold) for rep in lv.representatives]
    assert _check_canonical_children(pl, group, parents) > 0


@pytest.mark.parametrize("q, group", [(31, PGL), (32, PGAMMAL)])
def test_canonical_children_matches_is_canonical_at_full_order(q, group):
    """The same at q = 31 and q = 32 on seeded samples of the level-5 and
    level-6 parents, each sample led by a parent with a nontrivial
    stabilizer, so the frames of Stab(R) reject children by y < x."""
    pl = get_plane(q)
    rng = random.Random(f"canonical_children:{q}:{group}")
    parents = []
    for lv in classification(q, group, 6)[1:]:
        reps = lv.representatives
        parents.append(next(r for r in reps if stabilizer(pl, r, group)[1].order > 1))
        parents += rng.sample(reps, 2)
    assert _check_canonical_children(pl, group, parents) > 0


FIVE_POINT_CASES = [(5, PGL), (7, PGL), (8, PGL), (8, PGAMMAL), (9, PGL), (9, PGAMMAL),
                    (16, PGL), (16, PGAMMAL), (25, PGAMMAL), (27, PGAMMAL), (31, PGL), (32, PGL),
                    (32, PGAMMAL)]


@pytest.mark.parametrize("q, group", FIVE_POINT_CASES)
def test_five_point_table_matches_the_per_point_oracle(q, group):
    """c5[P] is the fifth point of the oracle's least image of frame + (P,)
    for every P off the sides of the frame, and None on them.  onto[P]
    lists distinct frames, each carrying frame + (P,) onto
    frame + (c5[P],), as many as that 5-arc's stabilizer has elements.
    The table is built once per plane and group."""
    pl = get_plane(q)
    frame = standard_frame(pl)
    c5, onto = _five_point_table(pl, group)
    assert _five_point_table(pl, group)[0] is c5
    on_sides = pl.secant_mask(frame)
    stab_orders = {}
    for p in range(pl.size):
        if on_sides >> p & 1:
            assert c5[p] is None and onto[p] is None
            continue
        five = frame + (p,)
        least = oracles.sweep_canonicalize(pl, five, group).canon[4]
        assert c5[p] == least, (q, group, p)
        if least not in stab_orders:
            stab_orders[least] = len(stabilizer(pl, frame + (least,), group)[0])
        assert len(set(onto[p])) == len(onto[p]) == stab_orders[least]
        for f, tau in onto[p]:
            quad = [pl.frob_point_perms[f][five[t]] for t in tau]
            g = Collineation(frame_map(pl, quad).matrix, f)
            assert {apply(pl, g, x) for x in five} == set(frame + (least,))


@pytest.mark.parametrize("q, group", FIVE_POINT_CASES)
def test_fifth_point_of_the_least_image_is_the_least_c5(q, group):
    """The lemma behind the guided frames: for seeded random arcs S of 5
    to 9 points, canonicalize(S).canon[4], like the oracle's, is the least
    c5 over the 5-subsets T of S, with c5(T) read from the table at the
    image of T's fifth point under the frame map of the other four."""
    pl = get_plane(q)
    c5, _ = _five_point_table(pl, group)
    rng = random.Random(f"lemma:{q}:{group}")
    sizes = []
    for n in range(5, 10):
        for _ in range(2):
            arc = oracles.random_arc(pl, rng, max_size=n)
            if len(arc) < 5:
                continue
            sizes.append(len(arc))
            least = min(c5[apply(pl, frame_map(pl, t[:4]), t[4])] for t in combinations(arc, 5))
            canon = canonicalize(pl, arc, group).canon
            assert canon == oracles.sweep_canonicalize(pl, arc, group).canon
            assert canon[4] == least, (q, group, arc)
    assert min(sizes) == 5 and max(sizes) >= min(8, q + 1)


@pytest.mark.parametrize("q, group, sample", [
    (13, PGL, None), (16, PGAMMAL, None), (25, PGAMMAL, 25), (27, PGAMMAL, 25), (31, PGL, None),
    (32, PGAMMAL, 25),
])
def test_guided_children_and_forms_match_the_full_sweeps(q, group, sample):
    """canonical_children against the full-sweep oracle
    sweep_canonical_children on every child above three seeded parents:
    a random representative of 5 points, one of 6 with a nontrivial
    stabilizer, and a random canonical child of a random representative
    of 6.  canonicalize against the least of frame_images on every such
    child, or on a seeded sample of them per parent where the Frobenius
    powers make each full sweep slow.  q = 16, 25, 27 and 32 test the
    f > 0 images, scaled from the f = 0 logs, with p = 2, 5, 3 and 2."""
    pl = get_plane(q)
    rng = random.Random(f"guided:{q}:{group}")
    five, six = (lv.representatives for lv in classification(q, group, 6)[1:])
    six = rng.sample(six, len(six))
    fixed = next(r for r in six if stabilizer(pl, r, group)[1].order > 1)
    seven = next(r + (x,) for r in six
                 for x in rng.sample(oracles.sweep_canonical_children(pl, r, _children_above(pl, r), group), 1))
    for parent in (rng.choice(five), fixed, seven):
        above = _children_above(pl, parent)
        want = oracles.sweep_canonical_children(pl, parent, above, group)
        assert canonical_children(pl, parent, group) == [parent + (x,) for x in want], (q, group, parent)
        for x in above if sample is None else rng.sample(above, sample):
            child = parent + (x,)
            form = canonicalize(pl, child, group)
            assert form.canon == min(frame_images(pl, child, group)), (q, group, child)
            assert tuple(sorted(apply(pl, form.witness, p) for p in child)) == form.canon


def test_canonical_children_refuses_what_it_cannot_test():
    """A parent that is not its own least image, with or without the
    frame as its head, has no canonical child, as the oracle agrees.
    Nor has a parent without a candidate above its last point: the
    frame, a complete arc at q = 2 and at q = 3, and a 5-arc through the
    last point n - 1 at q = 7.  The candidates are the function's own,
    so none can come in below the parent, on a secant of it or outside
    the plane."""
    pl = get_plane(11)
    frame = standard_frame(pl)
    c = next(x for x in _children_above(pl, frame) if not is_canonical(pl, frame + (x,), PGL))
    for parent in (frame + (c,), (frame[0], *frame[2:], c)):
        above = _children_above(pl, parent)
        assert not any(is_canonical(pl, parent + (x,), PGL) for x in above)
        assert canonical_children(pl, parent, PGL) == []
    for q in (2, 3):
        pl = get_plane(q)
        for group in (PGL, PGAMMAL):
            assert canonical_children(pl, standard_frame(pl), group) == []
    pl = get_plane(7)
    arc = [pl.size - 1]
    for x in range(pl.size - 1):
        if len(arc) < 5 and pl.collinear_triple(arc + [x]) is None:
            arc.append(x)
    parent = tuple(sorted(arc))
    assert len(parent) == 5 and parent[-1] == pl.size - 1
    assert canonical_children(pl, parent, PGL) == []


def conic(plane):
    """The conic of the points (1, t, t^2) and (0, 0, 1)."""
    mul = plane.field.mul
    return sorted(plane.point_id(pt) for pt in [(0, 0, 1)] + [(1, t, mul(t, t)) for t in range(plane.q)])


def _check_stabilizer(pl, pts, group):
    elements, structure = stabilizer(pl, pts, group)
    ref_elements, ref_structure = oracles.sweep_stabilizer(pl, pts, group)
    assert len(elements) == len(set(elements))
    assert set(elements) == set(ref_elements), (pl.q, group, pts)
    assert structure == ref_structure
    return structure.order


def test_log_domain_sweep_matches_ordered_quadruple_sweep():
    """Differential test against the frame-matrix-per-quadruple sweep:
    same canonical form, a witness onto it, same stabilizer elements on
    arcs of 4 to 9 points, on arcs plus one point on a secant, and on
    conics, whose stabilizers PGL(2,q) (times the field automorphisms
    under PGammaL) are the largest of any arc here."""
    cases = [(5, PGL), (7, PGL), (8, PGL), (8, PGAMMAL), (9, PGL), (9, PGAMMAL),
             (31, PGL), (32, PGL), (32, PGAMMAL)]
    for q, group in cases:
        pl = get_plane(q)
        rng = random.Random(f"sweep:{q}:{group}")
        for n in range(4, 10):
            arc = oracles.random_arc(pl, rng, max_size=n)
            form = canonicalize(pl, arc, group)
            assert form.canon == oracles.sweep_canonicalize(pl, arc, group).canon, (q, group, arc)
            assert tuple(sorted(apply(pl, form.witness, p) for p in arc)) == form.canon
            for pts in (arc, arc + [on_a_secant(pl, arc)]):
                _check_stabilizer(pl, pts, group)
    for q, group, order in ((7, PGL, 336), (8, PGAMMAL, 1512), (9, PGAMMAL, 1440), (11, PGL, 1320)):
        assert _check_stabilizer(get_plane(q), conic(get_plane(q)), group) == order


@pytest.mark.parametrize("q, group", [
    (4, PGAMMAL), (7, PGL), (8, PGAMMAL), (9, PGAMMAL), (13, PGL), (16, PGAMMAL), (25, PGAMMAL),
    (27, PGAMMAL), (32, PGAMMAL),
])
def test_every_frame_records_follow_the_logged_sweep(q, group):
    """_frames over _every_frame on seeded arcs of 4 to 8 points: one
    record per group given, with its Frobenius power, triangle, p^f and
    Ds, in the order given; and against oracles.logged_frame_sweep, the
    same groups in the same order, compared as Frobenius power,
    triangle and D as conjugate ids, and the (r1, r2) offsets of each D
    as _tails makes them, one frame of _tails per D.  frame_images
    yields in this order, and _five_point_table lists its onto frames
    in it.  The oracle evaluates each Frobenius power from scratch, so
    the groups with h > 1 (p = 2, 3 and 5) test the offsets scaled by
    p^f."""
    pl = get_plane(q)
    rng = random.Random(f"every-frame:{q}:{group}")
    for n in range(4, 9):
        arc = oracles.random_arc(pl, rng, max_size=n)
        groups = _every_frame(pl, len(arc), group)
        records = list(_frames(pl, arc, groups))
        assert [(f, tri, s, ds) for f, tri, _, s, ds in records] == [
            (f, tri, pl.field.p**f, ds) for f, tri, ds in groups], (q, group, arc)
        logged = list(oracles.logged_frame_sweep(pl, arc, group))
        assert len(records) == len(logged) == (pl.field.h if group == PGAMMAL else 1) * 6 * comb(len(arc), 3)
        tails = _tails(pl, arc, groups)
        for (f, tri, ds), (lf, corners, ids, r1, r2, odd, _, _) in zip(groups, logged):
            perm = pl.frob_point_perms[f]
            assert (f, tuple(perm[arc[v]] for v in tri)) == (lf, corners), (q, group, arc)
            assert [perm[arc[d]] for d in ds] == ids and odd == [], (q, group, arc, tri)
            for d in ds:
                tf, ttri, td, offs, _ = next(tails)
                assert (tf, ttri, td) == (f, tri, d) and list(offs) == ds
                assert [offs[x] for x in ds] == list(zip(r1, r2)), (q, group, arc, tri)
        assert next(tails, None) is None


@pytest.mark.parametrize("q, group", [
    (7, PGL), (8, PGAMMAL), (25, PGAMMAL), (27, PGAMMAL), (31, PGL), (32, PGAMMAL),
])
def test_least_fives_offsets_only_its_ds(q, group):
    """The quads of _least_fives on seeded arcs of 5 to 9 points: one
    per triangle (c, b, a) of positions a < b < c below the last, at f =
    0, in combinations order, each carrying the offsets of exactly its
    Ds, the positions after c, equal to those of
    oracles.logged_frame_sweep at the same D."""
    pl = get_plane(q)
    rng = random.Random(f"least-fives:{q}:{group}")
    for n in range(5, 10):
        arc = oracles.random_arc(pl, rng, max_size=n)
        k = len(arc)
        quads = _least_fives(pl, arc, group, _side_logs(pl, arc, combinations(range(k), 2)))[2]
        assert [(f, tri, list(ds)) for f, tri, _, ds in quads] == [
            (0, (c, b, a), list(range(c + 1, k))) for a, b, c in combinations(range(k - 1), 3)]
        logged = {corners: dict(zip(ids, zip(r1, r2)))
                  for f, corners, ids, r1, r2, *_ in oracles.logged_frame_sweep(pl, arc, group) if f == 0}
        for _, (c, b, a), offs, ds in quads:
            assert list(offs) == list(ds), (q, group, arc)
            oracle = logged[arc[c], arc[b], arc[a]]
            assert [offs[d] for d in ds] == [oracle[arc[d]] for d in ds], (q, group, arc)


def prime_subplane(plane):
    """The points of PG(2,p) inside PG(2,p^h): those whose normalized
    coordinates lie in the prime field, the codes that x -> x^p fixes."""
    fixed = plane.field.frob_tables[1]
    return [i for i, pt in enumerate(plane.points) if all(fixed[c] == c for c in pt)]


def symmetric_non_arc(plane, rng):
    """The frame, its three diagonal points and the orbit of a random point
    under a random collineation g that permutes the frame: g fixes the
    set, and the frame's sides put collinear triples in it."""
    frame = standard_frame(plane)
    g = frame_map(plane, rng.sample(frame, 4))
    pts = set(frame) | {plane.point_id(t) for t in ((0, 1, 1), (1, 0, 1), (1, 1, 0))}
    p = rng.randrange(plane.size)
    while p not in pts:
        pts.add(p)
        p = apply(plane, g, p)
    return sorted(pts)


def gf32_sweep_cases():
    """(plane, ids) of the 12 point sets of the GF(32) modulus sweep: the
    two published 14-arcs read over each of the 6 moduli, in the plane
    of that modulus."""
    from pgarc.certificates import load_fixture, points_from_exponents
    from pgarc.gf import build_field, primitive_moduli
    from pgarc.plane import build_plane

    out = []
    for modulus, _ in primitive_moduli(2, 5):
        pl = build_plane(build_field(2, 5, list(modulus)))
        for name in ("arc14_q32_z4", "arc14_q32_z5"):
            exponents = [tuple(e) for e in load_fixture(name).meta["generator_exponents"]]
            out.append((pl, sorted(pl.point_id(t) for t in points_from_exponents(pl.field, exponents))))
    return out


def gf32_sweep_sets():
    """(plane, ids) of the 10 point sets of the GF(32) modulus sweep that
    are not arcs: the two published 14-arcs under the moduli that fail."""
    return [(pl, ids) for pl, ids in gf32_sweep_cases() if pl.collinear_triple(ids) is not None]


def stabilizer_digest(cases) -> str:
    """sha256 over (plane, ids, group) cases of the sorted (frob, matrix)
    of each stabilizer's elements, each followed by its GroupStructure."""
    digest = hashlib.sha256()
    for pl, ids, group in cases:
        elements, structure = stabilizer(pl, ids, group)
        digest.update(repr((sorted((g.frob, g.matrix) for g in elements), structure)).encode())
    return digest.hexdigest()


def test_certify_stabilizers_are_pinned():
    """The stabilizers that the certify workload computes, pinned: the
    three fixtures, each in its certificate's plane and group, and the
    12 sets of the GF(32) sweep under PGammaL, the two arcs at the
    passing modulus (the first) before the 10 non-arcs.  The digests
    were recorded by this code, not taken from a publication."""
    from pgarc.certificates import certificate_plane, load_fixture

    fixtures = [(*certificate_plane(cert), cert.group) for cert in
                map(load_fixture, ("arc14_q31_s3", "arc14_q32_z4", "arc14_q32_z5"))]
    assert stabilizer_digest(fixtures) == "cdc39d7811838942f7ee7e8d5f8ebb2a381d66b88f326bfa94e206319e852df7"
    sweep = gf32_sweep_cases()
    assert [pl.collinear_triple(ids) is None for pl, ids in sweep] == [True] * 2 + [False] * 10
    assert stabilizer_digest([(pl, ids, PGAMMAL) for pl, ids in sweep]) == (
        "f07b06bfdc34820e5feebd8182dc9370dd6e87669b618a9779167546f6c995da")


def test_non_arc_stabilizers_match_the_sweep():
    """Differential test of the point-invariant candidates of sets with a
    collinear triple against the sweep of every ordered 4-subset: same
    elements and structure on subplanes, whose points all share one
    invariant, on seeded random sets with collinear triples, symmetric
    or not, on a line plus two points, and on two non-arcs of the GF(32)
    modulus sweep; a set with no frame raises in both."""
    for q, group, order in ((4, PGL, 168), (4, PGAMMAL, 336), (8, PGL, 168), (8, PGAMMAL, 504),
                            (9, PGL, 5616), (9, PGAMMAL, 11232)):
        pl = get_plane(q)
        assert _check_stabilizer(pl, prime_subplane(pl), group) == order, (q, group)
    nontrivial = 0
    for q, group in ((5, PGL), (7, PGL), (8, PGL), (8, PGAMMAL), (9, PGL), (9, PGAMMAL),
                     (16, PGL), (16, PGAMMAL)):
        pl = get_plane(q)
        rng = random.Random(f"non-arc:{q}:{group}")
        sets = [symmetric_non_arc(pl, rng) for _ in range(3)]
        for n in (5, 7):
            arc = oracles.random_arc(pl, rng, max_size=n)
            sets.append(sorted(set(arc) | {on_a_secant(pl, arc), rng.randrange(pl.size)}))
        for pts in sets:
            assert pl.collinear_triple(pts) is not None
            nontrivial += _check_stabilizer(pl, pts, group) > 1
        line = pl.points_on_line[rng.randrange(pl.size)]
        off = [x for x in range(pl.size) if x not in line]
        _check_stabilizer(pl, sorted([*line, *rng.sample(off, 2)]), group)
    assert nontrivial >= 12
    for pl, ids in gf32_sweep_sets()[:2]:
        assert _check_stabilizer(pl, ids, PGAMMAL) == 1
    pl = get_plane(7)
    no_frame = sorted([*pl.points_on_line[0], pl.size - 1])
    for stab in (stabilizer, oracles.sweep_stabilizer):
        with pytest.raises(DegenerateSetError, match="general position"):
            stab(pl, no_frame, PGL)


def test_large_stabilizer_structures():
    """Element orders of two stabilizers above the sizes the sweep oracle
    checks: the conic of PG(2,31) under PGL, which is PGL(2,31), and
    PG(2,3) in PG(2,27) under PGammaL.  The names were computed with
    orders by matrix powers (oracles.element_order)."""
    pl = get_plane(31)
    _, structure = stabilizer(pl, conic(pl), PGL)
    assert structure.name == ("other(order=29760, element_orders=1^1,2^961,3^992,4^930,5^1984,6^992,"
                              "8^1860,10^1984,15^3968,16^3720,30^3968,31^960,32^7440)")
    pl = get_plane(27)
    _, structure = stabilizer(pl, prime_subplane(pl), PGAMMAL)
    assert structure.name == ("other(order=16848, element_orders=1^1,2^117,3^2186,4^702,6^3042,"
                              "8^1404,12^1404,13^1728,24^2808,39^3456)")


def test_gf32_non_arcs_need_few_candidate_frames():
    """The 10 non-arcs of the GF(32) sweep have 1,960 candidate frames
    under PGammaL in all, where every ordered frame of each, for each
    Frobenius power, would be 5 * 24 * C(14,4) = 120,120.  Frames are
    counted, not timed, so a regression shows on any machine."""
    sets = gf32_sweep_sets()
    assert [len(ids) for _, ids in sets] == [14] * 10
    every = sum(5 * 24 * comb(len(ids), 4) for _, ids in sets)
    candidates = sum(len(ds) for pl, ids in sets for _, _, ds in _invariant_frames(pl, ids, PGAMMAL))
    assert (candidates, every) == (1960, 1_201_200)
    assert 500 * candidates < every


def test_stabilizer_rejects_bad_ids():
    """Ids outside [0, n) and repeated ids are refused at every size,
    the 4-point sets included."""
    pl = get_plane(7)
    for pts in ([0, 1, 8, -1], [0, 1, 8, 57], [0, 1, 8, 116], [0, 1, 8, 16, 60], [0, 1, 2, 8, 9, -3]):
        with pytest.raises(PointRangeError):
            stabilizer(pl, pts, PGL)
    for pts in ([0, 1, 8, 16, 16], [0, 1, 8, 8]):
        with pytest.raises(DuplicatePointsError):
            stabilizer(pl, pts, PGL)


def test_point_maps_reject_bad_ids():
    """apply read id -1 as point n - 1 and apply_matrix raised a bare
    IndexError at id n: both raise PointRangeError, with and without a
    Frobenius part."""
    pl = get_plane(7)
    g = Collineation((0, 1, 0, 0, 0, 1, 1, 0, 0), 0)
    for x in (-1, 57, 60):
        with pytest.raises(PointRangeError):
            apply(pl, g, x)
        with pytest.raises(PointRangeError):
            apply_matrix(pl, g.matrix, x)
    pl8 = get_plane(8)
    for x in (-1, pl8.size):
        with pytest.raises(PointRangeError):
            apply(pl8, Collineation(IDENTITY.matrix, 1), x)


def test_canonical_forms_reject_repeated_ids():
    """A repeated id is an error, not a smaller set: (0, 1, 8, 16, 16) at
    q = 7 would otherwise pass for the frame, and canonical_children
    would test its children."""
    pl = get_plane(7)
    assert standard_frame(pl) == (0, 1, 8, 16)
    for check in (canonicalize, frame_images, canonical_children):
        for pts in ([0, 1, 8, 16, 16], [0, 1, 8, 16, 0], [25, 0, 1, 8, 16, 25]):
            with pytest.raises(DuplicatePointsError):
                check(pl, pts)


def test_frame_stabilizer_is_s4():
    """Brute-force oracle: the 24 frame permutations give 24 distinct
    collineations fixing the frame; stabilizer must return exactly them."""
    pl = get_plane(7)
    frame = standard_frame(pl)
    fixers = set()
    for perm in permutations(frame):
        g = frame_map(pl, perm)
        assert {apply(pl, g, p) for p in frame} == set(frame)
        fixers.add(g)
    assert len(fixers) == 24
    elements, structure = stabilizer(pl, frame, PGL)
    assert set(elements) == fixers
    assert structure.order == 24
    assert structure.name.startswith("other(order=24")


def test_stabilizer_closure_lagrange_small():
    for q, group in [(5, PGL), (8, PGAMMAL)]:
        pl = get_plane(q)
        rng = random.Random(q * 3)
        import oracles

        arc = oracles.random_arc(pl, rng)
        elements, structure = stabilizer(pl, arc, group)
        elems = set(elements)
        assert len(elems) == structure.order
        for a in elems:
            assert inverse(pl.field, a) in elems
        assert group_order(q, group) % structure.order == 0
        # a closure equal to elems: elems is closed under compose
        closure = group_closure(pl.field, generating_subset(pl.field, elements))
        assert closure == elems


def test_generating_subset_matches_full_recomposition():
    """The frontier closure picks the same generators as recomposing the
    whole span each round, on the stabilizers of PG(2,2) in PG(2,4) under
    PGammaL (order 336) and of PG(2,3) in PG(2,9) under PGL (order 5,616)."""
    for q, group, order in ((4, PGAMMAL, 336), (9, PGL, 5616)):
        pl = get_plane(q)
        elements, structure = stabilizer(pl, prime_subplane(pl), group)
        assert structure.order == order
        gens = generating_subset(pl.field, elements)
        assert gens == oracles.greedy_generating_subset(pl.field, elements)
        assert group_closure(pl.field, gens) == set(elements)


def test_structure_names():
    from pgarc.collineation import classify_structure

    assert classify_structure((1,)).name == "trivial"
    assert classify_structure((1, 2)).name == "Z2"
    assert classify_structure((1, 3, 3)).name == "Z3"
    assert classify_structure((1, 2, 4, 4)).name == "Z4"
    assert classify_structure((1, 2, 2, 2)).name == "Z2xZ2"
    assert classify_structure((1, 5, 5, 5, 5)).name == "Z5"
    assert classify_structure((1, 2, 2, 3, 3, 6)).name == "Z6"
    assert classify_structure((1, 2, 2, 2, 3, 3)).name == "S3"


def test_element_order():
    pl = get_plane(4)
    f = pl.field
    g = collineation(f, (0, 1, 0, 0, 0, 1, 1, 0, 0))  # 3-cycle of coordinates
    assert oracles.element_order(f, g) == 3
    assert oracles.element_order(f, IDENTITY) == 1
