"""The groups PGL(3,q) and PGammaL(3,q) acting on PG(2,q).

A collineation is a normalized invertible 3x3 matrix over GF(q) together
with a Frobenius exponent f; it acts on a point by applying x -> x^(p^f)
coordinatewise, then the matrix, then renormalizing.  PGL is the f = 0
subgroup and equals the full group when q is prime.

Canonical forms and stabilizers both ride on one fact: PGL(3,q) is sharply
transitive on ordered frames (quadruples in general position), so the
group elements mapping a given point set onto anything containing the
standard frame are exactly the frame maps of its ordered 4-subsets, times
Frobenius powers.  That yields an exact, dependency-free canonizer and a
complete setwise stabilizer without any generic group machinery.

frame_images lists those images of an arc, canonicalize takes the least
of them, canonical_children keeps the children of an arc above its last
point that are their own least image, and stabilizer keeps the maps onto
one image of the set.  All of them image frames through one kernel,
_frames, which takes frames grouped as (f, T, Ds), one group per
Frobenius power f and ordered triangle T, as they are made: every
ordered frame (_every_frame), or the guided or candidate frames below.
It evaluates the sides of T at every point of the set once for all
powers, and the frame map of (T, D) divides those values by their values
at D.  It hands T's sides and p^f to the consumer, which images only the
points it reads: _tails every point off the sides, _least_fives the Ds
of its quads, stabilizer up to the first miss.  The lines of plane.lines
are normalized and sigma = x -> x^(p^f) fixes 1, so sigma carries the
side through a and b onto the side through sigma(a) and sigma(b), whose
log at sigma(x) is p^f times the side's log at x, mod q - 1.  In discrete
logarithms that is two subtractions and two table lookups per image
point, with no matrix and no normalization.  One builder, _frame_element,
makes the matrix of a map that is returned; frame_map checks a quadruple
from outside first.  plane._normalized normalizes matrices as it does
points and lines.

Canonical forms image only the frames that can reach the least image,
chosen by a five-point invariant.  For a 5-arc T let c5(T) =
canonicalize(T)[4].  A table over the points P holds c5(frame + (P,))
and the frames that carry frame + (P,) onto frame + (c5,)
(_five_point_table), so c5 of any 5-subset of an arc is the entry at
the image of its fifth point under one frame map of the other four.

Lemma: for an arc S of at least 5 points, canonicalize(S)[4] is the
least c5(T) over the 5-subsets T of S.  Proof sketch: the other points
of an arc through the frame lie on no side of the frame, so above
2q + 2.  The least image g(S) holds the frame, and its fifth point m is
its least point past the frame, so T = g^-1(frame + (m,)) is a 5-subset
with c5(T) <= m.  Conversely h(T) = frame + (c5(T),) gives an image
h(S) that holds the frame and c5(T), so m <= c5(T).  Hence a frame map that
reaches the least image carries a 5-subset with the least c5 onto
frame + (m,), and the table lists exactly those maps for it (the
guided frames): one per element of that 5-subset's stabilizer.

Stabilizers image candidate frames too.  If a set C of maps holds
g1 o Stab(S) for its first member g1, then Stab(S) is g1^-1 composed
with the g in C that have g(S) = g1(S).  For an arc of at least 5
points C is its guided frames.  For any other set C comes from a point
invariant: inv(x) is the sorted sizes of the lines through x that hold
at least 3 points of S.  A collineation carries the lines of S onto
the lines of its image with as many points, so every s in Stab(S)
keeps inv and general position.  C is every Frobenius power times the
ordered 4-subsets in general position whose invariants are those of a
fixed 4-subset Q0, position by position (_invariant_frames), and Q0 is
taken among the rarest invariants, so few frames share them.  An
element's order is read off its permutation of S and Frobenius power:
they determine it, as only the identity of PGL fixes a frame (stabilizer).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import combinations, permutations, product
from math import gcd, lcm

from .arcs import candidate_mask, iter_bits
from .plane import Plane, PointRangeError, _normalized, _sorted_distinct

PGL = "pgl"
PGAMMAL = "pgammal"
GROUPS = (PGL, PGAMMAL)


class DegenerateQuadrupleError(ValueError):
    """Four points containing a collinear triple cannot form a frame."""


class DegenerateSetError(ValueError):
    """Point set without the structure the operation requires."""


class EmptySetError(ValueError):
    """Canonical form of the empty set is undefined."""


@dataclass(frozen=True)
class Collineation:
    """Normalized 3x3 matrix (row-major 9-tuple of codes) + Frobenius exponent."""

    matrix: tuple[int, int, int, int, int, int, int, int, int]
    frob: int = 0


@dataclass(frozen=True)
class PointSetCanonicalForm:
    canon: tuple[int, ...]
    witness: Collineation


@dataclass(frozen=True)
class GroupStructure:
    order: int
    name: str
    element_orders: tuple[int, ...]


IDENTITY = Collineation((1, 0, 0, 0, 1, 0, 0, 0, 1), 0)


def _check_group(group: str):
    if group not in GROUPS:
        raise ValueError(f"group must be one of {GROUPS}, got {group!r}")


def _adjugate(field, m):
    """Adjugate of a 3x3 matrix; projectively this is the inverse."""
    mul = field.mul
    sub = field.sub
    a, b, c, d, e, f, g, h, i = m
    return (
        sub(mul(e, i), mul(f, h)),
        sub(mul(c, h), mul(b, i)),
        sub(mul(b, f), mul(c, e)),
        sub(mul(f, g), mul(d, i)),
        sub(mul(a, i), mul(c, g)),
        sub(mul(c, d), mul(a, f)),
        sub(mul(d, h), mul(e, g)),
        sub(mul(b, g), mul(a, h)),
        sub(mul(a, e), mul(b, d)),
    )


def _matmul(field, m1, m2):
    mul = field.mul
    add = field.add
    out = []
    for r in range(3):
        r3 = 3 * r
        a, b, c = m1[r3], m1[r3 + 1], m1[r3 + 2]
        for col in range(3):
            out.append(
                add(add(mul(a, m2[col]), mul(b, m2[3 + col])), mul(c, m2[6 + col]))
            )
    return tuple(out)


def _frob_matrix(field, m, i):
    if i == 0:
        return tuple(m)
    ft = field.frob_tables[i]
    return tuple(ft[e] for e in m)


def compose(field, g1: Collineation, g2: Collineation) -> Collineation:
    """g1 after g2: (M1, f1) o (M2, f2) = (M1 . phi^f1(M2), f1 + f2 mod h)."""
    m = _matmul(field, g1.matrix, _frob_matrix(field, g2.matrix, g1.frob))
    return Collineation(_normalized(field, m), (g1.frob + g2.frob) % field.h)


def inverse(field, g: Collineation) -> Collineation:
    f = (-g.frob) % field.h
    m = _frob_matrix(field, _adjugate(field, g.matrix), f)
    return Collineation(_normalized(field, m), f)


def apply_matrix(plane: Plane, m, point: int) -> int:
    """Image of a point index under a matrix (no Frobenius part).  A
    singular matrix that sends the point to the zero triple raises, and
    an id outside [0, n) PointRangeError."""
    f = plane.field
    q = f.q
    mt = f.mul_flat
    at = f.add_flat
    if not 0 <= point < plane.size:
        raise PointRangeError(f"point {point} is not an id in [0, {plane.size})")
    x0, x1, x2 = plane.points[point]
    return plane.point_id((
        at[at[mt[m[0] * q + x0] * q + mt[m[1] * q + x1]] * q + mt[m[2] * q + x2]],
        at[at[mt[m[3] * q + x0] * q + mt[m[4] * q + x1]] * q + mt[m[5] * q + x2]],
        at[at[mt[m[6] * q + x0] * q + mt[m[7] * q + x1]] * q + mt[m[8] * q + x2]],
    ))


def apply(plane: Plane, g: Collineation, point: int) -> int:
    """Frobenius, then matrix, then normalization.  An id outside
    [0, n) is left to apply_matrix, which raises PointRangeError."""
    if g.frob and 0 <= point < plane.size:
        point = plane.frob_point_perms[g.frob][point]
    return apply_matrix(plane, g.matrix, point)


def standard_frame(plane: Plane) -> tuple[int, int, int, int]:
    """Indices of (0,0,1), (0,1,0), (1,0,0), (1,1,1)."""
    q = plane.q
    return (0, 1, q + 1, 2 * q + 2)


def _dot(field, u, x) -> int:
    mul = field.mul
    return field.add(field.add(mul(u[0], x[0]), mul(u[1], x[1])), mul(u[2], x[2]))


def frame_map(plane: Plane, quad) -> Collineation:
    """The unique element of PGL(3,q) carrying the ordered quadruple to the
    ordered standard frame (sharp transitivity of PGL(3,q) on frames).
    Four points that are not distinct, or hold a collinear triple, raise
    DegenerateQuadrupleError; the matrix is _frame_element's."""
    if len(set(quad)) != 4:
        raise DegenerateQuadrupleError(f"need 4 distinct points, got {quad}")
    if plane.collinear_triple(quad) is not None:
        raise DegenerateQuadrupleError(f"quadruple {quad} has 3 collinear points")
    return _frame_element(plane, quad, 0, range(4))


def _frame_element(plane: Plane, pts, f: int, quad) -> Collineation:
    """The group element of a frame (f, quad) of pts: Frobenius power f,
    then the frame map of the conjugates of the points at positions quad,
    which must be in general position (frame_map checks outside input).
    Row i of its matrix is the side of the triangle opposite the point
    sent to the i-th unit vector, scaled to take the value 1 at the
    fourth point."""
    perm, field, rows = plane.frob_point_perms[f], plane.field, plane.line_rows
    p1, p2, p3, d = (perm[pts[i]] for i in quad)
    matrix = []
    for a, b in ((p2, p1), (p3, p1), (p3, p2)):
        side = plane.lines[rows[a][b]]
        s = field.inv_list[_dot(field, side, plane.points[d])]
        matrix.extend(field.mul(s, c) for c in side)
    return Collineation(_normalized(field, matrix), f)


def _side_logs(plane: Plane, pts, pairs, known=None) -> dict:
    """side[a, b] for each pair of positions a < b in pairs: the logs of
    the line through pts[a] and pts[b] at every point of pts, None for a
    zero.  The table serves every Frobenius power f: at the conjugates
    the logs are p^f times these, mod q - 1 (module docstring).  The
    lists of known, a side table already at hand, are kept."""
    field = plane.field
    q, log, mt, at = field.q, field.log, field.mul_flat, field.add_flat
    coords = [plane.points[i] for i in pts]
    side = dict(known) if known else {}
    for a, b in pairs:
        if (a, b) not in side:
            l0, l1, l2 = plane.lines[plane.line_rows[pts[a]][pts[b]]]
            side[a, b] = [log[at[at[mt[l0 * q + x0] * q + mt[l1 * q + x1]] * q + mt[l2 * q + x2]]]
                          for x0, x1, x2 in coords]
    return side


def _powers(plane: Plane, group: str) -> range:
    """The Frobenius powers of the elements of group."""
    return range(plane.field.h if group == PGAMMAL else 1)


def _every_frame(plane: Plane, k: int, group: str) -> list:
    """Every ordered frame of an arc of k points under group, as groups
    (f, (V2, V1, V0), Ds) of positions: per Frobenius power and
    triangle, its 6 orderings, each with every other position as D."""
    return [(f, (t[l], t[j], t[i]), [d for d in range(k) if d not in t]) for f in _powers(plane, group)
            for t in combinations(range(k), 3) for i, j, l in permutations(range(3))]


def _frames(plane: Plane, pts, groups, sides=None):
    """The kernel of every image this module takes: the frame maps of a
    point set in log coordinates.  For a triangle of positions V0, V1,
    V2 let w_i(x) be the value at the conjugate of pts[x] of the side
    opposite V_i (a row of adj[V0|V1|V2], up to scalars); the frame map
    of (V2, V1, V0, D) sends x to (w0(x)/w0(D), w1(x)/w1(D),
    w2(x)/w2(D)).  groups lists frames of pts as (f, (V2, V1, V0), Ds),
    positions: each D in Ds after Frobenius power f (_every_frame lists
    all of them).  Yields (f, (V2, V1, V0), w, p^f, Ds) per group, in
    the order given: w = (w0, w1, w2) holds the sides' logs at f = 0
    (_side_logs), None for a zero, and a position x off the sides has
    offsets r_i(x) = p^f (log w_i - log w0) mod q-1 at power f and lands
    at plane.affine_row[r1(x) - r1(D)] + exp[r2(x) - r2(D)].  sides, a
    table at hand, is read before any side is evaluated.
    """
    p = plane.field.p
    opposite = [((v1, v2) if v1 < v2 else (v2, v1), (v0, v2) if v0 < v2 else (v2, v0),
                 (v0, v1) if v0 < v1 else (v1, v0)) for _, (v2, v1, v0), _ in groups]
    side = _side_logs(plane, pts, {pair for pairs in opposite for pair in pairs}, sides)
    for (f, tri, ds), (p0, p1, p2) in zip(groups, opposite):
        yield f, tri, (side[p0], side[p1], side[p2]), p**f, ds


def _tails(plane: Plane, pts, groups, sides=None):
    """(f, (V2, V1, V0), D, offs, tail) for each frame of _frames(plane,
    pts, groups, sides): offs the offsets of every position off the
    sides of the triangle, made once per group, and tail the sorted
    image of those positions."""
    row, exp, m, k = plane.affine_row, plane.field.exp, plane.q - 1, len(pts)
    for f, tri, (w0, w1, w2), s, ds in _frames(plane, pts, groups, sides):
        offs = {x: ((w1[x] - w0[x]) * s % m, (w2[x] - w0[x]) * s % m) for x in range(k)
                if w0[x] is not None and w1[x] is not None and w2[x] is not None}
        for d in ds:
            d1, d2 = offs[d]
            yield f, tri, d, offs, sorted([row[a - d1] + exp[b - d2] for a, b in offs.values()])


def _arc_points(plane: Plane, points, group: str) -> list[int]:
    """Sorted points of an arc of at least 4 points, else a clear error;
    a repeated id raises DuplicatePointsError."""
    _check_group(group)
    pts = _sorted_distinct(points, plane.size)
    if not pts:
        raise EmptySetError("cannot canonicalize the empty set")
    if len(pts) < 4:
        raise DegenerateSetError(
            f"{len(pts)} points hold no frame: canonical forms need an arc of at least 4 points"
        )
    bad = plane.collinear_triple(pts)
    if bad is not None:
        raise DegenerateSetError(f"not an arc: points {bad} are collinear")
    return pts


def frame_images(plane: Plane, arc, group: str = PGL):
    """Every sorted image of an arc that contains the standard frame.

    An image g(A) holds the frame exactly when g carries some ordered
    4-subset of A onto it, and PGL(3,q) is sharply transitive on ordered
    frames: so these are the frame maps of A's ordered 4-subsets, for
    every Frobenius power, one image per (f, ordered 4-subset), repeats
    included.  The least of them is canonicalize(A).canon.  The arc is
    checked before the first image is made.
    """
    pts = _arc_points(plane, arc, group)
    head = standard_frame(plane)[:3]
    frames = _every_frame(plane, len(pts), group)
    return (head + tuple(tail) for _, _, _, _, tail in _tails(plane, pts, frames))


_FIVE_POINT_TABLES = weakref.WeakKeyDictionary()  # plane -> {group: (c5, onto)}


def _five_point_table(plane: Plane, group: str):
    """(c5, onto) for the points P off the sides of the standard frame:
    c5[P] = canonicalize(frame + (P,)).canon[4], and onto[P] lists every
    frame (f, (t0, t1, t2, t3)) of a map g with g(frame + (P,)) =
    frame + (c5[P],) as sets: g carries the points at positions t0..t3
    of frame + (P,) onto the standard frame, after Frobenius power f.

    Built on first use, once per plane and group, by orbit peeling: a P
    without an entry, in increasing order, is the least point of its
    class, and one sweep of the frames g of A = frame + (P,) reaches
    every other point y of the class.  g carries the triangle and D of
    its frame onto the frame, and the fifth position t = 10 - sum(tri)
    - D onto y, so its tail is (2q + 2, y) and g(A) = frame + (y,); g
    inverse carries frame + (y,) onto A, so it joins onto[y].  The
    tables are a function of the plane and group alone, kept as tuples
    while the plane lives.
    """
    tables = _FIVE_POINT_TABLES.setdefault(plane, {})
    if group not in tables:
        frame = standard_frame(plane)
        on_sides = plane.secant_mask(frame)
        h = plane.field.h
        frames = _every_frame(plane, 5, group)
        # g carries position order[i] of frame + (p,) to the i-th point of frame + (y,): label order^-1
        labels = [(-f % h, tuple(sorted(range(5), key=(*tri, d, 10 - sum(tri) - d).__getitem__)[:4]))
                  for f, tri, ds in frames for d in ds]
        c5 = [None] * plane.size
        onto: list = [None] * plane.size
        for p in range(plane.size):
            if c5[p] is not None or on_sides >> p & 1:
                continue
            for (*_, (_, y)), label in zip(_tails(plane, frame + (p,), frames), labels):
                if c5[y] is None:
                    c5[y], onto[y] = p, []
                onto[y].append(label)
        tables[group] = tuple(c5), tuple(o and tuple(o) for o in onto)
    return tables[group]


def _onto(labels, five) -> list:
    """The frames of a 5-subset, as positions, that reach frame + (c5,),
    each a group of one D (_frames): five lists its positions in the
    order that a frame map carries onto frame + (y,), and labels is
    onto[y] of _five_point_table."""
    return [(f, (five[a], five[b], five[c]), (five[d],)) for f, (a, b, c, d) in labels]


def _least_fives(plane: Plane, pts, group: str, sides):
    """(least, guided, quads) for an arc pts and its side table at
    hand: quads one frame map (c, b, a, d) per 4-subset at f = 0,
    positions a < b < c < d, as (0, (c, b, a), offs, range(c + 1,
    len(pts))), offs the offsets at those Ds alone (_frames), least the
    least c5 over the 5-subsets that they find (plane.size if there is
    none), and guided the guided frames, those that carry a 5-subset
    with that c5 onto frame + (c5,)."""
    groups = [(0, (c, b, a), range(c + 1, len(pts))) for a, b, c in combinations(range(len(pts) - 1), 3)]
    m = plane.q - 1  # an arc has no zero off the triangle, and p^f = 1 at f = 0
    quads = [(f, tri, {d: ((w1[d] - w0[d]) % m, (w2[d] - w0[d]) % m) for d in ds}, ds)
             for f, tri, (w0, w1, w2), _, ds in _frames(plane, pts, groups, sides)]
    c5, onto = _five_point_table(plane, group)
    row, exp = plane.affine_row, plane.field.exp
    least, reached = plane.size, []
    for _, tri, offs, ds in quads:
        for i, d in enumerate(ds):
            d1, d2 = offs[d]
            for e in ds[i + 1:]:
                e1, e2 = offs[e]
                y = row[e1 - d1] + exp[e2 - d2]
                if c5[y] <= least:
                    if c5[y] < least:
                        least, reached = c5[y], []
                    reached.append((y, (*tri, d, e)))
    return least, [g for y, five in reached for g in _onto(onto[y], five)], quads


def canonicalize(plane: Plane, points, group: str = PGL) -> PointSetCanonicalForm:
    """Least image of an arc under the configured group: the least of its
    frame_images, with the frame map that makes it as witness.

    That is the least image over the whole group: any image is an arc,
    and an arc whose sorted indices are minimal must contain the standard
    frame (greedy argument on the point ordering).  Only the guided
    frames are imaged (module docstring): by the lemma every frame map
    that reaches the least image carries a 5-subset with the least c5
    onto frame + (c5,), and those are the frames that _five_point_table
    lists for it.  A 4-arc's least image is the frame itself.  The empty
    set raises EmptySetError; fewer than 4 points, or a collinear
    triple, DegenerateSetError.
    """
    pts = _arc_points(plane, points, group)
    k = len(pts)
    sides = _side_logs(plane, pts, combinations(range(k), 2))
    frames = [(0, (0, 1, 2), [3])]
    if k > 4:
        frames = _least_fives(plane, pts, group, sides)[1]
    best = [plane.size]  # above every index, so the first image wins
    for f, tri, d, _, tail in _tails(plane, pts, frames, sides):
        if tail < best:
            best, witness = tail, (f, (*tri, d))
    return PointSetCanonicalForm(standard_frame(plane)[:3] + tuple(best), _frame_element(plane, pts, *witness))


def canonical_children(plane: Plane, parent, group: str = PGL) -> list[tuple[int, ...]]:
    """The children parent + (x,) that are their own least image
    (canonicalize), in increasing x: the candidates are the points of
    candidate_mask above the parent's last point.  A parent that is not
    its own least image has no such child (search module docstring).

    Read's orderly test, guided by the five-point invariant (module
    docstring).  Let R be the parent, S = R + (x,) and m0 = S[4], that is
    R[4], or x when R is the frame.  R is canonical, so each 5-subset of
    R has c5 >= m0, and by the lemma S is its own least image only if no
    5-subset through x has c5 < m0.  Those are Q + (x,) for the 4-subsets
    Q of R, with c5 the table entry at F_Q(x), F_Q one frame map of Q:
    two lookups per Q from the logs of x on R's sides, each evaluated
    when first read, and the offsets of R's points, found once per
    parent.  A child that this keeps has
    canonicalize(S)[4] = m0, so a frame map that takes S below itself
    carries a 5-subset with c5 = m0 onto frame + (m0,): one of the
    Q + (x,) that reached m0, imaged with R's side logs reused, or one
    of R's own guided frames.  Those image R alike for every child, so
    the parent's own test keeps their tails, and a child costs the image
    of x under each, two lookups, and one comparison.  R's side logs and
    x's logs on them serve every Frobenius power f, times p^f.
    """
    pts = _arc_points(plane, parent, group)
    above = candidate_mask(plane, pts) >> (pts[-1] + 1) << (pts[-1] + 1)
    if tuple(pts[:4]) != standard_frame(plane):
        return []
    k = len(pts)
    field = plane.field
    q, m = field.q, field.q - 1
    log, mt, at = field.log, field.mul_flat, field.add_flat
    row, exp = plane.affine_row, field.exp
    c5, onto = _five_point_table(plane, group)
    sides = _side_logs(plane, pts, combinations(range(k), 2))
    least, frames, quads = _least_fives(plane, pts, group, sides)
    head = pts[3:]
    # R's guided frames: (p^f, the pairs of their sides, D's offsets, tail of R)
    own = [(field.p**f, [(u, v) if u < v else (v, u) for u, v in ((v1, v2), (v0, v2), (v0, v1))], offs[d], tail)
           for f, (v2, v1, v0), d, offs, tail in _tails(plane, pts, frames, sides)]
    if k > 4 and (least < pts[4] or any(tail < head for *_, tail in own)):
        return []
    # the sides each quad reads first; the last also takes those through R's last point
    lines = {(a, b): plane.lines[plane.line_rows[pts[a]][pts[b]]] for a, b in sides}
    fresh = [[(pair, lines.pop(pair)) for pair in ((b, c), (a, c), (a, b)) if pair in lines]
             for _, (c, b, a), _, _ in quads]
    fresh[-1] += lines.items()

    def below(x: int) -> bool:
        """Whether pts + [x] has an image below itself."""
        x0, x1, x2 = plane.points[x]
        logs, guided = {}, []
        m0 = pts[4] if k > 4 else x
        for new, (_, (c, b, a), offs, ds) in zip(fresh, quads):
            for pair, (l0, l1, l2) in new:
                logs[pair] = log[at[at[mt[l0 * q + x0] * q + mt[l1 * q + x1]] * q + mt[l2 * q + x2]]]
            v = logs[b, c]
            u1, u2 = (logs[a, c] - v) % m, (logs[a, b] - v) % m
            for d in ds:
                d1, d2 = offs[d]
                y = row[u1 - d1] + exp[u2 - d2]
                if c5[y] < m0:
                    return True
                if c5[y] == m0:
                    guided += _onto(onto[y], (c, b, a, d, k))
        target = head + [x]
        for s, (p0, p1, p2), (d1, d2), tail in own:
            v = logs[p0]
            y = row[(s * (logs[p1] - v) - d1) % m] + exp[(s * (logs[p2] - v) - d2) % m]
            if sorted(tail + [y]) < target:
                return True
        known = {pair: values + [logs[pair]] for pair, values in sides.items()} if guided else None
        return any(tail < target for _, _, _, _, tail in _tails(plane, pts + [x], guided, known))

    return [(*pts, x) for x in iter_bits(above) if not below(x)]


def _invariant_frames(plane: Plane, pts, group: str) -> list:
    """The candidate frames of a point set that is not an arc of at
    least 5 points: every Frobenius power f of the group times every
    ordered 4-subset Q in general position with inv(Q[i]) = inv(Q0[i])
    for each i, as groups (f, Q[:3], [Q[3], ...]) in product order.
    inv(x) is the sorted sizes of the lines through pts[x] that hold at
    least 3 points of pts, and Q0 is the first 4-subset in general
    position when the positions are ordered by (size of their
    invariant's class, invariant, position).  A set without one raises
    DegenerateSetError."""
    k, rows = len(pts), plane.line_rows
    on: dict = {}  # line -> the positions on it
    for a, b in combinations(range(k), 2):
        on.setdefault(rows[pts[a]][pts[b]], set()).update((a, b))
    sizes: list = [[] for _ in range(k)]
    for xs in on.values():
        if len(xs) > 2:
            for x in xs:
                sizes[x].append(len(xs))
    inv = [tuple(sorted(s)) for s in sizes]
    order = sorted(range(k), key=lambda x: (inv.count(inv[x]), inv[x], x))

    def general(quad) -> bool:
        return all(rows[pts[a]][pts[b]] != rows[pts[a]][pts[c]] for a, b, c in combinations(quad, 3))

    q0 = next((quad for quad in combinations(order, 4) if general(quad)), None)
    if q0 is None:
        raise DegenerateSetError("no 4-subset in general position")
    classes = [[x for x in range(k) if inv[x] == inv[p]] for p in q0]
    groups = [(tri, [d for d in classes[3] if d not in tri and general(tri + (d,))])
              for tri in product(*classes[:3]) if len(set(tri)) == 3 and general(tri)]
    return [(f, tri, ds) for f in _powers(plane, group) for tri, ds in groups if ds]


def _order(sigma, f: int, h: int) -> int:
    """lcm of the cycle lengths of sigma and of h / gcd(f, h) (stabilizer)."""
    order, seen = h // gcd(f, h), set()
    for x in range(len(sigma)):
        length = 0
        while x not in seen:
            seen.add(x)
            x, length = sigma[x], length + 1
        order = lcm(order, length) if length else order
    return order


def stabilizer(plane: Plane, points, group: str = PGL):
    """Full setwise stabilizer of a point set within the configured group.

    Let C be a set of candidate maps that holds g1 o Stab(S) for its
    first member g1.  Then Stab(S) = g1^-1 o {g in C : g(S) = g1(S)}:
    each such g1^-1 o g fixes S, and each s in Stab(S) is g1^-1 o g1 o s.
    For an arc of at least 5 points C is its guided frames (module
    docstring): Stab(S) permutes the 5-subsets of S and keeps their c5,
    so g1 o s carries s^-1(T) onto frame + (c5,) when g1 carries T
    there.  For any other set C is the frames of _invariant_frames: each
    s in Stab(S) maps the lines of S onto lines of S with as many of
    its points, so inv(s(x)) = inv(x), and s^-1 keeps general position;
    g1 o s, after Frobenius power f1 + frob(s), carries s^-1(Q1) onto
    the standard frame when g1 carries Q1 there, and s^-1(Q1) has the
    invariants of Q1, so it is a member of C.  A candidate is kept when
    every point off the sides of its triangle lands in g1(S), tested up
    to the first miss, and then so do the points on a side, by apply:
    exact on sets that are not arcs.  s = g1^-1 o g permutes S by sigma,
    sigma[i] the position of g(S[i]) in g1(S); s -> (sigma, frob(s)) is
    an injective homomorphism into Sym(S) x Z_h, so ord(s) is the lcm of
    sigma's cycle lengths and h / gcd(frob(s), h).  Ids outside [0, n)
    raise PointRangeError and repeated ids DuplicatePointsError; fewer
    than 4 points, or no 4 in general position, DegenerateSetError.
    """
    _check_group(group)
    pts = _sorted_distinct(points, plane.size)
    if len(pts) < 4:
        raise DegenerateSetError("stabilizer needs at least 4 points")
    field = plane.field
    sides = None
    if len(pts) > 4 and plane.collinear_triple(pts) is None:
        sides = _side_logs(plane, pts, combinations(range(len(pts)), 2))
        frames = _least_fives(plane, pts, group, sides)[1]
    else:
        frames = _invariant_frames(plane, pts, group)
    row, exp, m = plane.affine_row, field.exp, plane.q - 1
    f1, tri1, ds1 = frames[0]
    g1 = _frame_element(plane, pts, f1, (*tri1, ds1[0]))
    target = {apply(plane, g1, x): i for i, x in enumerate(pts)}  # g1(S), point -> position
    back, elements, orders = inverse(field, g1), [], []
    for f, tri, (w0, w1, w2), s, ds in _frames(plane, pts, frames, sides):
        for d in ds:
            d1, d2, sigma = (w1[d] - w0[d]) * s, (w2[d] - w0[d]) * s, []
            for u, a, b in zip(w0, w1, w2):  # -1 for a point on a side, placed by apply below
                i = -1 if u is None or a is None or b is None else target.get(
                    row[((a - u) * s - d1) % m] + exp[((b - u) * s - d2) % m])
                if i is None:
                    break
                sigma.append(i)
            else:
                g = _frame_element(plane, pts, f, (*tri, d))
                sigma = [target.get(apply(plane, g, x)) if i < 0 else i for i, x in zip(sigma, pts)]
                if None not in sigma:
                    elements.append(compose(field, back, g))
                    orders.append(_order(sigma, elements[-1].frob, field.h))
    return elements, classify_structure(orders)


def classify_structure(element_orders) -> GroupStructure:
    """Name a small group from (order, element-order multiset).  These
    invariants separate every structure that shows up for arc stabilizers
    of the sizes handled here; anything else is reported verbatim."""
    orders = tuple(sorted(element_orders))
    n = len(orders)
    if n == 1:
        name = "trivial"
    elif n == 2:
        name = "Z2"
    elif n == 3:
        name = "Z3"
    elif n == 4:
        name = "Z4" if 4 in orders else "Z2xZ2"
    elif n == 5:
        name = "Z5"
    elif n == 6:
        name = "Z6" if 6 in orders else "S3"
    else:
        counts = {}
        for o in orders:
            counts[o] = counts.get(o, 0) + 1
        sig = ",".join(f"{o}^{c}" for o, c in sorted(counts.items()))
        name = f"other(order={n}, element_orders={sig})"
    return GroupStructure(n, name, orders)


def generating_subset(field, elements) -> list[Collineation]:
    """Greedy small generating set of a closed element list: each element,
    in (frob, matrix) order, that the span of those before it misses.
    After each new generator the span is closed breadth-first: the old
    span, then each round's new elements, composed with every generator."""
    full = set(elements)
    gens: list[Collineation] = []
    span = {IDENTITY}
    for g in sorted(full, key=lambda e: (e.frob, e.matrix)):
        if g in span:
            continue
        gens.append(g)
        frontier = list(span)
        while frontier:
            new = []
            for a in frontier:
                for b in gens:
                    c = compose(field, a, b)
                    if c not in span:
                        span.add(c)
                        new.append(c)
            frontier = new
        if span == full:
            break
    return gens


def group_order(q: int, group: str = PGL) -> int:
    """|PGL(3,q)| = q^3 (q^3 - 1)(q^2 - 1); |PGammaL(3,q)| = h |PGL(3,q)|."""
    from .gf import factor_prime_power

    _check_group(group)
    _, h = factor_prime_power(q)
    pgl = q**3 * (q**3 - 1) * (q**2 - 1)
    return pgl * h if group == PGAMMAL else pgl
