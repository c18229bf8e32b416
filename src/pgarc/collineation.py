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
of them, canonical_children tests the children of a canonical arc
against a table of its own frames and sweeps only the frames that use
the child's new point, and stabilizer keeps the maps onto the set
itself.  All of them run on one kernel, _frame_sweep.  For each
unordered non-collinear triple T it evaluates the three sides of T at
every point of the set once; the 6 orderings of T only permute those
values, and the frame map of (T, D) divides them by their values at D.
In discrete logarithms that is two subtractions and two table lookups
per image point, with no matrix and no normalization.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

from .plane import Plane

PGL = "pgl"
PGAMMAL = "pgammal"
GROUPS = (PGL, PGAMMAL)


class SingularMatrixError(ValueError):
    """Matrix has zero determinant."""


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


def _normalize_matrix(field, m):
    """Scale so the first nonzero entry in row-major order is 1; the unique
    representative of the matrix modulo scalars."""
    for e in m:
        if e:
            if e == 1:
                return tuple(m)
            s = field.inv_list[e]
            mul = field.mul
            return tuple(mul(s, x) for x in m)
    raise SingularMatrixError("zero matrix")


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
    return Collineation(_normalize_matrix(field, m), (g1.frob + g2.frob) % field.h)


def inverse(field, g: Collineation) -> Collineation:
    f = (-g.frob) % field.h
    m = _frob_matrix(field, _adjugate(field, g.matrix), f)
    return Collineation(_normalize_matrix(field, m), f)


def element_order(field, g: Collineation, cap: int = 100000) -> int:
    cur = g
    for k in range(1, cap + 1):
        if cur == IDENTITY:
            return k
        cur = compose(field, cur, g)
    raise RuntimeError("element order exceeds cap")


def apply_matrix(plane: Plane, m, point: int) -> int:
    """Image of a point index under a matrix (no Frobenius part).  A
    singular matrix that sends the point to the zero triple raises."""
    f = plane.field
    q = f.q
    mt = f.mul_flat
    at = f.add_flat
    x0, x1, x2 = plane.points[point]
    return plane.point_id((
        at[at[mt[m[0] * q + x0] * q + mt[m[1] * q + x1]] * q + mt[m[2] * q + x2]],
        at[at[mt[m[3] * q + x0] * q + mt[m[4] * q + x1]] * q + mt[m[5] * q + x2]],
        at[at[mt[m[6] * q + x0] * q + mt[m[7] * q + x1]] * q + mt[m[8] * q + x2]],
    ))


def apply(plane: Plane, g: Collineation, point: int) -> int:
    """Frobenius, then matrix, then normalization."""
    if g.frob:
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

    Row i of its matrix is the side of the triangle opposite the point sent
    to the i-th unit vector, scaled to take the value 1 at the fourth point.
    """
    if len(set(quad)) != 4:
        raise DegenerateQuadrupleError(f"need 4 distinct points, got {quad}")
    if any(plane.collinear(*t) for t in combinations(quad, 3)):
        raise DegenerateQuadrupleError(f"quadruple {quad} has 3 collinear points")
    p1, p2, p3, d = quad
    field = plane.field
    rows = []
    for a, b in ((p2, p1), (p3, p1), (p3, p2)):
        side = plane.lines[plane.line_through(a, b)]
        s = field.inv_list[_dot(field, side, plane.points[d])]
        rows.extend(field.mul(s, c) for c in side)
    return Collineation(_normalize_matrix(field, rows), 0)


def _frame_sweep(plane: Plane, pts, group: str, known=None):
    """Every ordered frame (V2, V1, V0, D) of a point set, in log coordinates.

    For each Frobenius power f, each non-collinear triple of the image
    set and each of its 6 orderings V0, V1, V2, let w_i(x) be x's value
    on the side opposite V_i: the rows of adj[V0|V1|V2], up to scalars.
    The frame map of (V2, V1, V0, D) sends x to
    (w0(x)/w0(D), w1(x)/w1(D), w2(x)/w2(D)).  Yields
    (f, (V2, V1, V0), ids, r1, r2, odd, side, w): ids are the other
    points off every side, each a valid D, with r_i = log w_i - log w0
    mod q-1, so x lands at plane.affine_row[r1(x) - r1(D)] + exp[r2(x) -
    r2(D)]; odd holds (log w0, log w1, log w2) of the other points on a
    side, None for a zero.  side is f's side table: side[b(b-1)/2 + a]
    lists the logs of the side through the points at positions a < b of
    pts at every point, so the pairs of pts[:-1] come first; w holds the
    positions of w0, w1, w2 in it.  Sides are evaluated once per point
    pair, not per quad.

    known, the side tables of pts[:-1] with every list extended by its
    value at pts[-1], one per Frobenius power, limits the sweep to the
    triangles through pts[-1] and evaluates only the sides through it.
    """
    field = plane.field
    q = field.q
    m = q - 1
    log = field.log
    mt = field.mul_flat
    at = field.add_flat
    rows = plane.line_rows
    k = len(pts)
    for f in range(field.h) if group == PGAMMAL else range(1):
        perm = plane.frob_point_perms[f]
        src = [perm[i] for i in pts]
        coords = [plane.points[i] for i in src]
        side = [] if known is None else list(known[f])
        for b in range(0 if known is None else k - 1, k):
            for a in range(b):
                l0, l1, l2 = plane.lines[rows[src[a]][src[b]]]
                side.append([
                    log[at[at[mt[l0 * q + x0] * q + mt[l1 * q + x1]] * q + mt[l2 * q + x2]]]
                    for x0, x1, x2 in coords
                ])
        if known is None:
            tris = combinations(range(k), 3)
        else:
            tris = ((a, b, k - 1) for a, b in combinations(range(k - 1), 2))
        for tri in tris:
            a, b, c = tri
            w = (c * (c - 1) // 2 + b, c * (c - 1) // 2 + a, b * (b - 1) // 2 + a)
            if side[w[0]][a] is None:
                continue  # collinear triple: no frame
            w0, w1, w2 = side[w[0]], side[w[1]], side[w[2]]  # opposite a, b, c
            rest = [(w0[x], w1[x], w2[x], src[x]) for x in range(k) if x not in tri]
            good = [p for p in rest if None not in p]
            odd = [p for p in rest if None in p]
            ids = [p[3] for p in good]
            rel = {(i, j): [(p[j] - p[i]) % m for p in good] for i, j in permutations(range(3), 2)}
            for i, j, l in permutations(range(3)):
                corners = (src[tri[l]], src[tri[j]], src[tri[i]])
                yield (f, corners, ids, rel[i, j], rel[i, l], [(p[i], p[j], p[l]) for p in odd],
                       side, (w[i], w[j], w[l]))


def _side_point_image(plane: Plane, logs, d1: int, d2: int) -> int:
    """Image of an odd point of _frame_sweep under the frame map with fourth
    point D: (g^l0, g^(l1 - d1), g^(l2 - d2)), a None log giving a 0."""
    exp = plane.field.exp
    y = (0 if l is None else exp[(l - d) % len(exp)] for l, d in zip(logs, (0, d1, d2)))
    return plane.point_id(tuple(y))


def _arc_points(plane: Plane, points, group: str) -> list[int]:
    """Sorted distinct points of an arc of at least 4 points, else a clear error."""
    _check_group(group)
    pts = sorted(set(points))
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


def _sweep_images(plane: Plane, pts, group: str):
    """Per ordered triangle of _frame_sweep, (f, corners, ids, images):
    images[i] is the sorted image, past the triangle, under the frame map
    whose fourth point is ids[i].  The triangle lands on the first three
    frame points; D and every other point of an arc land on (1, a, b) with
    a, b != 0, at indices >= D's 2q + 2."""
    row, exp = plane.affine_row, plane.field.exp
    for f, corners, ids, r1, r2, _, _, _ in _frame_sweep(plane, pts, group):
        pairs = list(zip(r1, r2))
        yield f, corners, ids, [sorted([row[a - d1] + exp[b - d2] for a, b in pairs])
                                for d1, d2 in pairs]


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
    return (head + tuple(rest)
            for _, _, _, images in _sweep_images(plane, pts, group) for rest in images)


def canonicalize(plane: Plane, points, group: str = PGL) -> PointSetCanonicalForm:
    """Least image of an arc under the configured group: the least of its
    frame_images, with the frame map that makes it as witness.

    That is the least image over the whole group: any image is an arc,
    and an arc whose sorted indices are minimal must contain the standard
    frame (greedy argument on the point ordering).  The empty set raises
    EmptySetError; fewer than 4 points, or a collinear triple,
    DegenerateSetError.
    """
    pts = _arc_points(plane, points, group)
    best = [plane.size]  # above every index, so the first image wins
    for f, corners, ids, images in _sweep_images(plane, pts, group):
        least = min(images)
        if least < best:
            best = least
            best_f, best_quad = f, (*corners, ids[images.index(least)])
    witness = Collineation(frame_map(plane, best_quad).matrix, best_f)
    return PointSetCanonicalForm(standard_frame(plane)[:3] + tuple(best), witness)


def _image_below(plane: Plane, pts, rest, group: str, known=None) -> bool:
    """Whether a frame image of the sorted arc pts has a tail below rest
    (frame_images with an early exit); known as in _frame_sweep."""
    row, exp = plane.affine_row, plane.field.exp
    for _, _, _, r1, r2, _, _, _ in _frame_sweep(plane, pts, group, known):
        pairs = list(zip(r1, r2))
        for d1, d2 in pairs:
            if sorted([row[a - d1] + exp[b - d2] for a, b in pairs]) < rest:
                return True
    return False


def canonical_children(plane: Plane, parent, candidates, group: str = PGL) -> list[int]:
    """The candidates x for which parent + (x,) is its own least image
    (canonicalize), in order.  Candidates lie above the parent's last
    point and off its secants; a parent that is not its own least image
    has no such child (search module docstring).

    Read's orderly test with work shared by the children of one parent R
    (McKay's canonical augmentation): a frame whose triangle and fourth
    point lie in R maps R to a sorted image whose tail I does not depend
    on x, and I >= R[3:] as R is canonical.  Let k be the first position
    where they differ, len(I) when the frame is in Stab(R), and T =
    R[3:] + [x].  The image of R + (x,) sorts below it when y, the image
    of x, is below T[k], not when y is above, and one comparison of
    sorted(I + [y]) with T decides y == T[k].  So these frames are swept
    once per parent, and a child costs the logs of x on R's sides and two
    lookups per frame.  A child they keep is tested against the frames
    that use x: those with D = x and a triangle in R, imaged from the
    parent's offsets, and the triangles through x, swept with R's side
    logs reused.
    """
    pts = _arc_points(plane, parent, group)
    if tuple(pts[:4]) != standard_frame(plane):
        return []
    field = plane.field
    q, m = field.q, field.q - 1
    log, mt, at = field.log, field.mul_flat, field.add_flat
    row, exp = plane.affine_row, field.exp
    head = pts[3:]
    tables, entries = {}, []
    for f, _, _, r1, r2, _, side, w in _frame_sweep(plane, pts, group):
        tables[f] = side
        pairs = list(zip(r1, r2))
        frames = []
        for d1, d2 in pairs:
            image = sorted([row[a - d1] + exp[b - d2] for a, b in pairs])
            if image < head:
                return []
            k = next((i for i, (u, v) in enumerate(zip(image, head)) if u != v), len(head))
            frames.append((d1, d2, k, image))
        entries.append((f, w, pairs, frames))
    # a frame that agrees with R on a longer head rejects more children
    entries.sort(key=lambda e: -max(k for _, _, k, _ in e[3]))
    lines = []  # per Frobenius power, the side lines in side-table order
    for f in sorted(tables):
        src = [plane.frob_point_perms[f][i] for i in pts]
        lines.append([plane.lines[plane.line_rows[src[a]][src[b]]]
                      for b in range(len(src)) for a in range(b)])

    def below(x: int) -> bool:
        """Whether pts + [x] has an image below itself."""
        if x <= pts[-1]:
            raise ValueError(f"candidate {x} is not above the parent's last point {pts[-1]}")
        logs = []  # per Frobenius power, the logs of x's conjugate on R's sides
        for f, side_lines in enumerate(lines):
            x0, x1, x2 = plane.points[plane.frob_point_perms[f][x]]
            logs.append([log[at[at[mt[l0 * q + x0] * q + mt[l1 * q + x1]] * q + mt[l2 * q + x2]]]
                         for l0, l1, l2 in side_lines])
        if None in logs[0]:
            raise DegenerateSetError(f"candidate {x} lies on a secant of the parent")
        target = head + [x]
        offsets = []
        for f, (i, j, l), _, frames in entries:
            v = logs[f]
            u1, u2 = (v[j] - v[i]) % m, (v[l] - v[i]) % m
            offsets.append((u1, u2))
            for d1, d2, k, image in frames:
                y = row[u1 - d1] + exp[u2 - d2]
                if y < target[k] or y == target[k] and sorted(image + [y]) < target:
                    return True
        # D = x maps x to the frame point target[0] = head[0]
        tail = target[1:]
        for (u1, u2), (_, _, pairs, _) in zip(offsets, entries):
            if sorted([row[a - u1] + exp[b - u2] for a, b in pairs]) < tail:
                return True
        known = [[s + [e] for s, e in zip(tables[f], v)] for f, v in enumerate(logs)]
        return _image_below(plane, pts + [x], target, group, known)

    return [x for x in candidates if not below(x)]


def stabilizer(plane: Plane, points, group: str = PGL):
    """Full setwise stabilizer of a point set within the configured group.

    Fixes one ordered general-position quadruple Q0 of the set; every
    stabilizing element must carry some ordered 4-subset onto Q0, so
    sweeping frame maps of all ordered 4-subsets (per Frobenius power)
    finds every element exactly once.  Exact on sets that are not arcs.
    """
    _check_group(group)
    pts = sorted(set(points))
    if len(pts) < 4:
        raise DegenerateSetError("stabilizer needs at least 4 points")
    field = plane.field
    for quad in combinations(pts, 4):
        if plane.collinear_triple(quad) is None:
            base = frame_map(plane, quad)
            break
    else:
        raise DegenerateSetError("no 4-subset in general position")
    target = {apply(plane, base, i) for i in pts}
    back = inverse(field, base)

    row, exp = plane.affine_row, field.exp
    elements = []
    for f, corners, ids, r1, r2, odd, _, _ in _frame_sweep(plane, pts, group):
        pairs = list(zip(r1, r2))
        for d, d1, d2 in zip(ids, r1, r2):
            for a, b in pairs:
                if row[a - d1] + exp[b - d2] not in target:
                    break
            else:
                if all(_side_point_image(plane, x, d1, d2) in target for x in odd):
                    g = frame_map(plane, (*corners, d))
                    elements.append(compose(field, back, Collineation(g.matrix, f)))
    orders = tuple(sorted(element_order(field, g) for g in elements))
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
    """Greedy small generating set of a closed element list."""
    full = set(elements)
    gens: list[Collineation] = []
    span = {IDENTITY}
    for g in sorted(full, key=lambda e: (e.frob, e.matrix)):
        if g in span:
            continue
        gens.append(g)
        frontier = list(span)
        span.add(g)
        while True:
            new = []
            for a in list(span):
                for b in (g, *gens):
                    c = compose(field, a, b)
                    if c not in span:
                        span.add(c)
                        new.append(c)
            if not new:
                break
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
