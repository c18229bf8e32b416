"""Independent brute-force reference implementations.

Everything here recomputes results the slow, obvious way so the search
pipeline can be checked against it: collinearity straight from 3x3
determinants over the field (never from the plane's line tables),
exhaustive arc enumeration without any isomorph rejection, and orbit
partition under an explicit theorem-backed generating set of the group
(elementary transvections generate SL(3,q); one primitive diagonal
extends them to GL; the Frobenius map extends PGL to PGammaL).  The
canonical-form and stabilizer sweeps over ordered 4-subsets, with one
frame matrix per quadruple, are the slow reference for the log-domain
frame sweep of pgarc.collineation.  Classification by canonicalizing
every child of every representative and deduplicating in a set is the
slow reference for the orderly (canonical-parent) classification of
pgarc.search, one early-exit least-image sweep per child (is_canonical)
and the earlier test of all children against a table of the parent's
frames (sweep_canonical_children) are the slow references for the
guided test collineation.canonical_children, canonicalizing every smallest complete
arc the extension reports is the slow reference for its orbit peeling,
and a dot product for every point-line pair is the slow reference for
the plane's incidence tables, and recomposing the whole span with every
generator until it stops growing is the slow reference for the frontier
closure of collineation.generating_subset, and a plane built over each
candidate modulus is the slow reference for the GF(32) sweep of
pgarc.certificates, which computes in one plane through the field
isomorphism, and composing a collineation with itself until it reaches
the identity (element_order) is the slow reference for the element
orders that collineation.stabilizer reads off the permutation of the
set.  The validated collineation
constructor, the cross product and the conventional canonical forms of
1 to 3 points serve only the tests, so they live here too.
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from pgarc.arcs import candidate_mask, iter_bits
from pgarc.certificates import CLAIM_KEYS, _claims, points_from_exponents
from pgarc.collineation import (
    IDENTITY,
    PGAMMAL,
    PGL,
    Collineation,
    DegenerateSetError,
    EmptySetError,
    PointSetCanonicalForm,
    _adjugate,
    _arc_points,
    _check_group,
    _matmul,
    apply_matrix,
    canonicalize,
    classify_structure,
    compose,
    frame_map,
    standard_frame,
)
from pgarc.gf import build_field, primitive_moduli
from pgarc.plane import _normalized, build_plane
from pgarc.search import SearchConfig, classify, extend, lower_bound


class SingularMatrixError(ValueError):
    """Matrix has zero determinant."""


_MAX_ELEMENT_ORDER = 100000  # above q^2 + q + 1, the largest element order of PGL(3, q), q <= 256


def element_order(field, g: Collineation) -> int:
    cur = g
    for k in range(1, _MAX_ELEMENT_ORDER + 1):
        if cur == IDENTITY:
            return k
        cur = compose(field, cur, g)
    raise RuntimeError(f"element order exceeds {_MAX_ELEMENT_ORDER}")


def det3(field, t1, t2, t3) -> int:
    mul = field.mul
    sub = field.sub
    a, b, c = t1
    d, e, f = t2
    g, h, i = t3
    return field.add(
        sub(mul(a, sub(mul(e, i), mul(f, h))), mul(b, sub(mul(d, i), mul(f, g)))),
        mul(c, sub(mul(d, h), mul(e, g))),
    )


def det_collinear(plane, i: int, j: int, k: int) -> bool:
    pts = plane.points
    return det3(plane.field, pts[i], pts[j], pts[k]) == 0


def cross(plane, t1, t2) -> tuple[int, int, int]:
    """Normalized cross product of two independent triples: the line
    through two points, or the meet of two lines."""
    f = plane.field
    a0, a1, a2 = t1
    b0, b1, b2 = t2
    c0 = f.sub(f.mul(a1, b2), f.mul(a2, b1))
    c1 = f.sub(f.mul(a2, b0), f.mul(a0, b2))
    c2 = f.sub(f.mul(a0, b1), f.mul(a1, b0))
    return plane.normalize((c0, c1, c2))


def collineation(field, matrix, frob: int = 0) -> Collineation:
    """Validated constructor: matrix (rows or flat 9) must be invertible,
    frob must lie in [0, h)."""
    flat = tuple(matrix[r][c] for r in range(3) for c in range(3)) if len(matrix) == 3 else tuple(matrix)
    if len(flat) != 9:
        raise ValueError("matrix must be 3x3")
    if det3(field, flat[0:3], flat[3:6], flat[6:9]) == 0:
        raise SingularMatrixError(f"matrix {flat} is singular")
    if not 0 <= frob < field.h:
        raise ValueError(f"frobenius exponent {frob} outside [0, {field.h})")
    return Collineation(_normalized(field, flat), frob)


def recount_coverage(plane, members) -> list[int]:
    """Secants (lines through 2 members) through each point, via determinants."""
    cov = [0] * plane.size
    for a, b in combinations(sorted(members), 2):
        for x in range(plane.size):
            if x in (a, b) or det_collinear(plane, a, b, x):
                cov[x] += 1
    return cov


def incidence_scan(field) -> dict:
    """The plane tables the slow way: every point-line pair tested by a
    dot product, each line's points sorted, a flat n x n pair table
    filled line by line (-1 on the diagonal), and the Frobenius point
    maps looked up by triple.  Slow reference for pgarc.plane.Plane."""
    q = field.q
    n = q * q + q + 1
    mt, at = field.mul_flat, field.add_flat
    points = [(0, 0, 1)]
    points.extend((0, 1, b) for b in range(q))
    points.extend((1, a, b) for a in range(q) for b in range(q))
    index = {t: i for i, t in enumerate(points)}
    on_line: list[list[int]] = [[] for _ in range(n)]
    # incidence dot(a, x) is symmetric in (a, x): scan ordered pairs once
    for li in range(n):
        a0, a1, a2 = points[li]
        for pi in range(li, n):
            x0, x1, x2 = points[pi]
            if at[at[mt[a0 * q + x0] * q + mt[a1 * q + x1]] * q + mt[a2 * q + x2]] == 0:
                on_line[li].append(pi)
                if pi != li:
                    on_line[pi].append(li)
    points_on_line = [tuple(sorted(pts)) for pts in on_line]
    masks = []
    pair = [-1] * (n * n)
    for li, pts in enumerate(points_on_line):
        masks.append(sum(1 << i for i in pts))
        for i in pts:
            for j in pts:
                if i != j:
                    pair[i * n + j] = li
    frob = [
        [index[(ft[x0], ft[x1], ft[x2])] for x0, x1, x2 in points]
        for ft in field.frob_tables
    ]
    return {"points_on_line": points_on_line, "line_masks": masks,
            "pair_line": pair, "frob_point_perms": frob}


def pair_line_masks(plane) -> list[int]:
    """mask[a * n + b] = points collinear with both a and b (incl. a, b),
    derived purely from determinants."""
    n = plane.size
    field = plane.field
    pts = plane.points
    masks = [0] * (n * n)
    for a in range(n):
        for b in range(a + 1, n):
            m = (1 << a) | (1 << b)
            ta, tb = pts[a], pts[b]
            for x in range(n):
                if x != a and x != b and det3(field, ta, tb, pts[x]) == 0:
                    m |= 1 << x
            masks[a * n + b] = masks[b * n + a] = m
    return masks


def enumerate_arcs(plane, max_size: int, pair_masks=None) -> dict[int, list[int]]:
    """Every arc of each size up to max_size, as bitmasks, no equivalence
    pruning of any kind; plain increasing-index subset search."""
    if pair_masks is None:
        pair_masks = pair_line_masks(plane)
    n = plane.size
    all_mask = (1 << n) - 1
    found: dict[int, list[int]] = {s: [] for s in range(1, max_size + 1)}

    members: list[int] = []

    def descend(mask: int, allowed: int, last: int, size: int):
        rest = allowed >> (last + 1) << (last + 1)
        while rest:
            b = rest & -rest
            x = b.bit_length() - 1
            rest ^= b
            nmask = mask | b
            found[size + 1].append(nmask)
            if size + 1 < max_size:
                nallowed = allowed
                for m in members:
                    nallowed &= ~pair_masks[m * n + x]
                members.append(x)
                descend(nmask, nallowed, x, size + 1)
                members.pop()

    descend(0, all_mask, -1, 0)
    return found


def gl3_generators(field) -> list[tuple[int, ...]]:
    """Elementary transvections E_ij(1) plus diag(g, 1, 1) for a generator
    g of GF(q)*: a generating set of GL(3,q)."""
    gens = []
    for i in range(3):
        for j in range(3):
            if i != j:
                m = [1, 0, 0, 0, 1, 0, 0, 0, 1]
                m[3 * i + j] = 1
                gens.append(tuple(m))
    g = field.exp[1 % (field.q - 1)] if field.q > 2 else 1
    if g != 1:
        gens.append((g, 0, 0, 0, 1, 0, 0, 0, 1))
    return gens


def generator_point_maps(plane, group: str) -> list[list[int]]:
    """Point permutations of the group generators."""
    maps = []
    for m in gl3_generators(plane.field):
        maps.append([apply_matrix(plane, m, i) for i in range(plane.size)])
    if group == "pgammal":
        for f in range(1, plane.field.h):
            maps.append(plane.frob_point_perms[f])
    return maps


def mask_image(mask: int, perm: list[int]) -> int:
    out = 0
    while mask:
        b = mask & -mask
        out |= 1 << perm[b.bit_length() - 1]
        mask ^= b
    return out


def orbit_count(arc_masks, point_maps) -> int:
    """Number of orbits on the given masks via union-find, edges given by
    the generator permutations."""
    parent: dict[int, int] = {m: m for m in arc_masks}

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for m in arc_masks:
        rm = find(m)
        for perm in point_maps:
            ri = find(mask_image(m, perm))
            if ri != rm:
                parent[ri] = rm
    return sum(1 for m in arc_masks if find(m) == m)


def brute_force_is_complete(plane, members) -> bool:
    """Direct check: no external point extends the arc; determinant-based."""
    field = plane.field
    pts = plane.points
    mem = sorted(members)
    mem_set = set(mem)
    coords = [pts[m] for m in mem]
    for x in range(plane.size):
        if x in mem_set:
            continue
        tx = pts[x]
        extendable = True
        for i in range(len(mem)):
            ti = coords[i]
            for j in range(i + 1, len(mem)):
                if det3(field, ti, coords[j], tx) == 0:
                    extendable = False
                    break
            if not extendable:
                break
        if extendable:
            return False
    return True


def random_arc(plane, rng, max_size: int | None = None) -> list[int]:
    """Greedy arc along a random point order, optionally stopped early."""
    order = list(range(plane.size))
    rng.shuffle(order)
    target = max_size if max_size is not None else plane.size
    members: list[int] = []
    for x in order:
        if len(members) >= target:
            break
        ok = True
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                if det_collinear(plane, members[i], members[j], x):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            members.append(x)
    return sorted(members)


def group_closure(field, generators, cap: int = 10**6) -> set[Collineation]:
    """Closure of normalized collineations under composition (BFS)."""
    seen = set(generators) | {IDENTITY}
    frontier = list(seen)
    while frontier:
        new = []
        for a in frontier:
            for g in generators:
                c = compose(field, a, g)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        if len(seen) > cap:
            raise RuntimeError("closure exceeded cap")
        frontier = new
    return seen


def greedy_generating_subset(field, elements) -> list[Collineation]:
    """The greedy generating set of collineation.generating_subset, the
    span recomposed in full with every generator until it stops growing."""
    full = set(elements)
    gens: list[Collineation] = []
    span = {IDENTITY}
    for g in sorted(full, key=lambda e: (e.frob, e.matrix)):
        if g in span:
            continue
        gens.append(g)
        span.add(g)
        while True:
            new = []
            for a in list(span):
                for b in gens:
                    c = compose(field, a, b)
                    if c not in span:
                        span.add(c)
                        new.append(c)
            if not new:
                break
        if span == full:
            break
    return gens


def all_pgl_matrices_q2(field) -> list[tuple[int, ...]]:
    """Every invertible 3x3 matrix over GF(2) (=PGL(3,2), no scalars)."""
    out = []
    for entries in product((0, 1), repeat=9):
        if det3(field, entries[0:3], entries[3:6], entries[6:9]) != 0:
            out.append(entries)
    return out


# ---------------------------------------------------------------------------
# the ordered-quadruple frame sweep: the slow reference for the log-domain
# kernel in pgarc.collineation, kept as it was before that kernel replaced it


def _frame_matrix(plane, quad):
    """Matrix of the unique PGL element carrying the ordered quadruple onto
    the ordered standard frame, or None if the quadruple is degenerate.

    Everything is computed with adjugates: projective maps do not care
    about the determinant scalars, so no division is ever needed.
    """
    f = plane.field
    pts = plane.points
    p1 = pts[quad[0]]
    p2 = pts[quad[1]]
    p3 = pts[quad[2]]
    p4 = pts[quad[3]]
    # H maps the standard frame onto the quad: columns a*p3 | b*p2 | c*p1
    # with (a, b, c) solving [p3 p2 p1] (a b c)^T = p4.  Return adj(H).
    A = (p3[0], p2[0], p1[0], p3[1], p2[1], p1[1], p3[2], p2[2], p1[2])
    adjA = _adjugate(f, A)
    add = f.add
    mul = f.mul
    if add(add(mul(A[0], adjA[0]), mul(A[1], adjA[3])), mul(A[2], adjA[6])) == 0:
        return None  # first three points collinear
    a = add(add(mul(adjA[0], p4[0]), mul(adjA[1], p4[1])), mul(adjA[2], p4[2]))
    b = add(add(mul(adjA[3], p4[0]), mul(adjA[4], p4[1])), mul(adjA[5], p4[2]))
    c = add(add(mul(adjA[6], p4[0]), mul(adjA[7], p4[1])), mul(adjA[8], p4[2]))
    if a == 0 or b == 0 or c == 0:
        return None  # fourth point on a side of the triangle
    H = (
        mul(a, p3[0]), mul(b, p2[0]), mul(c, p1[0]),
        mul(a, p3[1]), mul(b, p2[1]), mul(c, p1[1]),
        mul(a, p3[2]), mul(b, p2[2]), mul(c, p1[2]),
    )
    return _adjugate(f, H)


def _complete_to_frame(plane, pts):
    """Deterministically extend <= 3 points in general position to an
    ordered frame, scanning candidate points in index order."""
    chosen = list(pts)
    for cand in range(plane.size):
        if len(chosen) == 4:
            break
        if cand in chosen:
            continue
        ok = True
        for i, j in combinations(range(len(chosen)), 2):
            if plane.collinear(chosen[i], chosen[j], cand):
                ok = False
                break
        if ok:
            chosen.append(cand)
    return chosen


def small_canonical(plane, pts) -> PointSetCanonicalForm:
    """Sizes 1..3: the group is transitive on points, point pairs and
    triangles, so fixed prefixes of the standard frame serve as
    conventional representatives."""
    n = len(pts)
    if n == 3 and plane.collinear_triple(pts) is not None:
        raise DegenerateSetError("3 collinear points have no arc-style canonical form")
    quad = _complete_to_frame(plane, pts)
    g = frame_map(plane, quad)
    return PointSetCanonicalForm(standard_frame(plane)[:n], g)


def sweep_canonicalize(plane, points, group: str = PGL) -> PointSetCanonicalForm:
    """Least image of an arc under the configured group.

    Iterates over every ordered 4-subset mapped onto the standard frame,
    for every Frobenius power, and keeps the lexicographically least sorted
    image.  For arcs this equals the least image over the whole group: any
    image is an arc, and an arc whose sorted indices are minimal must
    contain the standard frame (greedy argument on the point ordering).
    """
    _check_group(group)
    pts = sorted(set(points))
    if not pts:
        raise EmptySetError("cannot canonicalize the empty set")
    if len(pts) < 4:
        return small_canonical(plane, pts)

    field = plane.field
    frob_range = range(field.h) if group == PGAMMAL else range(1)
    frame = standard_frame(plane)
    q = field.q
    mt = field.mul_flat
    at = field.add_flat
    inv = field.inv_list
    pindex = plane.point_index
    coords = plane.points

    best_rest = None
    best_m = None
    best_f = 0
    for f in frob_range:
        if f:
            perm = plane.frob_point_perms[f]
            src = sorted(perm[i] for i in pts)
        else:
            src = pts
        src_coords = [coords[i] for i in src]
        for quad in permutations(range(len(src)), 4):
            m = _frame_matrix(plane, tuple(src[k] for k in quad))
            if m is None:
                continue
            # the quad itself lands exactly on the frame; for arcs every
            # other image index exceeds the frame's, so only they compete
            m0, m1, m2, m3, m4, m5, m6, m7, m8 = m
            in_quad = set(quad)
            rest = []
            for k, (x0, x1, x2) in enumerate(src_coords):
                if k in in_quad:
                    continue
                y0 = at[at[mt[m0 * q + x0] * q + mt[m1 * q + x1]] * q + mt[m2 * q + x2]]
                y1 = at[at[mt[m3 * q + x0] * q + mt[m4 * q + x1]] * q + mt[m5 * q + x2]]
                y2 = at[at[mt[m6 * q + x0] * q + mt[m7 * q + x1]] * q + mt[m8 * q + x2]]
                if y0:
                    if y0 != 1:
                        s = inv[y0]
                        rest.append(pindex[(1, mt[s * q + y1], mt[s * q + y2])])
                    else:
                        rest.append(pindex[(1, y1, y2)])
                elif y1:
                    if y1 != 1:
                        rest.append(pindex[(0, 1, mt[inv[y1] * q + y2])])
                    else:
                        rest.append(pindex[(0, 1, y2)])
                else:
                    rest.append(0)
            rest.sort()
            if best_rest is None or rest < best_rest:
                best_rest = rest
                best_m = m
                best_f = f
    witness = Collineation(_normalized(field, best_m), best_f)
    return PointSetCanonicalForm(frame + tuple(best_rest), witness)


def sweep_stabilizer(plane, points, group: str = PGL):
    """Full setwise stabilizer of a point set within the configured group.

    Fixes one ordered general-position quadruple Q0 of the set; every
    stabilizing element must carry some ordered 4-subset onto Q0, so
    sweeping frame maps of all ordered 4-subsets (per Frobenius power)
    finds every element exactly once.
    """
    _check_group(group)
    pts = sorted(set(points))
    if len(pts) < 4:
        raise DegenerateSetError("stabilizer needs at least 4 points")
    field = plane.field

    base = None
    for cand in combinations(pts, 4):
        if _frame_matrix(plane, cand) is not None:
            base = cand
            break
    if base is None:
        raise DegenerateSetError("no 4-subset in general position")
    A = _frame_matrix(plane, base)
    adjA = _adjugate(field, A)
    target_mask = 0
    for i in pts:
        target_mask |= 1 << apply_matrix(plane, A, i)

    frob_range = range(field.h) if group == PGAMMAL else range(1)
    elements = []
    for f in frob_range:
        if f:
            perm = plane.frob_point_perms[f]
            src = sorted(perm[i] for i in pts)
        else:
            src = pts
        for quad in permutations(src, 4):
            B = _frame_matrix(plane, quad)
            if B is None:
                continue
            ok = True
            for i in src:
                if not (target_mask >> apply_matrix(plane, B, i)) & 1:
                    ok = False
                    break
            if ok:
                m = _normalized(field, _matmul(field, adjA, B))
                elements.append(Collineation(m, f))
    orders = tuple(sorted(element_order(field, g) for g in elements))
    return elements, classify_structure(orders)


def logged_frame_sweep(plane, pts, group: str, known=None):
    """Every ordered frame (V2, V1, V0, D) of a point set, in log coordinates:
    the all-frames sweep of pgarc.collineation as it was before the
    five-point table guided canonical forms, with its side tables in the
    output.

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


def _image_below(plane, pts, rest, group: str, known=None) -> bool:
    """Whether a frame image of the sorted arc pts has a tail below rest
    (frame_images with an early exit); known as in logged_frame_sweep."""
    row, exp = plane.affine_row, plane.field.exp
    for _, _, _, r1, r2, _, _, _ in logged_frame_sweep(plane, pts, group, known):
        pairs = list(zip(r1, r2))
        for d1, d2 in pairs:
            if sorted([row[a - d1] + exp[b - d2] for a, b in pairs]) < rest:
                return True
    return False


def is_canonical(plane, points, group: str = PGL) -> bool:
    """canonicalize(...).canon == sorted(points) by one early-exit sweep of
    the arc: it starts with the standard frame and has no image below
    itself.  Raises as canonicalize."""
    pts = _arc_points(plane, points, group)
    return tuple(pts[:4]) == standard_frame(plane) and not _image_below(plane, pts, pts[3:], group)


def sweep_canonical_children(plane, parent, candidates, group: str = PGL) -> list[int]:
    """collineation.canonical_children as it was before the five-point
    table guided it, every frame of the parent swept: the candidates x
    for which parent + (x,) is its own least image, in order (the
    guided test finds its own candidates and returns the children).
    Candidates lie above the parent's last point and off its secants; a
    parent that is not its own least image has no such child.

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
    for f, _, _, r1, r2, _, side, w in logged_frame_sweep(plane, pts, group):
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


def _children_of(plane, group: str, rep: tuple[int, ...]) -> set:
    out = set()
    for x in iter_bits(candidate_mask(plane, rep)):
        out.add(canonicalize(plane, rep + (x,), group).canon)
    return out


def set_classify(plane, group: str, threshold: int) -> list[list[tuple[int, ...]]]:
    """Representatives per size 4..threshold, stopping at the first empty
    level: every child of every representative is canonicalized and the
    level is the sorted set of those canonical forms."""
    levels = [[canonicalize(plane, standard_frame(plane), group).canon]]
    for _ in range(5, threshold + 1):
        canons: set = set()
        for rep in levels[-1]:
            canons |= _children_of(plane, group, rep)
        if not canons:
            break
        levels.append(sorted(canons))
    return levels


def per_arc_min_complete_size(config: SearchConfig, plane):
    """(t, sorted class representatives) of the smallest complete arcs:
    classification to config.classification_threshold, a scan of its
    levels for complete representatives, then extension from the top
    level, with each reported arc of size t canonicalized on its own and
    the forms deduplicated in a set.  At threshold 4 this is the search
    from the frame that search.min_complete_size ran before it extended
    from level 5 and peeled orbits."""
    levels = classify(config, plane)
    for lv in levels:
        complete = [r for r in lv.representatives if candidate_mask(plane, r) == 0]
        if complete:
            return lv.size, complete
    top = levels[-1]
    for bound in range(max(lower_bound(config.q), top.size + 1), config.q + 3):
        found = [a for rep in top.representatives
                 for a in extend(plane, config.group, rep, bound)]
        if found:
            t = min(len(a) for a in found)
            return t, sorted({canonicalize(plane, a, config.group).canon
                              for a in found if len(a) == t})
    raise RuntimeError(f"no complete arc found up to size {config.q + 2}")


def _sweep_case(plane, exponents, want_order: int, want_name: str) -> dict:
    triples = points_from_exponents(plane.field, exponents)
    ids = sorted({plane.point_id(t) for t in triples})
    # a repeat fails the case through "distinct"; claims use the distinct points
    claims, witnesses = _claims(plane, PGAMMAL, ids)
    result: dict = {"distinct": len(ids) == len(triples), "is_arc": claims["is_arc"]}
    if witnesses["is_arc"] is not None:
        result["collinear_triple"] = witnesses["is_arc"]
    result.update((k, claims[k]) for k in CLAIM_KEYS[1:])
    want = dict(zip(CLAIM_KEYS, (True, True, want_order, want_name)))
    result["passes"] = result["distinct"] and claims == want
    return result


def resolve_gf32_polynomial(k2_exponents, k3_exponents):
    """Sweep the six candidate moduli for GF(32) and reverify both
    published 14-arcs under each.  Returns (passing moduli, report);
    an empty passing list is reported, not raised."""
    k2 = [tuple(e) for e in k2_exponents]
    k3 = [tuple(e) for e in k3_exponents]
    report = {"candidates": []}
    passing = []
    for modulus, _ in primitive_moduli(2, 5):
        field = build_field(2, 5, list(modulus))
        plane = build_plane(field)
        entry = {
            "modulus": list(modulus),
            "arc_z4": _sweep_case(plane, k2, 4, "Z4"),
            "arc_z5": _sweep_case(plane, k3, 5, "Z5"),
        }
        entry["passes"] = entry["arc_z4"]["passes"] and entry["arc_z5"]["passes"]
        if entry["passes"]:
            passing.append(modulus)
        report["candidates"].append(entry)
    report["passing"] = [list(m) for m in passing]
    return passing, report
