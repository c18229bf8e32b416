"""Incidence tables for the Desarguesian projective plane PG(2,q).

Points and lines are normalized homogeneous triples of field codes (first
nonzero coordinate scaled to 1) indexed by their rank in lexicographic
order of the coordinate codes.  The same normalized triples serve as line
coefficient vectors, so points and lines share one indexing.  All tables
are precomputed densely and immutable after construction: the point list,
per-line point lists and bitmasks, and the full pair -> line lookup.
"""

from __future__ import annotations

from .gf import FieldTable

# Dense line_through tables stop being reasonable above this order.
DENSE_LIMIT = 64


class CapacityExceededError(ValueError):
    """Plane order above DENSE_LIMIT."""


class SamePointError(ValueError):
    """line_through needs two distinct points."""


class DuplicatePointsError(ValueError):
    """Collinearity tests and secant masks need pairwise distinct points."""


def _sorted_distinct(ids) -> list[int]:
    """The ids sorted; a repeat, found as two equal neighbours, raises."""
    pts = sorted(ids)
    for a, b in zip(pts, pts[1:]):
        if a == b:
            raise DuplicatePointsError(f"point {a} is repeated in {pts}")
    return pts


class Plane:
    def __init__(self, field: FieldTable):
        self.field = field
        q = field.q
        self.q = q
        self.size = q * q + q + 1
        n = self.size

        # Lexicographic enumeration of the normalized triples.
        points: list[tuple[int, int, int]] = [(0, 0, 1)]
        points.extend((0, 1, b) for b in range(q))
        points.extend((1, a, b) for a in range(q) for b in range(q))
        self.points = points
        self.point_index = {t: i for i, t in enumerate(points)}
        self.lines = points  # same triples read as line coefficients
        # (1, exp[a], exp[b]) has index affine_row[a] + exp[b]
        self.affine_row = [q + 1 + q * e for e in field.exp]

        mt = field.mul_flat
        at = field.add_flat
        on_line: list[list[int]] = [[] for _ in range(n)]
        # incidence dot(a, x) is symmetric in (a, x): scan ordered pairs once
        for li in range(n):
            a0, a1, a2 = points[li]
            for pi in range(li, n):
                x0, x1, x2 = points[pi]
                d = at[at[mt[a0 * q + x0] * q + mt[a1 * q + x1]] * q + mt[a2 * q + x2]]
                if d == 0:
                    on_line[li].append(pi)
                    if pi != li:
                        on_line[pi].append(li)
        self.points_on_line = [tuple(sorted(pts)) for pts in on_line]

        masks = []
        line_through = [-1] * (n * n)
        for li, pts in enumerate(self.points_on_line):
            m = 0
            for pi in pts:
                m |= 1 << pi
            masks.append(m)
            for i in pts:
                base = i * n
                for j in pts:
                    if i != j:
                        line_through[base + j] = li
        self.line_masks = masks
        self.line_through_flat = line_through
        self.all_points_mask = (1 << n) - 1

        self.frob_point_perms = []
        for i in range(field.h):
            ft = field.frob_tables[i]
            self.frob_point_perms.append(
                [self.point_index[(ft[x0], ft[x1], ft[x2])] for x0, x1, x2 in points]
            )

    def normalize(self, triple) -> tuple[int, int, int]:
        """Scale a nonzero homogeneous triple so its first nonzero entry is 1."""
        x0, x1, x2 = triple
        f = self.field
        if x0:
            if x0 != 1:
                s = f.inv_list[x0]
                return (1, f.mul(s, x1), f.mul(s, x2))
            return (x0, x1, x2)
        if x1:
            if x1 != 1:
                s = f.inv_list[x1]
                return (0, 1, f.mul(s, x2))
            return (0, 1, x2)
        if x2:
            return (0, 0, 1)
        raise ValueError("cannot normalize the zero triple")

    def point_id(self, triple) -> int:
        return self.point_index[self.normalize(triple)]

    def line_through(self, p1: int, p2: int) -> int:
        """Index of the unique line through two distinct points."""
        if p1 == p2:
            raise SamePointError(f"line_through needs distinct points, got {p1} twice")
        return self.line_through_flat[p1 * self.size + p2]

    def collinear(self, p1: int, p2: int, p3: int) -> bool:
        if p1 == p2 or p1 == p3 or p2 == p3:
            raise DuplicatePointsError(f"points must be distinct: {p1}, {p2}, {p3}")
        li = self.line_through_flat[p1 * self.size + p2]
        return (self.line_masks[li] >> p3) & 1 == 1

    def collinear_triple(self, point_ids) -> tuple[int, int, int] | None:
        """First collinear triple (in sorted index order) of a set of
        pairwise distinct points, or None."""
        pts = _sorted_distinct(point_ids)
        n = self.size
        lt = self.line_through_flat
        masks = self.line_masks
        for i in range(len(pts)):
            a = pts[i]
            for j in range(i + 1, len(pts)):
                m = masks[lt[a * n + pts[j]]]
                for k in range(j + 1, len(pts)):
                    if (m >> pts[k]) & 1:
                        return (a, pts[j], pts[k])
        return None

    def secant_mask(self, ids) -> int:
        """Bitmask of the points on some line through 2 of the points ids,
        which must be pairwise distinct."""
        n = self.size
        lt = self.line_through_flat
        lm = self.line_masks
        pts = _sorted_distinct(ids)
        u = 0
        for i, a in enumerate(pts):
            base = a * n
            for b in pts[i + 1 :]:
                u |= lm[lt[base + b]]
        return u

    def __repr__(self):
        return f"Plane(q={self.q}, points={self.size})"


def build_plane(field: FieldTable) -> Plane:
    """Build all tables for PG(2,q) over the given field."""
    if field.q > DENSE_LIMIT:
        raise CapacityExceededError(
            f"plane order {field.q} exceeds the limit {DENSE_LIMIT}"
        )
    return Plane(field)
