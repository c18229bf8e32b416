"""Incidence tables for the Desarguesian projective plane PG(2,q).

Points and lines are normalized homogeneous triples of field codes (first
nonzero coordinate scaled to 1) indexed by their rank in lexicographic
order of the coordinate codes; _normalized scales them, and collineation
matrices, so.  The same normalized triples serve as line coefficient
vectors, so points and lines share one indexing.  The point list and the
per-line point lists and bitmasks are built densely, each line's points
solved from its equation, no dot product.  The pair -> line lookup has
one row per point, filled from the lines through it when first read: a
search reads few of the n rows.  line_logs has one row per line, its
log at every point, filled when first read from the field's Zech rows.
No value a reader sees changes, so plane_of keeps one plane per field
spec, rows and all, for the process.
"""

from __future__ import annotations

from .gf import FieldTable

# Dense line_through tables stop being reasonable above this order.
DENSE_LIMIT = 64
# The line_logs byte for a zero: every log is at most DENSE_LIMIT - 2.
ZERO = 255


class CapacityExceededError(ValueError):
    """Plane order above DENSE_LIMIT."""


class SamePointError(ValueError):
    """line_through needs two distinct points."""


class DuplicatePointsError(ValueError):
    """Collinearity tests and secant masks need pairwise distinct points."""


class PointRangeError(ValueError):
    """A point id outside [0, n) or a coordinate code outside GF(q)."""


def _sorted_distinct(ids, n: int) -> list[int]:
    """The ids sorted; a repeat, found as two equal neighbours, or an id
    outside [0, n), found at either end, raises."""
    pts = sorted(ids)
    if pts and (pts[0] < 0 or pts[-1] >= n):
        raise PointRangeError(f"point ids {pts} are not all in [0, {n})")
    for a, b in zip(pts, pts[1:]):
        if a == b:
            raise DuplicatePointsError(f"point {a} is repeated in {pts}")
    return pts


def _normalized(field, v) -> tuple[int, ...]:
    """v scaled so its first nonzero entry is 1: the one representative of
    its class modulo scalars, for points, lines and matrices alike.  The
    zero vector raises ValueError."""
    for e in v:
        if e:
            if e == 1:
                return tuple(v)
            s, mt = field.inv_list[e] * field.q, field.mul_flat
            return tuple([mt[s + x] for x in v])
    raise ValueError(f"cannot normalize the zero vector {list(v)}")


class _LineRows(dict):
    """The pair -> line lookup: row a maps each other point to its line with
    a, and a to -1, filled on first read from the lines through a, which are
    the points of line a.  A key outside [0, n) or not an int raises."""

    def __init__(self, on_line: list[tuple[int, ...]]):
        super().__init__()
        self.on_line = on_line

    def __missing__(self, a) -> list[int]:
        on_line, n = self.on_line, len(self.on_line)
        if type(a) is not int or not 0 <= a < n:
            raise PointRangeError(f"row {a!r} is not a point id in [0, {n})")
        row = [-1] * n
        for li in on_line[a]:
            for j in on_line[li]:
                row[j] = li
        row[a] = -1
        self[a] = row
        return row


class _LineLogs(dict):
    """Row l: the log of line l at every point, ZERO at its own points,
    as bytes, filled on first read.  With l2 != 0 the line takes l2 (c +
    b) on the points (1, a, b) of one a, c = (l0 + l1 a) / l2, so that
    run of q entries is the Zech row zech[c], the logs of c + b over b,
    shifted by log l2; with l2 = 0 it is constant.  The field's tables
    are built on the first fill.  A key outside [0, n) or not an int
    raises."""

    def __init__(self, field: FieldTable, lines: list[tuple[int, int, int]]):
        super().__init__()
        self.field, self.lines, self.tables = field, lines, None

    def __missing__(self, l) -> bytes:
        field, n = self.field, len(self.lines)
        if type(l) is not int or not 0 <= l < n:
            raise PointRangeError(f"line {l!r} is not a line id in [0, {n})")
        q, at, mt = field.q, field.add_flat, field.mul_flat
        if self.tables is None:  # log with ZERO for 0, the Zech rows, log l2 -> its shift
            log, m = [ZERO, *field.log[1:]], q - 1
            cycle, tail = bytes(range(m)) * 2, bytes(255 - m) + bytes([ZERO])
            self.tables = (log, [bytes([log[v] for v in at[c * q:c * q + q]]) for c in range(q)],
                           [cycle[e:e + m] + tail for e in range(m)])
        log, zech, shift = self.tables
        l0, l1, l2 = self.lines[l]
        if l2:  # l2 at (0, 0, 1), l2 (c1 + b) at (0, 1, b), l2 (c0 + c1 a + b) at (1, a, b)
            s = field.inv_list[l2]
            c0q, c1 = mt[l0 * q + s] * q, mt[l1 * q + s]
            runs = [zech[at[c0q + v]] for v in mt[c1 * q:c1 * q + q]]
            self[l] = b"".join([b"\0", zech[c1], *runs]).translate(shift[log[l2]])
        else:  # 0 at (0, 0, 1), l1 on (0, 1, b), l0 + l1 a on (1, a, b)
            runs = [log[l1], *[log[at[l0 * q + v]] for v in mt[l1 * q:l1 * q + q]]]
            self[l] = bytes([ZERO, *[e for e in runs for _ in range(q)]])
        return self[l]


class Plane:
    def __init__(self, field: FieldTable):
        self.field = field
        self.q = q = field.q
        self.size = n = q * q + q + 1

        # Lexicographic enumeration of the normalized triples.
        points: list[tuple[int, int, int]] = [(0, 0, 1)]
        points.extend((0, 1, b) for b in range(q))
        points.extend((1, a, b) for a in range(q) for b in range(q))
        self.points = points
        self.point_index = {t: i for i, t in enumerate(points)}
        self.lines = points  # same triples read as line coefficients
        # (1, exp[a], exp[b]) has index affine_row[a] + exp[b]
        self.affine_row = [q + 1 + q * e for e in field.exp]

        # solve l.x = 0 for each line l; each case lists its ids ascending
        mt, at, neg, inv = field.mul_flat, field.add_flat, field.neg_list, field.inv_list
        ids = list(range(n))  # one int object per point, shared by every line
        affine = [ids[q + 1 + q * a:2 * q + 1 + q * a] for a in range(q)]  # [a][b]: (1, a, b)
        on_line: list[tuple[int, ...]] = []
        for l0, l1, l2 in points:
            if l2:  # (0, 1, c1) and (1, a, c0 + c1 a) with ci = -li/l2
                s = neg[inv[l2]]
                c0q, c1 = mt[l0 * q + s] * q, mt[l1 * q + s]
                on_line.append((ids[1 + c1], *[r[at[c0q + m]] for r, m in zip(affine, mt[c1 * q:c1 * q + q])]))
            elif l1:  # (0, 0, 1) and (1, -l0/l1, b)
                start = q + 1 + q * mt[neg[l0] * q + inv[l1]]
                on_line.append((0, *ids[start:start + q]))
            else:  # the line x0 = 0
                on_line.append(tuple(ids[:q + 1]))
        self.points_on_line = on_line
        self.line_masks = [sum(1 << i for i in pts) for pts in on_line]

        self.line_rows = _LineRows(on_line)
        self.line_logs = _LineLogs(field, points)
        self.all_points_mask = (1 << n) - 1

        self.frob_point_perms = [
            [self.point_index[(ft[x0], ft[x1], ft[x2])] for x0, x1, x2 in points]
            for ft in field.frob_tables
        ]

    def normalize(self, triple) -> tuple[int, int, int]:
        """Scale a nonzero homogeneous triple so its first nonzero entry is 1."""
        x0, x1, x2 = triple
        q = self.q
        if not (0 <= x0 < q and 0 <= x1 < q and 0 <= x2 < q):
            raise PointRangeError(f"{list(triple)} has codes outside GF({q})")
        if not (x0 or x1 or x2):
            raise ValueError("cannot normalize the zero triple")
        return _normalized(self.field, triple)

    def point_id(self, triple) -> int:
        return self.point_index[self.normalize(triple)]

    def line_through(self, p1: int, p2: int) -> int:
        """Index of the unique line through two distinct points."""
        if p1 == p2:
            raise SamePointError(f"line_through needs distinct points, got {p1} twice")
        a, b = _sorted_distinct((p1, p2), self.size)
        return self.line_rows[a][b]

    def collinear(self, p1: int, p2: int, p3: int) -> bool:
        return self.collinear_triple((p1, p2, p3)) is not None

    def collinear_triple(self, point_ids) -> tuple[int, int, int] | None:
        """First collinear triple (in sorted index order) of a set of
        pairwise distinct points, or None."""
        pts = _sorted_distinct(point_ids, self.size)
        masks = self.line_masks
        for i in range(len(pts)):
            a = pts[i]
            for j in range(i + 1, len(pts)):
                m = masks[self.line_rows[a][pts[j]]]
                for k in range(j + 1, len(pts)):
                    if (m >> pts[k]) & 1:
                        return (a, pts[j], pts[k])
        return None

    def secant_mask(self, ids) -> int:
        """Bitmask of the points on some line through 2 of the points ids,
        which must be pairwise distinct."""
        lm, rows = self.line_masks, self.line_rows
        pts = _sorted_distinct(ids, self.size)
        u = 0
        for i, a in enumerate(pts):
            row = rows[a]
            for b in pts[i + 1 :]:
                u |= lm[row[b]]
        return u

    def __repr__(self):
        return f"Plane(q={self.q}, points={self.size})"


def candidate_mask(plane: Plane, members) -> int:
    """Bitmask of the points on no secant of the pairwise distinct points
    members, members left out: for an arc, the points that extend it to
    an arc.  secant_mask checks the ids before a bit is set."""
    return plane.all_points_mask & ~plane.secant_mask(members) & ~sum(1 << m for m in members)


def build_plane(field: FieldTable) -> Plane:
    """Build all tables for PG(2,q) over the given field."""
    if field.q > DENSE_LIMIT:
        raise CapacityExceededError(
            f"plane order {field.q} exceeds the limit {DENSE_LIMIT}"
        )
    return Plane(field)


_PLANES: dict = {}  # (p, h, modulus) -> the one Plane of that field spec


def plane_of(field: FieldTable) -> Plane:
    """build_plane(field) on the first call for field's spec, that plane after."""
    key = (field.p, field.h, field.modulus)
    if key not in _PLANES:
        _PLANES[key] = build_plane(field)
    return _PLANES[key]
