"""Arc certificates: schema, canonical JSON serialization, reverification.

A certificate names a field, a group, a point list and four claims (arc,
complete, stabilizer order, stabilizer structure).  Verification trusts
nothing: every claim is recomputed from the field spec up, using only
the field, plane and collineation layers, so a certificate emitted by
the search can be checked by a reader that never imports the search.
One routine, _claims, computes the claims for make_certificate, verify
and the modulus sweep.

Bundled fixtures carry known complete 14-arcs of PG(2,31) and PG(2,32).
The PG(2,32) ones are published as pairs of exponents of a primitive
field generator without a usable modulus; resolve_gf32_polynomial builds
the six fields of order 32 from the walk gf.primitive_moduli(2, 5),
reverifies both arcs under each modulus, and reports which candidates
satisfy every claim.  Any two fields of order 32 are isomorphic, so the
sweep works in plane_of the first modulus and reads the points of each
candidate there through the isomorphism, which acts on exponents.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import reduce
from importlib import resources
from itertools import combinations
from operator import xor

from .collineation import DegenerateSetError, GROUPS, PGAMMAL, stabilizer
from .gf import FieldError, FieldTable, build_field, primitive_moduli
from .plane import Plane, _sorted_distinct, candidate_mask, plane_of

CLAIM_KEYS = ("is_arc", "is_complete", "stabilizer_order", "stabilizer_name")


class MalformedCertificateError(ValueError):
    """Certificate does not follow the schema."""


class FieldMismatchError(ValueError):
    """Point coordinates are not elements of the declared field."""


@dataclass
class ArcCertificate:
    p: int
    h: int
    modulus: tuple[int, ...]
    group: str
    points: list[tuple[int, int, int]]
    claims: dict
    meta: dict | None = None


@dataclass
class VerifyReport:
    valid: bool
    failures: list[dict]
    computed: dict


def _integer(value, what: str) -> int:
    """A JSON integer; bool, float and string are refused, not coerced."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise MalformedCertificateError(f"{what} must be a JSON integer, got {value!r}")
    return value


def certificate_from_dict(data: dict) -> ArcCertificate:
    try:
        fld = data["field"]
        cert = ArcCertificate(
            p=_integer(fld["p"], "field p"),
            h=_integer(fld["h"], "field h"),
            modulus=tuple(_integer(c, "modulus entry") for c in fld["modulus"]),
            group=data["group"],
            points=[tuple(_integer(c, "point coordinate") for c in pt) for pt in data["points"]],
            claims={k: data["claims"][k] for k in CLAIM_KEYS},
            meta=data.get("meta"),
        )
    except MalformedCertificateError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedCertificateError(f"bad certificate structure: {exc}") from exc
    if cert.group not in GROUPS:
        raise MalformedCertificateError(f"unknown group {cert.group!r}")
    if any(len(pt) != 3 for pt in cert.points):
        raise MalformedCertificateError("points must be coordinate triples")
    if not isinstance(cert.claims["is_arc"], bool) or not isinstance(
        cert.claims["is_complete"], bool
    ):
        raise MalformedCertificateError("is_arc / is_complete claims must be booleans")
    _integer(cert.claims["stabilizer_order"], "stabilizer_order claim")
    if not isinstance(cert.claims["stabilizer_name"], str):
        raise MalformedCertificateError("stabilizer_name claim must be a string")
    return cert


def parse_certificate(text: str) -> ArcCertificate:
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of too many digits
        raise MalformedCertificateError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise MalformedCertificateError("certificate must be a JSON object")
    return certificate_from_dict(data)


def certificate_to_dict(cert: ArcCertificate) -> dict:
    out = {
        "field": {"p": cert.p, "h": cert.h, "modulus": list(cert.modulus)},
        "group": cert.group,
        "points": [list(pt) for pt in cert.points],
        "claims": {k: cert.claims[k] for k in CLAIM_KEYS},
    }
    if cert.meta is not None:
        out["meta"] = cert.meta
    return out


def serialize_certificate(cert: ArcCertificate) -> str:
    """Canonical form: fixed key order, points in ascending index order
    (lexicographic on normalized triples), UTF-8, trailing newline."""
    data = certificate_to_dict(replace(cert, points=sorted(cert.points)))
    return json.dumps(data, indent=2, ensure_ascii=False) + "\n"


def make_certificate(plane: Plane, group: str, point_ids, meta: dict | None = None) -> ArcCertificate:
    """Certificate for a point set with claims filled in by recomputation.
    A repeated id raises DuplicatePointsError."""
    ids = _sorted_distinct(point_ids, plane.size)
    claims, _ = _claims(plane, group, ids)
    field = plane.field
    return ArcCertificate(
        p=field.p,
        h=field.h,
        modulus=field.modulus,
        group=group,
        points=[plane.points[i] for i in ids],
        claims=claims,
        meta=meta,
    )


def _claims(plane: Plane, group: str, ids) -> tuple[dict, dict]:
    """(the four claims, their witnesses) recomputed for sorted distinct
    ids.  A degenerate set (no general-position quadruple) has no
    stabilizer to compute and claims order 0, name "unknown".  The
    is_arc witness is a collinear triple and the is_complete witness the
    first non-member on no secant, as coordinate lists; None otherwise."""
    bad = plane.collinear_triple(ids)
    uncovered = candidate_mask(plane, ids)
    try:
        _, structure = stabilizer(plane, ids, group)
    except DegenerateSetError:
        structure = None
    claims = {
        "is_arc": bad is None,
        "is_complete": uncovered == 0,
        "stabilizer_order": structure.order if structure else 0,
        "stabilizer_name": structure.name if structure else "unknown",
    }
    witnesses = {
        "is_arc": None if bad is None else [list(plane.points[i]) for i in bad],
        "is_complete": None if uncovered == 0
        else list(plane.points[(uncovered & -uncovered).bit_length() - 1]),
    }
    return claims, witnesses


def certificate_plane(cert: ArcCertificate) -> tuple[Plane, list[int]]:
    """plane_of the certificate's field, built from its spec on each call,
    and the sorted ids of its points.  A bad field spec, codes outside the
    field, the zero triple and points equal after normalization raise."""
    try:
        field = build_field(cert.p, cert.h, list(cert.modulus))
    except FieldError as exc:
        raise MalformedCertificateError(f"bad field spec: {exc}") from exc
    q = field.q
    for pt in cert.points:
        if any(not 0 <= c < q for c in pt):
            raise FieldMismatchError(f"point {list(pt)} has codes outside GF({q})")
        if pt == (0, 0, 0):
            raise MalformedCertificateError("the zero triple is not a point")
    plane = plane_of(field)
    ids = sorted(plane.point_id(pt) for pt in cert.points)
    if len(set(ids)) != len(ids):
        raise MalformedCertificateError("points are not distinct after normalization")
    return plane, ids


def verify(cert: ArcCertificate) -> VerifyReport:
    """Recompute every claim from scratch and compare."""
    plane, ids = certificate_plane(cert)
    computed, witnesses = _claims(plane, cert.group, ids)
    failures = [
        {"claim": key, "claimed": cert.claims[key], "computed": computed[key],
         "witness": witnesses.get(key)}
        for key in CLAIM_KEYS
        if computed[key] != cert.claims[key]
    ]
    return VerifyReport(valid=not failures, failures=failures, computed=computed)


# ---------------------------------------------------------------------------
# PG(2,32) modulus resolution

FRAME_TRIPLES = [(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]


def points_from_exponents(field, exponents) -> list[tuple[int, int, int]]:
    """Frame plus points (1, g^a, g^b) for the generator g of the field."""
    exp = field.exp
    pts = list(FRAME_TRIPLES)
    pts.extend((1, exp[a], exp[b]) for a, b in exponents)
    return pts


def _sweep_case(plane: Plane, field, exponents, want_order: int, want_name: str) -> dict:
    """The claims of the points published over field, a field of order
    32, computed in plane through the isomorphism that sends the root of
    field.modulus to root0^k, k the least with field.modulus(root0^k) = 0,
    so exponents (a, b) to (k a, k b) mod 31; every claim is invariant
    under it.  The collinear triple is written over field, the first in
    its point order, which is that of the codes."""
    exp0 = plane.field.exp
    k = next(k for k in range(1, 31) if not reduce(
        xor, (exp0[k * i % 31] for i, c in enumerate(field.modulus) if c)))
    triples = points_from_exponents(field, exponents)
    images = points_from_exponents(plane.field, [(k * a % 31, k * b % 31) for a, b in exponents])
    index = plane.point_index
    image = {index[t]: index[u] for t, u in zip(triples, images)}  # ids over field
    ids = sorted(image)
    # a repeat fails the case through "distinct"; claims use the distinct points
    claims, _ = _claims(plane, PGAMMAL, sorted(image.values()))
    result: dict = {"distinct": len(ids) == len(triples), "is_arc": claims["is_arc"]}
    if not claims["is_arc"]:
        bad = next((a, b, c) for (a, x), (b, y), (c, z) in combinations([(i, image[i]) for i in ids], 3)
                   if plane.line_masks[plane.line_rows[x][y]] >> z & 1)
        result["collinear_triple"] = [list(plane.points[i]) for i in bad]
    result.update((k, claims[k]) for k in CLAIM_KEYS[1:])
    want = dict(zip(CLAIM_KEYS, (True, True, want_order, want_name)))
    result["passes"] = result["distinct"] and claims == want
    return result


def resolve_gf32_polynomial(k2_exponents, k3_exponents):
    """Sweep the six candidate moduli for GF(32) and reverify both
    published 14-arcs under each, in the one plane over the first
    modulus.  Returns (passing moduli, report); an empty passing list
    is reported, not raised."""
    k2 = [tuple(e) for e in k2_exponents]
    k3 = [tuple(e) for e in k3_exponents]
    report = {"candidates": []}
    passing = []
    fields = [FieldTable(2, 5, m, exp) for m, exp in primitive_moduli(2, 5)]
    plane = plane_of(fields[0])
    for field in fields:
        entry = {
            "modulus": list(field.modulus),
            "arc_z4": _sweep_case(plane, field, k2, 4, "Z4"),
            "arc_z5": _sweep_case(plane, field, k3, 5, "Z5"),
        }
        entry["passes"] = entry["arc_z4"]["passes"] and entry["arc_z5"]["passes"]
        if entry["passes"]:
            passing.append(field.modulus)
        report["candidates"].append(entry)
    report["passing"] = [list(m) for m in passing]
    return passing, report


# ---------------------------------------------------------------------------
# fixtures


def fixture_text(name: str) -> str:
    res = resources.files("pgarc") / "fixtures" / f"{name}.json"
    return res.read_text(encoding="utf-8")


def load_fixture(name: str) -> ArcCertificate:
    return parse_certificate(fixture_text(name))
