#!/usr/bin/env python3
"""Regenerate the bundled certificate fixtures.

The three arc certificates cover the known complete 14-arcs: one in
PG(2,31) with stabilizer S3, and two in PG(2,32) with stabilizers Z4 and
Z5.  The PG(2,32) arcs are published as exponent pairs of a primitive
generator without a usable modulus, so this script first sweeps all six
degree-5 primitive polynomials over GF(2), commits the full sweep report,
and freezes the certificates under every modulus that validates all
claims (the sweep finds exactly one).  Claims inside the certificates are
filled by recomputation, never copied.
"""

import json
import sys
import time
from pathlib import Path

from pgarc.certificates import (
    make_certificate,
    points_from_exponents,
    resolve_gf32_polynomial,
    serialize_certificate,
)
from pgarc.gf import build_field
from pgarc.plane import plane_of

FIXTURE_DIR = Path(__file__).resolve().parents[1] / "src" / "pgarc" / "fixtures"

ARC14_Q31_POINTS = [
    (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1),
    (1, 3, 10), (1, 5, 11), (1, 9, 29), (1, 12, 19), (1, 13, 6),
    (1, 14, 3), (1, 16, 9), (1, 20, 26), (1, 21, 15), (1, 22, 16),
]

# (generator-exponent pairs (a, b) for points (1, g^a, g^b); frame implied)
ARC14_Q32_Z4_EXPONENTS = [
    (17, 2), (27, 4), (26, 13), (2, 1), (1, 28),
    (18, 19), (15, 9), (20, 10), (23, 29), (10, 12),
]
ARC14_Q32_Z5_EXPONENTS = [
    (24, 1), (7, 14), (1, 28), (8, 18), (28, 10),
    (22, 7), (2, 22), (23, 29), (30, 13), (25, 23),
]


def write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def main() -> int:
    FIXTURE_DIR.mkdir(parents=True, exist_ok=True)

    t0 = time.time()
    passing, report = resolve_gf32_polynomial(
        ARC14_Q32_Z4_EXPONENTS, ARC14_Q32_Z5_EXPONENTS
    )
    report["sweep_seconds"] = round(time.time() - t0, 1)
    write(
        FIXTURE_DIR / "gf32_resolution.json",
        json.dumps(report, indent=2) + "\n",
    )
    if len(passing) != 1:
        print(f"expected exactly one passing modulus, got {passing}", file=sys.stderr)

    field31 = build_field(31)
    plane31 = plane_of(field31)
    ids = [plane31.point_id(t) for t in ARC14_Q31_POINTS]
    cert = make_certificate(plane31, "pgl", ids)
    write(FIXTURE_DIR / "arc14_q31_s3.json", serialize_certificate(cert))

    for name, exponents in (
        ("arc14_q32_z4", ARC14_Q32_Z4_EXPONENTS),
        ("arc14_q32_z5", ARC14_Q32_Z5_EXPONENTS),
    ):
        for modulus in passing:
            field = build_field(2, 5, list(modulus))
            plane = plane_of(field)
            pts = points_from_exponents(field, exponents)
            arc_ids = [plane.point_id(t) for t in pts]
            meta = {
                "generator_exponents": [list(e) for e in exponents],
                "modulus_resolution": "gf32_resolution.json",
                # display only; integer codes are authoritative
                "points_power": [
                    [field.power_repr(c) for c in plane.points[i]]
                    for i in sorted(arc_ids)
                ],
            }
            cert = make_certificate(plane, "pgammal", arc_ids, meta=meta)
            write(FIXTURE_DIR / f"{name}.json", serialize_certificate(cert))
    return 0


if __name__ == "__main__":
    sys.exit(main())
