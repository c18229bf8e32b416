"""Certificate schema, verification, fixtures and the CLI."""

import json
import random
import subprocess
import sys
from itertools import combinations

import pytest

from pgarc.certificates import (
    FieldMismatchError,
    MalformedCertificateError,
    certificate_plane,
    fixture_text,
    load_fixture,
    make_certificate,
    parse_certificate,
    serialize_certificate,
    verify,
)
from pgarc.collineation import PGL, standard_frame
from pgarc.plane import DuplicatePointsError
import oracles
from support import get_plane

ARC_FIXTURES = ["arc14_q31_s3", "arc14_q32_z4", "arc14_q32_z5"]


@pytest.mark.parametrize("name", ARC_FIXTURES)
def test_bundled_certificates_verify(name):
    """Each fixture verifies, and its claims recomputed from its points
    give back its bytes."""
    cert = load_fixture(name)
    report = verify(cert)
    assert report.valid, report.failures
    plane, ids = certificate_plane(cert)
    again = make_certificate(plane, cert.group, ids, meta=cert.meta)
    assert serialize_certificate(again) == fixture_text(name)


def test_fixture_claims():
    assert load_fixture("arc14_q31_s3").claims == {
        "is_arc": True,
        "is_complete": True,
        "stabilizer_order": 6,
        "stabilizer_name": "S3",
    }
    assert load_fixture("arc14_q32_z4").claims["stabilizer_name"] == "Z4"
    assert load_fixture("arc14_q32_z5").claims["stabilizer_name"] == "Z5"
    for name in ("arc14_q32_z4", "arc14_q32_z5"):
        assert len(load_fixture(name).points) == 14


def test_frame_claiming_complete_is_invalid():
    pl = get_plane(31)
    cert = make_certificate(pl, PGL, standard_frame(pl))
    assert cert.claims["is_complete"] is False
    cert.claims["is_complete"] = True
    report = verify(cert)
    assert not report.valid
    (failure,) = [f for f in report.failures if f["claim"] == "is_complete"]
    assert failure["computed"] is False
    witness = tuple(failure["witness"])
    uncovered = pl.point_index[witness]
    frame = standard_frame(pl)
    for a in frame:
        for b in frame:
            if a < b:
                assert not pl.collinear(a, b, uncovered)


def test_mutated_fixture_rejected_with_collinear_witness():
    cert = load_fixture("arc14_q31_s3")
    pl = get_plane(31)
    ids = [pl.point_id(p) for p in cert.points]
    li = pl.line_through(ids[0], ids[1])
    bad = next(p for p in pl.points_on_line[li] if p not in ids)
    cert.points[-1] = pl.points[bad]
    report = verify(cert)
    assert not report.valid
    arc_failures = [f for f in report.failures if f["claim"] == "is_arc"]
    assert arc_failures and arc_failures[0]["witness"] is not None
    w = [pl.point_index[tuple(t)] for t in arc_failures[0]["witness"]]
    assert pl.collinear(*w)


def test_all_four_claims_flipped_pins_the_failure_list():
    """The exact failures, in CLAIM_KEYS order with their witnesses, of a
    certificate whose every claim is wrong: the frame of PG(2,7) plus a
    point on a secant (both witnesses set), and the q = 31 fixture (no
    witness, since its arc and completeness claims fail the other way)."""
    pl = get_plane(7)
    frame = list(standard_frame(pl))
    cert = make_certificate(pl, PGL, frame + [2])  # point 2 is on the line through 0 and 1
    stab = "other(order=8, element_orders=1^1,2^5,4^2)"
    assert cert.claims == {"is_arc": False, "is_complete": False,
                           "stabilizer_order": 8, "stabilizer_name": stab}
    cert.claims = {"is_arc": True, "is_complete": True,
                   "stabilizer_order": 1, "stabilizer_name": "trivial"}
    report = verify(cert)
    assert not report.valid
    assert report.failures == [
        {"claim": "is_arc", "claimed": True, "computed": False,
         "witness": [[0, 0, 1], [0, 1, 0], [0, 1, 1]]},
        {"claim": "is_complete", "claimed": True, "computed": False, "witness": [1, 2, 3]},
        {"claim": "stabilizer_order", "claimed": 1, "computed": 8, "witness": None},
        {"claim": "stabilizer_name", "claimed": "trivial", "computed": stab, "witness": None},
    ]
    assert report.computed == {"is_arc": False, "is_complete": False,
                               "stabilizer_order": 8, "stabilizer_name": stab}

    fixture = load_fixture("arc14_q31_s3")
    fixture.claims = {"is_arc": False, "is_complete": False,
                      "stabilizer_order": 3, "stabilizer_name": "Z3"}
    assert verify(fixture).failures == [
        {"claim": "is_arc", "claimed": False, "computed": True, "witness": None},
        {"claim": "is_complete", "claimed": False, "computed": True, "witness": None},
        {"claim": "stabilizer_order", "claimed": 3, "computed": 6, "witness": None},
        {"claim": "stabilizer_name", "claimed": "Z3", "computed": "S3", "witness": None},
    ]


def test_serialization_round_trip_is_byte_identical():
    for name in ARC_FIXTURES:
        text = fixture_text(name)
        assert serialize_certificate(parse_certificate(text)) == text


def test_points_serialized_in_index_order():
    for name in ARC_FIXTURES:
        cert = load_fixture(name)
        assert cert.points == sorted(cert.points)


def test_serialize_leaves_caller_points_unsorted():
    cert = load_fixture("arc14_q31_s3")
    cert.points.reverse()
    shuffled = list(cert.points)
    assert serialize_certificate(cert) == fixture_text("arc14_q31_s3")
    assert cert.points == shuffled


def test_parse_rejects_malformed():
    with pytest.raises(MalformedCertificateError):
        parse_certificate("not json {")
    with pytest.raises(MalformedCertificateError):
        parse_certificate(json.dumps({"field": {"p": 7, "h": 1, "modulus": [4, 1]}}))
    good = json.loads(fixture_text("arc14_q31_s3"))
    good["claims"]["is_arc"] = "yes"
    with pytest.raises(MalformedCertificateError):
        parse_certificate(json.dumps(good))
    good = json.loads(fixture_text("arc14_q31_s3"))
    good["group"] = "psl"
    with pytest.raises(MalformedCertificateError):
        parse_certificate(json.dumps(good))


def _set_point_coordinate(data, value):
    data["points"][3][1] = value


def _set_point_as_strings(data, value):
    data["points"][3] = [str(c) for c in data["points"][3]]


def _set_field(key):
    def edit(data, value):
        data["field"][key] = value
    return edit


def _set_modulus_entry(data, value):
    data["field"]["modulus"][0] = value


def _set_stabilizer_order(data, value):
    data["claims"]["stabilizer_order"] = value


@pytest.mark.parametrize("edit, value", [
    (_set_point_coordinate, 11.7),
    (_set_point_coordinate, 11.0),
    (_set_point_coordinate, True),
    (_set_point_as_strings, None),
    (_set_field("p"), 31.9),
    (_set_field("p"), "31"),
    (_set_field("h"), 1.0),
    (_set_modulus_entry, "28"),
    (_set_modulus_entry, 28.0),
    (_set_stabilizer_order, True),
    (_set_stabilizer_order, 3.0),
], ids=["coordinate-float", "coordinate-integral-float", "coordinate-bool",
        "coordinates-strings", "p-float", "p-string", "h-float",
        "modulus-string", "modulus-float", "stabilizer-order-bool", "stabilizer-order-float"])
def test_parse_requires_json_integers(edit, value):
    """Field spec, modulus, coordinates and stabilizer order must be JSON
    integers: anything else is refused, never coerced into a VALID
    verdict."""
    data = json.loads(fixture_text("arc14_q31_s3"))
    edit(data, value)
    with pytest.raises(MalformedCertificateError, match="JSON integer"):
        parse_certificate(json.dumps(data))


def test_verify_rejects_out_of_field_codes():
    cert = load_fixture("arc14_q31_s3")
    cert.points[5] = (1, 31, 2)
    with pytest.raises(FieldMismatchError):
        verify(cert)


def test_verify_rejects_duplicate_points():
    cert = load_fixture("arc14_q31_s3")
    # same projective point, different scaling
    x0, x1, x2 = cert.points[4]
    f = get_plane(31).field
    cert.points[5] = tuple(f.mul(2, c) for c in (x0, x1, x2))
    with pytest.raises(MalformedCertificateError):
        verify(cert)


def test_make_certificate_rejects_repeated_ids():
    """A repeated id raises, as in canonical forms and stabilizers; it is
    not merged into a certificate of fewer points."""
    with pytest.raises(DuplicatePointsError, match="point 16 is repeated"):
        make_certificate(get_plane(7), PGL, [0, 1, 8, 16, 16])
    assert len(make_certificate(get_plane(7), PGL, [16, 0, 8, 1]).points) == 4


def test_verify_accepts_any_primitive_modulus_of_prime_field():
    """Prime-field arithmetic does not depend on the linear modulus, so a
    certificate re-specified with a different primitive root still checks."""
    cert = load_fixture("arc14_q31_s3")
    cert.modulus = (28, 1)  # x - 3; 3 generates GF(31)*
    assert verify(cert).valid


def test_verify_rejects_bad_field_spec():
    """A non-primitive modulus is refused on every call, also once the
    plane of the certificate's order is cached: the field is built from
    the spec each time, and a failed build caches nothing."""
    cert = load_fixture("arc14_q32_z4")
    assert verify(cert).valid
    cert.modulus = (1, 1, 0, 0, 0, 1)  # reducible degree-5 polynomial
    for _ in range(2):
        with pytest.raises(MalformedCertificateError):
            verify(cert)


@pytest.mark.parametrize("name", ARC_FIXTURES)
def test_verify_report_does_not_depend_on_the_plane_cache(name, monkeypatch):
    """The cached plane carries no verdict: a fixture, and a copy with its
    completeness claim flipped, get the same report from a cold cache as
    from a warm one."""
    from pgarc import plane as plane_layer

    flipped = load_fixture(name)
    flipped.claims["is_complete"] = not flipped.claims["is_complete"]
    for cert in (load_fixture(name), flipped):
        monkeypatch.setattr(plane_layer, "_PLANES", {})
        cold = verify(cert)
        assert len(plane_layer._PLANES) == 1
        assert verify(cert) == cold
    assert cold.failures and cold.failures[0]["claim"] == "is_complete"


def test_verifier_does_not_import_search_layers():
    """Certificates must be checkable from the geometry layers alone."""
    import pgarc.certificates as certs

    source = open(certs.__file__, encoding="utf-8").read()
    for banned in ("arcs", "search", "scheduler", "cli"):
        assert f"from .{banned} import" not in source
        assert f"from pgarc.{banned} import" not in source
        assert f"import pgarc.{banned}" not in source


def test_resolution_report_is_committed_and_consistent():
    report = json.loads(fixture_text("gf32_resolution"))
    assert len(report["candidates"]) == 6
    assert report["passing"] == [[1, 0, 0, 1, 0, 1]]
    for entry in report["candidates"]:
        for key in ("arc_z4", "arc_z5"):
            case = entry[key]
            if not case["is_arc"]:
                assert case["collinear_triple"], entry["modulus"]
    # fixtures carry the resolved modulus
    for name in ("arc14_q32_z4", "arc14_q32_z5"):
        cert = load_fixture(name)
        assert list(cert.modulus) in report["passing"]
        assert cert.meta["modulus_resolution"] == "gf32_resolution.json"


def test_sweep_builds_one_field_per_modulus(monkeypatch):
    """The sweep builds each of the six fields once, in the order of the
    one walk over the moduli, from the walk's own exp table: no modulus
    is walked again through build_field."""
    from pgarc import certificates, gf

    def counted_field(p, h, modulus, exp):
        fields.append(modulus)
        return table(p, h, modulus, exp)

    def counted_build(*args):
        builds.append(args)
        return build(*args)

    fields, builds = [], []
    table, build = certificates.FieldTable, gf.build_field
    monkeypatch.setattr(certificates, "FieldTable", counted_field)
    monkeypatch.setattr(gf, "build_field", counted_build)
    monkeypatch.setattr(certificates, "build_field", counted_build)
    z4, z5 = load_fixture("arc14_q32_z4"), load_fixture("arc14_q32_z5")
    certificates.resolve_gf32_polynomial(z4.meta["generator_exponents"],
                                         z5.meta["generator_exponents"])
    assert fields == [m for m, _ in gf.primitive_moduli(2, 5)] and len(fields) == 6
    assert builds == []


def test_sweep_case_recomputes_on_distinct_points():
    """A published point that repeats another fails the case through its
    distinct flag; every other claim is the one of the distinct points."""
    from pgarc.certificates import _sweep_case

    pl = get_plane(32)
    exponents = [tuple(e) for e in load_fixture("arc14_q32_z5").meta["generator_exponents"]]
    clean = _sweep_case(pl, pl.field, exponents, 5, "Z5")
    repeated = _sweep_case(pl, pl.field, exponents + [exponents[0], (0, 0)], 5, "Z5")
    assert clean["distinct"] and not repeated["distinct"]
    assert not repeated["passes"]
    for key in ("is_arc", "is_complete", "stabilizer_order", "stabilizer_name"):
        assert repeated[key] == clean[key], key


def test_sweep_matches_the_per_modulus_oracle():
    """The sweep in one plane through the field isomorphism gives the
    report of a plane built over each modulus, on the fixtures and on
    seeded random exponent sets for every modulus: arcs, non-arcs with
    several collinear triples, where the witness is the first in the
    candidate field's point order, and sets with a repeated pair."""
    from pgarc import certificates
    from pgarc.gf import build_field, primitive_moduli
    from pgarc.plane import build_plane

    z4, z5 = (load_fixture(n).meta["generator_exponents"] for n in ("arc14_q32_z4", "arc14_q32_z5"))
    assert certificates.resolve_gf32_polynomial(z4, z5) == oracles.resolve_gf32_polynomial(z4, z5)

    rng = random.Random(2021)
    sets = []
    for size in [2, 3, 4, 5, 6, 8, 10, 12, 14, 16] * 2:
        exps = [(rng.randrange(31), rng.randrange(31)) for _ in range(size)]
        if len(sets) % 4 == 3:
            exps.append(exps[0])
        sets.append(exps)
    fields = [build_field(2, 5, list(m)) for m, _ in primitive_moduli(2, 5)]
    plane0 = build_plane(fields[0])
    several = 0
    for field in fields:
        plane = build_plane(field)
        for exps in sets:
            got = certificates._sweep_case(plane0, field, exps, 4, "Z4")
            assert got == oracles._sweep_case(plane, exps, 4, "Z4"), (field.modulus, exps)
            ids = sorted({plane.point_id(t) for t in certificates.points_from_exponents(field, exps)})
            several += sum(plane.collinear(*t) for t in combinations(ids, 3)) > 1
    assert several >= 20 and sum(len(set(e)) < len(e) for e in sets) >= 4


def test_sweep_builds_one_plane(monkeypatch):
    """The sweep builds one plane, not one per modulus; from a cold plane
    cache a certify pass, three fixtures verified and the sweep, builds
    one per distinct field, two, and a second pass builds none."""
    from pgarc import certificates, plane as plane_layer
    from pgarc.gf import primitive_moduli

    def counted(field):
        calls.append(field.modulus)
        return build(field)

    calls = []
    build = plane_layer.build_plane
    monkeypatch.setattr(plane_layer, "build_plane", counted)
    monkeypatch.setattr(plane_layer, "_PLANES", {})
    z4, z5 = (load_fixture(n).meta["generator_exponents"] for n in ("arc14_q32_z4", "arc14_q32_z5"))
    certificates.resolve_gf32_polynomial(z4, z5)
    first = next(primitive_moduli(2, 5))[0]
    assert calls == [first]
    monkeypatch.setattr(plane_layer, "_PLANES", {})
    calls.clear()
    for _ in range(2):
        for name in ARC_FIXTURES:
            assert verify(load_fixture(name)).valid
        certificates.resolve_gf32_polynomial(z4, z5)
    assert calls == [load_fixture("arc14_q31_s3").modulus, first]
    assert load_fixture("arc14_q32_z4").modulus == first


def test_verify_builds_few_rows(monkeypatch):
    """Verifying arc14_q32_z4 reads 50 of the 1,057 rows of its plane's
    pair -> line lookup, and the plane builds no other row."""
    from pgarc import plane as plane_layer

    def kept(field):
        planes.append(build(field))
        return planes[-1]

    planes = []
    build = plane_layer.build_plane
    monkeypatch.setattr(plane_layer, "build_plane", kept)
    monkeypatch.setattr(plane_layer, "_PLANES", {})
    assert verify(load_fixture("arc14_q32_z4")).valid
    assert len(planes) == 1 and len(planes[0].line_rows) <= 64


# ---------------------------------------------------------------------------
# CLI


def run_cli(*args, **kw):
    return subprocess.run(
        [sys.executable, "-m", "pgarc.cli", *args],
        capture_output=True,
        text=True,
        **kw,
    )


def fixture_on_disk(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(fixture_text(name), encoding="utf-8")
    return path


def test_cli_bound():
    proc = run_cli("bound", "--q", "31")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "11"


def test_cli_bound_large_q():
    """A prime near 2^61 is factored at once; a q from the limit of the
    primality test on is a usage error, exit 2."""
    proc = run_cli("bound", "--q", "2305843009213693951", timeout=60)
    assert proc.returncode == 0 and proc.stdout == "2630119585\n"
    proc = run_cli("bound", "--q", str(10**25))
    assert proc.returncode == 2 and "the limit of the primality test" in proc.stderr


def test_cli_verify_valid_certificate(tmp_path):
    path = fixture_on_disk(tmp_path, "arc14_q31_s3")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "VALID"


def test_cli_verify_invalid_certificate(tmp_path):
    data = json.loads(fixture_text("arc14_q31_s3"))
    data["claims"]["stabilizer_order"] = 12
    path = tmp_path / "bad_claim.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    proc = run_cli("verify", str(path))
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0] == "INVALID"


def test_cli_verify_malformed_input(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{", encoding="utf-8")
    assert run_cli("verify", str(path)).returncode == 2
    data = json.loads(fixture_text("arc14_q31_s3"))
    data["points"][3][1] = 11.7
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run_cli("verify", str(path)).returncode == 2
    path.write_bytes(b"\xff{}")  # not UTF-8
    for command in ("verify", "stabilizer"):
        proc = run_cli(command, str(path))
        assert proc.returncode == 2
        assert proc.stderr.startswith("malformed certificate: ") and proc.stderr.count("\n") == 1
    assert run_cli("frobnicate").returncode == 2  # argparse usage error


def test_cli_stabilizer(tmp_path):
    path = fixture_on_disk(tmp_path, "arc14_q31_s3")
    proc = run_cli("stabilizer", str(path))
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "order: 6"
    assert lines[1] == "name: S3"
    gens = [json.loads(line) for line in lines[3:]]
    assert gens and all(g["frob"] == 0 for g in gens)


def test_cli_stabilizer_rejects_sets_without_a_frame(tmp_path, capsys):
    """Three points of PG(2,7), or five with no 4 in general position,
    have no stabilizer to compute: verify finds their certificates VALID
    with order 0 and name "unknown", and stabilizer rejects them with
    the reason on stderr and exit 2."""
    from pgarc import cli

    pl = get_plane(7)
    frame = standard_frame(pl)
    line = pl.points_on_line[pl.line_through(frame[0], frame[1])]
    for ids, reason in ((frame[:3], "stabilizer needs at least 4 points"),
                        ((*line[:4], frame[2]), "no 4-subset in general position")):
        cert = make_certificate(pl, PGL, ids)
        assert (cert.claims["stabilizer_order"], cert.claims["stabilizer_name"]) == (0, "unknown")
        path = tmp_path / "degenerate.json"
        path.write_text(serialize_certificate(cert), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["verify", str(path)]) == 0
        assert capsys.readouterr().out == "VALID\n"
        assert cli.main(["stabilizer", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {reason}\n")


@pytest.mark.parametrize("case", ["code-outside-field", "repeated-point"])
def test_cli_stabilizer_rejects_what_verify_rejects(tmp_path, case):
    """Both commands check the certificate's points the same way: (0, 0, 40)
    once normalized to point 0 of PG(2,31) under stabilizer, and a repeated
    point was taken twice."""
    data = json.loads(fixture_text("arc14_q31_s3"))
    if case == "code-outside-field":
        k = data["points"].index([0, 0, 1])
        data["points"][k] = [0, 0, 40]
        message = "codes outside GF(31)"
    else:
        data["points"].append(data["points"][5])
        message = "not distinct"
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for command in ("verify", "stabilizer"):
        proc = run_cli(command, str(path))
        assert proc.returncode == 2, (command, proc.stdout)
        assert message in proc.stderr, (command, proc.stderr)


def test_cli_classify_counts():
    proc = run_cli("classify", "--q", "5", "--threshold", "6")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        "size 4: 1 classes",
        "size 5: 1 classes",
        "size 6: 1 classes",
    ]


def test_cli_find_min_emits_verifiable_certificate(tmp_path):
    cert_path = tmp_path / "witness.json"
    proc = run_cli(
        "find-min", "--q", "5", "--certificate-out", str(cert_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "t(2,5) = 6" in proc.stdout
    assert "classes (pgl): 1" in proc.stdout
    # a fresh process re-verifies the emitted certificate
    check = run_cli("verify", str(cert_path))
    assert check.returncode == 0, check.stdout + check.stderr


def test_cli_find_min_q11(tmp_path):
    cert_path = tmp_path / "w11.json"
    proc = run_cli(
        "find-min", "--q", "11", "--group", "pgl",
        "--certificate-out", str(cert_path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "t(2,11) = 7" in proc.stdout
    assert "classes (pgl): 1" in proc.stdout
    cert = parse_certificate(cert_path.read_text(encoding="utf-8"))
    assert len(cert.points) == 7
    assert verify(cert).valid


def test_degenerate_set_certificate_round_trips():
    pl = get_plane(5)
    cert = make_certificate(pl, PGL, [0, 1, 6])  # triangle, no stabilizer computed
    assert cert.claims["stabilizer_order"] == 0
    assert cert.claims["stabilizer_name"] == "unknown"
    assert verify(cert).valid


def test_cli_proportions_usage_errors():
    """Neither command takes --proportions or --stealing: parents always go
    to the next free worker, so the flags would change nothing."""
    for command in (["classify", "--threshold", "5"], ["find-min"]):
        for flags in (["--proportions", "50,50"], ["--stealing"]):
            proc = run_cli(*command, "--q", "5", "--workers", "2", *flags)
            assert proc.returncode == 2
            assert "unrecognized arguments: " + flags[0] in proc.stderr


def test_cli_find_min_rejects_bound_flag(tmp_path):
    """find-min always searches up to q + 2; it has no size cap option.
    Nor has it a classification depth or a checkpoint directory: it
    classifies sizes 4 and 5 in memory, in milliseconds, and writes
    nothing."""
    for flags in (["--bound", "9"], ["--threshold", "5"], ["--checkpoint-dir", str(tmp_path)]):
        proc = run_cli("find-min", "--q", "5", *flags)
        assert proc.returncode == 2, flags
        assert "unrecognized arguments: " + flags[0] in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_cli_oversized_field_specs_are_malformed(tmp_path, capsys, monkeypatch):
    """A certificate over the prime 2^61 - 1, over GF(2^100000), or with
    an integer of 5,000 digits is malformed: verify and stabilizer exit 2
    with a short message.  The order cap comes before the primality test
    (guarded here) and p^h is never built."""
    from pgarc import cli, gf

    def guarded(n):
        assert n <= gf.MAX_ORDER, "is_prime called above the order cap"
        return is_prime(n)

    is_prime = gf.is_prime
    monkeypatch.setattr(gf, "is_prime", guarded)
    text = serialize_certificate(make_certificate(get_plane(5), PGL, standard_frame(get_plane(5))))
    assert text.count('"p": 5,') == 1 and text.count('"h": 1,') == 1
    cases = [(text.replace('"p": 5,', '"p": 2305843009213693951,'), "exceeds supported maximum 256"),
             (text.replace('"h": 1,', '"h": 100000,'), "exceeds supported maximum 256"),
             (text.replace('"p": 5,', '"p": ' + "1" * 5000 + ","), "malformed certificate")]
    for i, (bad, message) in enumerate(cases):
        path = tmp_path / f"oversized{i}.json"
        path.write_text(bad, encoding="utf-8")
        for command in ("verify", "stabilizer"):
            capsys.readouterr()
            assert cli.main([command, str(path)]) == 2, (i, command)
            out, err = capsys.readouterr()
            assert out == "" and message in err and len(err) < 300, (i, command, err[:300])


def test_cli_field_order_over_cap_is_budget_error():
    proc = run_cli("classify", "--q", "257", "--threshold", "4")
    assert proc.returncode == 3
    assert "exceeds supported maximum 256" in proc.stderr


def test_cli_search_order_cap_comes_before_factoring(capsys, monkeypatch):
    """classify and find-min refuse a q over the order cap with exit 3
    before q is factored (guarded here)."""
    from pgarc import cli, gf, search

    def guarded(n):
        assert n <= gf.MAX_ORDER, "factor_prime_power called above the order cap"
        return factor(n)

    factor = gf.factor_prime_power
    for module in (gf, search, cli):
        monkeypatch.setattr(module, "factor_prime_power", guarded)
    for command, flags in (("classify", ["--threshold", "5"]), ("find-min", [])):
        for q in ("2305843009213693951", "257"):
            capsys.readouterr()
            assert cli.main([command, "--q", q, *flags]) == 3, (command, q)
            out, err = capsys.readouterr()
            assert out == "" and "exceeds supported maximum 256" in err, (command, q, err)
