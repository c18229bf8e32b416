"""Command line front end.

Subcommands: classify, find-min, verify, stabilizer, bound.  Results go
to standard output, progress to standard error.  Only classify takes a
threshold and a checkpoint directory: find-min classifies sizes 4 and
5 in memory, in milliseconds, and extends from there.  Exit codes: 0
success, 1 invalid certificate, 2 malformed input, 3 resource budget
exceeded: a field or plane order above its cap, as no flag sets the
class budget of a level, SearchConfig.max_level_classes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from . import certificates, search
from .collineation import GROUPS, PGAMMAL, PGL, DegenerateSetError, generating_subset, stabilizer
from .gf import FieldError, factor_prime_power
from .plane import CapacityExceededError
from .search import CheckpointError, MemoryBudgetExceededError, SearchConfig

CHECKPOINT_ENV = "PGARC_CHECKPOINT_DIR"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MALFORMED = 2
EXIT_BUDGET = 3


def _add_run_flags(sub):
    sub.add_argument("--q", type=int, required=True, help="plane order (prime power)")
    sub.add_argument("--group", choices=list(GROUPS), default=PGL)
    sub.add_argument("--workers", type=int, default=1)


def _make_config(args, **knobs) -> SearchConfig:
    try:
        return SearchConfig(q=args.q, group=args.group, worker_count=args.workers, **knobs)
    except FieldError:
        raise  # a field order over the cap: exit 3, like a plane over capacity
    except ValueError as exc:
        raise _UsageError(str(exc))


class _UsageError(Exception):
    pass


def _cmd_bound(args) -> int:
    try:
        print(search.lower_bound(args.q))
    except ValueError as exc:
        raise _UsageError(str(exc))
    return EXIT_OK


def _cmd_classify(args) -> int:
    config = _make_config(args, classification_threshold=args.threshold,
                          checkpoint_dir=args.checkpoint_dir)
    t0 = time.time()
    levels = search.classify(config)
    for lv in levels:
        print(f"size {lv.size}: {lv.count} classes")
    search.log(f"classified q={args.q} ({args.group}) in {time.time() - t0:.1f}s")
    return EXIT_OK


def _certificate_for(plane, group, rep, result) -> str:
    meta = {
        "min_complete_size": result.size,
        "class_count": result.class_count,
    }
    cert = certificates.make_certificate(plane, group, rep, meta=meta)
    return certificates.serialize_certificate(cert)


def _cmd_find_min(args) -> int:
    config = _make_config(args)
    plane = search.default_plane(args.q)
    result = search.min_complete_size(config, plane)
    print(f"t(2,{args.q}) = {result.size}")
    print(f"classes ({args.group}): {result.class_count}")
    _, h = factor_prime_power(args.q)
    if h > 1:
        other = PGAMMAL if args.group == PGL else PGL
        other_result = search.min_complete_size(dataclasses.replace(config, group=other), plane)
        print(f"classes ({other}): {other_result.class_count}")
    text = _certificate_for(plane, args.group, result.representatives[0], result)
    if args.certificate_out:
        with open(args.certificate_out, "w", encoding="utf-8") as fh:
            fh.write(text)
        search.log(f"certificate written to {args.certificate_out}")
    else:
        print(text, end="")
    return EXIT_OK


def _load_certificate(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise certificates.MalformedCertificateError(f"{path} is not UTF-8 text: {exc}") from None
    return certificates.parse_certificate(text)


def _cmd_verify(args) -> int:
    cert = _load_certificate(args.certificate)
    report = certificates.verify(cert)
    if report.valid:
        print("VALID")
        return EXIT_OK
    print("INVALID")
    for failure in report.failures:
        print(json.dumps(failure))
    return EXIT_INVALID


def _cmd_stabilizer(args) -> int:
    cert = _load_certificate(args.certificate)
    plane, ids = certificates.certificate_plane(cert)
    try:
        elements, structure = stabilizer(plane, ids, cert.group)
    except DegenerateSetError as exc:
        raise _UsageError(str(exc))
    print(f"order: {structure.order}")
    print(f"name: {structure.name}")
    print("generators:")
    for g in generating_subset(plane.field, elements):
        rows = [list(g.matrix[0:3]), list(g.matrix[3:6]), list(g.matrix[6:9])]
        print(json.dumps({"matrix": rows, "frob": g.frob}))
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pgarc",
        description="classify, search and verify complete arcs in PG(2,q)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="exact arc class counts by size")
    _add_run_flags(p_classify)
    p_classify.add_argument("--threshold", type=int, default=8,
                            help="largest arc size to classify")
    p_classify.add_argument("--checkpoint-dir", default=os.environ.get(CHECKPOINT_ENV),
                            help=f"level checkpoint directory (default ${CHECKPOINT_ENV})")
    p_classify.set_defaults(fn=_cmd_classify)

    p_find = sub.add_parser("find-min", help="smallest complete arc size and witness")
    _add_run_flags(p_find)
    p_find.add_argument("--certificate-out", default=None)
    p_find.set_defaults(fn=_cmd_find_min)

    p_verify = sub.add_parser("verify", help="recheck every claim of a certificate")
    p_verify.add_argument("certificate")
    p_verify.set_defaults(fn=_cmd_verify)

    p_stab = sub.add_parser("stabilizer", help="stabilizer of a certificate's arc")
    p_stab.add_argument("certificate")
    p_stab.set_defaults(fn=_cmd_stabilizer)

    p_bound = sub.add_parser("bound", help="arithmetic lower bound on t(2,q)")
    p_bound.add_argument("--q", type=int, required=True)
    p_bound.set_defaults(fn=_cmd_bound)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (certificates.MalformedCertificateError, certificates.FieldMismatchError) as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except CheckpointError as exc:
        print(f"malformed checkpoint: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except (CapacityExceededError, FieldError, MemoryBudgetExceededError) as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
