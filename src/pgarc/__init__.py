"""Exact classification, search and verification of complete arcs in PG(2,q)."""

from .certificates import (
    ArcCertificate,
    load_fixture,
    make_certificate,
    parse_certificate,
    resolve_gf32_polynomial,
    serialize_certificate,
    verify,
)
from .collineation import (
    Collineation,
    GroupStructure,
    PGAMMAL,
    PGL,
    PointSetCanonicalForm,
    apply,
    canonicalize,
    compose,
    frame_map,
    group_order,
    inverse,
    stabilizer,
    standard_frame,
)
from .gf import FieldTable, build_field, factor_prime_power
from .plane import Plane, build_plane
from .scheduler import Partition, partition, run_jobs
from .search import (
    ClassificationLevel,
    SearchConfig,
    classify,
    extend,
    lower_bound,
    min_complete_size,
)

__version__ = "0.1.0"

__all__ = [
    "ArcCertificate",
    "ClassificationLevel",
    "Collineation",
    "FieldTable",
    "GroupStructure",
    "PGAMMAL",
    "PGL",
    "Partition",
    "Plane",
    "PointSetCanonicalForm",
    "SearchConfig",
    "apply",
    "build_field",
    "build_plane",
    "canonicalize",
    "classify",
    "compose",
    "extend",
    "factor_prime_power",
    "frame_map",
    "group_order",
    "inverse",
    "load_fixture",
    "lower_bound",
    "make_certificate",
    "min_complete_size",
    "parse_certificate",
    "partition",
    "resolve_gf32_polynomial",
    "run_jobs",
    "serialize_certificate",
    "stabilizer",
    "standard_frame",
    "verify",
]
