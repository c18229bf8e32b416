"""Workloads of the pgarc benchmark, their output checks and layer metrics.

Every input size lives in a Scale.  PAPER is the benchmark; TINY (q <= 7
for the searches) serves the smoke test.  The paper's instances (find-min
at q = 13, the q = 31 classification, the bundled certificates) are
fixed; the seed picks the arcs of the canonical-form and extension
micro-measurements.

Each workload calls the public API through module attributes
(``search.classify``, not a name imported once), so a Tracer that
rebinds those attributes sees the benchmark's own calls as well.
"""

from __future__ import annotations

import hashlib
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from pgarc import certificates, collineation, gf, scheduler, search
from pgarc import plane as plane_layer

from spans import Span, Tracer, self_seconds

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Scale:
    """Input sizes and expected outputs of every workload."""

    findmin_q: int
    findmin_expect: tuple[int, int]  # (t(2,q), complete-arc classes)
    classify_q: int
    classify_threshold: int
    classify_counts: tuple[int, ...]  # class counts at sizes 4..threshold
    classify_top_sha256: str  # digest of the top level as search.save_level writes it
    extend_q: int
    extend_root_size: int
    extend_bound: int  # below t(2,q), so every branch must come back empty
    extend_roots: int
    fixtures: tuple[str, ...]
    resolve_passing: tuple[tuple[int, ...], ...] | None  # None: no GF(32) sweep
    canon_cases: tuple[tuple[int, str, int], ...]  # (q, group, arc size)
    canon_arcs: int
    build_qs: tuple[int, ...]  # must include extend_q and every q of canon_cases
    noop_jobs: int
    setup_probes: int
    setup_budget_s: float


PAPER = Scale(
    findmin_q=13,
    findmin_expect=(8, 2),
    classify_q=31,
    classify_threshold=6,
    classify_counts=(1, 11, 905),
    # sha256 of checkpoints/q31_pgl_level6.txt
    classify_top_sha256="bd20ddd515ad6df7b8644749f482b731b8652976addd3d775504d73d84691f2a",
    extend_q=31,
    extend_root_size=8,
    extend_bound=10,
    extend_roots=24,
    fixtures=("arc14_q31_s3", "arc14_q32_z4", "arc14_q32_z5"),
    resolve_passing=((1, 0, 0, 1, 0, 1),),
    canon_cases=((31, "pgl", 6), (31, "pgl", 7), (31, "pgl", 8), (32, "pgammal", 8)),
    canon_arcs=7,
    build_qs=(13, 31, 32),
    noop_jobs=400,
    setup_probes=3,
    setup_budget_s=1.5,
)

TINY = Scale(
    findmin_q=7,
    findmin_expect=(6, 2),
    classify_q=7,
    classify_threshold=7,
    classify_counts=(1, 1, 3, 1),
    classify_top_sha256="479bc03f762110697d4f4fd49cbd8a47c52ce4c18705cbab5a28384ea5b2620e",
    extend_q=7,
    extend_root_size=4,
    extend_bound=5,
    extend_roots=4,
    fixtures=("arc14_q31_s3",),
    resolve_passing=None,
    canon_cases=((7, "pgl", 5), (7, "pgl", 6)),
    canon_arcs=3,
    build_qs=(5, 7),
    noop_jobs=20,
    setup_probes=2,
    setup_budget_s=0.0,
)


class Checks:
    """Output checks of one run; a mismatch is reported on stderr at once."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, what: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failed += 1
            print(f"CHECK FAILED: {what}: got {got!r}, want {want!r}", file=sys.stderr, flush=True)


def random_arc(plane, size: int, rng: random.Random) -> list[int]:
    """Greedy arc over a seeded random point order."""
    order = list(range(plane.size))
    rng.shuffle(order)
    members: list[int] = []
    for x in order:
        if all(not plane.collinear(a, b, x) for i, a in enumerate(members) for b in members[i + 1:]):
            members.append(x)
            if len(members) == size:
                return members
    raise ValueError(f"no {size}-arc in PG(2,{plane.q})")


def timed(fn, *args, **kwargs) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    why = ""

    def __init__(self, scale: Scale):
        self.scale = scale

    @property
    def q(self) -> int | None:
        """Plane the workload searches in; set-up builds it."""
        return None

    def setup(self):
        return search.default_plane(self.q) if self.q else None

    def inputs(self, plane, seed: int):
        return None

    def solve(self, plane, inputs, checks: Checks):
        """One pass over the inputs; returns the program's output."""
        raise NotImplementedError

    def traced_pass(self, plane, inputs, checks: Checks):
        """(tracing overhead in seconds, spans, output) of one traced pass;
        the overhead is its time minus that of an untraced pass."""
        plain_s, _ = timed(self.solve, plane, inputs, checks)
        with Tracer() as tr:
            traced_s, output = timed(self.solve, plane, inputs, checks)
        return traced_s - plain_s, tr.spans, output

    def split_pass(self, plane, inputs, checks: Checks, output):
        """(spans, classes kept) of a traced pass that gives the per-layer
        split, when the workload's own pass hides work in workers."""
        return None


class FindMin(Workload):
    name = "findmin-q13"
    why = "t(2,13) = 8 with 2 classes: canonical forms of the complete 8-arcs dominate"

    @property
    def q(self):
        return self.scale.findmin_q

    def solve(self, plane, inputs, checks):
        cfg = search.SearchConfig(q=self.q, classification_threshold=4)
        r = search.min_complete_size(cfg, plane)
        checks.expect(f"t(2,{self.q}) and its classes", (r.size, r.class_count), self.scale.findmin_expect)
        return r


class Classify(Workload):
    name = "classify-q31"
    why = "PGL classification to size 6 on 2 workers: dedup, canonical forms and partition imbalance"

    @property
    def q(self):
        return self.scale.classify_q

    def _run(self, plane, checks, workers: int, stealing: bool = False, threshold: int | None = None):
        s = self.scale
        threshold = threshold or s.classify_threshold
        cfg = search.SearchConfig(
            q=s.classify_q, classification_threshold=threshold,
            worker_count=workers, stealing=stealing,
        )
        levels = search.classify(cfg, plane)
        checks.expect("class counts by size", tuple(lv.count for lv in levels),
                      s.classify_counts[: threshold - 3])
        if threshold < s.classify_threshold:
            return levels
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
            path = search.save_level(tmp, s.classify_q, collineation.PGL, levels[-1])
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
        checks.expect(f"level {levels[-1].size} file bytes", digest, s.classify_top_sha256)
        return levels

    def solve(self, plane, inputs, checks):
        return self._run(plane, checks, workers=2)

    def traced_pass(self, plane, inputs, checks):
        # the top level runs in workers, where nothing is traced, so the
        # overhead is measured on the levels below it, which run here
        below = self.scale.classify_threshold - 1
        plain_s, _ = timed(self._run, plane, checks, workers=2, threshold=below)
        with Tracer():
            below_s, _ = timed(self._run, plane, checks, workers=2, threshold=below)
        with Tracer() as tr:
            output = self.solve(plane, inputs, checks)
        return below_s - plain_s, tr.spans, output

    def split_pass(self, plane, inputs, checks, static):
        with Tracer() as tr:
            serial = self._run(plane, checks, workers=1)
        stealing = self._run(plane, checks, workers=2, stealing=True)
        reps = [lv.representatives for lv in serial]
        checks.expect("1 worker == 2 workers", [lv.representatives for lv in static], reps)
        checks.expect("1 worker == 2 workers stealing", [lv.representatives for lv in stealing], reps)
        return tr.spans, sum(lv.count for lv in serial[1:])


class Certify(Workload):
    name = "certify"
    why = "fixture verification and the GF(32) modulus sweep: stabilizers, not canonical forms"

    def inputs(self, plane, seed):
        return {name: certificates.load_fixture(name) for name in self.scale.fixtures}

    def solve(self, plane, certs, checks):
        for name, cert in certs.items():
            report = certificates.verify(cert)
            checks.expect(f"{name} verifies", (report.valid, report.failures), (True, []))
        if self.scale.resolve_passing is not None:
            passing, _ = certificates.resolve_gf32_polynomial(
                certs["arc14_q32_z4"].meta["generator_exponents"],
                certs["arc14_q32_z5"].meta["generator_exponents"],
            )
            checks.expect("passing GF(32) moduli", passing, list(self.scale.resolve_passing))


WORKLOADS = {w.name: w for w in (FindMin, Classify, Certify)}


# ---------------------------------------------------------------------------
# end-to-end measurements


def cpu_seconds() -> float:
    """User plus system time of this process and its reaped workers."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    """Peak RSS of this process plus that of its largest reaped worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024


def setup_seconds(q: int | None, probes: int, budget_s: float) -> float:
    """Median over fresh interpreters of importing pgarc and building the
    workload's field and plane; q None times the import alone.  Probes
    run until budget_s is spent, at least `probes` of them."""
    build = f"pgarc.search.default_plane({q})\n" if q else ""
    code = (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import pgarc.search\n"
        f"{build}"
        "print(time.perf_counter() - t0)\n"
    )
    samples = []
    start = time.perf_counter()
    while len(samples) < probes or time.perf_counter() - start < budget_s:
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, check=True,
            capture_output=True, text=True, timeout=120,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def end_to_end(w: Workload, seed: int, seconds: float, checks: Checks) -> dict:
    """Untraced passes of the workload, one more while it is expected to end
    within `seconds` (at least one); medians per pass."""
    plane = w.setup()
    inputs = w.inputs(plane, seed)
    solve, cpu = [], []
    start = time.perf_counter()
    while True:
        c0 = cpu_seconds()
        t, _ = timed(w.solve, plane, inputs, checks)
        cpu.append(cpu_seconds() - c0)
        solve.append(t)
        if time.perf_counter() - start + statistics.median(solve) > seconds:
            break
    rss = peak_rss_mib()
    return {
        "solve_s": (statistics.median(solve), "s"),
        "setup_s": (setup_seconds(w.q, w.scale.setup_probes, w.scale.setup_budget_s), "s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "peak_rss_mib": (rss, "MiB"),
    }


END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB"}


# ---------------------------------------------------------------------------
# per-layer measurements


def _totals(*span_lists: list[Span]) -> dict:
    """name -> [calls, seconds, self seconds] over several span lists."""
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for spans in span_lists:
        for span, own in zip(spans, self_seconds(spans)):
            t = out[span.name]
            t[0] += 1
            t[1] += span.seconds
            t[2] += own
    return out


def _level_seconds(spans: list[Span]) -> dict[int, float]:
    """Wall time per classification level of a single-worker classify.

    Level n starts at the first candidate-set computation for an (n-1)-arc
    directly under the classify span, and ends where level n+1 starts or
    the classify span ends.
    """
    out: dict[int, float] = {}
    for c, top in enumerate(spans):
        if top.name != "search.classify":
            continue
        starts: dict[int, float] = {}
        for s in spans:
            if s.parent == c and s.name == "arcs.candidate_mask":
                starts.setdefault(s.note["size"] + 1, s.start)
        for n, t0 in starts.items():
            out[n] = out.get(n, 0.0) + starts.get(n + 1, top.end) - t0
    return out


def _ms_per_call(calls: int, seconds: float) -> float:
    return seconds / calls * 1e3 if calls else 0.0


def layer_metrics(scale: Scale, setup: list[Span], split: list[Span], op: list[Span],
                  kept: int, overhead_s: float) -> dict:
    """Per-layer figures: the split pass gives the layer split, the traced
    workload pass gives the scheduler figures."""
    t = _totals(setup, split)
    m = {}
    for layer in ("gf.build_field", "plane.build_plane"):
        calls, secs, _ = t[layer]
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.s"] = (secs, "s")
    for layer in ("collineation.canonicalize", "collineation.stabilizer"):
        calls, secs, own = t[layer]
        m[f"{layer}.calls"] = (calls, "count")
        m[f"{layer}.self_s"] = (own, "s")
        m[f"{layer}.ms_per_call"] = (_ms_per_call(calls, secs), "ms")
    stab = [s for s in split if s.name == "collineation.stabilizer"]
    non_arc = sum(
        s.seconds for s in stab
        if s.note["plane"].collinear_triple(sorted(set(s.note["points"]))) is not None
    )
    stab_s = sum(s.seconds for s in stab)
    m["collineation.stabilizer.non_arc_share"] = (non_arc / stab_s if stab_s else 0.0, "ratio")
    calls, secs, _ = t["arcs.candidate_mask"]
    m["arcs.candidate_mask.calls"] = (calls, "count")
    m["arcs.candidate_mask.s"] = (secs, "s")
    m["search.extend.self_s"] = (t["search.extend"][2], "s")

    levels = _level_seconds(split)
    top = scale.classify_threshold
    for n in range(5, top + 1):
        m[f"search.classify.level_s.n{n}"] = (levels.get(n, 0.0), "s")
    children = 0
    for c, span in enumerate(split):
        if span.name == "search.classify":
            children += sum(
                1 for s in split
                if s.parent == c and s.name == "collineation.canonicalize" and s.note["size"] >= 5
            )
    m["search.classify.yield"] = (kept / children if children else 0.0, "ratio")

    run_jobs = [s for s in op if s.name == "scheduler.run_jobs"]
    run_jobs_s = sum((s.seconds for s in run_jobs), 0.0)
    m["scheduler.run_jobs.s"] = (run_jobs_s, "s")
    m["scheduler.jobs"] = (sum(s.note["jobs"] for s in run_jobs), "count")
    speedup = levels.get(top, 0.0) / run_jobs_s if run_jobs_s and top in levels else 0.0
    m["scheduler.speedup"] = (speedup, "ratio")

    # verify runs once per fixture, in fixture order, with one stabilizer inside
    verify = [c for c, s in enumerate(split) if s.name == "certificates.verify"]
    for i, name in enumerate(scale.fixtures):
        verify_s = stab_s = 0.0
        if i < len(verify):
            verify_s = split[verify[i]].seconds
            stab_s = sum(s.seconds for s in split
                         if s.parent == verify[i] and s.name == "collineation.stabilizer")
        m[f"certificates.verify.s.{name}"] = (verify_s, "s")
        m[f"collineation.stabilizer.ms.{name}"] = (stab_s * 1e3, "ms")
    if scale.resolve_passing is not None:
        m["certificates.resolve_gf32_polynomial.s"] = (t["certificates.resolve_gf32_polynomial"][1], "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m


def micro_metrics(scale: Scale, seed: int, checks: Checks) -> dict:
    """Single-layer figures on seeded inputs, timed without tracing."""
    m = {}
    planes = {}
    for q in scale.build_qs:
        p, h = gf.factor_prime_power(q)
        field_s, plane_s = [], []
        for _ in range(3):
            t, field = timed(gf.build_field, p, h, "auto")
            field_s.append(t)
            t, planes[q] = timed(plane_layer.build_plane, field)
            plane_s.append(t)
        m[f"gf.build_field.s.q{q}"] = (statistics.median(field_s), "s")
        m[f"plane.build_plane.s.q{q}"] = (statistics.median(plane_s), "s")
    for q, group, n in scale.canon_cases:
        rng = random.Random(f"{seed}:canonicalize:q{q}:{group}:n{n}")
        arcs = [random_arc(planes[q], n, rng) for _ in range(scale.canon_arcs)]
        times = [timed(collineation.canonicalize, planes[q], arc, group)[0] for arc in arcs]
        m[f"collineation.canonicalize.ms.q{q}-{group}.n{n}"] = (statistics.median(times) * 1e3, "ms")
    # roots are not canonicalized: the DFS visits as many nodes under any labelling
    rng = random.Random(f"{seed}:extend:q{scale.extend_q}")
    plane = planes[scale.extend_q]
    times = []
    for _ in range(scale.extend_roots):
        root = tuple(sorted(random_arc(plane, scale.extend_root_size, rng)))
        t, found = timed(search.extend, plane, collineation.PGL, root, scale.extend_bound)
        checks.expect(f"branch {list(root)} up to size {scale.extend_bound}", found, [])
        times.append(t)
    m["search.extend.ms_per_root"] = (statistics.median(times) * 1e3, "ms")
    jobs = scale.noop_jobs
    for mode in ("static", "stealing"):
        # abs(i) == i: a picklable job that does no work
        part = scheduler.partition(jobs, (50, 50))
        t, out = timed(scheduler.run_jobs, part, abs, stealing=mode == "stealing")
        checks.expect(f"no-op jobs ({mode})", out, list(range(jobs)))
        m[f"scheduler.noop_ms_per_job.{mode}"] = (t / jobs * 1e3, "ms")
    return m


def traced(w: Workload, seed: int, checks: Checks) -> dict:
    """The workload's traced pass and split pass, then the
    micro-measurements."""
    with Tracer() as setup_tr:
        plane = w.setup()
    inputs = w.inputs(plane, seed)
    overhead_s, op_spans, output = w.traced_pass(plane, inputs, checks)
    split = w.split_pass(plane, inputs, checks, output)
    split_spans, kept = split if split is not None else (op_spans, 0)
    m = layer_metrics(w.scale, setup_tr.spans, split_spans, op_spans, kept, overhead_s)
    m.update(micro_metrics(w.scale, seed, checks))
    return m


def per_layer_units(scale: Scale) -> dict[str, str]:
    """Name and unit of every per-layer metric a traced run reports."""
    units = {name: unit for name, (_, unit) in layer_metrics(scale, [], [], [], 0, 0.0).items()}
    for q in scale.build_qs:
        units[f"gf.build_field.s.q{q}"] = "s"
        units[f"plane.build_plane.s.q{q}"] = "s"
    for q, group, n in scale.canon_cases:
        units[f"collineation.canonicalize.ms.q{q}-{group}.n{n}"] = "ms"
    units["search.extend.ms_per_root"] = "ms"
    for mode in ("static", "stealing"):
        units[f"scheduler.noop_ms_per_job.{mode}"] = "ms"
    return units
