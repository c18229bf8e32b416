"""Deterministic partitioning of independent jobs across workers.

The default split is static and proportional: worker k gets
floor(job_count * p_k / 100) jobs from a contiguous index range, and the
remainder is handed out one each to the last r workers, so the largest
shares absorb the rounding.  A work-stealing mode (dynamic dispatch of
single jobs from a shared queue) is available for workloads whose
per-job cost decays unpredictably.

Whatever the mode or worker count, results are merged in job-index
order, so the output of a run is bit-for-bit reproducible.  Job
functions must be pure in the job index and picklable (module-level
callables or functools.partial over them).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass


class BadProportionsError(ValueError):
    """Proportions must be positive integers summing to 100."""


@dataclass(frozen=True)
class Partition:
    """Contiguous, disjoint index ranges covering [0, job_count)."""

    ranges: tuple[tuple[int, int], ...]
    proportions: tuple[int, ...]

    @property
    def job_count(self) -> int:
        return self.ranges[-1][1] if self.ranges else 0


def check_proportions(proportions) -> tuple[int, ...]:
    """The proportions as ints; BadProportionsError unless they are
    positive and sum to 100."""
    props = tuple(int(p) for p in proportions)
    if not props or any(p <= 0 for p in props) or sum(props) != 100:
        raise BadProportionsError(
            f"proportions must be positive and sum to 100, got {list(proportions)}"
        )
    return props


def partition(job_count: int, proportions) -> Partition:
    props = check_proportions(proportions)
    if job_count < 0:
        raise ValueError("job_count must be >= 0")
    sizes = [job_count * p // 100 for p in props]
    remainder = job_count - sum(sizes)
    for k in range(len(props) - remainder, len(props)):
        sizes[k] += 1
    ranges = []
    start = 0
    for s in sizes:
        ranges.append((start, start + s))
        start += s
    return Partition(tuple(ranges), props)


def equal_proportions(workers: int) -> tuple[int, ...]:
    """A near-uniform split summing to 100 for any worker count."""
    base = 100 // workers
    props = [base] * workers
    props[-1] += 100 - base * workers
    return tuple(props)


def _run_range(args):
    job_fn, start, stop = args
    out = []
    for i in range(start, stop):
        try:
            out.append((i, True, job_fn(i)))
        except Exception as exc:  # propagated to the caller by index order
            out.append((i, False, exc))
            break
    return out


def _run_one(args):
    job_fn, i = args
    try:
        return (i, True, job_fn(i))
    except Exception as exc:
        return (i, False, exc)


def run_jobs(part: Partition, job_fn, *, stealing: bool = False) -> list:
    """Execute every job index of the partition and return the results in
    index order; the first failure by job index is re-raised."""
    total = part.job_count
    if total == 0:
        return []
    active = [(s, e) for s, e in part.ranges if e > s]
    if len(active) <= 1 and not stealing:
        return [job_fn(i) for i in range(total)]

    triples = []
    with multiprocessing.Pool(processes=len(active)) as pool:
        if stealing:
            triples = list(
                pool.imap_unordered(
                    _run_one, ((job_fn, i) for i in range(total)), chunksize=1
                )
            )
        else:
            for chunk in pool.map(_run_range, [(job_fn, s, e) for s, e in active]):
                triples.extend(chunk)
    triples.sort(key=lambda t: t[0])
    for i, ok, value in triples:
        if not ok:
            raise value
    return [value for _, _, value in triples]
