"""Deterministic parallel execution of independent jobs.

Every job index is one task, and the tasks go out in index order to
whichever worker is free next.  The cost of a parent in the arc search
falls steeply with its index, so any fixed split of the indices would
leave a worker idle.

A Partition still describes the run, for the callers that build one:
it has one contiguous range per worker, with worker k given
floor(job_count * p_k / 100) jobs and the remainder handed out one each
to the last r workers.  Only its number of shares matters to run_jobs:
that many worker processes are started, or one per job when there are
fewer jobs, and with at most one the jobs run inline.  Which worker
runs which index is not fixed.

The job function is installed once per worker, by the pool initializer;
a task is only an index range (i, i + 1), so its size does not grow with
the state the job function holds.  Results come back in job-index order
whatever the worker count, so the output of a run is bit-for-bit
reproducible.  Job functions must be pure in the job index and
picklable (module-level callables or functools.partial over them).
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


_job_fn = None  # the job function of this worker process


def _install(job_fn):
    global _job_fn
    _job_fn = job_fn


def _run_range(task) -> list:
    start, stop = task
    return [_job_fn(i) for i in range(start, stop)]


def run_jobs(part: Partition, job_fn, *, stealing: bool = False, each=None) -> list:
    """Execute every job index of the partition and return the results in
    index order; the first failure by job index is re-raised.

    One worker per share of part, but no more than there are jobs, each
    taking the next index when it is free (module docstring); inline
    with at most one.  each, if given, is called on every result in
    index order as soon as it and all before it are in, so a caller can
    stop the run by raising: the workers are terminated and joined
    before the error propagates.  stealing is accepted for the callers
    that pass it and changes nothing: every run is dispatched this way.
    """
    total = part.job_count
    workers = min(len(part.ranges), total)
    pool = multiprocessing.Pool(workers, _install, (job_fn,)) if workers > 1 else None
    try:
        if pool is None:
            arriving = map(job_fn, range(total))
        else:
            tasks = [(i, i + 1) for i in range(total)]
            arriving = (r for chunk in pool.imap(_run_range, tasks) for r in chunk)
        results = []
        for r in arriving:
            results.append(r)
            if each is not None:
                each(r)
        return results
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
