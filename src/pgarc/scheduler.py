"""Deterministic parallel execution of independent jobs.

A run is a job count and a worker count.  Every job index is one task,
and the tasks go out in index order to whichever worker is free next:
the cost of a parent in the arc search falls steeply with its index, so
any fixed split of the indices would leave a worker idle.  A run starts
as many worker processes as it has workers, or one per job when there
are fewer jobs, and with at most one it runs the jobs inline.

The job function is installed once per worker, by the pool initializer;
a task is only the job index, so its size does not grow with the state
the job function holds.  Results come back in job-index order whatever
the worker count, so the output of a run is bit-for-bit reproducible.
Job functions must be pure in the job index and picklable (module-level
callables or functools.partial over them).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass


class BadProportionsError(ValueError):
    """Proportions must be positive integers summing to 100."""


@dataclass(frozen=True)
class Partition:
    """The job indices [0, job_count) and how many workers run them."""

    job_count: int
    workers: int


def partition(job_count: int, proportions) -> Partition:
    """A run of job_count jobs with one worker per proportion;
    BadProportionsError unless the proportions are positive integers
    that sum to 100."""
    props = tuple(int(p) for p in proportions)
    if not props or any(p <= 0 for p in props) or sum(props) != 100:
        raise BadProportionsError(
            f"proportions must be positive and sum to 100, got {list(proportions)}"
        )
    if job_count < 0:
        raise ValueError("job_count must be >= 0")
    return Partition(job_count, len(props))


_job_fn = None  # the job function of this worker process


def _install(job_fn):
    global _job_fn
    _job_fn = job_fn


def _run_job(i: int):
    return _job_fn(i)


def run_jobs(part: Partition, job_fn, *, stealing: bool = False, each=None) -> list:
    """Execute every job index of the run and return the results in
    index order; the first failure by job index is re-raised.

    part.workers workers, but no more than there are jobs, each taking
    the next index when it is free; inline with at most one.  each, if
    given, is called on every result in index order as soon as it and
    all before it are in, so a caller can stop the run by raising: the
    workers are terminated and joined before the error propagates.
    stealing is accepted for the callers that pass it and changes
    nothing: every run is dispatched this way.
    """
    total = part.job_count
    workers = min(part.workers, total)
    pool = multiprocessing.Pool(workers, _install, (job_fn,)) if workers > 1 else None
    try:
        arriving = map(job_fn, range(total)) if pool is None else pool.imap(_run_job, range(total))
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
