"""Run descriptions and deterministic parallel execution."""

import functools
import multiprocessing.pool
import pickle
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgarc import scheduler
from pgarc.scheduler import BadProportionsError, Partition, partition, run_jobs

DECAY_SPLIT = (10, 20, 30, 40)


def test_bad_proportions_rejected():
    for bad in [(10, 20, 30), (0, 100), (50, 60), (), (-10, 110)]:
        with pytest.raises(BadProportionsError):
            partition(10, bad)


@st.composite
def proportion_tuples(draw):
    k = draw(st.integers(min_value=1, max_value=6))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(min_value=1, max_value=99),
                min_size=k - 1,
                max_size=k - 1,
                unique=True,
            )
        )
    )
    edges = [0, *cuts, 100]
    return tuple(edges[i + 1] - edges[i] for i in range(k))


@given(st.integers(min_value=0, max_value=500), proportion_tuples())
@settings(max_examples=300, deadline=None)
def test_partition_is_job_count_and_share_count(job_count, props):
    assert partition(job_count, props) == Partition(job_count, len(props))


def test_negative_job_count_rejected():
    with pytest.raises(ValueError, match="job_count must be >= 0"):
        partition(-1, (100,))


def _square(i):
    return i * i


def _fail_on_some(i):
    if i in (11, 5, 23):
        raise ValueError(f"job {i} failed")
    return i


def test_run_jobs_empty():
    assert run_jobs(partition(0, DECAY_SPLIT), _square) == []


def test_run_jobs_matches_inline_map():
    want = [_square(i) for i in range(57)]
    assert run_jobs(partition(57, (100,)), _square) == want
    assert run_jobs(partition(57, DECAY_SPLIT), _square) == want
    assert run_jobs(partition(57, DECAY_SPLIT), _square, stealing=True) == want


def test_run_jobs_deterministic_across_worker_counts():
    results = [
        run_jobs(partition(40, props), _square)
        for props in [(100,), (50, 50), DECAY_SPLIT, (33, 33, 34)]
    ]
    assert all(r == results[0] for r in results)


def test_run_jobs_propagates_first_error_by_index():
    for stealing in (False, True):
        with pytest.raises(ValueError, match="job 5 failed"):
            run_jobs(partition(30, DECAY_SPLIT), _fail_on_some, stealing=stealing)
        with pytest.raises(ValueError, match="job 5 failed"):
            run_jobs(partition(30, (100,)), _fail_on_some, stealing=stealing)


def _level_entry(level, i):
    return level[i]


@pytest.fixture
def imap_tasks(monkeypatch):
    """The tasks of every Pool.imap call, which still runs them."""
    calls = []
    original = multiprocessing.pool.Pool.imap

    def spy(self, func, iterable, chunksize=1):
        tasks = list(iterable)
        calls.append(tasks)
        return original(self, func, tasks, chunksize)

    monkeypatch.setattr(multiprocessing.pool.Pool, "imap", spy)
    return calls


@pytest.mark.parametrize("stealing", [False, True])
def test_task_is_an_index_range_whatever_the_level_size(imap_tasks, stealing):
    """The job function, which holds the level, reaches each worker once;
    a task is the bare job index, the same few bytes at 30 parents as at
    3,000, where the job pickles to tens of kilobytes.  stealing changes
    nothing: the tasks go out in index order either way."""
    for n in (30, 3000):
        level = tuple((0, 1, 2, 3, i, i + 7) for i in range(n))
        job = functools.partial(_level_entry, level)
        assert run_jobs(partition(n, (50, 50)), job, stealing=stealing) == list(level)
        tasks = imap_tasks.pop()
        assert tasks == list(range(n))
        assert all(type(t) is int for t in tasks)
        assert max(len(pickle.dumps(t)) for t in tasks) <= 24
    assert len(pickle.dumps(job)) > 10000


def test_pool_has_one_worker_per_share(monkeypatch):
    """A run with at most one job, or a partition with one share, runs its
    jobs inline and starts no pool, with stealing too; otherwise the pool
    has one worker per share, but no more than there are jobs."""
    pools = []

    def spy(processes, *args):
        pools.append(processes)
        return multiprocessing.Pool(processes, *args)

    monkeypatch.setattr(scheduler, "multiprocessing", SimpleNamespace(Pool=spy))
    for stealing in (False, True):
        for part in (partition(0, DECAY_SPLIT), partition(1, DECAY_SPLIT),
                     partition(57, (100,))):
            want = [_square(i) for i in range(part.job_count)]
            assert run_jobs(part, _square, stealing=stealing) == want
        assert pools == []
    assert run_jobs(partition(3, DECAY_SPLIT), _square) == [0, 1, 4]
    assert run_jobs(partition(57, DECAY_SPLIT), _square, stealing=True)[-1] == 56 * 56
    assert pools == [3, 4]
    assert run_jobs(partition(3, (33, 33, 34)), _square) == [0, 1, 4]
    assert pools == [3, 4, 3]


class _Stop(Exception):
    pass


def _stop_at(limit, seen, result):
    seen.append(result)
    if len(seen) == limit:
        raise _Stop(f"stopped after {seen}")


@pytest.mark.parametrize("props", [(100,), (50, 50)])
def test_each_sees_results_in_order_and_can_stop_the_run(props):
    """each is called on every result in index order, inline and with
    workers; when it raises, the run stops there, and no worker process
    is left running."""
    seen = []
    assert run_jobs(partition(20, props), _square, each=seen.append) == seen
    assert seen == [i * i for i in range(20)]
    seen = []
    with pytest.raises(_Stop, match=r"stopped after \[0, 1, 4\]$"):
        run_jobs(partition(200, props), _square, each=functools.partial(_stop_at, 3, seen))
    assert multiprocessing.active_children() == []
