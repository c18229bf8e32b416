"""Proportional partitioning and deterministic parallel execution."""

import functools
import multiprocessing.pool
import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgarc import scheduler
from pgarc.scheduler import (
    BadProportionsError,
    equal_proportions,
    partition,
    run_jobs,
)

DECAY_SPLIT = (10, 20, 30, 40)


def sizes(part):
    return [e - s for s, e in part.ranges]


def test_reference_proportions_exact():
    assert sizes(partition(100, DECAY_SPLIT)) == [10, 20, 30, 40]


def test_single_worker_gets_everything():
    for n in (0, 1, 17):
        assert sizes(partition(n, (100,))) == [n]


def test_rounding_rule_hand_applied():
    """floors are (0, 1, 2, 2); remainder 2 goes one each to the last two
    workers, hence (0, 1, 3, 3)."""
    floors = [7 * p // 100 for p in DECAY_SPLIT]
    assert floors == [0, 1, 2, 2]
    remainder = 7 - sum(floors)
    assert remainder == 2
    want = floors.copy()
    for k in range(len(want) - remainder, len(want)):
        want[k] += 1
    assert sizes(partition(7, DECAY_SPLIT)) == want == [0, 1, 3, 3]


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
def test_partition_covers_disjointly(job_count, props):
    part = partition(job_count, props)
    assert sum(sizes(part)) == job_count
    cursor = 0
    for s, e in part.ranges:
        assert s == cursor and e >= s
        cursor = e
    assert cursor == job_count


def test_partition_covers_disjointly_bulk():
    rng = random.Random(0)
    for _ in range(10000):
        k = rng.randint(1, 6)
        cuts = sorted(rng.sample(range(1, 100), k - 1))
        props = tuple(
            b - a for a, b in zip([0, *cuts], [*cuts, 100])
        )
        n = rng.randrange(0, 400)
        part = partition(n, props)
        assert sum(sizes(part)) == n
        cursor = 0
        for s, e in part.ranges:
            assert s == cursor
            cursor = e


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
        for props in [(100,), (50, 50), DECAY_SPLIT, equal_proportions(3)]
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
    a task is one index (i, i + 1), the same few bytes at 30 parents as
    at 3,000, where the job pickles to tens of kilobytes.  stealing
    changes nothing: the tasks go out in index order either way."""
    for n in (30, 3000):
        level = tuple((0, 1, 2, 3, i, i + 7) for i in range(n))
        job = functools.partial(_level_entry, level)
        assert run_jobs(partition(n, (50, 50)), job, stealing=stealing) == list(level)
        tasks = imap_tasks.pop()
        assert tasks == [(i, i + 1) for i in range(n)]
        assert all(type(a) is int and type(b) is int for a, b in tasks)
        assert max(len(pickle.dumps(t)) for t in tasks) <= 24
    assert len(pickle.dumps(job)) > 10000


def test_pool_has_one_worker_per_non_empty_range(monkeypatch):
    """A run with at most one job, or a partition with one share, runs its
    jobs inline and starts no pool, with stealing too; otherwise the pool
    has one worker per share, but no more than there are jobs, so 3
    parents on 3 workers start 3 even where a range is empty."""
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
    three = partition(3, equal_proportions(3))
    assert sizes(three) == [0, 1, 2]
    assert run_jobs(three, _square) == [0, 1, 4]
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


def test_equal_proportions_sum():
    for w in range(1, 9):
        props = equal_proportions(w)
        assert len(props) == w and sum(props) == 100
