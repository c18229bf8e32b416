"""Orderly classification of arcs and backtracking extension.

The classification lists, size by size, the least image (canonical form)
of every class of arcs up to a threshold.  Level 4 is the frame; level
n+1 holds each R + (x,), R in level n and x > max(R) a candidate, that
is its own least image.  If g(T) < T for T = S - {max S}, then g(S) < S:
adding g(max S) cannot move the first difference.  So each canonical
(n+1)-arc comes once, from its canonical parent, already sorted.
collineation.canonical_children takes one parent, finds its candidates
above max(R) and tests them together, guided by the five-point invariant.

Above it a depth-first extension takes over (min_complete_size extends
from level 5): candidates are added in increasing point-index order
(each child only considers points greater than the last added one, so
each superset is enumerated once) and a branch is cut at the size
bound.  Every branch is explored in full, so an arc that contains
several representatives is reported under each of them.

The smallest complete arcs found are sorted into classes by orbit
peeling, isomorph rejection via recorded objects (Kaski and Ostergard
2006, ch. 4): each contains its root and so the standard frame, one
frame_images sweep of an arc holds its whole class among them, and the
least image is the class's canonical form.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field as dfield, replace
from pathlib import Path

from . import scheduler
from .arcs import candidate_mask, iter_bits
from .collineation import GROUPS, PGL, DegenerateSetError, canonical_children, frame_images, standard_frame
from .gf import MAX_ORDER, FieldError, build_field, factor_prime_power
from .plane import Plane, plane_of


class MemoryBudgetExceededError(RuntimeError):
    """A classification level outgrew the configured class budget."""


class CheckpointError(ValueError):
    """A level checkpoint does not hold the level the run asks for."""


@dataclass
class SearchConfig:
    """Knobs of a classification + extension run.

    classify reads every field; min_complete_size ignores
    classification_threshold and checkpoint_dir.  worker_count, from 1
    to 100, is how many workers a level or an extension starts, but no
    more than it has parents; stealing no longer shapes the dispatch
    (scheduler.run_jobs) and is ignored.
    """

    q: int
    group: str = PGL
    classification_threshold: int = 8
    worker_count: int = 1
    stealing: bool = False
    checkpoint_dir: str | None = None
    max_level_classes: int | None = None

    def __post_init__(self):
        if self.group not in GROUPS:
            raise ValueError(f"group must be one of {GROUPS}")
        if self.classification_threshold < 4:
            raise ValueError(
                f"need classification_threshold >= 4, got {self.classification_threshold}"
            )
        if self.q > MAX_ORDER:  # before q is factored
            raise FieldError(f"field order {self.q} exceeds supported maximum {MAX_ORDER}")
        factor_prime_power(self.q)  # raises for non prime powers
        if not 1 <= self.worker_count <= 100:
            raise ValueError(f"need 1 <= worker_count <= 100, got {self.worker_count}")


@dataclass
class ClassificationLevel:
    size: int
    representatives: list[tuple[int, ...]]
    count: int = dfield(init=False)

    def __post_init__(self):
        self.count = len(self.representatives)


@dataclass
class MinCompleteResult:
    q: int
    group: str
    size: int
    class_count: int
    representatives: list[tuple[int, ...]]


def lower_bound(q: int) -> int:
    """Smallest size not excluded by the known strict lower bounds:
    t > sqrt(2q) + 1 for all q, and t > sqrt(3q) + 1/2 for q = p^h with
    h in {1, 2, 3}.  Exact integer arithmetic throughout."""
    _, h = factor_prime_power(q)
    bound = math.isqrt(2 * q) + 2  # floor(sqrt(2q) + 1) + 1
    if h in (1, 2, 3):
        r = math.isqrt(3 * q)
        # floor(sqrt(3q) + 1/2): bump when sqrt(3q) >= r + 1/2
        if 12 * q >= (2 * r + 1) ** 2:
            r += 1
        bound = max(bound, r + 1)
    return bound


@functools.lru_cache(maxsize=None)
def default_field(q: int):
    p, h = factor_prime_power(q)
    return build_field(p, h, "auto")


def default_plane(q: int) -> Plane:
    """plane_of(default_field(q)): the search's plane when given none."""
    return plane_of(default_field(q))


def _apply_at(fn, reps, i: int):
    return fn(reps[i])


def _map_reps(config: SearchConfig, fn, reps, each=None) -> list:
    """fn(rep) for every representative, in order: inline on one worker,
    else by scheduler.run_jobs over config.worker_count workers.  each,
    if given, is called on every result in order as soon as it is in."""
    if config.worker_count > 1 and len(reps) > 1:
        part = scheduler.Partition(len(reps), config.worker_count)
        job = functools.partial(_apply_at, fn, tuple(reps))
        return scheduler.run_jobs(part, job, each=each)
    results = []
    for rep in reps:
        results.append(fn(rep))
        if each is not None:
            each(results[-1])
    return results


# ---------------------------------------------------------------------------
# classification


def _level_filename(q: int, group: str, size: int) -> str:
    return f"q{q}_{group}_level{size}.txt"


def save_level(directory, q: int, group: str, level: ClassificationLevel) -> Path:
    path = Path(directory) / _level_filename(q, group, level.size)
    header = {"q": q, "group": group, "size": level.size, "count": level.count}
    tmp = path.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for rep in level.representatives:
            fh.write(" ".join(map(str, rep)) + "\n")
    os.replace(tmp, path)
    return path


def _level_line(plane: Plane, size: int, line: bytes, path) -> tuple[int, ...]:
    """The arc on one line of a level file: exactly size strictly
    increasing ASCII point ids of the plane, no 3 collinear."""
    try:
        rep = tuple(map(int, line.split()))
    except ValueError:
        rep = ()
    if (len(rep) != size or rep[0] < 0 or rep[-1] >= plane.size
            or any(a >= b for a, b in zip(rep, rep[1:]))
            or plane.collinear_triple(rep) is not None):
        raise CheckpointError(f"checkpoint {path}: {line.strip().decode(errors='replace')!r} is not "
                              f"an arc of {size} increasing ids in [0, {plane.size})")
    return rep


def load_level(directory, plane: Plane, group: str, size: int) -> ClassificationLevel | None:
    """The level of this size saved for the plane's q, None without a
    file; CheckpointError unless the file holds the level save_level
    writes: its header, then count lines that each are a sorted arc."""
    path = Path(directory) / _level_filename(plane.q, group, size)
    if not path.exists():
        return None
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline())
        except ValueError as exc:  # not JSON, not UTF-8, or an integer of too many digits
            raise CheckpointError(f"checkpoint {path} has no JSON header: {exc}") from None
        if not isinstance(header, dict) or (
                header.get("q"), header.get("group"), header.get("size")) != (plane.q, group, size):
            raise CheckpointError(f"checkpoint {path} does not match the requested run")
        reps = [_level_line(plane, size, line, path) for line in fh if line.strip()]
    if len(reps) != header.get("count"):
        raise CheckpointError(f"checkpoint {path} holds {len(reps)} classes, "
                              f"its header says {header.get('count')}")
    return ClassificationLevel(size, reps)


def classify(config: SearchConfig, plane: Plane | None = None) -> list[ClassificationLevel]:
    """Exact class representatives of arcs for sizes 4..threshold.

    Orderly generation (module docstring), in plane, default_plane(q) if
    None; a plane of another order than config.q raises ValueError.  With
    worker_count > 1 the parents of a level are dispatched by
    scheduler.run_jobs: each worker gets the parent-children function,
    which holds the caller's plane and the level, once, then takes one
    parent index at a time, in index order, whenever it is free.
    max_level_classes is checked on each parent's children as they come
    in, in parent order, so 1 and n workers stop at the same parent with
    the same message, and the workers are stopped before
    MemoryBudgetExceededError propagates.
    The threshold is clamped to the largest nonempty level.  With a
    checkpoint directory, completed levels are written out and a rerun
    resumes after the last complete one; a checkpoint that does not hold
    its level raises CheckpointError.
    """
    plane = plane if plane is not None else default_plane(config.q)
    if plane.q != config.q:
        raise ValueError(f"the plane has order {plane.q}, the config asks for q = {config.q}")
    group, budget = config.group, config.max_level_classes
    ckdir = config.checkpoint_dir
    if ckdir:
        Path(ckdir).mkdir(parents=True, exist_ok=True)

    frame = standard_frame(plane)
    levels = [ClassificationLevel(4, [frame])]  # its own least image
    if ckdir:
        if load_level(ckdir, plane, group, 4) is None:
            save_level(ckdir, plane.q, group, levels[0])

    for size in range(5, config.classification_threshold + 1):
        if ckdir:
            loaded = load_level(ckdir, plane, group, size)
            if loaded is not None:
                if not loaded.representatives:
                    break
                levels.append(loaded)
                continue
        reps: list = []

        def take(chunk):  # in parent order, so the level comes out sorted
            reps.extend(chunk)
            if budget is not None and len(reps) > budget:
                raise MemoryBudgetExceededError(f"level {size} reached {len(reps)} "
                                                f"classes, over the budget of {budget}")

        children = functools.partial(canonical_children, plane, group=group)
        _map_reps(config, children, levels[-1].representatives, take)
        level = ClassificationLevel(size, reps)
        if ckdir:
            save_level(ckdir, plane.q, group, level)
        if not level.representatives:
            break
        levels.append(level)
    return levels


# ---------------------------------------------------------------------------
# extension


def extend(
    plane: Plane,
    group: str,
    rep: tuple[int, ...],
    bound: int,
) -> list[tuple[int, ...]]:
    """Depth-first extension of one representative's branch.

    Reports every complete arc of size <= bound reachable from rep by
    adding candidates in increasing index order.  Nothing is pruned as
    isomorphic: min_complete_size folds the arcs of all branches into
    their classes afterwards.  A branch's supersets do not depend on the
    group, so group is unused.  A root that is not an arc raises
    DegenerateSetError, and bad ids raise as in collinear_triple.
    """
    root = sorted(rep)
    if plane.collinear_triple(root) is not None:
        raise DegenerateSetError(f"root {root} is not an arc")
    if len(root) > bound:
        return []
    results: list[tuple[int, ...]] = []
    rows = plane.line_rows
    lm = plane.line_masks

    cand0 = candidate_mask(plane, root)
    # the root's secant block against each candidate never changes along a
    # descent: one precomputed AND, kept with the candidate's row, folds
    # those len(root) mask updates; the secants among root points are outside cand0
    # (none for a root at the bound: descend stops there before reading one)
    all_mask = plane.all_points_mask
    root_block = {
        x: (all_mask & ~plane.secant_mask((*root, x)), rows[x]) for x in iter_bits(cand0)
    } if len(root) < bound else {}

    added: list[int] = []

    def descend(cand: int, last: int, size: int):
        if cand == 0:
            results.append(tuple(sorted(root + added)))
            return
        if size == bound:
            return
        for x in iter_bits(cand >> (last + 1) << (last + 1)):
            ncand, row = root_block[x]
            for m in added:
                ncand &= ~lm[row[m]]
            added.append(x)
            descend(cand & ncand, x, size + 1)
            added.pop()

    descend(cand0, -1, len(root))
    return results


def _peel_orbits(plane: Plane, group: str, arcs) -> list[tuple[int, ...]]:
    """Sorted canonical forms of the classes of arcs that each contain the
    standard frame, with one frame sweep per class (module docstring)."""
    seen: set = set()
    classes = []
    for arc in sorted(arcs):
        if arc not in seen:
            images = set(frame_images(plane, arc, group))
            classes.append(min(images))
            seen |= images
    return sorted(classes)


def min_complete_size(config: SearchConfig, plane: Plane | None = None) -> MinCompleteResult:
    """Smallest n admitting a complete n-arc, with its exact class census.

    Sizes 4 and 5 are classified in memory, whatever the config's
    classification_threshold and checkpoint_dir.  Canonical forms are
    prefix-closed, so every canonical complete arc lies in the branch of
    its canonical 5-prefix, or is the frame, complete at q = 2 and 3,
    which extend reports as its own root.  The bound grows from
    max(lower_bound(q), top size) until the extension of the top level
    reports something; _peel_orbits sorts the smallest into classes.
    The plane is checked by classify, which runs first.
    """
    plane = plane if plane is not None else default_plane(config.q)
    top = classify(replace(config, classification_threshold=5, checkpoint_dir=None), plane)[-1]
    for bound in range(max(lower_bound(config.q), top.size), config.q + 3):
        branch = functools.partial(extend, plane, config.group, bound=bound)
        found = [a for arcs in _map_reps(config, branch, top.representatives) for a in arcs]
        if found:
            t = min(len(a) for a in found)
            classes = _peel_orbits(plane, config.group, [a for a in found if len(a) == t])
            return MinCompleteResult(config.q, config.group, t, len(classes), classes)
    raise RuntimeError(f"no complete arc found up to size {config.q + 2}")  # unreachable


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)
