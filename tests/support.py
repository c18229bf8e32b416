"""Cached builders shared across the test modules.

Planes and classification runs are expensive enough that the suite
builds each exactly once per session.
"""

from __future__ import annotations

import functools

from pgarc.search import (
    SearchConfig,
    classify,
    default_field,
    default_plane,
    min_complete_size,
)

get_field = default_field
get_plane = default_plane


@functools.lru_cache(maxsize=None)
def classification(q: int, group: str, threshold: int):
    cfg = SearchConfig(q=q, group=group, classification_threshold=threshold)
    return tuple(classify(cfg, get_plane(q)))


@functools.lru_cache(maxsize=None)
def find_min(q: int, group: str):
    return min_complete_size(SearchConfig(q=q, group=group), get_plane(q))


@functools.lru_cache(maxsize=None)
def q7_census():
    """Exhaustive q=7 arc census and per-size orbit counts (the slow oracle)."""
    import oracles

    plane = get_plane(7)
    masks = oracles.pair_line_masks(plane)
    arcs = oracles.enumerate_arcs(plane, 9, masks)
    maps = oracles.generator_point_maps(plane, "pgl")
    counts = {}
    for size in range(4, 10):
        if not arcs[size]:
            break
        counts[size] = oracles.orbit_count(arcs[size], maps)
    return arcs, counts
