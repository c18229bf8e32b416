"""Classification levels, extension search, minimum complete size."""

import multiprocessing
import random
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from pgarc import scheduler
from pgarc.arcs import candidate_mask
from pgarc.collineation import PGAMMAL, PGL, DegenerateSetError, canonicalize, standard_frame
from pgarc.gf import build_field
from pgarc.plane import DuplicatePointsError, PointRangeError, build_plane
from pgarc.search import (
    CheckpointError,
    ClassificationLevel,
    SearchConfig,
    classify,
    extend,
    load_level,
    lower_bound,
    min_complete_size,
    save_level,
)
from support import classification, find_min, get_field, get_plane

# published values of t(2,q) and class counts for small q
T_TABLE = {
    2: (4, 1, None),
    3: (4, 1, None),
    4: (6, 1, 1),
    5: (6, 1, None),
    7: (6, 2, None),
    8: (6, 3, 1),
    9: (6, 1, 1),
    11: (7, 1, None),
    13: (8, 2, None),
}


def test_lower_bound_values():
    assert lower_bound(2) == 4
    assert lower_bound(31) == 11
    assert lower_bound(32) == 10


def test_lower_bound_below_known_minimum():
    for q, (t, _, _) in T_TABLE.items():
        assert lower_bound(q) <= t


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(q=12)
    with pytest.raises(ValueError):
        SearchConfig(q=7, classification_threshold=3)


def test_worker_count_validated(capsys):
    """A worker count outside 1..100, the counts that 100 can be split
    over, is rejected by SearchConfig, so both commands exit 2 before any
    level is computed; no worker process is started."""
    from pgarc import cli

    for bad in (0, -2, 101):
        with pytest.raises(ValueError, match="need 1 <= worker_count <= 100"):
            SearchConfig(q=7, worker_count=bad)
    for command in (["classify", "--threshold", "7"], ["find-min"]):
        for workers in ("0", "-2", "101"):
            capsys.readouterr()
            rc = cli.main([*command, "--q", "7", "--workers", workers])
            out, err = capsys.readouterr()
            assert (rc, out) == (2, ""), (command, workers)
            assert err.startswith("error: ")
    assert SearchConfig(q=7, worker_count=100).worker_count == 100


def test_level4_is_single_frame_class():
    for q in (2, 5, 9):
        levels = classification(q, PGL, 4)
        assert levels[0].size == 4 and levels[0].count == 1
        assert levels[0].representatives[0] == tuple(sorted(standard_frame(get_plane(q))))


def test_threshold_clamped_when_levels_empty():
    # q=2 has no 5-arcs, q=3 none either: classification stops at size 4
    for q in (2, 3):
        levels = classification(q, PGL, 8)
        assert [lv.size for lv in levels] == [4]


def test_representatives_are_canonical_and_sorted():
    pl = get_plane(7)
    for lv in classification(7, PGL, 6):
        assert lv.representatives == sorted(lv.representatives)
        for rep in lv.representatives:
            assert canonicalize(pl, rep, PGL).canon == rep


@pytest.mark.parametrize("q", sorted(T_TABLE))
def test_min_complete_size_published_values(q):
    t, classes_pgl, classes_pgammal = T_TABLE[q]
    result = find_min(q, PGL)
    assert (result.size, result.class_count) == (t, classes_pgl)
    if classes_pgammal is not None:
        result2 = find_min(q, PGAMMAL)
        assert (result2.size, result2.class_count) == (t, classes_pgammal)


def test_min_complete_size_results_are_complete_arcs():
    pl = get_plane(7)
    result = find_min(7, PGL)
    for rep in result.representatives:
        assert pl.collinear_triple(rep) is None
        assert candidate_mask(pl, rep) == 0


def test_extension_equals_full_classification():
    """Threshold-4 classification + extension finds exactly the complete-arc
    classes of the orderly classification run to exhaustion."""
    for q, group in [(4, PGL), (5, PGL), (7, PGL), (8, PGL), (8, PGAMMAL)]:
        pl = get_plane(q)
        full = Counter()
        for lv in classification(q, group, q + 2):
            full[lv.size] = sum(
                1 for r in lv.representatives if candidate_mask(pl, r) == 0
            )
        full = {s: c for s, c in full.items() if c}

        lv4 = classification(q, group, 4)[-1]
        seen = set()
        by_size = Counter()
        for rep in lv4.representatives:
            for arc in extend(pl, group, rep, q + 2):
                canon = canonicalize(pl, arc, group).canon
                if canon not in seen:
                    seen.add(canon)
                    by_size[len(arc)] += 1
        assert dict(by_size) == full, (q, group)


def test_extend_reports_complete_root():
    """The stop tests of the descent hold at the root too: a complete root
    is reported at or below the bound, an incomplete one at the bound is
    not, and a root above the bound reports nothing."""
    pl = get_plane(2)
    rep = classification(2, PGL, 4)[-1].representatives[0]
    assert extend(pl, PGL, rep, 4) == [rep]
    assert extend(pl, PGL, rep, 5) == [rep]
    assert extend(pl, PGL, rep, 3) == []
    pl7 = get_plane(7)
    frame = tuple(standard_frame(pl7))
    assert candidate_mask(pl7, frame) and extend(pl7, PGL, frame, 4) == []
    assert extend(pl7, PGL, frame, 6)


def test_extend_builds_no_root_blocks_at_the_bound(monkeypatch):
    """A root exactly at the bound with candidates left reads one secant
    mask, the one inside candidate_mask; below the bound, one more per
    candidate builds its root block."""
    pl = build_plane(get_field(7))
    frame = tuple(standard_frame(pl))
    candidates = candidate_mask(pl, frame).bit_count()
    calls = []
    secant = pl.secant_mask
    monkeypatch.setattr(pl, "secant_mask", lambda ids: calls.append(ids) or secant(ids))
    assert extend(pl, PGL, frame, 4) == [] and calls == [sorted(frame)]
    calls.clear()
    extend(pl, PGL, frame, 5)
    assert candidates and len(calls) == 1 + candidates


def test_extend_rejects_roots_that_are_not_arcs():
    """At q = 7 the root (0, 1, 2, 3) has 0, 1 and 2 on the line x0 = 0;
    extend once reported 294 "complete arcs" above it.  It raises
    DegenerateSetError, at and above the bound too, and a bad or
    repeated id raises as in collinear_triple."""
    pl = get_plane(7)
    for bound in (9, 4, 3):
        with pytest.raises(DegenerateSetError):
            extend(pl, PGL, (0, 1, 2, 3), bound)
    with pytest.raises(PointRangeError):
        extend(pl, PGL, (0, 1, 8, 57), 9)
    with pytest.raises(DuplicatePointsError):
        extend(pl, PGL, (0, 1, 8, 8), 9)


def test_checkpoint_round_trip(tmp_path):
    cfg = SearchConfig(q=5, classification_threshold=6, checkpoint_dir=str(tmp_path))
    levels = classify(cfg)
    files = sorted(p.name for p in tmp_path.iterdir())
    assert files == [f"q5_pgl_level{n}.txt" for n in (4, 5, 6)]
    # resume from checkpoints only
    reloaded = classify(cfg)
    assert [lv.representatives for lv in reloaded] == [
        lv.representatives for lv in levels
    ]
    loaded = load_level(tmp_path, get_plane(5), PGL, 6)
    assert loaded.count == levels[-1].count


def test_q31_level6_matches_committed_checkpoint(tmp_path):
    """Golden file: the 905 size-6 classes of PG(2,31), as save_level writes them."""
    level = classification(31, PGL, 6)[-1]
    path = save_level(tmp_path, 31, PGL, level)
    golden = Path(__file__).resolve().parents[1] / "checkpoints" / path.name
    assert path.read_bytes() == golden.read_bytes()


def test_checkpoint_header_mismatch_rejected(tmp_path):
    level = ClassificationLevel(4, [(0, 1, 6, 12)])
    path = save_level(tmp_path, 5, PGL, level)
    path.rename(tmp_path / path.name.replace("q5", "q7"))
    with pytest.raises(CheckpointError):
        load_level(tmp_path, get_plane(7), PGL, 4)
    truncated = save_level(tmp_path, 5, PGL, ClassificationLevel(4, [(0, 1, 6, 12)]))
    lines = truncated.read_text().splitlines()
    lines[0] = lines[0].replace('"count": 1', '"count": 2')
    truncated.write_text("\n".join(lines) + "\n")
    with pytest.raises(CheckpointError):
        load_level(tmp_path, get_plane(5), PGL, 4)


def _drop_last_id(lines, plane):
    lines[-1] = lines[-1].rsplit(" ", 1)[0]


def _id_out_of_range(lines, plane):
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + f" {plane.size}"


def _ids_not_increasing(lines, plane):
    ids = lines[-1].split()
    lines[-1] = " ".join([ids[1], ids[0], *ids[2:]])


def _collinear_line(lines, plane):
    lines[-1] = " ".join(map(str, plane.points_on_line[0][:6]))


def _not_an_integer(lines, plane):
    lines[-1] = lines[-1].replace(" ", " x", 1)


def _header_not_json(lines, plane):
    lines[0] = lines[0][:-1]


def _count_mismatch(lines, plane):
    lines[0] = lines[0].replace(f'"count": {len(lines) - 1}', f'"count": {len(lines)}')


def _header_not_utf8(lines, plane):
    lines[0] = lines[0][:-1] + ', "note": "\xff"}'


def _id_line_not_utf8(lines, plane):
    lines[-1] = "\xff" + lines[-1]


def _header_too_many_digits(lines, plane):
    lines[0] = "1" * 5000


@pytest.mark.parametrize("corrupt", [
    _drop_last_id, _id_out_of_range, _ids_not_increasing, _collinear_line,
    _not_an_integer, _header_not_json, _count_mismatch,
    _header_not_utf8, _id_line_not_utf8, _header_too_many_digits,
])
def test_corrupt_checkpoint_rejected(tmp_path, capsys, corrupt):
    """A level-6 file at q = 7 that does not hold the level: load_level
    raises CheckpointError, and classify exits 2 with its message before
    computing level 7.  Before the line checks, a dropped last id gave
    "size 7: 3 classes" (the right count is 1) and exit 0; a byte 0xff,
    or a header of 5,000 digits, gave a traceback and exit 1.  The file
    is written in Latin-1, so a U+00FF in a line is the byte 0xff."""
    from pgarc import cli

    plane = get_plane(7)
    classify(SearchConfig(q=7, classification_threshold=6, checkpoint_dir=str(tmp_path)))
    path = tmp_path / "q7_pgl_level6.txt"
    lines = path.read_text().splitlines()
    corrupt(lines, plane)
    path.write_bytes(("\n".join(lines) + "\n").encode("latin-1"))
    with pytest.raises(CheckpointError):
        load_level(tmp_path, plane, PGL, 6)
    capsys.readouterr()
    rc = cli.main(["classify", "--q", "7", "--threshold", "7", "--checkpoint-dir", str(tmp_path)])
    out, err = capsys.readouterr()
    assert (rc, out) == (2, "")
    assert err.startswith("malformed checkpoint: checkpoint ") and "q7_pgl_level6.txt" in err
    assert not (tmp_path / "q7_pgl_level7.txt").exists()


WORKER_SETUPS = [
    dict(worker_count=1),
    dict(worker_count=2),
    dict(worker_count=3, stealing=True),
]


def alternative_plane_16():
    """PG(2,16) over GF(16) = GF(2)[x] / (x^4 + x + 1), not the default
    modulus x^4 + x^3 + 1: workers must compute on the caller's plane."""
    return build_plane(build_field(2, 4, (1, 1, 0, 0, 1)))


def test_classification_deterministic_across_workers():
    """Levels 6 and 7 at q = 11 grow from 2 and 15 parents, so the worker
    path of classify runs, whatever the worker count and stealing; so does
    level 6 of PG(2,16) under a non-default modulus, from 4 parents."""
    for q, threshold, plane, counts in [(11, 7, None, [1, 2, 15, 21]),
                                        (16, 6, alternative_plane_16(), [1, 4, 61])]:
        runs = [
            [lv.representatives for lv in classify(
                SearchConfig(q=q, classification_threshold=threshold, **kw), plane)]
            for kw in WORKER_SETUPS
        ]
        assert [len(reps) for reps in runs[0]] == counts
        assert runs[1] == runs[0] and runs[2] == runs[0]


def test_min_complete_size_deterministic_across_workers():
    """Extension at bound 7 runs over the 2 classes of 5-arcs at q = 11,
    and up to bound 9 over the 4 classes of 5-arcs of PG(2,16) under a
    non-default modulus."""
    for q, plane, want in [(11, None, (7, 1)), (16, alternative_plane_16(), (9, 6))]:
        runs = []
        for kw in WORKER_SETUPS:
            r = min_complete_size(SearchConfig(q=q, **kw), plane)
            runs.append((r.size, r.class_count, r.representatives))
        assert runs[0][:2] == want
        assert runs[1] == runs[0] and runs[2] == runs[0]


def test_classify_to_size_5_builds_few_rows():
    """The frame's children at q = 31 read 4 rows of the 993 of the pair
    -> line lookup in the calling process, and fill the log rows of 42
    of the 993 lines; a fresh plane has neither."""
    plane = build_plane(get_field(31))
    assert len(plane.line_rows) == len(plane.line_logs) == 0
    classify(SearchConfig(q=31, classification_threshold=5), plane)
    assert 0 < len(plane.line_rows) <= 8
    assert 0 < len(plane.line_logs) <= 64


@pytest.mark.parametrize("q, group, counts", [(31, PGL, [1, 11, 905]), (32, PGAMMAL, [1, 3, 213])])
def test_workers_fill_rows_of_a_fresh_plane(q, group, counts):
    """Level 6 runs in 2 workers forked from a freshly built plane that
    holds only the rows level 5 read; each worker fills the rows it reads,
    and the levels equal those of 1 worker on another fresh plane."""
    runs = []
    for workers in (1, 2):
        config = SearchConfig(q=q, group=group, classification_threshold=6, worker_count=workers)
        runs.append([lv.representatives for lv in classify(config, build_plane(get_field(q)))])
    assert [len(reps) for reps in runs[0]] == counts
    assert runs[1] == runs[0]


def test_search_refuses_a_plane_of_another_order(tmp_path):
    """A plane whose order is not config.q raises before any work, and no
    checkpoint is written; a plane over a non-default modulus of the same
    order is allowed."""
    with pytest.raises(ValueError, match="plane has order 11"):
        min_complete_size(SearchConfig(q=13), get_plane(11))
    config = SearchConfig(q=31, classification_threshold=5, checkpoint_dir=str(tmp_path))
    with pytest.raises(ValueError, match="plane has order 7"):
        classify(config, get_plane(7))
    assert list(tmp_path.iterdir()) == []
    config = SearchConfig(q=16, classification_threshold=5)
    assert [lv.count for lv in classify(config, alternative_plane_16())] == [1, 4]


def test_worker_path_under_spawn(monkeypatch):
    """Under the spawn start method each worker unpickles the job
    function, which holds the caller's plane and the level, and imports
    pgarc afresh (from PYTHONPATH, as the tier-1 command sets it): levels
    6 and 7 at q = 11 come out as on one worker."""
    spawn = multiprocessing.get_context("spawn")
    pools = []

    def spy(processes, *args):
        pools.append(processes)
        return spawn.Pool(processes, *args)

    monkeypatch.setattr(scheduler, "multiprocessing", SimpleNamespace(Pool=spy))
    levels = classify(SearchConfig(q=11, classification_threshold=7, worker_count=2))
    assert pools == [2, 2]
    assert levels == list(classification(11, PGL, 7))


def test_memory_budget(tmp_path):
    """The budget is checked while the level accumulates, serially and
    while merging worker chunks: the first of the two 5-arc parents at
    q = 11 already has 14 of the 15 children.  The level that breaks the
    budget is not checkpointed."""
    from pgarc.search import MemoryBudgetExceededError

    message = "level 6 reached 14 classes, over the budget of 10"
    for workers in (1, 2):
        ckdir = tmp_path / str(workers)
        cfg = SearchConfig(q=11, classification_threshold=7, worker_count=workers,
                           checkpoint_dir=str(ckdir), max_level_classes=10)
        with pytest.raises(MemoryBudgetExceededError, match=message):
            classify(cfg)
        assert sorted(p.name for p in ckdir.iterdir()) == [
            "q11_pgl_level4.txt", "q11_pgl_level5.txt"
        ]


def test_memory_budget_stops_the_workers_at_the_first_chunk_over_it():
    """At q = 31 the first of the eleven 5-arc parents has 328 of the 905
    canonical 6-arcs.  With a budget of 100 the level stops at that
    parent's chunk as it arrives: 1 and 2 workers raise the same message,
    and no worker process is left running."""
    from pgarc.search import MemoryBudgetExceededError

    message = "^level 6 reached 328 classes, over the budget of 100$"
    for workers in (1, 2):
        cfg = SearchConfig(q=31, classification_threshold=6, worker_count=workers,
                           max_level_classes=100)
        with pytest.raises(MemoryBudgetExceededError, match=message):
            classify(cfg, get_plane(31))
        assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "q, group, threshold",
    [(5, PGL, 7), (7, PGL, 9), (9, PGL, 11), (11, PGL, 13),
     (8, PGAMMAL, 10), (9, PGAMMAL, 11), (13, PGL, 7), (16, PGAMMAL, 6)],
)
def test_classify_matches_set_based_oracle(q, group, threshold):
    """Orderly classification against canonicalizing every child and
    deduplicating in a set, at every size (q = 13: up to size 7; q = 16,
    whose Frobenius orbits are longer than those of 8 and 9: up to size 6)."""
    from oracles import set_classify

    levels = classification(q, group, threshold)
    assert [lv.representatives for lv in levels] == set_classify(get_plane(q), group, threshold)


def test_q31_single_branch_extension_smoke():
    """One 8-arc branch of PG(2,31) explored to bound 9: the search runs at
    full plane order and reports only genuine complete arcs (none this shallow)."""
    pl = get_plane(31)
    rng = random.Random(31)
    from oracles import random_arc

    members = random_arc(pl, rng, max_size=8)
    rep = canonicalize(pl, members, PGL).canon
    found = extend(pl, PGL, rep, 9)
    assert found == []


@pytest.mark.parametrize(
    "q, group, threshold",
    [(q, PGL, 4) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    + [(q, PGAMMAL, 4) for q in (4, 8, 9)]
    + [(q, PGL, 5) for q in (9, 11, 13)],
)
def test_orbit_peeling_matches_per_arc_canonical_forms(q, group, threshold):
    """The census of min_complete_size, which extends from level 5 and
    peels orbits, against canonicalizing every smallest complete arc that
    the oracle's extension from level threshold reports: from the frame
    at threshold 4, so the level-5 roots lose no class.  At q = 9, 11 and
    13 level 5 has 2 or 3 classes, so one class of complete arcs can be
    reported under several branches."""
    from oracles import per_arc_min_complete_size

    pl = get_plane(q)
    cfg = SearchConfig(q=q, group=group, classification_threshold=threshold)
    t, classes = per_arc_min_complete_size(cfg, pl)
    if q in (9, 11, 13):
        assert len(classification(q, group, 5)[-1].representatives) > 1
    r = find_min(q, group)
    assert (r.size, r.class_count, r.representatives) == (t, len(classes), classes)


def test_min_complete_size_canonicalizes_once_per_class(monkeypatch):
    """A call-count guard, not a timing gate: at q = 13 the extension
    reports 48 complete 8-arcs in 2 classes, and the census must not
    canonicalize them one by one; at q = 11 the extension runs from the
    2 classes of 5-arcs.  The search makes no canonicalize call at all."""
    import pgarc.collineation
    import pgarc.search

    calls = []
    original = pgarc.collineation.canonicalize

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (pgarc.collineation, pgarc.search):
        if hasattr(module, "canonicalize"):
            monkeypatch.setattr(module, "canonicalize", counted)
    for q, want in [(13, (8, 2)), (11, (7, 1))]:
        r = min_complete_size(SearchConfig(q=q), get_plane(q))
        assert (r.size, r.class_count) == want
        assert calls == [], (q, len(calls))
