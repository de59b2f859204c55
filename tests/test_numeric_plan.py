"""Plan-level differential test of the vectorized numeric kernel.

:func:`repro.numeric.vectorized._build_plan` resolves every update
target through a dense target-column window instead of searching for
it.  Here every plan is rebuilt with the direct formula — one binary
search of the sorted CSC keys ``col * n + row`` per update target, over
the whole streams in one pass — and the plan's offsets, every slice of
its level table and its per-level search counts must be equal, with the
window and block caps shrunk so that many target-column blocks are
crossed.  One plan serves every search mode of a schedule.  A filled
pattern missing one entry must raise :class:`SparseFormatError` on the
fast plan build and on the scalar oracle alike.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import SolverConfig
from repro.core.numeric_gpu import numeric_factorize_gpu
from repro.errors import SparseFormatError
from repro.gpusim import GPU
from repro.graph import build_dependency_graph, levelize_cpu
from repro.graph.levelize import LevelSchedule
from repro.numeric import vectorized
from repro.numeric.rightlooking import factorize_in_place
from repro.sparse import CSRMatrix
from repro.symbolic import symbolic_fill_reference
from repro.workloads.generators import circuit_like, fem_like

#: the plan's whole arrays, and the level table's fields in tuple order
_WHOLE = ("cols_cat", "lvl_off", "pair_off", "exp_off", "scale_off",
          "pos_ujk")
_TABLE = ("s_flat", "piv_flat", "l_flat", "pos_ujk", "pair_rows",
          "pos_tgt")


def _stats_tuple(s):
    return (
        s.div_flops, s.update_flops, s.search_steps, s.columns,
        s.sub_column_updates, tuple(s.per_level),
        tuple(s.perturbed_columns),
    )


def _reference_streams(As, row_adjacency, schedule):
    """The plan's streams, with one ``searchsorted`` per update target."""
    n = As.n_cols
    indptr = As.indptr.astype(np.int64)
    indices = As.indices.astype(np.int64)
    col_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    keys = col_ids * n + indices
    diag = np.full(n, -1, dtype=np.int64)
    on_diag = np.flatnonzero(indices == col_ids)
    diag[col_ids[on_diag]] = on_diag
    sub_start = diag + 1
    sub_len = np.where(diag >= 0, indptr[1:] - sub_start, 0)
    sub_cols = []
    for j in range(n):
        cols, _ = row_adjacency.row(j)
        sub_cols.append(np.asarray(cols[cols > j], dtype=np.int64))
    depth = np.maximum(
        1, np.ceil(np.log2(np.maximum(2, np.diff(indptr)))).astype(np.int64)
    )

    def offsets(counts):
        return np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)

    def ranges(starts, lengths):
        parts = [np.arange(s, s + ln) for s, ln in zip(starts, lengths)]
        return np.concatenate([np.empty(0, np.int64), *parts]).astype(
            np.int64
        )

    def search(probe):
        pos = np.searchsorted(keys, probe)
        assert np.array_equal(keys[pos], probe)
        return pos.astype(np.int64)

    levels = [np.asarray(lv, dtype=np.int64) for lv in schedule.levels]
    cols = np.concatenate([np.empty(0, np.int64), *levels])
    pair_j = np.repeat(cols, [len(sub_cols[j]) for j in cols])
    pair_k = np.concatenate(
        [np.empty(0, np.int64), *(sub_cols[j] for j in cols)]
    )
    pair_rows = sub_len[pair_j]
    l_flat = ranges(sub_start[pair_j], pair_rows)
    sc_cnt = sub_len[cols]
    return {
        "cols_cat": cols,
        "lvl_off": offsets([len(lv) for lv in levels]),
        "pair_off": offsets([len(sub_cols[j]) for j in cols]),
        "exp_off": offsets(pair_rows),
        "scale_off": offsets(sc_cnt),
        "s_flat": ranges(sub_start[cols], sc_cnt),
        "piv_flat": np.repeat(diag[cols], sc_cnt),
        "l_flat": l_flat,
        "pos_ujk": search(pair_k * n + pair_j),
        "pos_tgt": search(
            np.repeat(pair_k, pair_rows) * n + indices[l_flat]
        ),
        "pair_rows": pair_rows,
        "pair_search": pair_rows * depth[pair_k],
    }


def _assert_plan_matches(filled, schedule, count_search_steps):
    """The plan equals the reference, and its stats, read in the given
    search mode, carry the reference's per-level probe counts."""
    As = filled.to_csc()
    plan = vectorized._build_plan(As, filled, schedule)
    ref = _reference_streams(As, filled, schedule)
    for name in _WHOLE:
        arr = getattr(plan, name)
        assert arr.dtype == np.int64, name
        assert np.array_equal(arr, ref[name]), name
    lvl_off, pair_off = ref["lvl_off"], ref["pair_off"]
    exp_off, scale_off = ref["exp_off"], ref["scale_off"]
    assert len(plan.levels) == len(lvl_off) - 1
    searches = []
    for i, level in enumerate(plan.levels):
        c0, c1 = lvl_off[i], lvl_off[i + 1]
        p0, p1 = pair_off[c0], pair_off[c1]
        bounds = {
            "s_flat": (scale_off[c0], scale_off[c1]),
            "piv_flat": (scale_off[c0], scale_off[c1]),
            "l_flat": (exp_off[p0], exp_off[p1]),
            "pos_ujk": (p0, p1),
            "pair_rows": (p0, p1),
            "pos_tgt": (exp_off[p0], exp_off[p1]),
        }
        for name, arr in zip(_TABLE, level):
            lo, hi = bounds[name]
            assert arr.dtype == np.int64, name
            assert np.array_equal(arr, ref[name][lo:hi]), (i, name)
        searches.append(int(ref["pair_search"][p0:p1].sum()))
    if not count_search_steps:
        searches = [0] * len(searches)
    stats = vectorized._stats_of(plan, count_search_steps, [])
    assert [lv[3] for lv in stats.per_level] == searches
    assert stats.search_steps == sum(searches)
    return plan


def _filled_and_schedule(a):
    filled = symbolic_fill_reference(a)
    return filled, levelize_cpu(build_dependency_graph(filled))


def _shrink_caps(monkeypatch):
    """Caps small enough that a 160-column matrix crosses at least 80
    target-column blocks."""
    monkeypatch.setattr(vectorized, "_WINDOW_ENTRIES", 2 * 160)
    monkeypatch.setattr(vectorized, "_MAX_BLOCK_UPDATES", 37)


@pytest.fixture
def small_caps(monkeypatch):
    _shrink_caps(monkeypatch)


@pytest.fixture(params=["default-caps", "small-caps"])
def caps(request, monkeypatch):
    if request.param == "small-caps":
        _shrink_caps(monkeypatch)


@pytest.mark.parametrize("count_search_steps", [False, True])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("gen", [circuit_like, fem_like],
                         ids=["circuit", "fem"])
def test_plan_equals_searchsorted_reference(small_caps, gen, seed,
                                            count_search_steps):
    a = gen(160, 7.0, seed=seed)
    filled, schedule = _filled_and_schedule(a)
    assert filled.nnz > a.nnz, "the test matrix must fill in"
    plan = _assert_plan_matches(filled, schedule, count_search_steps)
    assert len(plan.levels) > 10
    assert sum(len(lv[5]) for lv in plan.levels) > 1000


@pytest.mark.parametrize("gen", [circuit_like, fem_like],
                         ids=["circuit", "fem"])
def test_plan_equals_reference_at_default_caps(gen):
    filled, schedule = _filled_and_schedule(gen(300, 9.0, seed=3))
    _assert_plan_matches(filled, schedule, True)


def test_single_column_levels(small_caps):
    # lower bidiagonal plus a last dense row and column: every level
    # holds one column with at most two updates
    n = 40
    d = np.eye(n) * 4.0
    d[np.arange(1, n), np.arange(n - 1)] = 1.0
    d[-1, :] = d[:, -1] = 1.0
    d[-1, -1] = float(n)
    filled, schedule = _filled_and_schedule(CSRMatrix.from_dense(d))
    assert all(len(lv) == 1 for lv in schedule.levels)
    plan = _assert_plan_matches(filled, schedule, True)
    assert len(plan.levels) == n


@pytest.mark.parametrize("count_search_steps", [False, True])
def test_diagonal_only_plan_has_empty_streams(small_caps,
                                              count_search_steps):
    filled, schedule = _filled_and_schedule(CSRMatrix.identity(12))
    plan = _assert_plan_matches(filled, schedule, count_search_steps)
    assert all(len(lv[5]) == 0 and len(lv[3]) == 0 for lv in plan.levels)


def test_empty_matrix_plan_has_no_levels():
    empty = CSRMatrix(0, 0, [0], [], np.empty(0))
    schedule = LevelSchedule(level_of=np.empty(0, dtype=np.int64))
    plan = _assert_plan_matches(empty, schedule, True)
    assert plan.levels == []
    stats = factorize_in_place(empty.to_csc(), empty, schedule)
    assert stats.columns == 0 and stats.per_level == []


def _numeric_plans(schedule):
    return [p for p in schedule.plans.values()
            if isinstance(p, vectorized._NumericPlan)]


def test_one_plan_per_pattern_across_search_modes():
    a = circuit_like(160, 7.0, seed=2)
    filled, schedule = _filled_and_schedule(a)
    plan = None
    for count_search_steps in (False, True, False):
        fast, oracle = filled.to_csc(), filled.to_csc()
        got = factorize_in_place(
            fast, filled, schedule, count_search_steps=count_search_steps
        )
        want = factorize_in_place(
            oracle, filled, schedule, slow=True,
            count_search_steps=count_search_steps,
        )
        assert np.array_equal(fast.data, oracle.data)
        assert _stats_tuple(got) == _stats_tuple(want)
        assert (got.search_steps > 0) == count_search_steps
        (cached,) = _numeric_plans(schedule)
        assert plan is None or cached is plan, "plan must be kept"
        plan = cached
    # both device formats solve through the U stream of that one plan
    for fmt in ("dense", "csc"):
        res = numeric_factorize_gpu(
            GPU(), filled, schedule, SolverConfig(numeric_format=fmt)
        )
        assert res.data_format == fmt
        assert _numeric_plans(schedule) == [plan]
        assert np.shares_memory(res.solve_plan.streams.bwd_pos, plan.pos_ujk)


# ---------------------------------------------------------------------------
# inconsistent filled patterns


def _without(pattern: CSRMatrix, i: int, k: int) -> CSRMatrix:
    rows = pattern.row_ids_of_entries()
    keep = ~((rows == i) & (pattern.indices == k))
    assert not keep.all(), f"({i}, {k}) is not in the pattern"
    counts = np.bincount(rows[keep], minlength=pattern.n_rows)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return CSRMatrix(
        pattern.n_rows, pattern.n_cols, indptr, pattern.indices[keep],
        pattern.data[keep],
    )


def _fill_entries(a: CSRMatrix, filled: CSRMatrix):
    """``(lower, upper)`` fill positions: in ``filled`` but not in ``a``."""
    def keys(m):
        return set(zip(m.row_ids_of_entries().tolist(), m.indices.tolist()))

    fill = sorted(keys(filled) - keys(a))
    return ([e for e in fill if e[0] > e[1]],
            [e for e in fill if e[0] < e[1]])


def _raises_on_both_paths(As_pattern, row_adjacency, a):
    for slow in (True, False):
        schedule = levelize_cpu(
            build_dependency_graph(symbolic_fill_reference(a))
        )
        with pytest.raises(SparseFormatError) as err:
            factorize_in_place(
                As_pattern.to_csc(), row_adjacency, schedule, slow=slow
            )
        assert type(err.value) is SparseFormatError


@pytest.mark.parametrize("part", ["lower", "upper"])
def test_dropped_fill_entry_raises_on_both_paths(caps, part):
    a = circuit_like(120, 6.0, seed=2)
    filled = symbolic_fill_reference(a)
    lower, upper = _fill_entries(a, filled)
    fill = lower if part == "lower" else upper
    assert fill, "the test matrix must have fill in both triangles"
    broken = _without(filled, *fill[len(fill) // 2])
    _raises_on_both_paths(broken, broken, a)


def test_u_entry_missing_from_csc_raises_on_both_paths(caps):
    a = fem_like(120, 6.0, seed=4)
    filled = symbolic_fill_reference(a)
    rows = filled.row_ids_of_entries()
    upper = np.flatnonzero(filled.indices > rows)
    e = int(upper[len(upper) // 2])
    broken = _without(filled, int(rows[e]), int(filled.indices[e]))
    # the row adjacency still lists the entry as a sub-column pair
    _raises_on_both_paths(broken, filled, a)


def test_repeated_row_adjacency_entry_is_rejected():
    # an unvalidated CSR that lists the sub-column pair (0, 1) twice
    # would leave one pair's update slots unresolved
    d = np.eye(3) * 4.0
    d[2, 0] = d[0, 1] = 1.0
    filled, schedule = _filled_and_schedule(CSRMatrix.from_dense(d))
    rows = filled.row_ids_of_entries()
    dup = int(np.flatnonzero((rows == 0) & (filled.indices == 1))[0])
    take = np.insert(np.arange(filled.nnz), dup, dup)
    counts = np.bincount(rows[take], minlength=3)
    repeated = CSRMatrix(
        3, 3, np.concatenate([[0], np.cumsum(counts)]),
        filled.indices[take], filled.data[take], check=False,
    )
    with pytest.raises(SparseFormatError):
        vectorized._build_plan(filled.to_csc(), repeated, schedule)


_OPTIMIZE_SCRIPT = """
import numpy as np
from repro.errors import SparseFormatError
from repro.graph import build_dependency_graph, levelize_cpu
from repro.numeric.vectorized import factorize_in_place_fast
from repro.sparse import CSRMatrix
from repro.symbolic import symbolic_fill_reference

d = np.eye(3) * 4.0
d[2, 0] = d[0, 1] = 1.0  # L(2, 0) * U(0, 1) fills (2, 1)
filled = symbolic_fill_reference(CSRMatrix.from_dense(d))
schedule = levelize_cpu(build_dependency_graph(filled))
broken = CSRMatrix(3, 3, [0, 2, 3, 5], [0, 1, 1, 0, 2], [4.0, 1, 4, 1, 4])
try:
    factorize_in_place_fast(broken.to_csc(), broken, schedule)
except SparseFormatError:
    print("SparseFormatError")
"""


def test_missing_fill_raises_under_python_optimize():
    # ``python -O`` strips asserts: the pattern check must not be one,
    # or the missing target would silently hit ``data[-1]``
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-O", "-c", _OPTIMIZE_SCRIPT],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "SparseFormatError"
