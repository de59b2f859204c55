"""Vectorized per-level right-looking numeric kernel (fast host path).

Semantically identical to the scalar loop in
:mod:`repro.numeric.rightlooking` — same factors *bitwise*, same
:class:`~repro.numeric.rightlooking.NumericStats` (including the
``per_level`` tuples the GPU executor charges kernels from, and the
``perturbed_columns`` recovery record), same error behaviour — but the
per-column / per-sub-column Python loops are replaced by bulk NumPy
operations, in the spirit of the structure-aware blocking line of work:
operate on structure in blocks, not element at a time.

The key observation is that every *position* the scalar loop computes —
diagonal offsets, sub-diagonal slices, the ``(j, k)`` sub-column pairs
and the flat target of every single update — depends only on the filled
pattern, never on the values.  So the kernel resolves them up front,
without searching for any update target.  Every ``U`` entry ``(j, k)``
of the filled pattern is exactly one sub-column pair, so the plan walks
the ``U`` entries in CSC order, one block of target columns at a time:
the block's ``row -> position`` maps are scattered into a dense window
of ``n`` slots per column, and the target of every row update
``(i, j) -> (i, k)`` is a single gather from that window.  This is the
host analogue of the paper's dense-format numeric (§3.4): the window
is small on the host, so it needs none of the binary searches the
sorted-CSC kernel (Alg. 6) pays for to save device memory.  Only the
multipliers ``U(j, k)``, one per pair, are found by one batched search
of the globally sorted keys ``col * n + row``.

The streams are built whole, in schedule order, and cut into one *level
table*: per level, one ``(s_flat, piv_flat, l_flat, pos_ujk, pair_rows,
pos_tgt)`` tuple of slices.  Each level runs the same two steps,

* **scale** — ``data[s] /= data[piv]`` over the level's sub-diagonals;
* **update** — gather multipliers and ``U`` entries through the
  position streams and apply with ``np.subtract.at``, which accumulates
  repeated targets in array order, i.e. exactly the scalar loop's
  update order, so floating-point results match bitwise.

That structure-only *plan*, with the pattern's :class:`NumericStats`
(values cannot change them either), is cached on the schedule object:
repeated refactorizations of the same pattern (the serving tier's bread
and butter, and how real solvers amortize analysis across solves) skip
the precompute entirely.  Two passes run the level table:

* the **unchecked** pass, taken without pivot perturbation: back up the
  values once, run every level, then test every pivot at once on the
  final diagonal.  That is sound because only a column ``j`` with
  ``U(j, k) != 0`` writes the diagonal of ``k``, always in an earlier
  level, so the final diagonal is the pivot that was used.
* the **checked** pass, taken with pivot perturbation, a missing
  diagonal, or after the unchecked pass failed a pivot or raised a
  floating-point error (the values are restored first): it validates
  (or perturbs) each level's pivots before using them and raises for
  the scalar oracle's column, with the scalar path's partial mutations
  for the columns before it.

A run that returns has processed every level, so its stats are the
plan's.

Bitwise equivalence relies on the schedule carrying GLU 3.0's *full*
dependency set (``include_l_dependencies=True``, the library default):
it guarantees no same-level column reads an entry another same-level
column writes, so gathering multipliers level-at-a-time is exactly the
scalar interleaving.  The same property is what makes the level a valid
parallel unit on a real device.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..errors import SingularMatrixError, SparseFormatError
from ..graph import LevelSchedule
from ..sparse import CSCMatrix, CSRMatrix
from ..sparse.ranges import concat_ranges
from .rightlooking import NumericStats

__all__ = ["factorize_in_place_fast"]

#: entries of the dense target-column window: a block of target columns
#: spans at most ``_WINDOW_ENTRIES // n`` columns (at least one)
_WINDOW_ENTRIES = 1 << 18

#: cap on the updates resolved per block of target columns, which bounds
#: the block's temporaries
_MAX_BLOCK_UPDATES = 1 << 17


def _diag_positions(
    indices: np.ndarray, col_ids: np.ndarray, n: int
) -> np.ndarray:
    """Flat position of each column's diagonal entry (-1 when absent)."""
    hits = np.flatnonzero(indices == col_ids)
    diag_pos = np.full(n, -1, dtype=np.int64)
    diag_pos[col_ids[hits]] = hits
    return diag_pos


class _NumericPlan:
    """Everything about a factorization that values cannot change.

    Built once per (pattern, schedule) and cached on the schedule
    object, so refactorizing the same structure with new values pays
    only the value passes.  The kernel's contract is that ``As`` is the
    sorted CSC of the filled pattern the schedule was levelized from and
    ``row_adjacency`` its CSR — a schedule is born from exactly one
    pattern, so caching on it is sound, and ``matches`` only
    cross-checks the cheap structural invariants (dimension and entry
    counts) to catch contract violations.  Array *identity* is
    deliberately not used: the refactorization path re-wraps the shared
    pattern arrays in fresh view objects each pass.
    """

    __slots__ = (
        "as_nnz",
        "ra_nnz",
        "n",
        "diag_pos",
        "cols_cat",
        "lvl_off",
        "scale_off",
        "pair_off",
        "exp_off",
        "pos_ujk",
        "levels",
        "pivots_final",
        "stats",
    )

    as_nnz: int
    ra_nnz: int
    n: int
    diag_pos: np.ndarray
    #: scheduled columns in level order, and each level's slice of them
    cols_cat: np.ndarray
    lvl_off: np.ndarray
    #: per column, its slice of the scale stream and of the pairs; per
    #: pair, its slice of the update stream
    scale_off: np.ndarray
    pair_off: np.ndarray
    exp_off: np.ndarray
    #: CSC position of every ``U(j, k)``: rows ``j`` in schedule order,
    #: ``k`` ascending; the solve plan reverses it
    pos_ujk: np.ndarray
    #: the level table both passes run: one ``(s_flat, piv_flat, l_flat,
    #: pos_ujk, pair_rows, pos_tgt)`` slice tuple per level
    levels: list[tuple[np.ndarray, ...]]
    #: whether the unchecked pass may run (see :func:`_pivots_final`)
    pivots_final: bool
    #: the :class:`NumericStats` of every run that raises nothing, with
    #: search steps counted and nothing perturbed
    stats: NumericStats

    def matches(self, As: CSCMatrix, row_adjacency: CSRMatrix) -> bool:
        return (
            self.n == As.n_cols
            and self.n == row_adjacency.n_rows
            and self.as_nnz == As.nnz
            and self.ra_nnz == row_adjacency.nnz
        )


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum with a leading zero (``len(counts) + 1``)."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _greedy_stop(cum: np.ndarray, start: int, cap: int) -> int:
    """Largest ``stop`` with ``cum[stop] - cum[start] <= cap``, but at
    least ``start + 1`` so that one item above the cap still goes
    through on its own (``cum`` is a non-decreasing prefix sum)."""
    stop = int(np.searchsorted(cum, cum[start] + cap, side="right")) - 1
    return max(start + 1, stop)


def _u_entry_positions(
    keys: np.ndarray, pair_j: np.ndarray, pair_k: np.ndarray, n: int
) -> np.ndarray:
    """CSC position of every multiplier ``U(j, k)``: one batched search."""
    probe = pair_k * n + pair_j
    pos = np.searchsorted(keys, probe)
    hit = pos < len(keys)
    hit[hit] = keys[pos[hit]] == probe[hit]
    if not hit.all():
        bad = int(np.argmin(hit))
        raise SparseFormatError(
            f"filled pattern is missing U entry ({int(pair_j[bad])}, "
            f"{int(pair_k[bad])}) — symbolic pattern is inconsistent"
        )
    return pos


def _target_streams(
    indptr: np.ndarray,
    indices: np.ndarray,
    col_ids: np.ndarray,
    sub_start: np.ndarray,
    sub_len: np.ndarray,
    pos_ujk: np.ndarray,
    exp_off: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve the whole pair-ordered update stream without searching.

    Returns ``(l_flat, pos_tgt)``: for update ``e`` of pair ``(j, k)``,
    the CSC position of the multiplier ``L(i, j)`` and of its target
    ``(i, k)``.  The ``U`` entries are walked in CSC order, one block
    of target columns at a time (see the module docstring); each
    block's results are scattered to their pair-ordered slots.  A
    window slot still at the ``-1`` sentinel is a missing fill entry.
    """
    total = int(exp_off[-1])
    l_flat = np.empty(total, dtype=np.int64)
    pos_tgt = np.empty(total, dtype=np.int64)
    if total == 0:
        return l_flat, pos_tgt
    n = len(indptr) - 1
    # pair index of each U entry in CSC order: the inverse of pos_ujk
    pair_at = np.full(len(indices), -1, dtype=np.int64)
    pair_at[pos_ujk] = np.arange(len(pos_ujk), dtype=np.int64)
    u_pos = np.flatnonzero(pair_at >= 0)
    if len(u_pos) != len(pos_ujk):
        raise SparseFormatError(
            "row adjacency repeats a U entry — filled pattern is "
            "inconsistent"
        )
    u_pair = pair_at[u_pos]
    u_col = col_ids[u_pos]
    u_j = indices[u_pos]
    u_cnt = sub_len[u_j]
    u_exp = _offsets(u_cnt)
    # U entries and updates before each column, for block cutting
    col_u = _offsets(np.bincount(u_col, minlength=n))
    col_exp = u_exp[col_u]
    # update e of U entry u sits at ``u_exp[u] <= e < u_exp[u + 1]`` in
    # CSC order; these shifts map it to its multiplier and its slot
    src_shift = sub_start[u_j] - u_exp[:-1]
    dst_shift = exp_off[u_pair] - u_exp[:-1]

    width = min(n, max(1, _WINDOW_ENTRIES // n))
    window = np.full(width * n, -1, dtype=np.int64)
    k0 = 0
    while k0 < n:
        k1 = min(k0 + width, _greedy_stop(col_exp, k0, _MAX_BLOCK_UPDATES))
        a, b = int(col_u[k0]), int(col_u[k1])
        x0, x1 = int(col_exp[k0]), int(col_exp[k1])
        if x1 > x0:
            e0, e1 = int(indptr[k0]), int(indptr[k1])
            slots = (col_ids[e0:e1] - k0) * n + indices[e0:e1]
            window[slots] = np.arange(e0, e1, dtype=np.int64)
            cnt = u_cnt[a:b]
            ramp = np.arange(x0, x1, dtype=np.int64)
            src = np.repeat(src_shift[a:b], cnt)
            src += ramp
            slot = np.repeat((u_col[a:b] - k0) * n, cnt)
            slot += indices[src]
            found = window[slot]
            window[slots] = -1
            if found.min() < 0:
                bad = int(np.argmin(found))
                raise SparseFormatError(
                    f"fill position ({int(indices[src[bad]])}, "
                    f"{k0 + int(slot[bad]) // n}) missing — filled pattern "
                    "is inconsistent"
                )
            dst = np.repeat(dst_shift[a:b], cnt)
            dst += ramp
            l_flat[dst] = src
            pos_tgt[dst] = found
        k0 = k1
    return l_flat, pos_tgt


def _pivots_final(
    lvl_off: np.ndarray,
    cols_cat: np.ndarray,
    pair_j: np.ndarray,
    pair_k: np.ndarray,
    diag_pos: np.ndarray,
) -> bool:
    """Whether each column's final diagonal is the pivot it was used at.

    Only column ``j`` with ``U(j, k) != 0`` writes the diagonal of
    ``k``, so that holds when every column is scheduled exactly once,
    has a diagonal, and every ``U(j, k)`` pair has ``j`` in an earlier
    level than ``k`` — true of every schedule levelized from the pattern.
    """
    n = len(diag_pos)
    if len(cols_cat) != n or (diag_pos < 0).any():
        return False
    level_of = np.full(n, -1, dtype=np.int64)
    level_of[cols_cat] = np.repeat(
        np.arange(len(lvl_off) - 1, dtype=np.int64), np.diff(lvl_off)
    )
    if (level_of < 0).any():
        return False
    return bool((level_of[pair_j] < level_of[pair_k]).all())


def _build_plan(
    As: CSCMatrix,
    row_adjacency: CSRMatrix,
    schedule: LevelSchedule,
) -> _NumericPlan:
    indptr = As.indptr.astype(np.int64, copy=False)
    indices = As.indices
    n = As.n_cols

    col_ids = As.col_ids_of_entries().astype(np.int64, copy=False)
    diag_pos = _diag_positions(indices, col_ids, n)
    col_nnz = np.diff(indptr)
    # sub-diagonal slice of each column: (diag_pos + 1 .. column end)
    sub_start = diag_pos + 1
    sub_len = np.where(diag_pos >= 0, indptr[1:] - sub_start, 0)

    # sub-columns of j = entries of filled row j with column id > j; with
    # sorted rows that is the suffix after the diagonal, found by one
    # batched binary search over the row-major keys.
    r_indptr = row_adjacency.indptr.astype(np.int64, copy=False)
    r_indices = row_adjacency.indices
    r_keys = (
        row_adjacency.row_ids_of_entries().astype(np.int64, copy=False) * n
        + r_indices
    )
    ar = np.arange(n, dtype=np.int64)
    sc_start = np.searchsorted(r_keys, ar * n + ar, side="right")
    sc_len = r_indptr[1:] - sc_start

    # every stream is built whole, in schedule order, then cut per
    # level: columns -> (j, k) sub-column pairs -> row updates
    levels = [np.asarray(lv, dtype=np.int64) for lv in schedule.levels]
    cols_cat = (
        np.concatenate(levels) if levels else np.empty(0, dtype=np.int64)
    )
    lvl_off = _offsets(np.array([len(lv) for lv in levels], dtype=np.int64))
    pair_cnt = sc_len[cols_cat]
    pair_off = _offsets(pair_cnt)
    pair_j = np.repeat(cols_cat, pair_cnt)
    pair_k = r_indices[concat_ranges(sc_start[cols_cat], pair_cnt)]
    pair_k = pair_k.astype(np.int64, copy=False)
    # CSC keys col * n + row are globally sorted (the sorted-CSC
    # property Algorithm 6 relies on), so one search finds every U(j, k)
    keys = col_ids * n + indices
    pos_ujk = _u_entry_positions(keys, pair_j, pair_k, n)
    pair_rows = sub_len[pair_j]
    exp_off = _offsets(pair_rows)
    l_flat, pos_tgt = _target_streams(
        indptr, indices, col_ids, sub_start, sub_len, pos_ujk, exp_off
    )
    sc_cnt = sub_len[cols_cat]
    scale_off = _offsets(sc_cnt)
    s_flat = concat_ranges(sub_start[cols_cat], sc_cnt)
    piv_flat = np.repeat(diag_pos[cols_cat], sc_cnt)
    # Algorithm 6's probes: log2(col nnz) per update into column k
    probe_depth = np.maximum(
        1, np.ceil(np.log2(np.maximum(2, col_nnz))).astype(np.int64)
    )
    search_off = _offsets(pair_rows * probe_depth[pair_k])

    plan = _NumericPlan()
    plan.as_nnz = As.nnz
    plan.ra_nnz = row_adjacency.nnz
    plan.n = n
    plan.diag_pos = diag_pos
    plan.cols_cat = cols_cat
    plan.lvl_off = lvl_off
    plan.scale_off = scale_off
    plan.pair_off = pair_off
    plan.exp_off = exp_off
    plan.pos_ujk = pos_ujk
    plan.pivots_final = _pivots_final(
        lvl_off, cols_cat, pair_j, pair_k, diag_pos
    )

    # per-level bounds of every stream, for the table and the stats
    lvl_pair = pair_off[lvl_off]
    lvl_exp = exp_off[lvl_pair]
    lvl_scale = scale_off[lvl_off]
    lvl_search = search_off[lvl_pair]
    n_scale, n_exp = np.diff(lvl_scale), np.diff(lvl_exp)
    n_pair, n_search = np.diff(lvl_pair), np.diff(lvl_search)
    plan.stats = NumericStats(
        div_flops=int(lvl_scale[-1]),
        update_flops=2 * int(lvl_exp[-1]),
        search_steps=int(lvl_search[-1]),
        columns=len(cols_cat),
        sub_column_updates=int(lvl_pair[-1]),
        per_level=list(
            zip(
                (n_scale + 2 * n_exp).tolist(),
                np.diff(lvl_off).tolist(),
                n_pair.tolist(),
                n_search.tolist(),
            )
        ),
    )
    plan.levels = [
        (
            s_flat[s0:s1],
            piv_flat[s0:s1],
            l_flat[e0:e1],
            pos_ujk[p0:p1],
            pair_rows[p0:p1],
            pos_tgt[e0:e1],
        )
        for s0, s1, p0, p1, e0, e1 in zip(
            lvl_scale[:-1].tolist(),
            lvl_scale[1:].tolist(),
            lvl_pair[:-1].tolist(),
            lvl_pair[1:].tolist(),
            lvl_exp[:-1].tolist(),
            lvl_exp[1:].tolist(),
        )
    ]
    return plan


def _plan_for(
    As: CSCMatrix, row_adjacency: CSRMatrix, schedule: LevelSchedule
) -> _NumericPlan:
    plan = schedule.plans.get("numeric")
    if plan is None or not plan.matches(As, row_adjacency):
        plan = _build_plan(As, row_adjacency, schedule)
        schedule.plans["numeric"] = plan
    return plan


def _stats_of(
    plan: _NumericPlan, count_search_steps: bool, perturbed: list[int]
) -> NumericStats:
    """A fresh copy of the plan's stats, for a run that returned."""
    stats = plan.stats
    if count_search_steps:
        per_level = list(stats.per_level)
    else:
        per_level = [(f, c, u, 0) for f, c, u, _ in stats.per_level]
    return replace(
        stats,
        search_steps=stats.search_steps if count_search_steps else 0,
        per_level=per_level,
        perturbed_columns=perturbed,
    )


def factorize_in_place_fast(
    As: CSCMatrix,
    row_adjacency: CSRMatrix,
    schedule: LevelSchedule,
    *,
    pivot_tolerance: float = 0.0,
    count_search_steps: bool = False,
    pivot_perturbation: float = 0.0,
):
    """Vectorized twin of :func:`repro.numeric.factorize_in_place`.

    See that function for the parameter contract; this one only changes
    how fast the identical result is produced.
    """
    data = As.data
    plan = _plan_for(As, row_adjacency, schedule)
    if pivot_perturbation <= 0.0 and plan.pivots_final:
        backup = data.copy()
        if _run_program(plan, data, pivot_tolerance):
            return _stats_of(plan, count_search_steps, [])
        data[:] = backup
    perturbed = _checked_levels(
        plan, data, pivot_tolerance, pivot_perturbation
    )
    return _stats_of(plan, count_search_steps, perturbed)


def _run_level(
    data: np.ndarray,
    s_pos: np.ndarray,
    piv_pos: np.ndarray,
    l_pos: np.ndarray,
    u_pos: np.ndarray,
    rows: np.ndarray,
    tgt: np.ndarray,
) -> None:
    """One level's scale and update steps."""
    if len(s_pos):
        data[s_pos] /= data[piv_pos]
    if len(tgt):
        np.subtract.at(data, tgt, data[l_pos] * np.repeat(data[u_pos], rows))


def _run_program(
    plan: _NumericPlan, data: np.ndarray, pivot_tolerance: float
) -> bool:
    """The unchecked pass: every level's scale and update.

    Returns whether every pivot passed, checked at once on the final
    diagonal (see :func:`_pivots_final`).  Any floating-point error also
    fails the pass, so the checked loop reproduces its warnings.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            for level in plan.levels:
                _run_level(data, *level)
    except FloatingPointError:
        return False
    pivots = data[plan.diag_pos].astype(np.float64)
    return not bool((np.abs(pivots) <= pivot_tolerance).any())


def _checked_levels(
    plan: _NumericPlan,
    data: np.ndarray,
    pivot_tolerance: float,
    pivot_perturbation: float,
) -> list[int]:
    """The checked pass: pivots validated (or perturbed) level by level,
    raising for the scalar oracle's column with its partial mutations in
    place.  Returns the perturbed columns."""
    perturbed: list[int] = []
    diag_pos, cols_cat, lvl_off = plan.diag_pos, plan.cols_cat, plan.lvl_off
    for i, level in enumerate(plan.levels):
        c0, c1 = int(lvl_off[i]), int(lvl_off[i + 1])
        cols = cols_cat[c0:c1]
        pos = diag_pos[cols]
        missing = pos < 0
        vals = (
            data[np.maximum(pos, 0)]
            if len(data)
            else np.zeros(len(cols), dtype=data.dtype)
        )
        piv64 = np.where(missing, np.inf, vals).astype(np.float64)
        bad = np.abs(piv64) <= pivot_tolerance
        fail = missing.copy()
        if pivot_perturbation <= 0.0:
            fail |= bad
        first = int(np.argmax(fail)) if fail.any() else len(cols)
        if pivot_perturbation > 0.0:
            # static perturbation, sign-preserving (+ for an exact
            # zero), applied in level order to the columns processed
            to_fix = np.flatnonzero(bad[:first] & ~missing[:first])
            if len(to_fix):
                fixed = np.where(
                    piv64[to_fix] < 0.0,
                    -pivot_perturbation,
                    pivot_perturbation,
                )
                data[pos[to_fix]] = fixed.astype(data.dtype)
                perturbed.extend(int(c) for c in cols[to_fix])
        if first < len(cols):
            # the scalar loop raises mid-level: only the columns before
            # the failing one are processed
            ce = c0 + first
            p0, p1 = int(plan.pair_off[c0]), int(plan.pair_off[ce])
            s = int(plan.scale_off[ce] - plan.scale_off[c0])
            e = int(plan.exp_off[p1] - plan.exp_off[p0])
            cut = (s, s, e, p1 - p0, p1 - p0, e)
            level = tuple(a[:k] for a, k in zip(level, cut))
        _run_level(data, *level)
        if first < len(cols):
            fail_col = int(cols[first])
            if missing[first]:
                raise SingularMatrixError(fail_col)
            raise SingularMatrixError(fail_col, float(piv64[first]))
    return perturbed
