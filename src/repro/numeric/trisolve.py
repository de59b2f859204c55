"""Sparse triangular solves: the post-factorization half of ``Ax = b``.

Two paths give the same solution bitwise:

* **level-scheduled** (the default): :class:`SolvePlan` solves straight
  from the factorized store ``As`` (``L`` strictly below the diagonal
  with an implicit unit diagonal, ``U`` on and above it), one level of
  the numeric schedule at a time, as GLU 3.0 does.  Per level each row
  *pulls* its products from unknowns that earlier levels finished,
  ``np.subtract.at(x, rows, vals * x[cols])``; the backward pass then
  divides the level's rows by their pivots.  The forward stream holds
  each row's strictly-lower entries in ascending column order, rows in
  level order.  The backward stream holds the strictly-upper entries in
  reverse level order and descending column order: the numeric plan's
  ``U(j, k)`` stream reversed, which the plan shares.  ``subtract.at``
  applies repeated targets in array order, so each ``x[i]`` receives
  the same products in the same order as the column sweep below.  The
  plan is structure-only and cached on the schedule, together with the
  CSR->CSC order that builds ``As`` by one gather.
* **scalar oracle**: column-oriented substitution on CSC factors
  (:func:`forward_substitute` with the unit-lower ``L``,
  :func:`backward_substitute` with the upper ``U``), scattering each
  resolved unknown into the remaining equations.  It runs under
  ``slow_host_loops`` and serves every caller that holds only
  ``L``/``U``: multi-GPU results, the CPU fallback and refinement.

Every value the level-scheduled path reads is final only because the
schedule carries GLU 3.0's full dependency set: ``L(i, j)`` orders
column ``j`` before ``i`` just as ``U(j, i)`` does.
:func:`solve_plan_for` checks that once per pattern and raises
:class:`~repro.errors.ScheduleError` for a schedule built without the
``L`` edges (``include_l_dependencies=False``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..errors import (
    NotLowerTriangularError,
    NotUpperTriangularError,
    ScheduleError,
    SingularMatrixError,
    SparseFormatError,
)
from ..graph import LevelSchedule
from ..sparse import CSCMatrix, CSRMatrix
from ..sparse.ranges import concat_ranges
from ..sparse.types import INDEX_DTYPE
from .vectorized import _offsets, _plan_for


def _compact(a: np.ndarray, bound: int) -> np.ndarray:
    """``a`` as int32 when every value fits below ``bound``."""
    return a.astype(np.int32) if bound < 2**31 else a


@dataclass(slots=True, eq=False)
class _LevelStreams:
    """Value-free streams of the level-scheduled solve."""

    #: columns in reverse level order and the CSC position of each pivot
    piv_row: np.ndarray
    piv_pos: np.ndarray
    #: CSC position, row and column of every strictly lower entry, and
    #: each non-empty level's slice of them
    fwd_pos: np.ndarray
    fwd_row: np.ndarray
    fwd_col: np.ndarray
    fwd_bounds: list[tuple[int, int]]
    #: the same for the strictly upper entries (``bwd_pos`` is a view of
    #: the numeric plan's ``pos_ujk``), with each level's slice of the
    #: stream and of ``piv_row``
    bwd_pos: np.ndarray
    bwd_row: np.ndarray
    bwd_col: np.ndarray
    bwd_bounds: list[tuple[int, int, int, int]]


@dataclass(slots=True, eq=False)
class SolvePlan:
    """Everything about the solve of one filled pattern that values
    cannot change, cached on its schedule by :func:`solve_plan_for`.

    The CSR->CSC order exists from the start; :meth:`with_streams` adds
    the level streams once the numeric plan they share is built.
    """

    n: int
    nnz: int
    #: CSR position of every CSC entry (what ``csr_to_csc`` argsorts)
    csc_order: np.ndarray
    csc_indptr: np.ndarray
    #: compact row ids; :meth:`csc` widens them per store
    csc_indices: np.ndarray
    streams: _LevelStreams | None = None

    def matches(self, filled: CSRMatrix) -> bool:
        return self.n == filled.n_rows and self.nnz == filled.nnz

    def csc(self, filled: CSRMatrix) -> CSCMatrix:
        """``filled.to_csc()`` by one gather through the cached order."""
        return CSCMatrix(
            self.n,
            self.n,
            self.csc_indptr,
            self.csc_indices,
            filled.data[self.csc_order],
            check=False,
        )

    def with_streams(
        self,
        As: CSCMatrix,
        filled: CSRMatrix,
        schedule: LevelSchedule,
    ) -> SolvePlan:
        """Add the level streams (once), sharing the ``U(j, k)`` stream
        of the numeric plan the fast kernel cached for ``As``."""
        if self.streams is not None:
            return self
        pos_ujk = _plan_for(As, filled, schedule).pos_ujk
        n, nnz = self.n, self.nnz
        r_indptr = filled.indptr.astype(np.int64, copy=False)
        r_indices = filled.indices.astype(np.int64, copy=False)
        row_ids = filled.row_ids_of_entries()
        lower_cnt = np.bincount(row_ids[r_indices < row_ids], minlength=n)
        upper_cnt = np.bincount(row_ids[r_indices > row_ids], minlength=n)
        levels = [np.asarray(lv, dtype=np.int64) for lv in schedule.levels]
        cols_cat = (
            np.concatenate(levels) if levels else np.empty(0, dtype=np.int64)
        )
        lvl_off = _offsets(np.array([len(lv) for lv in levels], np.int64))
        csc_pos = np.empty(nnz, dtype=np.int64)
        csc_pos[self.csc_order] = np.arange(nnz, dtype=np.int64)
        on_diag = np.flatnonzero(r_indices == row_ids)
        if len(on_diag) != n:
            raise SparseFormatError("filled pattern lacks a diagonal entry")
        diag = csc_pos[on_diag]  # one per row, rows in order

        # forward: each row's lower prefix, rows in level order
        lo = lower_cnt[cols_cat]
        fwd_csr = concat_ranges(r_indptr[cols_cat], lo)
        fwd_off = _offsets(lo)[lvl_off]
        # backward: each row's upper suffix in the same order, reversed
        up = upper_cnt[cols_cat]
        if int(up.sum()) != len(pos_ujk):
            raise SparseFormatError(
                "numeric plan does not match the filled pattern"
            )
        bwd_csr = concat_ranges(r_indptr[cols_cat + 1] - up, up)
        bwd_off = len(pos_ujk) - _offsets(up)[lvl_off][::-1]
        row_off = n - lvl_off[::-1]
        piv_row = _compact(cols_cat[::-1], n)
        self.streams = _LevelStreams(
            piv_row=piv_row,
            piv_pos=_compact(diag[piv_row], nnz),
            fwd_pos=_compact(csc_pos[fwd_csr], nnz),
            fwd_row=_compact(np.repeat(cols_cat, lo), n),
            fwd_col=_compact(r_indices[fwd_csr], n),
            fwd_bounds=[
                (int(e0), int(e1))
                for e0, e1 in zip(fwd_off[:-1], fwd_off[1:])
                if e1 > e0
            ],
            bwd_pos=pos_ujk[::-1],
            bwd_row=_compact(np.repeat(cols_cat, up)[::-1], n),
            bwd_col=_compact(r_indices[bwd_csr][::-1], n),
            bwd_bounds=[
                (int(e0), int(e1), int(r0), int(r1))
                for e0, e1, r0, r1 in zip(
                    bwd_off[:-1], bwd_off[1:], row_off[:-1], row_off[1:]
                )
            ],
        )
        return self

    def solve(self, data: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve ``L U x = b`` from the store's values ``data``; bitwise
        equal to :func:`lu_solve` on the factors ``extract_lu`` splits
        from the same store."""
        st = self.streams
        if st is None:
            raise RuntimeError("solve plan has no level streams yet")
        x = np.array(b, dtype=np.float64, copy=True).reshape(-1)
        if len(x) != self.n:
            raise ValueError("rhs length mismatch")
        piv = data[st.piv_pos]
        zero = st.piv_row[piv == 0.0]
        if len(zero):
            # the column sweep meets the largest zero pivot first
            raise SingularMatrixError(int(zero.max()))
        # widen the compact streams once: numpy indexes with intp
        vals = data[st.fwd_pos]
        rows = st.fwd_row.astype(np.intp)
        cols = st.fwd_col.astype(np.intp)
        for e0, e1 in st.fwd_bounds:
            np.subtract.at(x, rows[e0:e1], vals[e0:e1] * x[cols[e0:e1]])
        vals = data[st.bwd_pos]
        rows = st.bwd_row.astype(np.intp)
        cols = st.bwd_col.astype(np.intp)
        piv_row = st.piv_row.astype(np.intp)
        for e0, e1, r0, r1 in st.bwd_bounds:
            if e1 > e0:
                np.subtract.at(x, rows[e0:e1], vals[e0:e1] * x[cols[e0:e1]])
            x[piv_row[r0:r1]] /= piv[r0:r1]
        return x


def solve_plan_for(filled: CSRMatrix, schedule: LevelSchedule) -> SolvePlan:
    """The schedule's cached solve plan for ``filled`` (built on a miss).

    A miss sorts the pattern into CSC order once and checks that the
    schedule puts ``min(i, j)`` on an earlier level than ``max(i, j)``
    for every off-diagonal entry ``(i, j)``.
    """
    plan = schedule.plans.get("solve")
    if plan is not None and plan.matches(filled):
        return plan
    n = filled.n_rows
    rows = filled.row_ids_of_entries()
    cols = filled.indices
    if schedule.n != n:
        raise ScheduleError(f"schedule has {schedule.n} columns, not {n}")
    lvl = schedule.level_of
    early = lvl[np.minimum(rows, cols)] >= lvl[np.maximum(rows, cols)]
    bad = np.flatnonzero(early & (rows != cols))
    if len(bad):
        i, j = int(rows[bad[0]]), int(cols[bad[0]])
        raise ScheduleError(
            f"schedule does not order entry ({i}, {j}); build the "
            "dependency graph with include_l_dependencies=True"
        )
    order = np.argsort(cols, kind="stable")
    indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
    np.cumsum(np.bincount(cols, minlength=n), out=indptr[1:])
    plan = SolvePlan(
        n=n,
        nnz=filled.nnz,
        csc_order=_compact(order, filled.nnz),
        csc_indptr=indptr,
        csc_indices=_compact(rows[order], n),
    )
    schedule.plans["solve"] = plan
    return plan


# -- scalar oracle ---------------------------------------------------------


def forward_substitute(
    L: CSCMatrix, b: np.ndarray, *, unit_diagonal: bool = True
) -> np.ndarray:
    """Solve ``L x = b`` for lower-triangular ``L`` (CSC, sorted rows)."""
    n = L.n_cols
    x = np.array(b, dtype=np.float64, copy=True).reshape(-1)
    if len(x) != n:
        raise ValueError("rhs length mismatch")
    indptr, indices, data = L.indptr, L.indices, L.data
    for j in range(n):
        s, e = int(indptr[j]), int(indptr[j + 1])
        rows = indices[s:e]
        if len(rows) and rows[0] < j:
            raise NotLowerTriangularError(
                f"column {j} has entry above diagonal"
            )
        has_diag = len(rows) > 0 and rows[0] == j
        if unit_diagonal:
            xj = x[j] if not has_diag else x[j] / data[s]
            # unit diagonal: a stored diagonal must be 1; tolerate either
        else:
            if not has_diag or data[s] == 0.0:
                raise SingularMatrixError(j)
            xj = x[j] / data[s]
        x[j] = xj
        off = 1 if has_diag else 0
        if e - s > off:
            x[rows[off:]] -= data[s + off : e] * xj
    return x


def backward_substitute(U: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``U x = b`` for upper-triangular ``U`` (CSC, sorted rows)."""
    n = U.n_cols
    x = np.array(b, dtype=np.float64, copy=True).reshape(-1)
    if len(x) != n:
        raise ValueError("rhs length mismatch")
    indptr, indices, data = U.indptr, U.indices, U.data
    for j in range(n - 1, -1, -1):
        s, e = int(indptr[j]), int(indptr[j + 1])
        rows = indices[s:e]
        if len(rows) and rows[-1] > j:
            raise NotUpperTriangularError(
                f"column {j} has entry below diagonal"
            )
        has_diag = len(rows) > 0 and rows[-1] == j
        if not has_diag or data[e - 1] == 0.0:
            raise SingularMatrixError(j)
        xj = x[j] / data[e - 1]
        x[j] = xj
        if e - s > 1:
            x[rows[:-1]] -= data[s : e - 1] * xj
    return x


def lu_solve(L: CSCMatrix, U: CSCMatrix, b: np.ndarray) -> np.ndarray:
    """Solve ``(L U) x = b`` via forward then backward substitution."""
    return backward_substitute(U, forward_substitute(L, b))


def forward_substitute_multi(
    L: CSCMatrix, B: np.ndarray, *, unit_diagonal: bool = True
) -> np.ndarray:
    """Solve ``L X = B`` for an ``(n, k)`` block of right-hand sides.

    Circuit/transient workloads solve against many right-hand sides per
    factorization; the column scatter vectorizes over all of them at once.
    """
    n = L.n_cols
    X = np.array(B, dtype=np.float64, copy=True)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(f"B must be (n, k) with n={n}")
    indptr, indices, data = L.indptr, L.indices, L.data
    for j in range(n):
        s, e = int(indptr[j]), int(indptr[j + 1])
        rows = indices[s:e]
        if len(rows) and rows[0] < j:
            raise NotLowerTriangularError(
                f"column {j} has entry above diagonal"
            )
        has_diag = len(rows) > 0 and rows[0] == j
        if unit_diagonal:
            xj = X[j] / data[s] if has_diag else X[j]
        else:
            if not has_diag or data[s] == 0.0:
                raise SingularMatrixError(j)
            xj = X[j] / data[s]
        X[j] = xj
        off = 1 if has_diag else 0
        if e - s > off:
            X[rows[off:]] -= np.outer(data[s + off : e], xj)
    return X


def backward_substitute_multi(U: CSCMatrix, B: np.ndarray) -> np.ndarray:
    """Solve ``U X = B`` for an ``(n, k)`` block of right-hand sides."""
    n = U.n_cols
    X = np.array(B, dtype=np.float64, copy=True)
    if X.ndim != 2 or X.shape[0] != n:
        raise ValueError(f"B must be (n, k) with n={n}")
    indptr, indices, data = U.indptr, U.indices, U.data
    for j in range(n - 1, -1, -1):
        s, e = int(indptr[j]), int(indptr[j + 1])
        rows = indices[s:e]
        if len(rows) and rows[-1] > j:
            raise NotUpperTriangularError(
                f"column {j} has entry below diagonal"
            )
        has_diag = len(rows) > 0 and rows[-1] == j
        if not has_diag or data[e - 1] == 0.0:
            raise SingularMatrixError(j)
        xj = X[j] / data[e - 1]
        X[j] = xj
        if e - s > 1:
            X[rows[:-1]] -= np.outer(data[s : e - 1], xj)
    return X


def lu_solve_multi(L: CSCMatrix, U: CSCMatrix, B: np.ndarray) -> np.ndarray:
    """Solve ``(L U) X = B`` for a block of right-hand sides."""
    return backward_substitute_multi(U, forward_substitute_multi(L, B))


# -- permutations and scaling ----------------------------------------------


def lu_solve_permuted(
    L: CSCMatrix | None,
    U: CSCMatrix | None,
    b: np.ndarray,
    row_perm: np.ndarray | None = None,
    col_perm: np.ndarray | None = None,
    row_scale: np.ndarray | None = None,
    col_scale: np.ndarray | None = None,
    *,
    solve: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Solve the original system when ``P (Dr A Dc) Q = L U`` was factorized.

    ``row_perm``/``col_perm`` follow the gather convention of
    :func:`repro.sparse.ops.permute` (``perm[new] = old``) and
    ``row_scale``/``col_scale`` are the equilibration diagonals applied
    before factorization, so

        A x = b  <=>  x = Dc Q (U^-1 L^-1) P Dr b.

    ``solve`` replaces the triangular core ``lu_solve(L, U, .)``: the
    results of the numeric phase pass their level-scheduled
    :meth:`~repro.core.numeric_gpu.NumericResult.solve` and no factors.
    """
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    rhs = b * row_scale if row_scale is not None else b.copy()
    if row_perm is not None:
        rhs = rhs[np.asarray(row_perm)]
    if solve is not None:
        y = solve(rhs)
    elif L is None or U is None:
        raise ValueError("lu_solve_permuted needs L and U, or solve")
    else:
        y = lu_solve(L, U, rhs)
    if col_perm is not None:
        x = np.empty_like(y)
        x[np.asarray(col_perm)] = y
    else:
        x = y
    if col_scale is not None:
        x = x * col_scale
    return x
