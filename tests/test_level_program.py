"""Value-only refactorization replay: the level program and launch table.

A cached numeric plan carries a *level program* — per level, slices of
the plan's position streams plus one pivot-position stream — and the
pattern's structural :class:`NumericStats`.  Without pivot perturbation
the kernel runs that program unchecked, tests every pivot at once on
the final diagonal, and falls back to the checked level loop (after
restoring the values) when a pivot or a floating-point operation fails.
The GPU executor likewise replays a per-schedule launch table instead of
re-classifying levels every pass.

Every path here must give factors, stats and ledgers bitwise-equal to
the checked loop and to the scalar ``slow=True`` oracle, and raise the
oracle's :class:`SingularMatrixError` with the checked loop's partial
values in place.
"""

import dataclasses
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from repro.core import SolverConfig, analyze
from repro.core import numeric_gpu
from repro.core.numeric_gpu import numeric_factorize_gpu
from repro.errors import (
    KernelFaultError,
    PlanInvariantError,
    SingularMatrixError,
)
from repro.gpusim import GPU, FaultInjector, FaultPlan, scaled_device
from repro.graph import build_dependency_graph, levelize_cpu, sub_column_counts
from repro.graph.levelize import LevelSchedule
from repro.numeric import supernodal_plan_for, vectorized
from repro.numeric.rightlooking import factorize_in_place
from repro.sparse import CSRMatrix
from repro.symbolic import symbolic_fill_reference
from repro.workloads.generators import circuit_like, fem_like
from repro.workloads.registry import TABLE2

_GENS = [circuit_like, fem_like]
_GEN_IDS = ["circuit", "fem"]


def _filled_and_schedule(a):
    filled = symbolic_fill_reference(a)
    return filled, levelize_cpu(build_dependency_graph(filled))


def _stats_tuple(s):
    return (
        s.div_flops, s.update_flops, s.search_steps, s.columns,
        s.sub_column_updates, tuple(s.per_level),
        tuple(s.perturbed_columns),
    )


def _checked(filled, schedule, data, *, pivot_tolerance=0.0,
             count_search_steps=False, pivot_perturbation=0.0):
    """The checked level loop alone, on ``data`` (mutated in place)."""
    plan = vectorized._plan_for(filled.to_csc(), filled, schedule)
    perturbed = vectorized._checked_levels(
        plan, data, pivot_tolerance, pivot_perturbation
    )
    return vectorized._stats_of(plan, count_search_steps, perturbed)


def _no_fallback(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the checked loop ran")

    monkeypatch.setattr(vectorized, "_checked_levels", fail)


def _no_program(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the speculative pass ran")

    monkeypatch.setattr(vectorized, "_run_program", fail)


# ---------------------------------------------------------------------------
# healthy factorizations: one speculative pass, no fallback


@pytest.mark.parametrize("count_search_steps", [False, True])
@pytest.mark.parametrize("gen", _GENS, ids=_GEN_IDS)
def test_replay_equals_checked_loop_and_oracle(monkeypatch, gen,
                                               count_search_steps):
    a = gen(240, 8.0, seed=5)
    filled, schedule = _filled_and_schedule(a)
    oracle = filled.to_csc()
    want = factorize_in_place(
        oracle, filled, schedule, slow=True,
        count_search_steps=count_search_steps,
    )
    checked = filled.to_csc()
    got_checked = _checked(
        filled, schedule, checked.data,
        count_search_steps=count_search_steps,
    )
    _no_fallback(monkeypatch)
    for _ in range(2):  # plan build, then plan reuse
        fast = filled.to_csc()
        got = factorize_in_place(
            fast, filled, schedule, count_search_steps=count_search_steps
        )
        assert np.array_equal(fast.data, oracle.data)
        assert np.array_equal(fast.data, checked.data)
        assert _stats_tuple(got) == _stats_tuple(want)
        assert _stats_tuple(got) == _stats_tuple(got_checked)


def test_replay_stats_are_fresh_objects():
    a = circuit_like(120, 6.0, seed=1)
    filled, schedule = _filled_and_schedule(a)
    first = factorize_in_place(filled.to_csc(), filled, schedule)
    first.per_level.append((0, 0, 0, 0))
    first.perturbed_columns.append(0)
    first.div_flops = -1
    second = factorize_in_place(filled.to_csc(), filled, schedule)
    want = factorize_in_place(filled.to_csc(), filled, schedule, slow=True)
    assert _stats_tuple(second) == _stats_tuple(want)


@pytest.mark.parametrize(
    "spec", TABLE2, ids=[s.abbr for s in TABLE2]
)
def test_refactorize_bitwise_on_registry(spec):
    # the GPU executor end to end: factors and ledgers of repeated
    # refactorizations equal the scalar oracle's
    a = dataclasses.replace(spec, n_scaled=96).generate()
    for supernodal in (False, True):
        runs = []
        for slow in (True, False):
            cfg = SolverConfig(slow_host_loops=slow, supernodal=supernodal)
            an = analyze(a, cfg)
            passes = [an.refactorize(a) for _ in range(3)]
            runs.append(passes)
        for want, got in zip(*runs):
            assert np.array_equal(got.numeric.As.data, want.numeric.As.data)
            assert _stats_tuple(got.numeric.stats) == _stats_tuple(
                want.numeric.stats
            )
        assert runs[0][-1].analysis.gpu.ledger.snapshot() == (
            runs[1][-1].analysis.gpu.ledger.snapshot()
        )


# ---------------------------------------------------------------------------
# failing pivots: restore and rerun the checked loop


def _exact_lu_matrix(n, zero_at, seed):
    """``A = L U`` with small integer entries and unit pivots except an
    exact zero at ``zero_at``: elimination without pivoting is exact, so
    the pivot of ``zero_at`` comes out exactly 0 mid-factorization."""
    rng = np.random.default_rng(seed)
    def sparse_ints():
        ints = rng.integers(-2, 3, (n, n)).astype(float)
        return ints * (rng.random((n, n)) < 0.08)

    lower = np.tril(sparse_ints(), -1) + np.eye(n)
    upper = np.triu(sparse_ints(), 1)
    upper += np.diag(np.where(rng.random(n) < 0.5, -1.0, 1.0))
    upper[zero_at, zero_at] = 0.0
    if zero_at < n - 1:
        # keep the zero-pivot column's sub-diagonal non-empty, so the
        # speculative pass divides by zero
        lower[-1, zero_at] = 1.0
        upper[zero_at, -1] = 1.0
    return CSRMatrix.from_dense(lower @ upper)


def _assert_same_failure(filled, schedule, **kw):
    """Fast path raises like the oracle and leaves the checked loop's
    partial values; no RuntimeWarning escapes."""
    oracle = filled.to_csc()
    with pytest.raises(SingularMatrixError) as want:
        factorize_in_place(oracle, filled, schedule, slow=True, **kw)
    checked = filled.to_csc()
    with pytest.raises(SingularMatrixError):
        _checked(filled, schedule, checked.data, **kw)
    fast = filled.to_csc()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularMatrixError) as got:
            factorize_in_place(fast, filled, schedule, **kw)
    assert got.value.column == want.value.column
    assert got.value.value == want.value.value
    assert np.array_equal(fast.data, checked.data)
    assert np.array_equal(fast.data, oracle.data)
    return got.value


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_zero_pivot_mid_factorization(seed):
    n, zero_at = 48, 30
    filled, schedule = _filled_and_schedule(
        _exact_lu_matrix(n, zero_at, seed)
    )
    assert schedule.level_of[zero_at] > 0, "the zero must come from updates"
    plan = vectorized._plan_for(filled.to_csc(), filled, schedule)
    assert plan.pivots_final
    err = _assert_same_failure(filled, schedule)
    assert err.column == zero_at and err.value == 0.0


def test_zero_pivot_without_sub_diagonal():
    # the last column has nothing to scale: no floating-point error, so
    # only the final-diagonal check catches it
    n = 40
    filled, schedule = _filled_and_schedule(_exact_lu_matrix(n, n - 1, 3))
    err = _assert_same_failure(filled, schedule)
    assert err.column == n - 1


@pytest.mark.parametrize("gen", _GENS, ids=_GEN_IDS)
def test_pivot_straddling_tolerance(gen):
    a = gen(200, 7.0, seed=9)
    filled, schedule = _filled_and_schedule(a)
    healthy = filled.to_csc()
    factorize_in_place(healthy, filled, schedule, slow=True)
    pivots = np.abs(healthy.data[vectorized._diag_positions(
        healthy.indices, healthy.col_ids_of_entries().astype(np.int64),
        healthy.n_cols,
    )])
    # the smallest pivot produced by updates, not taken from A
    k = int(np.argmin(np.where(schedule.level_of > 0, pivots, np.inf)))
    tol = float(pivots[k])
    err = _assert_same_failure(filled, schedule, pivot_tolerance=tol)
    assert abs(err.value) <= tol
    # just below the pivot: every pivot passes, on the speculative path
    below = float(np.nextafter(tol, 0.0))
    fast, oracle = filled.to_csc(), filled.to_csc()
    got = factorize_in_place(fast, filled, schedule, pivot_tolerance=below)
    want = factorize_in_place(
        oracle, filled, schedule, pivot_tolerance=below, slow=True
    )
    assert np.array_equal(fast.data, oracle.data)
    assert _stats_tuple(got) == _stats_tuple(want)


def test_floating_point_error_reruns_checked_loop():
    # an overflowing update: the speculative pass stops on the error and
    # the checked loop reproduces the oracle's warning and values
    d = np.eye(3)
    d[1, 0] = d[0, 1] = 1e200
    d[2, 2] = 1.0
    filled, schedule = _filled_and_schedule(CSRMatrix.from_dense(d))
    oracle, fast = filled.to_csc(), filled.to_csc()
    with pytest.warns(RuntimeWarning):
        want = factorize_in_place(oracle, filled, schedule, slow=True)
    with pytest.warns(RuntimeWarning):
        got = factorize_in_place(fast, filled, schedule)
    assert np.array_equal(fast.data, oracle.data)
    assert _stats_tuple(got) == _stats_tuple(want)


# ---------------------------------------------------------------------------
# paths that never speculate


def test_perturbation_takes_checked_loop(monkeypatch):
    n, zero_at = 48, 30
    filled, schedule = _filled_and_schedule(_exact_lu_matrix(n, zero_at, 0))
    oracle = filled.to_csc()
    want = factorize_in_place(
        oracle, filled, schedule, slow=True, pivot_perturbation=1e-3
    )
    _no_program(monkeypatch)
    fast = filled.to_csc()
    got = factorize_in_place(fast, filled, schedule, pivot_perturbation=1e-3)
    assert got.perturbed_columns == [zero_at]
    assert np.array_equal(fast.data, oracle.data)
    assert _stats_tuple(got) == _stats_tuple(want)


def test_missing_diagonal_takes_checked_loop(monkeypatch):
    d = np.eye(5) * 3.0
    d[2, 4] = d[4, 2] = 1.0
    full, schedule = _filled_and_schedule(CSRMatrix.from_dense(d))
    # the filled pattern without its (2, 2) entry
    rows = full.row_ids_of_entries()
    keep = ~((rows == 2) & (full.indices == 2))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows[keep]))])
    filled = CSRMatrix(5, 5, indptr, full.indices[keep], full.data[keep])
    with pytest.raises(SingularMatrixError) as want:
        factorize_in_place(filled.to_csc(), filled, schedule, slow=True)
    assert want.value.column == 2
    plan = vectorized._plan_for(filled.to_csc(), filled, schedule)
    assert not plan.pivots_final
    _no_program(monkeypatch)
    with pytest.raises(SingularMatrixError) as err:
        factorize_in_place(filled.to_csc(), filled, schedule)
    assert err.value.column == 2


def test_unordered_schedule_takes_checked_loop():
    # every column in one level: U(j, k) pairs share a level, so a final
    # diagonal need not be the pivot used; the program is not built
    a = circuit_like(80, 5.0, seed=4)
    filled = symbolic_fill_reference(a)
    flat = LevelSchedule(level_of=np.zeros(a.n_rows, dtype=np.int64))
    plan = vectorized._plan_for(filled.to_csc(), filled, flat)
    assert not plan.pivots_final


# ---------------------------------------------------------------------------
# launch table: cached per (schedule, format, cap, mode), same ledger


def _reference_charge(gpu, filled, schedule, stats, fmt, cap, n,
                      value_bytes, mode):
    """The per-level charging loop, classifying every level each pass."""
    ledger = gpu.ledger
    sub_cols = sub_column_counts(filled)
    tags = (
        [mode] * schedule.num_levels
        if mode is not None
        else schedule.classify_levels(sub_cols)
    )
    for (flops, cols, updates, search), tag, level in zip(
        stats.per_level, tags, schedule.levels
    ):
        if cols == 0:
            continue
        if tag == "C":
            weights = sub_cols[level].astype(float) + 1.0
            weights /= weights.sum()
            for j, w in zip(level, weights):
                ledger.count("numeric_kernel_launches")
                gpu.launch_numeric(
                    max(1, int(flops * w)), max(1, int(sub_cols[int(j)])),
                    concurrency_cap=cap, search_steps=int(search * w),
                )
        else:
            blocks = cols if tag == "A" else max(
                cols, min(updates, cols * numeric_gpu.WARP_TEAMS_PER_BLOCK)
            )
            ledger.count("numeric_kernel_launches")
            gpu.launch_numeric(
                max(1, flops), blocks, concurrency_cap=cap,
                search_steps=search,
            )
        if fmt == "dense":
            gpu.hbm_traffic(2 * cols * n * value_bytes)


@pytest.mark.parametrize("mode", [None, "A", "B", "C"])
@pytest.mark.parametrize("fmt", ["dense", "csc"])
@pytest.mark.parametrize("gen", _GENS, ids=_GEN_IDS)
def test_launch_table_ledger_equals_reference(gen, fmt, mode):
    a = gen(200, 8.0, seed=2)
    filled, schedule = _filled_and_schedule(a)
    stats = factorize_in_place(
        filled.to_csc(), filled, schedule, count_search_steps=fmt == "csc"
    )
    n, cap, val = a.n_rows, 37, 8
    want, got = GPU(), GPU()
    _reference_charge(want, filled, schedule, stats, fmt, cap, n, val, mode)
    for _ in range(2):  # build, then replay
        numeric_gpu._charge_per_column(
            got, filled, schedule, stats, fmt, cap, n, val, mode
        )
    _reference_charge(want, filled, schedule, stats, fmt, cap, n, val, mode)
    assert got.ledger.snapshot() == want.ledger.snapshot()
    hbm = got.ledger.get_count("bytes_hbm")
    if fmt == "dense":
        assert hbm == 2 * 2 * n * n * val  # every column, both passes
    else:
        assert hbm == 0


def test_launch_table_reused_across_refactorize_passes():
    a = circuit_like(200, 7.0, seed=6)
    an = analyze(a)
    an.refactorize(a)
    plans = an.schedule.plans

    def launch_keys():
        return [k for k in plans if k[0] == "launch"]

    (key,) = launch_keys()
    launches = plans[key][1]
    an.refactorize(a)
    assert plans[key][1] is launches
    assert launch_keys() == [key]


def test_launch_table_rebuilt_per_cap_and_mode():
    a = fem_like(160, 9.0, seed=3)
    filled, schedule = _filled_and_schedule(a)
    stats = factorize_in_place(filled.to_csc(), filled, schedule)
    n = a.n_rows
    seen = []
    for cap, mode in [(64, None), (16, None), (64, "A"), (64, "B"),
                      (64, "C")]:
        got = numeric_gpu._launch_table(
            filled, schedule, stats.per_level, "dense", cap, n, 8, mode
        )
        assert numeric_gpu._launch_table(
            filled, schedule, stats.per_level, "dense", cap, n, 8, mode
        ) is got
        seen.append(got)
    assert len({id(t) for t in seen}) == len(seen)
    per_level_cols = sum(1 for _, cols, _, _ in stats.per_level if cols)
    assert len(seen[2]) == len(seen[3]) == per_level_cols
    assert len(seen[4]) == n
    # a per_level that disagrees with the cached one rebuilds the table
    other = list(stats.per_level)
    other[0] = (other[0][0] + 2,) + other[0][1:]
    rebuilt = numeric_gpu._launch_table(
        filled, schedule, other, "dense", 64, n, 8, None
    )
    assert rebuilt is not seen[0]
    assert rebuilt[0][0] == seen[0][0][0] + 2


def test_invalid_kernel_mode_rejected():
    a = circuit_like(60, 5.0, seed=1)
    filled, schedule = _filled_and_schedule(a)
    with pytest.raises(ValueError):
        numeric_factorize_gpu(
            GPU(), filled, schedule, SolverConfig(), kernel_mode_override="D"
        )


# ---------------------------------------------------------------------------
# supernodal path: panel launches pass the fault gate; lost flops raise


def _dense_block(n):
    d = np.ones((n, n)) + np.eye(n) * n
    return CSRMatrix.from_dense(d)


def test_panel_launch_faults_through_injector():
    a = _dense_block(12)
    filled, schedule = _filled_and_schedule(a)
    cfg = SolverConfig(supernodal=True)
    plan = supernodal_plan_for(
        filled, schedule, relax=cfg.supernode_relax,
        max_panel=cfg.supernode_max_panel,
        tile_elems=cfg.cost_model.panel_tile_elems,
    )
    assert plan.waves[0].multi_panels and not plan.waves[0].singleton_cols
    gpu = FaultInjector(
        GPU(spec=scaled_device(64 << 20)), FaultPlan(kernel_fault_rate=1.0)
    )
    with pytest.raises(KernelFaultError) as err:
        numeric_factorize_gpu(gpu, filled, schedule, cfg)
    assert err.value.kernel == "panel"
    assert gpu.inner.ledger.get_count("panel_kernel_launches") == 0


def _lost_flops_run():
    a = fem_like(120, 9.0, seed=8)
    filled, schedule = _filled_and_schedule(a)
    cfg = SolverConfig(supernodal=True)
    plan = supernodal_plan_for(
        filled, schedule, relax=cfg.supernode_relax,
        max_panel=cfg.supernode_max_panel,
        tile_elems=cfg.cost_model.panel_tile_elems,
    )
    plan.total_flops += 1
    numeric_factorize_gpu(GPU(), filled, schedule, cfg)


def test_lost_flops_raise_typed_error():
    with pytest.raises(PlanInvariantError):
        _lost_flops_run()


_OPTIMIZE_SCRIPT = """
import sys
sys.path.insert(0, {tests!r})
from test_level_program import _lost_flops_run
from repro.errors import PlanInvariantError
try:
    _lost_flops_run()
except PlanInvariantError:
    print("PlanInvariantError")
"""


def test_lost_flops_raise_under_python_optimize():
    # ``python -O`` strips asserts: the conservation check must not be one
    here = Path(__file__).resolve()
    env = {**os.environ, "PYTHONPATH": str(here.parents[1] / "src")}
    script = _OPTIMIZE_SCRIPT.format(tests=str(here.parent))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "PlanInvariantError"
