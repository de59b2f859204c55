"""Level-scheduled solve plan vs the scalar triangular oracle.

The plan solves straight from the factorized store, one level of the
numeric schedule at a time; every result must equal
``lu_solve(L, U, b)`` on the extracted factors *bitwise*, including the
refactorization, pivot-perturbation and zero-pivot branches.  Also
covers the two configuration/pattern checks that ride along: the
multi-GPU path rejecting ``supernodal=True`` and the refactorization
scatter map rejecting an inconsistent filled pattern (under ``-O``
too).
"""

import dataclasses
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.core import (
    EndToEndLU,
    MultiGpuSolver,
    ResilienceConfig,
    SolverConfig,
    analyze,
    multi_gpu_endtoend,
)
from repro.core.numeric_gpu import numeric_factorize_gpu
from repro.core.numeric_outofcore import numeric_factorize_outofcore
from repro.core.refactorize import ReusableAnalysis
from repro.errors import (
    ConfigurationError,
    ScheduleError,
    SingularMatrixError,
    SparseFormatError,
)
from repro.gpusim import GPU
from repro.graph import build_dependency_graph, kahn_levels
from repro.numeric import (
    extract_lu,
    lu_solve,
    lu_solve_permuted,
    solve_plan_for,
)
from repro.serve.loadgen import restamp
from repro.sparse import CSRMatrix
from repro.symbolic import symbolic_fill_reference
from repro.workloads import circuit_like
from repro.workloads.registry import TABLE2, TABLE4, by_abbr


def _small_specs():
    """Every registry spec with ``n <= 2600`` plus one shrunk mesh."""
    specs = [s for s in (*TABLE2, *TABLE4) if s.n_scaled <= 2600]
    specs.append(dataclasses.replace(by_abbr("HT20"), n_scaled=1600))
    return specs


def _rhs(n, seed=0):
    return np.random.default_rng(seed).normal(size=n)


def _assert_plan_matches_oracle(numeric, b):
    L, U = numeric.factors()
    assert numeric.solve_plan is not None
    assert np.array_equal(numeric.solve(b), lu_solve(L, U, b))


@pytest.mark.parametrize(
    "spec", _small_specs(), ids=lambda s: f"{s.abbr}-{s.kind}"
)
def test_registry_solves_bitwise_equal_oracle(spec):
    a = spec.generate()
    res = EndToEndLU().factorize(a)
    b = _rhs(a.n_rows)
    _assert_plan_matches_oracle(res.numeric, b)
    pre = res.pre
    oracle = lu_solve_permuted(
        res.L, res.U, b,
        row_perm=pre.row_perm, col_perm=pre.col_perm,
        row_scale=pre.row_scale, col_scale=pre.col_scale,
    )
    assert np.array_equal(res.solve(b), oracle)


def test_store_is_built_by_one_gather():
    a = circuit_like(300, 6.0, seed=4)
    res = EndToEndLU().factorize(a)
    want = res.filled.to_csc()
    got = solve_plan_for(res.filled, res.schedule).csc(res.filled)
    for field in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, field), getattr(want, field))


def test_refactorize_reuses_plan_and_stays_bitwise():
    a = circuit_like(400, 6.0, seed=11)
    an = analyze(a)
    first = an.refactorize(a)
    plan = first.numeric.solve_plan
    assert plan is an.schedule.plans["solve"]
    for seed in range(3):
        res = an.refactorize(restamp(a, seed))
        assert res.numeric.solve_plan is plan, "plan must be reused"
        b = _rhs(a.n_rows, seed)
        _assert_plan_matches_oracle(res.numeric, b)
    # the backward stream is the numeric plan's U stream, not a copy
    nplan = an.schedule.plans["numeric"]
    assert np.shares_memory(plan.streams.bwd_pos, nplan.pos_ujk)


def test_perturbed_factors_stay_bitwise():
    a = circuit_like(60, 5.0, seed=3)
    for p in range(int(a.indptr[0]), int(a.indptr[1])):
        if int(a.indices[p]) == 0:
            a.data[p] = 0.0  # numerically zero leading pivot
    cfg = SolverConfig(resilience=ResilienceConfig())
    res = EndToEndLU(cfg).factorize(a)
    assert res.numeric.perturbed_columns
    _assert_plan_matches_oracle(res.numeric, _rhs(a.n_rows))


def test_zero_pivot_raises_for_oracle_column():
    a = circuit_like(200, 6.0, seed=5)
    res = EndToEndLU().factorize(a)
    broken = res.numeric.As.copy()
    diag = np.flatnonzero(broken.indices == broken.col_ids_of_entries())
    broken.data[diag[[20, 150]]] = 0.0
    b = _rhs(a.n_rows)
    with pytest.raises(SingularMatrixError) as oracle:
        lu_solve(*extract_lu(broken), b)
    with pytest.raises(SingularMatrixError) as plan:
        res.numeric.solve_plan.solve(broken.data, b)
    assert plan.value.column == oracle.value.column == 150


def test_u_only_schedule_rejected():
    d = np.eye(4) * 10.0
    d[3, 0] = 1.0  # L(3, 0): only the L dependency orders 0 before 3
    filled = symbolic_fill_reference(CSRMatrix.from_dense(d))
    sched = kahn_levels(
        build_dependency_graph(filled, include_l_dependencies=False)
    )
    with pytest.raises(ScheduleError):
        solve_plan_for(filled, sched)
    with pytest.raises(ScheduleError):
        numeric_factorize_gpu(GPU(), filled, sched, SolverConfig())
    full = kahn_levels(build_dependency_graph(filled))
    assert solve_plan_for(filled, full).n == 4


def test_lazy_factors_equal_numeric_factors():
    a = circuit_like(250, 6.0, seed=8)
    res = EndToEndLU().factorize(a)
    res.solve(_rhs(a.n_rows))
    assert "lu" not in vars(res.numeric), "solve must not extract L/U"
    L, U = res.numeric.factors()
    for got, want in ((res.L, L), (res.U, U)):
        for field in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(got, field), getattr(want, field))
    assert res.numeric.factor_nnz == L.nnz + U.nnz
    quick = analyze(a).refactorize(a)
    assert np.array_equal(quick.L.data, L.data)
    assert np.array_equal(quick.U.data, U.data)


def test_slow_host_loops_solve_with_the_oracle():
    a = circuit_like(200, 6.0, seed=9)
    b = _rhs(a.n_rows)
    fast = EndToEndLU().factorize(a)
    slow = EndToEndLU(SolverConfig(slow_host_loops=True)).factorize(a)
    assert slow.numeric.solve_plan is None
    assert np.array_equal(slow.solve(b), fast.solve(b))


def test_outofcore_numeric_solves_from_the_store():
    a = circuit_like(200, 6.0, seed=10)
    cfg = SolverConfig()
    filled = symbolic_fill_reference(a)
    sched = kahn_levels(build_dependency_graph(filled))
    num, _ = numeric_factorize_outofcore(GPU(), filled, sched, cfg)
    _assert_plan_matches_oracle(num, _rhs(a.n_rows))


# ---------------------------------------------------------------------------
# multi-GPU: supernodal is rejected, not silently ignored


def test_multigpu_rejects_supernodal():
    a = circuit_like(120, 5.0, seed=2)
    cfg = SolverConfig(supernodal=True)
    with pytest.raises(ConfigurationError):
        multi_gpu_endtoend(a, cfg, num_devices=2)
    with pytest.raises(ConfigurationError):
        MultiGpuSolver(cfg, num_devices=2).factorize(a)
    res = multi_gpu_endtoend(a, SolverConfig(), num_devices=2)
    b = _rhs(a.n_rows)
    assert np.linalg.norm(a.matvec(res.solve(b)) - b) < 1e-8


# ---------------------------------------------------------------------------
# refactorization scatter map: a typed error, also under ``python -O``


def _drop_original_entry(an: ReusableAnalysis) -> CSRMatrix:
    """The analysis's filled pattern minus one original off-diagonal."""
    src, filled = an.pre.matrix, an.filled
    rows = src.row_ids_of_entries()
    p = int(np.flatnonzero(rows != src.indices)[0])
    i, j = int(rows[p]), int(src.indices[p])
    f_rows = filled.row_ids_of_entries()
    keep = ~((f_rows == i) & (filled.indices == j))
    counts = np.bincount(f_rows[keep], minlength=src.n_rows)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return CSRMatrix(
        filled.n_rows, filled.n_cols, indptr,
        filled.indices[keep], filled.data[keep],
    )


def _rebuild(an: ReusableAnalysis, filled: CSRMatrix) -> ReusableAnalysis:
    return ReusableAnalysis(
        an.gpu, an.config, an.pre, filled, an.graph, an.schedule,
        an.analysis_seconds,
    )


def test_scatter_map_rejects_missing_original_entry():
    an = analyze(circuit_like(120, 5.0, seed=6))
    assert np.array_equal(_rebuild(an, an.filled)._scatter, an._scatter)
    with pytest.raises(SparseFormatError):
        _rebuild(an, _drop_original_entry(an))


def test_scatter_map_rejects_missing_entry_under_optimize():
    script = textwrap.dedent(
        """
        import sys
        assert sys.flags.optimize
        from test_solve_plan import _drop_original_entry, _rebuild
        from repro.core import analyze
        from repro.errors import SparseFormatError
        from repro.workloads import circuit_like

        an = analyze(circuit_like(120, 5.0, seed=6))
        try:
            _rebuild(an, _drop_original_entry(an))
        except SparseFormatError:
            print("rejected")
        """
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, here, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "rejected"
