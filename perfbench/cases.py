"""The three benchmark workloads: inputs, one measured unit, output checks.

Each workload is a class with

* ``setup(seed)`` — builds the inputs of unit 0 from ``seed`` alone,
  sizing devices and caches for them, constructs the service or fleet
  once and warms the process up.  ``run.py`` times it and repeats it to
  report ``setup_s``.
* ``inputs(state, k)`` — the inputs of unit ``k``: fresh matrices or a
  fresh trace drawn from ``(seed, k)``, so no unit can reuse anything a
  process-wide cache kept from an earlier one.  Built off the clock.
* ``run_unit(inputs, op_span)`` — one unit of work: one factorize+solve
  of each cold matrix, or one replay of the trace through a fresh service
  or fleet.  Host time is taken only around the calls into the package;
  the output checks run after the clock stops.

Every unit returns a :class:`Unit` whose ``fingerprint`` holds the
simulated-clock results (metrics, ledger snapshots, service counters);
the same ``(seed, k)`` must always give the same fingerprint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, ContextManager

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from repro import EndToEndLU, SolverConfig, factorize
from repro.core import analyze
from repro.fleet import Fleet, FleetConfig, ShedError
from repro.serve import (
    ServeConfig,
    SolverService,
    synthesize_drift_trace,
    synthesize_trace,
)
from repro.symbolic import symbolic_fill_bitsets
from repro.workloads import by_abbr, circuit_like, fem_like

#: a returned ``x`` passes when ||b - A x||_2 / ||b||_2 is at most this
RESIDUAL_TOL = 1e-8
#: cold-large: ||x - x_scipy||_inf / ||x_scipy||_inf must stay below this
ORACLE_TOL = 1e-8

#: ledger phases and counters summed into per-layer simulated metrics
_PHASES = {
    "symbolic.sim_s": ("symbolic",),
    "symbolic.delta_sim_s": ("symbolic-delta", "levelize-delta"),
    "graph.levelize_sim_s": ("levelize",),
    "graph.panelize_sim_s": ("panelize",),
    "numeric.sim_s": ("numeric",),
}
_COUNTERS = {
    "numeric.kernel_launches": "numeric_kernel_launches",
    "numeric.panel_launches": "panel_kernel_launches",
    "gpusim.kernel_launches": "kernel_launches",
    "gpusim.bytes_h2d": "bytes_h2d",
    "gpusim.bytes_d2h": "bytes_d2h",
}

OpSpan = Callable[[], ContextManager]


@dataclass
class Unit:
    """Outcome of one measured unit."""

    #: host seconds of each timed region, one per op span: an op on
    #: cold-large, a batch of submits plus its flush on the serve workloads
    regions: list[float]
    #: (region index, host seconds) per completed op: factorize+solve, or
    #: submit to the return of the flush that answered it
    latencies: list[tuple[int, float]]
    #: ops attempted
    ops: int
    #: one message per failed op
    failures: list[str]
    #: simulated-clock results: device seconds, per-op simulated
    #: latencies, ledger snapshots and service counters; a function of
    #: the unit's inputs alone
    fingerprint: dict
    #: per-layer sums of simulated seconds, counts and tier tallies
    layers: dict[str, float] = field(default_factory=dict)
    #: calibration factor of each region (set by ``run.measure``)
    scales: list[float] = field(default_factory=list)


def _scipy(a):
    return scipy.sparse.csr_matrix(
        (a.data, a.indices, a.indptr), shape=a.shape
    )


def _residual(a, x, b) -> float:
    r = b - _scipy(a) @ x
    return float(np.linalg.norm(r) / np.linalg.norm(b))


def _check_x(a, x, b, what: str) -> list[str]:
    if x is None or not np.all(np.isfinite(x)):
        return [f"{what}: no finite solution"]
    res = _residual(a, x, b)
    if not res <= RESIDUAL_TOL:
        return [f"{what}: relative residual {res:.3e} > {RESIDUAL_TOL}"]
    return []


def _ledger_layers(ledgers) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, phases in _PHASES.items():
        out[name] = sum(lg.seconds(p) for lg in ledgers for p in phases)
    for name, counter in _COUNTERS.items():
        out[name] = float(sum(lg.get_count(counter) for lg in ledgers))
    return out


def _service_ledgers(svc: SolverService) -> list:
    return [d.gpu.ledger for d in svc.scheduler.pool.devices]


def _warm_up() -> None:
    """First-call costs (lazy imports, first use of each path) land in
    set-up rather than in the first measured op."""
    a = circuit_like(200, 6.0, seed=1)
    factorize(a).solve(np.ones(a.n_rows))


def _subseeds(seed: int, unit: int, count: int) -> list[int]:
    """Generator seeds for the inputs of ``unit`` at benchmark ``seed``."""
    rng = np.random.default_rng([seed, unit])
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


class _Workload:
    """Set-up and per-unit inputs shared by the workloads; a subclass
    supplies ``_inputs(seed, unit)`` and ``run_unit``."""

    def setup(self, seed: int) -> dict:
        state = {"seed": seed, 0: self._inputs(seed, 0)}
        self._construct(state[0])
        _warm_up()
        return state

    def inputs(self, state: dict, unit: int):
        return state.pop(unit, None) or self._inputs(state["seed"], unit)

    def _construct(self, inputs) -> None:
        """Build (and discard) what a unit serves its requests through."""


# -- cold-large ------------------------------------------------------------


@dataclass
class _ColdMatrix:
    abbr: str
    a: object
    b: np.ndarray
    config: SolverConfig


class ColdLarge(_Workload):
    """One-shot ``EndToEndLU.factorize(a).solve(b)`` on fresh
    registry-class matrices at their real scaled size; no cache."""

    name = "cold-large"
    #: PR and R15 are circuit matrices, CR2 and RM FEM matrices
    ABBRS = ("PR", "CR2", "RM", "R15")

    def _inputs(self, seed: int, unit: int) -> list[_ColdMatrix]:
        mats = []
        subs = _subseeds(seed, unit, len(self.ABBRS))
        for abbr, sub in zip(self.ABBRS, subs):
            spec = by_abbr(abbr)
            gen = circuit_like if spec.kind == "circuit" else fem_like
            a = gen(spec.n_scaled, spec.paper_density, seed=sub)
            b = np.random.default_rng(sub).normal(size=a.n_rows)
            # the uncached fill: the package memoizes
            # ``symbolic_fill_reference`` on the pattern, and a memo
            # filled here would take the timed symbolic phase off the clock
            fill_nnz = sum(row.bit_count() for row in symbolic_fill_bitsets(a))
            device = spec.device_for_symbolic(a, fill_nnz)
            cfg = SolverConfig(device=device, host=spec.host_for(device))
            mats.append(_ColdMatrix(abbr, a, b, cfg))
        return mats

    def run_unit(self, mats: list[_ColdMatrix], op_span: OpSpan) -> Unit:
        regions, latencies, failures, snapshots, ledgers = [], [], [], [], []
        for m in mats:
            error = None
            with op_span():
                t0 = perf_counter()
                try:
                    res = EndToEndLU(m.config).factorize(m.a)
                    x = res.solve(m.b)
                except Exception as exc:  # counted, reported, run goes on
                    error = f"{m.abbr}: {type(exc).__name__}: {exc}"
                regions.append(perf_counter() - t0)
            if error is not None:
                failures.append(error)
                continue
            latencies.append((len(regions) - 1, regions[-1]))
            failures += _check_x(m.a, x, m.b, m.abbr)
            x_ref = scipy.sparse.linalg.spsolve(_scipy(m.a).tocsc(), m.b)
            err = float(np.max(np.abs(x - x_ref)) / np.max(np.abs(x_ref)))
            if not err <= ORACLE_TOL:
                failures.append(
                    f"{m.abbr}: differs from scipy spsolve by {err:.3e}"
                )
            ledgers.append(res.gpu.ledger)
            snapshots.append(res.gpu.ledger.snapshot())
        totals = [s["total_seconds"] for s in snapshots]
        fingerprint = {
            "device_s": sum(totals),
            "sim_latencies": totals,
            "ledgers": snapshots,
        }
        return Unit(
            regions=regions,
            latencies=latencies,
            ops=len(mats),
            failures=failures,
            fingerprint=fingerprint,
            layers=_ledger_layers(ledgers),
        )


# -- serve workloads -----------------------------------------------------


def _batches(trace, size: int):
    """The serve workloads' one client submits ``size`` requests, then
    waits for the flush that answers them: a closed loop on the host
    clock."""
    return [trace[i : i + size] for i in range(0, len(trace), size)]


@dataclass
class _ServeInputs:
    trace: list
    config: object


class RefactorStream(_Workload):
    """The circuit-simulation stream: re-stamped values on a few fixed
    patterns through one default :class:`SolverService`."""

    name = "refactor-stream"
    PATTERNS = 4
    REQUESTS = 200
    N = 1000
    FLUSH_EVERY = 6
    #: simulated seconds between arrivals.  The service clock jumps to a
    #: flush's last completion, so the device is busy for
    #: busy / (REQUESTS * GAP + busy) of the replay: about 70% here.
    GAP = 2.3e-4

    def _construct(self, inputs: _ServeInputs) -> None:
        SolverService(inputs.config).shutdown()

    def _inputs(self, seed: int, unit: int) -> _ServeInputs:
        (sub,) = _subseeds(seed, unit, 1)
        trace = synthesize_trace(
            num_patterns=self.PATTERNS,
            num_requests=self.REQUESTS,
            n=self.N,
            seed=sub,
            arrival_gap=self.GAP,
            duplicate_fraction=0.1,
        )
        return _ServeInputs(trace, ServeConfig())

    def run_unit(self, inputs: _ServeInputs, op_span: OpSpan) -> Unit:
        svc = SolverService(inputs.config)
        regions: list[float] = []
        latencies: list[tuple[int, float]] = []
        answers: dict[int, object] = {}
        for batch in _batches(inputs.trace, self.FLUSH_EVERY):
            with op_span():
                t0 = perf_counter()
                submitted = []
                for ev in batch:
                    svc.tick(ev.gap)
                    submitted.append(perf_counter())
                    svc.submit(ev.a, ev.b)
                responses = svc.flush()
                t1 = perf_counter()
            regions.append(t1 - t0)
            latencies += [(len(regions) - 1, t1 - ts) for ts in submitted]
            answers.update((r.request_id, r) for r in responses)
        stats = svc.stats()
        svc.shutdown()

        failures = []
        for rid, ev in enumerate(inputs.trace):
            r = answers.get(rid)
            if r is None or r.status != "ok":
                status = "missing" if r is None else r.status
                failures.append(f"request {rid}: status {status}")
                continue
            failures += _check_x(ev.a, r.x, ev.b, f"request {rid}")

        ledgers = _service_ledgers(svc)
        ok = [r.latency for r in answers.values() if r.status == "ok"]
        fingerprint = {
            "device_s": sum(lg.total_seconds for lg in ledgers),
            "sim_latencies": ok,
            "makespan_s": max(d["busy_until"] for d in stats["devices"]),
            "counters": stats["counters"],
            "ledgers": [lg.snapshot() for lg in ledgers],
        }
        layers = _ledger_layers(ledgers)
        layers.update(_service_layers([svc], answers.values()))
        layers["serve.device_busy_share"] = (
            fingerprint["device_s"] / fingerprint["makespan_s"]
        )
        return Unit(
            regions=regions,
            latencies=latencies,
            ops=len(inputs.trace),
            failures=failures,
            fingerprint=fingerprint,
            layers=layers,
        )


def _service_layers(services, responses) -> dict[str, float]:
    stats = [s.stats() for s in services]
    counters = [st["counters"] for st in stats]
    caches = [st["cache"] for st in stats]
    return {
        "serve.cache_hits": float(
            sum(1 for r in responses if r is not None and r.cache_hit)
        ),
        "serve.evictions": float(sum(c["evictions"] for c in caches)),
        "serve.splices": float(
            sum(c.get("incremental_hits", 0) for c in counters)
        ),
        "serve.splice_fallbacks": float(
            sum(c.get("incremental_fallbacks", 0) for c in counters)
        ),
    }


TIERS = ("l1", "l2", "delta", "l2-delta", "cold")


class DriftFleet(_Workload):
    """Drifting FEM families through a 4-node :class:`Fleet` with the
    supernodal numeric path and a tight per-node L1."""

    name = "drift-fleet"
    FAMILIES = 8
    REQUESTS = 160
    N = 600
    #: with 6 the median flush mixes flushes with and without a cold
    #: analysis, and latency_p50_s spread 11% between seeds (5% with 3)
    FLUSH_EVERY = 3
    NODES = 4
    #: per-node L1 budget, in analyses of ``SIZING_SEED``'s base matrix
    L1_ANALYSES = 6
    #: generator seed of the matrix that sizes L1.  It is none of the
    #: trace's patterns, so analyzing it leaves no memo the trace can hit.
    SIZING_SEED = 2**31 + 1
    NNZ_PER_ROW = 7.0

    def _construct(self, inputs: _ServeInputs) -> None:
        Fleet(inputs.config).shutdown()

    def _inputs(self, seed: int, unit: int) -> _ServeInputs:
        (sub,) = _subseeds(seed, unit, 1)
        trace = synthesize_drift_trace(
            num_families=self.FAMILIES,
            num_requests=self.REQUESTS,
            n=self.N,
            seed=sub,
            nnz_per_row=self.NNZ_PER_ROW,
            drift_every=3,
            reset_every=11,
            matrix_class="fem",
        )
        solver = SolverConfig(supernodal=True)
        sizing = fem_like(self.N, self.NNZ_PER_ROW, seed=self.SIZING_SEED)
        l1 = self.L1_ANALYSES * analyze(sizing, solver).nbytes
        config = FleetConfig(
            num_nodes=self.NODES,
            serve=ServeConfig(solver=solver, cache_capacity_bytes=l1),
        )
        return _ServeInputs(trace, config)

    def run_unit(self, inputs: _ServeInputs, op_span: OpSpan) -> Unit:
        fleet = Fleet(inputs.config)
        regions: list[float] = []
        latencies: list[tuple[int, float]] = []
        for batch in _batches(inputs.trace, self.FLUSH_EVERY):
            with op_span():
                t0 = perf_counter()
                submitted = []
                for ev in batch:
                    ts = perf_counter()
                    try:
                        fleet.submit(ev.a, ev.b, family=ev.family)
                    except ShedError:
                        pass  # recorded as a shed response
                    submitted.append(ts)
                fleet.flush()
                t1 = perf_counter()
            regions.append(t1 - t0)
            latencies += [(len(regions) - 1, t1 - ts) for ts in submitted]
        stats = fleet.stats()
        l2_ledger = fleet.l2.ledger
        services = list(fleet.nodes.values())
        ledgers = [lg for n in services for lg in _service_ledgers(n)]
        fleet.shutdown()

        responses = fleet.responses()
        failures = []
        tiers = dict.fromkeys(TIERS, 0)
        per_node: dict[int, int] = {}
        for r, ev in zip(responses, inputs.trace):
            if r.status != "ok":
                failures.append(f"request {r.index}: status {r.status}")
                continue
            tiers[r.served] += 1
            per_node[r.node_id] = per_node.get(r.node_id, 0) + 1
            failures += _check_x(ev.a, r.x, ev.b, f"request {r.index}")
        if len(responses) != len(inputs.trace):
            failures.append(
                f"{len(inputs.trace) - len(responses)} requests unanswered"
            )

        fingerprint = {
            "device_s": sum(lg.total_seconds for lg in ledgers),
            "sim_latencies": [r.latency for r in responses if r.ok],
            "makespan_s": stats["makespan_seconds"],
            "tiers": tiers,
            "l2": {k: v for k, v in stats["l2"].items() if k != "links"},
            "ledgers": [lg.snapshot() for lg in ledgers]
            + [l2_ledger.snapshot()],
        }
        layers = _ledger_layers(ledgers)
        layers.update(
            _service_layers(services, [r.response for r in responses])
        )
        l2 = stats["l2"]
        layers["fleet.l2_fetch_hits"] = float(l2["hits"] + l2["family_hits"])
        layers["fleet.l2_wire_sim_s"] = sum(
            s
            for phase, s in l2_ledger.phase_seconds.items()
            if phase.startswith("l2:fetch:")
        )
        for tier, count in tiers.items():
            layers[f"fleet.tier.{tier}"] = float(count)
        loads = [per_node.get(i, 0) for i in range(self.NODES)]
        layers["fleet.balance"] = max(loads) / (sum(loads) / len(loads))
        return Unit(
            regions=regions,
            latencies=latencies,
            ops=len(inputs.trace),
            failures=failures,
            fingerprint=fingerprint,
            layers=layers,
        )


WORKLOADS = {w.name: w for w in (ColdLarge, RefactorStream, DriftFleet)}

