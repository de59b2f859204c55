"""Two-clock benchmark of the end-to-end sparse LU package.

Run from the repository root::

    python3 perfbench/run.py --workload cold-large --seed 0 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures
the same workload untraced and then traced, and reports the per-layer
metrics plus the tracing overhead.  Human-readable lines go first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every op succeeded, every output check passed and the simulated clock
repeated exactly.  See ``perfbench/README.md``.

``--record-sim`` measures only the first ``SIM_UNITS`` units and, if
every output passes, stores their simulated-clock hashes for the seed in
``perfbench/sim_reference.json``; an intended change to the device model
re-records them, so the change shows in its diff.
"""

from __future__ import annotations

import os
import sys

# one host thread for every numeric library: fixed before numpy loads
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
#: traces and simulated-clock records of earlier runs (inside the checkout)
OUT_DIR = ROOT / ".perfbench"
#: committed simulated-clock hashes: workload -> seed -> one per unit
REFERENCE = Path(__file__).resolve().with_name("sim_reference.json")
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: every run measures at least this many units; the simulated-clock
#: metrics pool exactly these, so they do not depend on the host's speed
SIM_UNITS = 2


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import the package from the checkout's ``src`` (no install)."""
    if os.environ.get("REPRO_SLOW_HOST_LOOPS"):
        fail(
            "REPRO_SLOW_HOST_LOOPS is set: it switches every host loop to "
            "the scalar oracles; unset it to benchmark the default paths"
        )
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"package source not found under {src}")
    sys.path.insert(0, str(src))
    import cases
    import spans

    return cases, spans


class Clock:
    """Host clock scaled to a fixed calibration speed.

    The host's speed drifts by tens of percent over seconds when other
    tenants load the machine's shared cores, caches and memory.  A fixed
    reference computation (interpreter loop plus numpy sort, gather and
    search, none of it from the package) is timed before every timed
    region and after the last one.  A region's seconds are multiplied by
    ``NOMINAL_S`` over the mean of the reference times around it, which
    expresses them at the speed the reference runs at on an unloaded
    host.  Raw ``perf_counter`` figures are printed alongside.
    """

    #: reference time on an unloaded 2-vCPU 2.0 GHz Xeon host
    NOMINAL_S = 0.0062

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(50_000)
        self._index = rng.integers(0, 50_000, 50_000)
        self._probe = self._values[:5_000].copy()
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        for _ in range(5):
            np.sort(self._values)
            self._values[self._index].sum()
            np.searchsorted(self._values, self._probe)
        took = perf_counter() - t0
        self.samples.append(took)
        return took

    def around(self, inner):
        """Op-span factory that samples the reference before ``inner``."""

        def span():
            self.sample()
            return inner()

        return span

    def scale(self, before: float, after: float) -> float:
        return self.NOMINAL_S / ((before + after) / 2.0)


def measure(workload, state, seconds: float, inner, clock: Clock):
    """Whole units until ``seconds`` of wall time have passed; each unit
    gets ``scales``, the calibration factor of each of its regions."""
    units = []
    start = perf_counter()
    while True:
        inputs = workload.inputs(state, len(units))
        gc.collect()
        clock.samples = []
        unit = workload.run_unit(inputs, clock.around(inner))
        del inputs
        ref = clock.samples + [clock.sample()]
        unit.scales = [clock.scale(a, b) for a, b in zip(ref, ref[1:])]
        units.append(unit)
        if len(units) >= SIM_UNITS and perf_counter() - start >= seconds:
            return units


def host_seconds(units, scaled: bool = True) -> float:
    return sum(
        t * (k if scaled else 1.0)
        for u in units
        for t, k in zip(u.regions, u.scales)
    )


def latency(units, q: float, scaled: bool = True) -> float:
    """Median over units of each unit's ``q``-th percentile op latency.

    Per unit, so the figure does not depend on how many units a run
    fits: on ``cold-large`` a pooled percentile would fall on different
    matrix classes for two units than for three."""
    return statistics.median(
        float(np.percentile(
            [t * (u.scales[r] if scaled else 1.0) for r, t in u.latencies],
            q,
        ))
        for u in units
    )


def ops_per_s(units, scaled: bool = True) -> float:
    return sum(u.ops for u in units) / host_seconds(units, scaled)


def sim_hash(unit) -> str:
    """Digest of a unit's simulated-clock fingerprint (exact floats)."""
    text = json.dumps(unit.fingerprint, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}


def check_determinism(runs, workload: str, seed: int, save: bool):
    """Unit ``k`` of every run must reproduce the committed hash of unit
    ``k`` at this seed and the hash of unit ``k`` of every earlier run in
    this checkout and in this process (so tracing must not move the
    simulated clock).  ``save`` adds this run's new units to the
    checkout's record; a run whose outputs failed is not recorded."""
    committed = load_reference().get(workload, {}).get(str(seed), [])
    record = OUT_DIR / f"sim-{workload}-seed{seed}.json"
    earlier = json.loads(record.read_text()) if record.is_file() else []
    problems = []
    for units in runs:
        now = [sim_hash(u) for u in units]
        for k, h in enumerate(now):
            if k < len(committed) and h != committed[k]:
                problems.append(
                    f"unit {k}: simulated clock differs from the committed "
                    f"reference ({REFERENCE.name}, seed {seed})"
                )
            elif k < len(earlier) and h != earlier[k]:
                problems.append(
                    f"unit {k}: simulated clock differs from an earlier run "
                    f"({record})"
                )
        earlier += now[len(earlier):]
    if save and not problems:
        OUT_DIR.mkdir(exist_ok=True)
        record.write_text(json.dumps(earlier))
    return problems


def record_reference(units, workload: str, seed: int) -> None:
    reference = load_reference()
    reference.setdefault(workload, {})[str(seed)] = [
        sim_hash(u) for u in units[:SIM_UNITS]
    ]
    text = json.dumps(reference, indent=1, sort_keys=True)
    REFERENCE.write_text(text + "\n")


def end_to_end(units, setup_s: float) -> dict[str, tuple[float, str]]:
    sim = [u.fingerprint for u in units[:SIM_UNITS]]
    sim_lat = [t for fp in sim for t in fp["sim_latencies"]]
    return {
        "ops_per_s": (ops_per_s(units), "1/s"),
        "latency_p50_s": (latency(units, 50), "s"),
        "latency_p90_s": (latency(units, 90), "s"),
        "sim_s_per_op": (
            sum(fp["device_s"] for fp in sim) / len(sim_lat), "s"
        ),
        "sim_latency_p90_s": (float(np.percentile(sim_lat, 90)), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MiB",
        ),
    }


#: per-op layer metrics taken from span self times
HOST_SPANS = {
    "preprocess.host_s": "preprocess",
    "symbolic.host_s": "symbolic",
    "symbolic.delta_host_s": "symbolic.delta",
    "graph.depgraph_host_s": "graph.depgraph",
    "graph.levelize_host_s": "graph.levelize",
    "graph.panelize_host_s": "graph.panelize",
    "numeric.first_host_s": "numeric.first",
    "numeric.repeat_host_s": "numeric.repeat",
    "numeric.extract_host_s": "numeric.extract",
    "trisolve.host_s": "trisolve",
    "core.analyze_host_s": "core.analyze",
    "core.refactorize_host_s": "core.refactorize",
    "serve.flush_self_host_s": "serve.flush",
    "fleet.flush_self_host_s": "fleet.flush",
    "fleet.l2_fetch_host_s": "fleet.l2_fetch",
    "op.unattributed_host_s": "op",
}
#: per-op layer metrics summed by the workloads from the simulator
SIM_PER_OP = {
    "symbolic.sim_s": "s/op",
    "symbolic.delta_sim_s": "s/op",
    "graph.levelize_sim_s": "s/op",
    "graph.panelize_sim_s": "s/op",
    "numeric.sim_s": "s/op",
    "numeric.kernel_launches": "count/op",
    "numeric.panel_launches": "count/op",
    "gpusim.kernel_launches": "count/op",
    "gpusim.bytes_h2d": "B/op",
    "gpusim.bytes_d2h": "B/op",
    "serve.evictions": "count/op",
    "fleet.l2_wire_sim_s": "s/op",
    "fleet.tier.l1": "share",
    "fleet.tier.l2": "share",
    "fleet.tier.delta": "share",
    "fleet.tier.l2-delta": "share",
    "fleet.tier.cold": "share",
}


def per_layer(units, tracer, untraced_ops_per_s: float):
    ops = sum(u.ops for u in units)

    def total(key: str) -> float:
        return sum(u.layers.get(key, 0.0) for u in units)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    # span times are raw; bring them to the calibrated clock as a whole
    scale = host_seconds(units) / host_seconds(units, scaled=False)
    own = tracer.self_seconds()
    out = {
        k: (own.get(v, 0.0) * scale / ops, "s/op")
        for k, v in HOST_SPANS.items()
    }
    for key, unit in SIM_PER_OP.items():
        out[key] = (total(key) / ops, unit)
    out["symbolic.iterations"] = (
        tracer.counts["symbolic.iterations"] / ops, "count/op"
    )
    out["gpusim.charge_calls"] = (
        tracer.counts["gpusim.charge_calls"] / ops, "count/op"
    )
    splices = total("serve.splices")
    out["serve.splice_ratio"] = (
        ratio(splices, splices + total("serve.splice_fallbacks")), "ratio"
    )
    out["serve.cache_hit_ratio"] = (
        ratio(total("serve.cache_hits"), ops), "ratio"
    )
    out["fleet.l2_useful_ratio"] = (
        ratio(
            total("fleet.tier.l2") + total("fleet.tier.l2-delta"),
            total("fleet.l2_fetch_hits"),
        ),
        "ratio",
    )
    out["fleet.balance"] = (
        ratio(total("fleet.balance"), len(units)), "max/mean"
    )
    traced = ops_per_s(units)
    out["trace.untraced_ops_per_s"] = (untraced_ops_per_s, "1/s")
    out["trace.traced_ops_per_s"] = (traced, "1/s")
    out["trace.overhead"] = (untraced_ops_per_s / traced - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-sim", action="store_true",
        help="store the simulated-clock hashes of this seed's first units",
    )
    args = parser.parse_args(argv)

    cases, spans = load_package()
    if args.workload not in cases.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(cases.WORKLOADS)}")
    workload = cases.WORKLOADS[args.workload]()

    import scipy

    print(
        f"env: nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={np.__version__} scipy={scipy.__version__}"
    )
    clock = Clock()
    setups, raw_setups = [], []
    for _ in range(1 if args.record_sim else SETUP_REPEATS):
        before = clock.sample()
        t0 = perf_counter()
        state = workload.setup(args.seed)
        took = perf_counter() - t0
        raw_setups.append(took)
        setups.append(took * clock.scale(before, clock.sample()))
    setup_s = statistics.median(setups)

    seconds = 0.0 if args.record_sim else args.seconds
    units = measure(workload, state, seconds, nullcontext, clock)
    runs = [units]
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = measure(workload, state, args.seconds, tracer.op, clock)
        finally:
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json")
        runs.append(traced)
        metrics = per_layer(traced, tracer, ops_per_s(units))
    else:
        metrics = end_to_end(units, setup_s)

    attempted = sum(u.ops for run in runs for u in run)
    failures = [f for run in runs for u in run for f in u.failures]
    if args.record_sim:
        for line in failures[:20]:
            print(f"FAIL {line}")
        if failures:
            return 1
        record_reference(units, args.workload, args.seed)
        print(f"recorded {args.workload} seed {args.seed} in {REFERENCE}")
        return 0
    problems = check_determinism(
        runs, args.workload, args.seed, save=not failures
    )
    for line in failures[:20] + problems:
        print(f"FAIL {line}")
    layers = units[0].layers
    if "serve.device_busy_share" in layers:
        print(f"device busy share {layers['serve.device_busy_share']:.3f}")
    print(
        f"raw host clock: ops_per_s {ops_per_s(units, False):.6g}, "
        f"latency_p50_s {latency(units, 50, scaled=False):.6g}, "
        f"latency_p90_s {latency(units, 90, scaled=False):.6g}, "
        f"setup_s {statistics.median(raw_setups):.6g}, "
        f"calibration speed "
        f"{host_seconds(units) / host_seconds(units, False):.3f}"
    )
    print(
        f"workload {args.workload} seed {args.seed}: "
        f"{sum(map(len, runs))} units, {attempted} ops, "
        f"error_rate {len(failures) / attempted:.4f}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:.6g} {unit}")
    correct = not failures and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
