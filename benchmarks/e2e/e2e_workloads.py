"""The four workloads: what each builds, sends, measures and verifies.

Only ``repro``'s public API, numpy and the standard library are used.  The
program under test receives nothing but the generated requests.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import statistics
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import e2e_loadgen as loadgen
import e2e_measure as measure
from repro.api import (
    BackendSpec,
    InferenceSession,
    ServingQueue,
    SessionConfig,
    SessionPool,
    ShardedPool,
    build_backend,
)
from repro.core.lut import lut_evaluation_stats
from repro.core.registry import LutRegistry

#: scalar primitives BackendSpec.nn_lut() needs, at its default 16 entries.
LUT_PRIMITIVES = ("gelu", "exp", "reciprocal", "rsqrt")
#: share of ``--seconds`` the open-loop phase takes on a serving workload;
#: the closed-loop flood takes the rest.
RATE_SHARE = 2.0 / 3.0
#: each phase first runs untimed for this share of its measured time: the
#: first block or wave after set-up (and after the half-idle rate phase) runs
#: 10-25 % slow on this box, whatever the code does.
WARMUP_SHARE = 0.1
#: the correctness probes are part of the benchmark, not of a run: the same
#: requests for every ``--seed``, so the output error is one number per
#: workload and commit and can carry a bound of 1e-6.
PROBE_SEED = 20220710


@dataclass(frozen=True)
class Scale:
    """How much work a run does; the load *shape* is the workload's."""

    name: str
    probes: int  # correctness probe requests
    windows: int  # consecutive windows behind each window-median
    wave_divisor: int  # flood wave size = workload.wave // wave_divisor
    micro_seconds: float  # how long each per-layer micro-benchmark repeats


FULL = Scale("full", probes=16, windows=5, wave_divisor=1,
             micro_seconds=0.12)
SMOKE = Scale("smoke", probes=4, windows=2, wave_divisor=8,
              micro_seconds=0.004)


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "big": BERT-base layer geometry; "small": 128-wide
    precision: str
    kernel: str
    pool: Optional[str]  # None = offline closed loop; "threads" | "sharded"
    #: One replica per core the load generator does not need.  Replica threads
    #: share the generator's process; a replica *process* per core leaves the
    #: main process (generator, scheduler, transport encoding: ~20 % of a core
    #: under flood) to take turns with the workers: four runs in a quiet quarter
    #: of an hour read 19.9-25.0k tokens/s and p50 5.1-6.5 ms with two workers,
    #: 14.4-14.5k (one at 13.0k) and 4.89-5.05 ms with one.
    replicas: int = 0
    rate: float = 0.0  # open-loop arrivals per second
    wave: int = 0  # requests per closed-loop flood wave (< max_queue_depth)
    length_divisor: int = 1  # serving lengths are Pareto on [4, max_len // this]
    #: latency limit behind slo_attainment.  A closed loop has no arrival to be
    #: late for, so offline a request attains by being answered correctly.
    slo_ms: float = math.inf

    @property
    def offline(self) -> bool:
        return self.pool is None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("offline_clustered_fp32", "big", "fp32", "numpy", None),
        Workload("offline_clustered_int8_native", "big", "int8", "native", None),
        Workload(
            "serve_ragged_threads_fp32", "big", "fp32", "numpy", "threads",
            replicas=2, rate=30.0, wave=64, length_divisor=2,
            slo_ms=250.0,
        ),
        Workload(
            "serve_short_sharded_shm", "small", "fp32", "numpy", "sharded",
            replicas=1, rate=150.0, wave=1000, length_divisor=4,
            slo_ms=50.0,
        ),
    )
}

#: a run is incorrect when its probe responses are further than this from the
#: float64 exact oracle (measured: 0.21-0.24 relative L2, 1.0-1.4 max abs).
REL_L2_CEILING = 0.35
MAX_ABS_CEILING = 2.5

#: offline block: every length this many times, as fractions of max length.
CLUSTER_FRACTIONS = (0.375, 0.5, 0.75, 1.0)
CLUSTER_REPEATS = 4


def session_config(workload: Workload, scale: Scale, **overrides) -> SessionConfig:
    engine = dict(
        matmul_precision=workload.precision, kernel=workload.kernel, max_batch_size=16
    )
    engine.update(overrides)
    if scale is SMOKE:
        return SessionConfig("tiny", "small", **engine)
    if workload.model == "big":
        return SessionConfig(
            "roberta", "full",
            model_overrides={
                "num_layers": 4, "vocab_size": 8000, "max_sequence_length": 128,
            },
            **engine,
        )
    return SessionConfig("roberta", "small", **engine)


def fit_registry() -> LutRegistry:
    """A freshly fitted registry holding the four NN-LUT primitives.

    Fitted explicitly rather than lazily inside ``build_backend``: an empty
    ``LutRegistry`` is falsy (it defines ``__len__``), so the sessions'
    ``registry or default_registry()`` would silently swap a fresh one for
    the process-wide registry and a repeated set-up would measure a cache hit.
    """
    registry = LutRegistry()
    for primitive in LUT_PRIMITIVES:
        registry.get(primitive, 16)
    return registry


class System:
    """One built system under test plus the handles the harness drives."""

    def __init__(
        self,
        workload: Workload,
        scale: Scale,
        registry: Optional[LutRegistry] = None,
        stages: Optional[Dict[str, float]] = None,
    ) -> None:
        """Build the system; with ``stages`` build it stepwise and time each layer."""
        self.workload = workload
        self.config = session_config(workload, scale)
        self.spec = BackendSpec.nn_lut()
        self.pool = None
        self.queue = None
        start = time.perf_counter()
        self.registry = registry if registry is not None else fit_registry()
        fitted = time.perf_counter()
        try:
            if stages is None:
                self._build_direct()
            else:
                stages["core.registry.fit_s"] = fitted - start
                self._build_stepwise(stages)
        except BaseException:
            self.close()
            raise
        model = self.direct.model.config
        self.max_length = model.max_sequence_length
        self.vocab_size = model.vocab_size
        self.hidden_size = model.hidden_size

    def _build_direct(self) -> None:
        workload = self.workload
        if workload.offline:
            self.direct = InferenceSession(self.config, self.spec, self.registry)
            return
        if workload.pool == "threads":
            self.pool = SessionPool(
                self.config, self.spec, self.registry, num_replicas=workload.replicas
            )
            self.direct = self.pool.sessions[0]
        else:
            self.pool = ShardedPool(
                self.config, self.spec, self.registry,
                num_replicas=workload.replicas, transport="shm_ring",
            )
            self.direct = self.pool.template
        self.queue = ServingQueue(self.pool)

    def _build_stepwise(self, stages: Dict[str, float]) -> None:
        def timed(name: str, build):
            start = time.perf_counter()
            value = build()
            stages[name] = time.perf_counter() - start
            return value

        workload = self.workload
        size = dict(max_batch_size=self.config.max_batch_size)
        timed("api.spec.build_backend_s", lambda: build_backend(self.spec, self.registry))
        model = timed("transformer.build_model_s", self.config.build_model)
        stages["api.sharding.spawn_ready_s"] = 0.0
        if workload.offline:
            self.direct = timed(
                "api.session.build_s",
                lambda: InferenceSession.from_model(
                    model, self.spec, self.registry, **size
                ),
            )
            return
        # The pools build their own template session; a stand-alone session
        # over the same model prices that layer by itself.
        timed(
            "api.session.build_s",
            lambda: InferenceSession.from_model(model, self.spec, self.registry, **size),
        )
        if workload.pool == "threads":
            self.pool = SessionPool.from_model(
                model, self.spec, self.registry, num_replicas=workload.replicas, **size
            )
            self.direct = self.pool.sessions[0]
        else:
            self.pool = timed(
                "api.sharding.spawn_ready_s",
                lambda: ShardedPool.from_model(
                    model, self.spec, self.registry, num_replicas=workload.replicas,
                    transport="shm_ring", **size,
                ),
            )
            self.direct = self.pool.template
        self.queue = ServingQueue(self.pool)

    def submit(self, tokens: np.ndarray):
        return self.queue.submit(tokens)

    def serve_one(self, tokens: np.ndarray) -> np.ndarray:
        """One request alone through the measured path."""
        if self.queue is None:
            return self.direct.forward([tokens])[0]
        return self.queue.serve_one(tokens, timeout=60.0)

    def close(self) -> None:
        if self.queue is not None:
            self.queue.close()
            self.queue = None
        if self.pool is not None and hasattr(self.pool, "close"):
            self.pool.close()
        self.pool = None


# --------------------------------------------------------------------------- #
# Request generation per workload
# --------------------------------------------------------------------------- #
def cluster_values(max_length: int) -> List[int]:
    return [max(1, int(round(f * max_length))) for f in CLUSTER_FRACTIONS]


def offline_block(rng: np.random.Generator, system: System) -> List[np.ndarray]:
    lengths = loadgen.clustered_lengths(
        rng, cluster_values(system.max_length), CLUSTER_REPEATS
    )
    return loadgen.make_requests(rng, lengths, system.vocab_size)


def serving_requests(
    rng: np.random.Generator, system: System, count: int
) -> List[np.ndarray]:
    high = max(5, system.max_length // system.workload.length_divisor)
    lengths = loadgen.pareto_lengths(rng, count, 4, high)
    return loadgen.make_requests(rng, lengths, system.vocab_size)


def probe_requests(system: System, scale: Scale) -> List[np.ndarray]:
    """Correctness probes drawn like the workload's own traffic, from PROBE_SEED.

    Offline requests are ~10x longer than serving ones, so half as many carry
    several times the tokens.
    """
    rng = np.random.default_rng(PROBE_SEED)
    if system.workload.offline:
        return offline_block(rng, system)[: scale.probes // 2]
    return serving_requests(rng, system, scale.probes)


# --------------------------------------------------------------------------- #
# Verification
# --------------------------------------------------------------------------- #
def well_formed(output: object, tokens: np.ndarray, hidden_size: int) -> bool:
    return (
        isinstance(output, np.ndarray)
        and output.shape == (tokens.size, hidden_size)
        and bool(np.isfinite(output).all())
    )


def count_failures(
    requests: Sequence[np.ndarray], outcomes: Sequence[loadgen.Outcome], hidden_size: int
) -> int:
    return sum(
        1
        for tokens, outcome in zip(requests, outcomes)
        if outcome.error is not None
        or not well_formed(outcome.result, tokens, hidden_size)
    )


def output_errors(
    system: System, scale: Scale, probes: Sequence[np.ndarray]
) -> Tuple[float, float, bool]:
    """Probe responses from the measured path vs a float64 exact oracle.

    The oracle is rebuilt from the configuration's seed (it shares nothing
    with the system under test) and is built only now, after peak memory was
    read.  Probes go one at a time on the idle system, which fixes the batch
    composition the int8 engine's per-tensor scale depends on.
    """
    served = [system.serve_one(tokens) for tokens in probes]
    shapes_ok = all(
        well_formed(out, tokens, system.hidden_size)
        for out, tokens in zip(served, probes)
    )
    if not shapes_ok:
        return float("nan"), float("nan"), False
    oracle = InferenceSession(
        session_config(
            system.workload, scale, compute_dtype="float64",
            matmul_precision="fp32", kernel="numpy",
        ),
        BackendSpec.exact(),
    )
    exact = np.concatenate([oracle.forward([tokens])[0] for tokens in probes])
    got = np.concatenate(served).astype(np.float64)
    rel_l2 = float(np.linalg.norm(got - exact) / np.linalg.norm(exact))
    max_abs = float(np.max(np.abs(got - exact)))
    ok = rel_l2 <= REL_L2_CEILING and max_abs <= MAX_ABS_CEILING
    return rel_l2, max_abs, ok


# --------------------------------------------------------------------------- #
# Phases
# --------------------------------------------------------------------------- #
@dataclass
class PhaseResult:
    name: str
    loop: str
    sent: int = 0
    failed: int = 0
    tokens: int = 0  # tokens of requests that succeeded
    latencies_ms: List[float] = dataclasses.field(default_factory=list)
    #: per block or wave: tokens over its wall time, and process-tree CPU
    #: seconds per thousand tokens; the metrics are medians over these.
    unit_tokens_per_s: List[float] = dataclasses.field(default_factory=list)
    unit_cpu_s_per_ktok: List[float] = dataclasses.field(default_factory=list)
    within_slo: int = 0
    outcomes: List[loadgen.Outcome] = dataclasses.field(default_factory=list)
    stats: object = None
    seconds: float = 0.0
    cpu: Dict[str, float] = dataclasses.field(default_factory=dict)
    lut_evaluations: int = 0  # LookupTable.evaluate calls in this process
    digest: str = ""
    slowdown: float = 1.0  # machine probe over this phase, 1 = reference speed
    last_unit: Sequence[np.ndarray] = ()  # requests of the last block or wave

    def start_clock(self, probe: Optional[measure.MachineProbe] = None) -> None:
        """Warm-up is over: wall and process-tree CPU count from here.

        A closed-loop phase passes the probe it samples between its units.
        """
        self._probe = probe
        self._first_sample = len(probe.gemm_ms) if probe else 0
        self._cpu_start = measure.tree_cpu_seconds()
        self._evaluations_start = lut_evaluation_stats()["evaluations"]
        self._started = time.perf_counter()

    def stop_clock(self) -> None:
        self.seconds = time.perf_counter() - self._started
        self.cpu = measure.tree_cpu_seconds(since=self._cpu_start)
        if self._probe is not None:
            self.slowdown = self._probe.slowdown(self._first_sample)
        self.lut_evaluations = (
            lut_evaluation_stats()["evaluations"] - self._evaluations_start
        )

    def summary(self) -> Dict[str, object]:
        return {
            "phase": self.name, "loop": self.loop, "sent": self.sent,
            "succeeded": self.sent - self.failed, "failed": self.failed,
            "tokens": self.tokens, "seconds": round(self.seconds, 3),
            "request_digest": self.digest,
        }


def run_offline_phase(
    system: System, rng: np.random.Generator, seconds: float, min_blocks: int,
    probe: measure.MachineProbe,
) -> PhaseResult:
    """Closed loop: one ``forward`` per block of 16, next block when it returns."""
    forward = system.direct.forward
    phase = PhaseResult("blocks", "closed, 1 client, 16 requests per call")
    parts = []
    warm_until = time.perf_counter() + WARMUP_SHARE * seconds
    while time.perf_counter() < warm_until:
        forward(offline_block(rng, system))
    phase.start_clock(probe)
    deadline = time.perf_counter() + seconds
    # A failed block makes the run incorrect whatever follows, so it ends the
    # phase: a broken system is reported at once, not measured to the deadline.
    while not phase.failed and (
        phase.sent < min_blocks * 16 or time.perf_counter() < deadline
    ):
        block = offline_block(rng, system)
        parts.append(block)
        cpu = measure.tree_cpu_seconds()
        start = time.perf_counter()
        outputs = forward(block)
        elapsed = time.perf_counter() - start
        cpu = measure.tree_cpu_seconds(since=cpu)
        failed = sum(
            1 for out, tokens in zip(outputs, block)
            if not well_formed(out, tokens, system.hidden_size)
        )
        tokens = sum(t.size for t in block)
        phase.sent += len(block)
        phase.failed += failed
        phase.tokens += tokens if not failed else 0
        phase.latencies_ms.append(1000.0 * elapsed)
        phase.unit_tokens_per_s.append(tokens / elapsed)
        phase.unit_cpu_s_per_ktok.append(1000.0 * sum(cpu.values()) / tokens)
        phase.within_slo += len(block) - failed
        probe.sample()
    phase.stop_clock()
    phase.digest = loadgen.digest(*parts)
    phase.last_unit = parts[-1]
    return phase


def run_rate_phase(
    system: System, rng: np.random.Generator, seconds: float
) -> PhaseResult:
    """Open loop: Poisson arrivals at the workload's rate, timed from due time."""
    workload = system.workload
    warm = int(workload.rate * WARMUP_SHARE * seconds)
    loadgen.run_open_loop(
        system.submit, serving_requests(rng, system, warm),
        loadgen.poisson_due_times(rng, warm, workload.rate),
    )
    count = max(10, int(workload.rate * seconds))
    requests = serving_requests(rng, system, count)
    due = loadgen.poisson_due_times(rng, count, workload.rate)
    phase = PhaseResult("rate", f"open, Poisson {workload.rate:g} req/s")
    phase.digest = loadgen.digest(requests, due)
    system.queue.reset_stats()
    # No machine probe here: beside a half-busy system, in its process, it
    # waits for the interpreter lock and reads up to 1.9x slow.
    phase.start_clock()
    phase.outcomes = loadgen.run_open_loop(system.submit, requests, due)
    phase.stop_clock()
    phase.stats = system.queue.stats()
    phase.sent = count
    for tokens, outcome in zip(requests, phase.outcomes):
        if outcome.error is not None or not well_formed(
            outcome.result, tokens, system.hidden_size
        ):
            phase.failed += 1
            continue
        phase.tokens += tokens.size
        phase.latencies_ms.append(outcome.latency_ms)
        phase.within_slo += outcome.latency_ms <= workload.slo_ms
        outcome.result = None
    return phase


def run_flood_phase(
    system: System, rng: np.random.Generator, seconds: float, scale: Scale,
    probe: measure.MachineProbe,
) -> PhaseResult:
    """Closed loop: waves of ``wave`` requests, submit all then wait for all."""
    workload = system.workload
    wave = max(16, workload.wave // scale.wave_divisor)
    phase = PhaseResult("flood", f"closed, waves of {wave} requests")
    parts = []
    warm_until = time.perf_counter() + WARMUP_SHARE * seconds
    while time.perf_counter() < warm_until:
        loadgen.run_wave(system.submit, serving_requests(rng, system, wave))
    system.queue.reset_stats()
    phase.start_clock(probe)
    deadline = time.perf_counter() + seconds
    # As offline: the first wave with a failure ends the phase, so a broken
    # serving path gives a prompt incorrect result and never an endless loop.
    while phase.sent < scale.windows * wave or time.perf_counter() < deadline:
        requests = serving_requests(rng, system, wave)
        parts.append(requests)
        cpu = measure.tree_cpu_seconds()
        outcomes = loadgen.run_wave(system.submit, requests)
        cpu = measure.tree_cpu_seconds(since=cpu)
        phase.sent += wave
        phase.failed = count_failures(requests, outcomes, system.hidden_size)
        if phase.failed:
            break
        tokens = sum(t.size for t in requests)
        makespan = max(o.done for o in outcomes) - outcomes[0].sent
        phase.tokens += tokens
        phase.unit_tokens_per_s.append(tokens / makespan)
        phase.unit_cpu_s_per_ktok.append(1000.0 * sum(cpu.values()) / tokens)
        phase.outcomes.extend(outcomes)
        for outcome in outcomes:
            outcome.result = None
        probe.sample()
    phase.stop_clock()
    phase.stats = system.queue.stats()
    phase.digest = loadgen.digest(*parts)
    phase.last_unit = parts[-1]
    return phase


# --------------------------------------------------------------------------- #
# The timed (untraced) run
# --------------------------------------------------------------------------- #
@dataclass
class RunResult:
    metrics: Dict[str, float]
    attempted: int
    failed: int
    correct: bool
    phases: List[Dict[str, object]]
    notes: Dict[str, object]


def verified_first_response(system: System, rng: np.random.Generator) -> None:
    tokens = rng.integers(0, system.vocab_size, size=4, dtype=np.int64)
    if not well_formed(system.serve_one(tokens), tokens, system.hidden_size):
        raise RuntimeError("first response is malformed")


def run_timed(
    workload: Workload,
    scale: Scale,
    seed: int,
    seconds: float,
    process_start: float,
    registry: Optional[LutRegistry] = None,
) -> RunResult:
    """End-to-end metrics of one workload, tracing off.

    ``setup_s`` runs from ``process_start`` (the first line of ``run.py``, so
    imports count) to the first verified response, once: most of its spread
    is page-faulting in ``build_model``, which the bound allows for.
    """
    system = System(workload, scale, registry)
    try:
        verified_first_response(system, np.random.default_rng([seed, 0]))
        setup_seconds = time.perf_counter() - process_start
        rng = np.random.default_rng([seed, 1])
        probe = measure.MachineProbe()
        gc.collect()
        if workload.offline:
            closed = run_offline_phase(system, rng, seconds, scale.windows, probe)
            phases = [closed]
            latency_note = (
                f"{len(closed.latencies_ms)} blocks, median "
                f"{statistics.median(closed.latencies_ms):.1f} ms"
            )
        else:
            rate = run_rate_phase(system, rng, RATE_SHARE * seconds)
            closed = run_flood_phase(
                system, rng, (1 - RATE_SHARE) * seconds, scale, probe
            )
            phases = [rate, closed]
            latency_note = (
                f"{scale.windows} windows of "
                f"{len(rate.latencies_ms) // scale.windows} requests, p50 "
                f"{measure.window_median(rate.latencies_ms, scale.windows, 50):.2f} ms"
                if len(rate.latencies_ms) >= scale.windows else "too few responses"
            )
        # Medians over the blocks or waves of the closed-loop phase, as the
        # clock read them and then at the reference machine speed.
        raw_tokens_per_s, raw_cpu_s_per_ktok = (
            statistics.median(units) if units else float("nan")
            for units in (closed.unit_tokens_per_s, closed.unit_cpu_s_per_ktok)
        )

        probes = probe_requests(system, scale)
        peak_memory = measure.tree_memory_mb("VmHWM")  # before the oracle exists
        rel_l2, max_abs, outputs_ok = output_errors(system, scale, probes)

        attempted = sum(phase.sent for phase in phases) + len(probes)
        failed = sum(phase.failed for phase in phases)
        metrics = {
            "setup_s": setup_seconds,
            "tokens_per_s": raw_tokens_per_s * closed.slowdown,
            "cpu_s_per_ktok": raw_cpu_s_per_ktok / closed.slowdown,
            "slo_attainment": phases[0].within_slo / phases[0].sent,
            "peak_rss_mb": sum(peak_memory.values()),
            "output_rel_l2_err": rel_l2,
        }
        finite = all(np.isfinite(value) for value in metrics.values())
        return RunResult(
            metrics=metrics,
            attempted=attempted,
            failed=failed,
            correct=bool(outputs_ok and finite and failed == 0),
            phases=[phase.summary() for phase in phases],
            notes={
                "raw_tokens_per_s": raw_tokens_per_s,
                "raw_cpu_s_per_ktok": raw_cpu_s_per_ktok,
                "machine_slowdown": closed.slowdown,
                "throughput_samples": len(closed.unit_tokens_per_s),
                "latency_samples": latency_note,
                "slo_ms": workload.slo_ms,
                "probes": len(probes),
                "output_max_abs_err": max_abs,
                "failed_share": failed / attempted,
                "peak_rss_note": "VmHWM of main + workers; shared weights "
                                 "counted once per process mapping them",
            },
        )
    finally:
        system.close()
