"""The three benchmark workloads.

Each workload makes its inputs from the workload seed (chain seeds,
colourings, lambda and gamma lists), hands only those inputs to ``repro``,
times what a user waits for, and then checks the outputs.  See
``perfbench/README.md`` for why each workload exists and which layer
metric should move which end-to-end metric.

A workload returns an :class:`Outcome`: the measured values by metric
name (end-to-end and per-layer alike; ``run.py`` picks the ones the run
reports), the raw samples behind them, and the operations attempted and
failed.  An operation is one chain or one job; it fails when it raises,
is refused, or fails a correctness check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

import numpy as np

from benchmarks._starts import compact_disc
from repro.algorithms.separation import ColoredConfiguration, SeparationMarkovChain
from repro.algorithms.shortcut_bridging import (
    BridgingMarkovChain,
    initial_bridge_configuration,
    v_shaped_terrain,
)
from repro.core.compression import CompressionSimulation, TracePoint
from repro.errors import ServerBusy
from repro.io.trace_store import TraceStoreSink, read_trace
from repro.lattice.geometry import max_perimeter, min_perimeter
from repro.lattice.shapes import line
from repro.runtime.checkpoint import EnsembleCheckpoint
from repro.runtime.jobs import (
    BRIDGING_JOB_KIND,
    SEPARATION_JOB_KIND,
    bridging_gamma_sweep_jobs,
    execute_job,
    lambda_sweep_jobs,
    separation_replica_jobs,
)
from repro.service.client import ServiceClient
from tracing import NullTracer

KERNELS = ("compression", "separation", "bridging")
LAM = 4.0
GAMMA = 2.0
ALPHA = 2.0


@dataclass
class Context:
    """What one pass of a workload needs besides its inputs."""

    seed: int
    seconds: float
    tiny: bool
    tracer: Any
    work: Path
    setups: int


@dataclass
class Outcome:
    values: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)
    attempted: int = 0
    problems: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def expect(self, operation: str, ok: bool, message: str) -> None:
        if not ok:
            self.problems.setdefault(operation, []).append(message)

    def put(self, name: str, value: float, samples: Optional[List[float]] = None) -> None:
        self.values[name] = value
        self.samples[name] = list(samples) if samples is not None else [value]


@contextlib.contextmanager
def timed(tracer, name: str, request: Optional[str], into: Dict[str, float]):
    """Time a library call, as a span when tracing; adds to ``into[name]``."""
    start = time.perf_counter()
    with tracer.span(name, request):
        yield
    into[name] = into.get(name, 0.0) + time.perf_counter() - start


def p95(samples: List[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=20, method="inclusive")[18]


def sustained(rates: List[float]) -> float:
    """The rate the campaign's jobs sustain: the 90th percentile of their rates.

    Jobs of one kind do about the same work, so their rates differ mainly
    in how much other load shared the host while they ran, their trace
    stores' fsyncs included.  Across runs on a shared 2-core virtual
    machine, the median job rate spread by 0.2 to 0.3 (interquartile range
    over median) and the 90th percentile by 0.07 to 0.09.  With at least
    100 jobs of a kind, ten or more lie beyond it.  Slow jobs still count
    in ``time_to_result_s``, ``jobs_per_s`` and the latency percentiles.
    """
    if len(rates) < 2:
        return rates[0]
    return statistics.quantiles(rates, n=10, method="inclusive")[8]


def tree_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in path.rglob("*") if entry.is_file())


def spawn(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def put_blocks(outcome: Outcome, runs: List["ChainRun"]) -> None:
    """Rates and latencies over run blocks.

    A block is one chain's iterations between two recorded trace points,
    with the recording.  A kernel's ``chain_it_per_s`` is the iterations
    of its blocks over the time they took, and ``chain_it_per_s`` is the
    same over every block.  Blocks of one chain differ by the chain's
    state (the accept-heavy transient from a line start costs more per
    iteration than the end of it), so a quantile of block rates would
    depend on how the seed's trajectories split between states; the
    total does not.  The job latencies are the median and 95th percentile
    of the block times.
    """

    def rate(blocks):
        return sum(i for i, _ in blocks) / sum(t for _, t in blocks)

    everything = [block for r in runs for block in r.blocks]
    for kernel in KERNELS:
        mine = [block for r in runs if r.spec.kernel == kernel for block in r.blocks]
        outcome.put(f"chain_it_per_s.{kernel}", rate(mine), [i / t for i, t in mine])
    outcome.put("chain_it_per_s", rate(everything))
    latencies = [seconds * 1000.0 for _, seconds in everything]
    outcome.put("job_latency_p50_ms", statistics.median(latencies), latencies)
    outcome.put("job_latency_p95_ms", p95(latencies), latencies)


def put_engine_counters(outcome: Outcome, runs: List["ChainRun"]) -> None:
    iterations = sum(r.engine.iterations for r in runs)
    outcome.put("core.iterations", iterations)
    outcome.put("core.acceptance_ratio", sum(r.engine.accepted_moves for r in runs) / iterations)
    outcome.put("io.trace_bytes", sum(tree_bytes(r.store) for r in runs))


# ---------------------------------------------------------------------- #
# Chains: line_to_alpha and large_chains
# ---------------------------------------------------------------------- #
@dataclass
class ChainSpec:
    label: str
    kernel: str
    start: str  # "line", "disc" or "v"
    n: int
    seed: int
    engine: str
    colors: Optional[List[int]] = None  # per node, in sorted node order
    arm_length: int = 0
    budget: int = 0  # fixed iterations; 0 runs until alpha-compressed
    record_every: int = 1000


@dataclass
class ChainRun:
    """A chain of a plan: set up, then advanced one block at a time."""

    spec: ChainSpec
    setup_s: float
    chain: Any  # a CompressionSimulation, or the separation/bridging engine
    engine: Any
    sink: TraceStoreSink
    store: Path
    points: List[TracePoint]
    colored: Optional[ColoredConfiguration] = None
    terrain: Any = None
    blocks: List[tuple] = field(default_factory=list)  # (iterations, seconds)
    hit: Optional[int] = None
    done: bool = False


def build_chain(spec: ChainSpec, tracer, into: Dict[str, float], sink=None):
    """Build the start, warm its cached properties, construct the chain.

    The cached properties are read before construction so the lattice
    cost is attributed to ``lattice.*`` rather than hidden inside
    ``core.construct``.  Returns the engine (a ``CompressionSimulation``
    for the compression kernel, else the wrapped engine) plus the
    coloured start or terrain.
    """
    colored = terrain = None
    with timed(tracer, "lattice.start_build", spec.label, into):
        if spec.start == "line":
            start = line(spec.n)
        elif spec.start == "disc":
            start = compact_disc(spec.n)
        if spec.kernel == "bridging":
            terrain = v_shaped_terrain(spec.arm_length)
            if spec.start == "v":
                start = initial_bridge_configuration(terrain, spec.n)
        if spec.colors is not None:
            colored = ColoredConfiguration(
                dict(zip(sorted(start.nodes), spec.colors))
            )
    with timed(tracer, "lattice.is_connected", spec.label, into):
        start.is_connected
    with timed(tracer, "lattice.holes", spec.label, into):
        start.holes
    with timed(tracer, "lattice.edge_count", spec.label, into):
        start.edge_count
    with timed(tracer, "core.construct", spec.label, into):
        if spec.kernel == "compression":
            chain = CompressionSimulation(
                start, lam=LAM, seed=spec.seed, engine=spec.engine, trace_sink=sink
            )
        elif spec.kernel == "separation":
            chain = SeparationMarkovChain(
                colored, lam=LAM, gamma=GAMMA, seed=spec.seed, engine=spec.engine
            ).chain
        else:
            chain = BridgingMarkovChain(
                start, terrain, lam=LAM, gamma=GAMMA, seed=spec.seed, engine=spec.engine
            ).chain
    return chain, colored, terrain


def setup_seconds(into: Dict[str, float]) -> float:
    return sum(
        seconds for name, seconds in into.items()
        if name.startswith("lattice.") or name == "core.construct"
    )


#: Iteration cap for a chain run to alpha: far beyond any hitting time at
#: n <= 150, so reaching it means the chain is broken, not slow.
MAX_ITERATIONS_TO_ALPHA = 100_000_000


def start_chain(spec: ChainSpec, ctx: Context) -> ChainRun:
    """Set a chain up and open its trace store, with the first point in it."""
    into: Dict[str, float] = {}
    store = ctx.work / "traces" / spec.label
    sink = TraceStoreSink(store, meta={"n": spec.n, "lambda": LAM})
    chain, colored, terrain = build_chain(spec, ctx.tracer, into, sink)
    if spec.kernel == "compression":
        # The simulation records its first point when it is constructed.
        run = ChainRun(spec, setup_seconds(into), chain, chain.chain, sink, store,
                       chain.trace.points, colored, terrain)
    else:
        run = ChainRun(spec, setup_seconds(into), chain, chain, sink, store, [],
                       colored, terrain)
        record(run)
    return run


def record(run: ChainRun) -> int:
    """Record a separation or bridging engine's point, as
    ``CompressionSimulation`` does, and stream it into the store."""
    engine = run.engine
    perimeter = engine.perimeter()
    point = TracePoint(
        iteration=engine.iterations,
        perimeter=perimeter,
        edges=engine.edge_count,
        holes=engine.hole_count(),
        alpha=perimeter / min_perimeter(engine.n),
        beta=perimeter / max_perimeter(engine.n),
    )
    run.points.append(point)
    run.sink.append(point)
    return perimeter


def step(run: ChainRun, tracer) -> None:
    """Run one block of ``record_every`` iterations and record its point.

    A chain with a budget is done when the budget is spent; one without
    is done when it is alpha-compressed.  Compression runs to alpha
    through ``run_until_compressed``, one block per call.
    """
    spec, engine = run.spec, run.engine
    block = spec.record_every
    if spec.budget:
        block = min(block, spec.budget - engine.iterations)
    before = engine.iterations
    started = time.perf_counter()
    with tracer.span("core.run", spec.label):
        if spec.kernel != "compression":
            engine.run(block)
            perimeter = record(run)
            if not spec.budget and perimeter <= ALPHA * min_perimeter(spec.n):
                run.hit = engine.iterations
        elif spec.budget:
            run.chain.run(block, record_every=block)
        else:
            run.hit = run.chain.run_until_compressed(ALPHA, block, check_every=block)
    if engine.iterations > before:
        run.blocks.append((engine.iterations - before, time.perf_counter() - started))
    if spec.budget:
        run.done = engine.iterations >= spec.budget
    else:
        run.done = run.hit is not None or engine.iterations >= MAX_ITERATIONS_TO_ALPHA


def run_plan(specs: List[ChainSpec], ctx: Context, outcome: Outcome) -> List[ChainRun]:
    """Set every chain of a plan up, then advance them in turn, one block
    each, until every one is done and its trace store closed.

    Taking turns spreads every kernel's blocks over the whole run, so a
    burst of load from other tenants of the host slows all kernels alike
    rather than the few chains that happen to run during it.  A chain
    that raises fails its operation and leaves the plan.
    """
    runs: List[ChainRun] = []
    for spec in specs:
        try:
            runs.append(start_chain(spec, ctx))
        except Exception as exc:
            outcome.expect(spec.label, False, f"{type(exc).__name__}: {exc}")
    active = list(runs)
    while active:
        for run in list(active):
            try:
                step(run, ctx.tracer)
                if run.done:
                    run.sink.close()
            except Exception as exc:
                outcome.expect(run.spec.label, False, f"{type(exc).__name__}: {exc}")
                runs.remove(run)
                run.done = True
            if run.done:
                active.remove(run)
    return runs


def check_chain(run: ChainRun, outcome: Outcome) -> None:
    """Final state against a fresh configuration, and the store against memory."""
    spec, engine = run.spec, run.engine
    label = spec.label
    if not spec.budget:
        outcome.expect(label, run.hit is not None, "did not reach alpha-compression")
    configuration = engine.configuration
    outcome.expect(label, configuration.is_connected, "final configuration disconnected")
    outcome.expect(
        label, configuration.edge_count == engine.edge_count,
        f"edge counter {engine.edge_count} != recount {configuration.edge_count}",
    )
    outcome.expect(
        label, configuration.perimeter == engine.perimeter(),
        f"perimeter {engine.perimeter()} != recount {configuration.perimeter}",
    )
    if configuration.is_hole_free:
        outcome.expect(
            label, configuration.perimeter == 3 * spec.n - 3 - configuration.edge_count,
            "hole-free perimeter != 3n-3-e",
        )
    stored = read_trace(run.store).points
    outcome.expect(label, stored == run.points, "stored trace differs from the in-memory trace")
    if spec.kernel == "separation":
        before = sorted(run.colored.color_counts().items())
        after = sorted(ColoredConfiguration(engine.color_map()).color_counts().items())
        outcome.expect(label, before == after, f"colour counts {before} -> {after}")
    if spec.kernel == "bridging":
        outcome.expect(
            label, run.terrain.gap_occupancy(configuration) == engine.site_count,
            "gap occupancy counter differs from a recount",
        )


def repeat_setups(specs: List[ChainSpec], ctx: Context) -> List[float]:
    """Set every chain of the plan up ``ctx.setups - 1`` times and discard it.

    Returns each repetition's total setup time; the timed pass adds one
    more, so ``setup_s`` is a median over ``ctx.setups`` set-ups.
    """
    totals = []
    for _ in range(ctx.setups - 1):
        total = 0.0
        for spec in specs:
            into: Dict[str, float] = {}
            build_chain(spec, ctx.tracer, into)
            total += setup_seconds(into)
        gc.collect()
        totals.append(total)
    return totals


def chain_outcome(specs: List[ChainSpec], ctx: Context) -> tuple:
    """Run a chain plan: set-up repetitions, the timed pass, the checks."""
    outcome = Outcome(attempted=len(specs))
    setups = repeat_setups(specs, ctx)
    started = time.perf_counter()
    runs = run_plan(specs, ctx, outcome)
    time_to_result = time.perf_counter() - started
    ctx.tracer.restore()
    for run in runs:
        check_chain(run, outcome)
    if len(runs) < len(specs):
        return outcome, runs
    setups.append(sum(run.setup_s for run in runs))
    outcome.put("setup_s", statistics.median(setups), setups)
    outcome.put("time_to_result_s", time_to_result)
    outcome.put("jobs_per_s", len(runs) / time_to_result)
    put_blocks(outcome, runs)
    put_engine_counters(outcome, runs)
    return outcome, runs


# ---------------------------------------------------------------------- #
# line_to_alpha
# ---------------------------------------------------------------------- #
#: One cycle of the line_to_alpha plan: (kernel, n, seconds to alpha on a
#: 2-core Xeon).  Compression is the paper's headline experiment and gets
#: half the chains; one separation and one bridging chain per cycle put
#: the fast engine's other two run loops under the same accept-heavy
#: transient.  The sizes give every chain about the same time to alpha,
#: so a run holds many short chains and the seed-to-seed spread of their
#: hitting times averages out.  The seconds only size the plan to
#: ``--seconds``; the plan is a function of the seed and ``--seconds``.
LINE_CYCLE = (
    ("compression", 100, 1.5),
    ("separation", 70, 1.3),
    ("compression", 100, 1.5),
    ("bridging", 100, 1.4),
)


def line_plan(ctx: Context) -> List[ChainSpec]:
    rng = np.random.default_rng([ctx.seed, 1])
    specs: List[ChainSpec] = []
    nominal = 0.0
    while len(specs) < len(LINE_CYCLE) or (not ctx.tiny and nominal < ctx.seconds):
        kernel, n, seconds = LINE_CYCLE[len(specs) % len(LINE_CYCLE)]
        n = n // 5 if ctx.tiny else n
        nominal += seconds
        specs.append(
            ChainSpec(
                label=f"line-{len(specs)}-{kernel}-n{n}",
                kernel=kernel,
                start="line",
                n=n,
                seed=spawn(rng),
                engine="fast",
                colors=rng.integers(0, 2, size=n).tolist() if kernel == "separation" else None,
                arm_length=max(4, 3 * n // 5),
            )
        )
    return specs


def line_to_alpha(ctx: Context) -> Outcome:
    specs = line_plan(ctx)
    outcome, runs = chain_outcome(specs, ctx)
    if runs:
        # Iterations-to-alpha and the final edge count repeat exactly for
        # a seed: replay the first chain without a trace store.
        first = runs[0]
        simulation, _, _ = build_chain(first.spec, NullTracer(), {})
        hit = simulation.run_until_compressed(
            ALPHA, MAX_ITERATIONS_TO_ALPHA, check_every=first.spec.record_every
        )
        outcome.expect(
            first.spec.label,
            (hit, simulation.chain.edge_count) == (first.hit, first.engine.edge_count),
            f"replay reached alpha at {hit} with e={simulation.chain.edge_count}, "
            f"first run at {first.hit} with e={first.engine.edge_count}",
        )
    return outcome


# ---------------------------------------------------------------------- #
# large_chains
# ---------------------------------------------------------------------- #
LARGE_N = {"compression": 300_000, "separation": 10_000, "bridging": 4_000}
TINY_N = {"compression": 2_000, "separation": 500, "bridging": 200}
BRIDGING_ARM = {False: 600, True: 40}
#: Iterations per second of each vector chain on a 2-core Xeon, used only
#: to size the fixed iteration budgets: together the three chains run for
#: about half of ``--seconds``.  The other half goes to the set-ups (three
#: per untraced run, about 5.5 s each on that machine).
LARGE_NOMINAL_RATE = {"compression": 6.5e6, "separation": 1.6e6, "bridging": 1.6e6}
#: Trace points per large chain: 600 blocks in all, so that 30 block
#: times lie beyond the 95th percentile.
LARGE_RECORDS = 200


def large_plan(ctx: Context) -> List[ChainSpec]:
    rng = np.random.default_rng([ctx.seed, 2])
    specs = []
    for kernel in KERNELS:
        n = (TINY_N if ctx.tiny else LARGE_N)[kernel]
        budget = 20_000 if ctx.tiny else int(LARGE_NOMINAL_RATE[kernel] * ctx.seconds / 6)
        record_every = max(1, budget // LARGE_RECORDS)
        specs.append(
            ChainSpec(
                label=f"large-{kernel}-n{n}",
                kernel=kernel,
                start="v" if kernel == "bridging" else "disc",
                n=n,
                seed=spawn(rng),
                engine="vector",
                colors=rng.integers(0, 2, size=n).tolist() if kernel == "separation" else None,
                arm_length=BRIDGING_ARM[ctx.tiny],
                budget=record_every * LARGE_RECORDS,
                record_every=record_every,
            )
        )
    return specs


def large_chains(ctx: Context) -> Outcome:
    outcome, _ = chain_outcome(large_plan(ctx), ctx)
    return outcome


# ---------------------------------------------------------------------- #
# campaign_service
# ---------------------------------------------------------------------- #
#: Jobs per second of ``--seconds`` (at least 200, so that ten latencies
#: lie beyond the 95th percentile).
CAMPAIGN_JOBS_PER_S = 28
CAMPAIGN_ITERATIONS = 20_000


def campaign_jobs(ctx: Context, trace_root: Path) -> list:
    """A mixed campaign: half a lambda sweep, a quarter each of
    separation replicas and a bridging gamma sweep, interleaved.

    The lambda and gamma values are stratified: one uniform draw in each
    of equal slices of their ranges.  Every seed thus asks for the same
    mix of work, and only the draws, job seeds and order change.  Every
    job streams its trace into a store under ``trace_root``.
    """
    rng = np.random.default_rng([ctx.seed, 3])
    total = 12 if ctx.tiny else max(200, int(CAMPAIGN_JOBS_PER_S * ctx.seconds))
    sweep, rest = total // 2, total - total // 2
    separation, bridging = rest // 2, rest - rest // 2
    iterations = 2_000 if ctx.tiny else CAMPAIGN_ITERATIONS
    # Sizes are fixed so that every seed asks for the same work per job.
    sizes = (8, 10, 12) if ctx.tiny else (40, 50, 60)
    lambdas = stratified(rng, 2.0, 5.0, sweep)
    gammas = stratified(rng, 1.0, 4.0, bridging)
    jobs = (
        lambda_sweep_jobs(sizes[0], lambdas, iterations, seed=spawn(rng))
        + separation_replica_jobs(
            sizes[1], LAM, GAMMA, iterations, separation, seed=spawn(rng),
        )
        + bridging_gamma_sweep_jobs(
            sizes[2], LAM, gammas, iterations, arm_length=sizes[2] // 2, seed=spawn(rng)
        )
    )
    return [
        dataclasses.replace(jobs[i], trace_store=str(trace_root))
        for i in rng.permutation(len(jobs))
    ]


def stratified(rng: np.random.Generator, low: float, high: float, count: int) -> List[float]:
    """One uniform draw in each of ``count`` equal slices of [low, high)."""
    return (low + (high - low) * (np.arange(count) + rng.uniform(size=count)) / count).tolist()


def job_kernel(job) -> str:
    return {
        SEPARATION_JOB_KIND: "separation", BRIDGING_JOB_KIND: "bridging"
    }.get(job.kind, "compression")


class Campaign:
    """A closed loop of clients, each with one job in flight."""

    def __init__(self, jobs: list, tracer) -> None:
        self.queue = deque(jobs)
        self.lock = threading.Lock()
        self.tracer = tracer
        self.records: Dict[str, Dict[str, Any]] = {}
        self.errors: Dict[str, str] = {}
        self.refusals: Dict[str, int] = {}

    def next_job(self):
        with self.lock:
            return self.queue.popleft() if self.queue else None

    def client_loop(self, client: ServiceClient) -> None:
        tracer = self.tracer
        while True:
            job = self.next_job()
            if job is None:
                return
            job_id = job.job_id
            into: Dict[str, float] = {}
            started = time.perf_counter()
            try:
                while True:
                    try:
                        with timed(tracer, "service.submit", job_id, into):
                            client.submit(job)
                        break
                    except ServerBusy:
                        self.refusals[job_id] = self.refusals.get(job_id, 0) + 1
                        time.sleep(0.01)
                with timed(tracer, "service.wait", job_id, into):
                    state = client.wait([job_id], timeout=120.0)[job_id]
                with timed(tracer, "service.fetch", job_id, into):
                    result = client.result(job_id) if state == "completed" else None
            except Exception as exc:  # the job fails; the loop serves the next one
                self.errors[job_id] = f"{type(exc).__name__}: {exc}"
                continue
            finished = time.perf_counter()
            if result is None:
                self.errors[job_id] = f"job ended {state}"
                continue
            self.records[job_id] = dict(
                into, result=result, started=started, finished=finished,
                latency_s=finished - started,
            )


#: Seconds to wait for a service to listen, or to drain after SIGTERM.
SERVICE_TIMEOUT_S = 60.0
#: Worker processes of the service.  One, not ``nproc``: with two, each
#: admission batch forks a fresh process pool, and on a 2-core virtual
#: machine that made the campaign both slower (27 against 36 jobs/s) and
#: too unsteady to bound (IQR over median up to 0.27 across runs).
SERVICE_WORKERS = 1
#: Client connections, each with one job in flight.  One, not ``nproc``:
#: with two clients and one worker every job also queued behind the other
#: client's, and the median latency then spread up to 0.28 across runs.
CLIENTS = 1


def start_service(ctx: Context, directory: Path, into: Dict[str, float], spans=None):
    """Start ``python -m repro.service`` (through ``perfbench/serve.py``)
    on a fresh directory and connect ``CLIENTS`` clients to it."""
    port_file = directory / "port"
    options = ["--spans", str(spans)] if spans else []
    with timed(ctx.tracer, "service.start", None, into):
        directory.mkdir(parents=True)
        log = open(directory.parent / f"{directory.name}.log", "wb")
        process = subprocess.Popen(
            [sys.executable, "perfbench/serve.py", *options, "--",
             "--service-dir", str(directory), "--workers", str(SERVICE_WORKERS),
             "--port-file", str(port_file)],
            stdout=log, stderr=subprocess.STDOUT,
        )
        log.close()
        clients: List[ServiceClient] = []
        try:
            deadline = time.monotonic() + SERVICE_TIMEOUT_S
            while not port_file.exists():
                if process.poll() is not None or time.monotonic() > deadline:
                    raise RuntimeError(f"the service did not start; see {log.name}")
                time.sleep(0.002)
            host, port = port_file.read_text().strip().rsplit(":", 1)
            clients = [
                ServiceClient(host, int(port), client_id=f"bench-{i}")
                for i in range(CLIENTS)
            ]
            for client in clients:
                client.status()  # opens and negotiates the connection
        except BaseException:
            stop_service(process, clients)
            raise
    return process, clients


def stop_service(process, clients) -> None:
    """Close the clients, then SIGTERM the service and wait for it to drain."""
    for client in clients:
        client.close()
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=SERVICE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def campaign_service(ctx: Context) -> Outcome:
    trace_root = (ctx.work / "traces").resolve()
    jobs = campaign_jobs(ctx, trace_root)
    outcome = Outcome(attempted=len(jobs))
    setups = []
    for repetition in range(ctx.setups - 1):
        into: Dict[str, float] = {}
        stop_service(*start_service(ctx, ctx.work / f"service-setup-{repetition}", into))
        setups.append(into["service.start"])
    spans = ctx.work / "service-spans.json" if ctx.tracer.enabled else None
    into = {}
    started = time.perf_counter()
    process, clients = start_service(ctx, ctx.work / "service", into, spans)
    setups.append(into["service.start"])
    try:
        campaign = Campaign(jobs, ctx.tracer)
        threads = [
            threading.Thread(target=campaign.client_loop, args=(client,), name=f"client-{i}")
            for i, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150.0)
            if thread.is_alive():
                raise RuntimeError("campaign clients did not finish within 150 s")
    finally:
        stop_service(process, clients)
        ctx.tracer.restore()
    if spans:
        ctx.tracer.absorb(spans)
    records = campaign.records
    for job_id, error in campaign.errors.items():
        outcome.expect(job_id, False, error)
    for job_id, refusals in campaign.refusals.items():
        # A refused request counts as failed even when a retry got through.
        outcome.expect(job_id, False, f"refused {refusals} time(s) by ServerBusy")
    if len(records) < len(jobs):
        for job in jobs:
            outcome.expect(job.job_id, job.job_id in records, "no result fetched")
        return outcome
    first_submit = min(r["started"] for r in records.values())
    last_fetch = max(r["finished"] for r in records.values())
    latencies = [r["latency_s"] * 1000.0 for r in records.values()]
    results = [r["result"] for r in records.values()]
    outcome.put("setup_s", statistics.median(setups), setups)
    outcome.put("time_to_result_s", last_fetch - started)
    outcome.put("jobs_per_s", len(records) / (last_fetch - first_submit))
    outcome.put("job_latency_p50_ms", statistics.median(latencies), latencies)
    outcome.put("job_latency_p95_ms", p95(latencies), latencies)
    job_rates = [r.iterations / r.wall_seconds for r in results]
    outcome.put("chain_it_per_s", sustained(job_rates), job_rates)
    for kernel in KERNELS:
        mine = [r.iterations / r.wall_seconds for r in results if job_kernel(r.job) == kernel]
        outcome.put(f"chain_it_per_s.{kernel}", sustained(mine), mine)
    iterations = sum(r.iterations for r in results)
    outcome.put("core.iterations", iterations)
    outcome.put("core.acceptance_ratio", sum(r.accepted_moves for r in results) / iterations)
    outcome.put("io.trace_bytes", tree_bytes(trace_root))
    outcome.put("runtime.job_exec_s", sum(r.wall_seconds for r in results))
    outcome.put("runtime.checkpoint_bytes", tree_bytes(ctx.work / "service" / "checkpoint"))
    waits = [
        (r["latency_s"] - r["result"].wall_seconds - r["service.submit"] - r["service.fetch"])
        * 1000.0
        for r in records.values()
    ]
    outcome.put("runtime.queue_wait_ms", statistics.median(waits), waits)
    outcome.put("service.busy_refusals", sum(campaign.refusals.values()))
    check_campaign(ctx, jobs, records, outcome)
    return outcome


#: Jobs replayed in-process to check the service's rows.
REPLAYS = 24


def check_campaign(ctx: Context, jobs: list, records: dict, outcome: Outcome) -> None:
    """Every stored trace agrees with its result; a seeded sample of the
    jobs, replayed in-process, gives the same rows and traces."""
    for job in jobs:
        result = records[job.job_id]["result"]
        final = read_trace(result.trace_store_path).final()
        outcome.expect(job.job_id, final.iteration == result.iterations,
                       "stored trace ends before the result's iteration count")
        if final.holes == 0:
            outcome.expect(job.job_id, final.perimeter == 3 * result.trace.n - 3 - final.edges,
                           "hole-free perimeter != 3n-3-e")
    rng = np.random.default_rng([ctx.seed, 4])
    sample = rng.choice(len(jobs), size=min(REPLAYS, len(jobs)), replace=False)
    for index in sorted(sample.tolist()):
        job = jobs[index]
        served = records[job.job_id]["result"]
        replay = execute_job(dataclasses.replace(job, trace_store=None))
        served_row = {k: v for k, v in served.row().items() if k != "wall_seconds"}
        replay_row = {k: v for k, v in replay.row().items() if k != "wall_seconds"}
        outcome.expect(job.job_id, served_row == replay_row,
                       "service row differs from an in-process replay")
        outcome.expect(job.job_id,
                       read_trace(served.trace_store_path).points == replay.trace.points,
                       "stored trace differs from an in-process replay")


WORKLOADS = {
    "line_to_alpha": line_to_alpha,
    "large_chains": large_chains,
    "campaign_service": campaign_service,
}
#: Set-ups per untraced run, for the median ``setup_s``: a large_chains
#: set-up takes seconds, the others milliseconds.
SETUPS = {"line_to_alpha": 25, "large_chains": 3, "campaign_service": 5}


def install_wrappers(tracer) -> None:
    """Time the layers the workloads reach only through other layers."""
    from repro.io.trace_store import TraceStoreWriter
    from repro.rng import BatchedMoveDraws

    tracer.wrap(BatchedMoveDraws, "refill", "rng.refill")
    tracer.wrap(TraceStoreWriter, "append", "io.trace_append")
    tracer.wrap(TraceStoreWriter, "flush", "io.trace_flush")
    tracer.wrap(TraceStoreWriter, "close", "io.trace_flush")
    tracer.wrap(
        EnsembleCheckpoint, "store", "runtime.checkpoint_store",
        request=lambda checkpoint, result: result.job.job_id,
    )
