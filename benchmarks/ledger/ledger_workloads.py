"""The ledger's four workloads: inputs, bring-up, timed loop, checks.

Each workload is measured from outside, through public entry points
only, in *rounds*: a short, fixed amount of work bracketed by two
host-speed readings (``ledger_clock``).  Every served order is kept and
checked after the clock has stopped; a failed check counts like a
failed request.
"""

from __future__ import annotations

import itertools
import shutil
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.core import is_legal_order
from repro.core.serializer import query_signature
from repro.eval import join_order_execution_time
from repro.obs import maybe_span
from repro.serve import (
    AdaptationConfig,
    AdaptationWorker,
    ExperienceBuffer,
    OptimizerService,
    ServeConfig,
)
from repro.workload import WorkloadConfig, WorkloadGenerator

from ledger_fixture import REPO_ROOT, Fixture, distinct_queries

__all__ = [
    "WORKLOADS",
    "ClosedLoop",
    "Round",
    "ServeWorkload",
    "Summary",
    "batched_orders",
    "plan_cost_ratio",
    "start_adaptation",
    "summarise",
]

CLIENTS = 2          # closed-loop callers; each waits for its answer before the next request
ZIPF_EXPONENT = 0.6  # tuned once so serve.cache_hit_rate lands in 0.60-0.85, then frozen
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"  # gitignored


@dataclass
class Round:
    """One bracketed slice of timed work."""

    wall_s: float
    factor: float           # host slowdown while it ran (ledger_clock)
    latencies_s: list       # raw per-operation latencies inside the round
    queries: int            # queries it processed


@dataclass
class Summary:
    throughput_qps: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_p99_ms: float
    samples: int
    queries: int
    ref_s: float


def summarise(rounds: "list[Round]") -> Summary:
    """Throughput and latency percentiles in reference time."""
    ref_s = sum(r.wall_s / r.factor for r in rounds)
    latencies = np.array([lat / r.factor for r in rounds for lat in r.latencies_s])
    queries = sum(r.queries for r in rounds)
    p50, p95, p99 = np.percentile(latencies, [50, 95, 99])
    return Summary(
        throughput_qps=queries / ref_s,
        latency_p50_ms=1e3 * float(p50),
        latency_p95_ms=1e3 * float(p95),
        latency_p99_ms=1e3 * float(p99),
        samples=len(latencies),
        queries=queries,
        ref_s=ref_s,
    )


def plan_cost_ratio(fixture: Fixture, orders: "list[list[str]]") -> "tuple[float, float]":
    """Simulated latency of ``orders`` over the fixed probe set, relative
    to the classical planner's own plans; also the reference ms one
    order execution took.  Simulated latency is deterministic."""
    served = 0.0
    with fixture.clock.section() as section:
        for item, order in zip(fixture.probe_items, orders):
            served += join_order_execution_time(fixture.db, item, order, fixture.estimator)
    baseline = sum(item.total_time_ms for item in fixture.probe_items)
    return served / baseline, 1e3 * section.ref_s / len(orders)


def batched_orders(session, items: list, size: int = 16) -> "list[list[str]]":
    """``predict_join_orders`` over ``items`` in batches of ``size``."""
    return [
        order
        for start in range(0, len(items), size)
        for order in session.predict_join_orders(items[start: start + size])
    ]


def order_problem(item, order) -> "str | None":
    """Why ``order`` is not a legal complete join order of ``item``."""
    tables = item.query.tables
    if order is None or sorted(order) != sorted(tables):
        return f"not a permutation of {tables}: {order}"
    positions = [tables.index(table) for table in order]
    if not is_legal_order(positions, item.query.adjacency_matrix()):
        return f"illegal (cross product): {order}"
    return None


# ----------------------------------------------------------------------
# Closed-loop load generator
# ----------------------------------------------------------------------
class ClosedLoop:
    """``CLIENTS`` persistent caller threads driving ``optimize`` in rounds.

    A round hands the callers a list of requests; each caller takes the
    next unserved one, waits for its answer, and takes another.  Between
    rounds the callers park on a barrier, which is when the main thread
    reads the host speed — nothing else runs then.
    """

    _BARRIER_TIMEOUT_S = 120.0

    def __init__(self, service: OptimizerService, clients: int = CLIENTS):
        self.service = service
        self._barrier = threading.Barrier(clients + 1)
        self._closing = False
        self._requests: list = []
        self._results: list = []
        self._cursor = itertools.count()
        self._threads = [
            threading.Thread(target=self._client, name=f"ledger-client-{i}", daemon=True)
            for i in range(clients)
        ]
        for thread in self._threads:
            thread.start()

    def _client(self) -> None:
        wait = self._barrier.wait
        while True:
            wait(self._BARRIER_TIMEOUT_S)
            if self._closing:
                return
            requests, results, cursor = self._requests, self._results, self._cursor
            optimize = self.service.optimize
            while True:
                index = next(cursor)  # atomic under the GIL
                if index >= len(requests):
                    break
                start = time.perf_counter()
                try:
                    order, error = optimize(requests[index]), None
                except Exception as exc:  # counted as a failed request
                    order, error = None, repr(exc)
                results[index] = (order, time.perf_counter() - start, error)
            wait(self._BARRIER_TIMEOUT_S)

    def round(self, requests: list) -> list:
        """Serve ``requests``; returns ``(order, latency_s, error)`` each."""
        self._requests = requests
        self._results = [None] * len(requests)
        self._cursor = itertools.count()
        self._barrier.wait(self._BARRIER_TIMEOUT_S)
        self._barrier.wait(self._BARRIER_TIMEOUT_S)
        return self._results

    def close(self) -> None:
        self._closing = True
        self._barrier.wait(self._BARRIER_TIMEOUT_S)
        for thread in self._threads:
            thread.join(self._BARRIER_TIMEOUT_S)


def start_adaptation(fixture: Fixture, experience: list, checkpoint_dir, telemetry=None):
    """A started default service on the fixture model, a pre-filled
    buffer and a default worker over them: ``(service, buffer, worker)``.

    Default knobs; only the checkpoint location is set, because the
    default (a tempfile dir) is outside the benchmark's checkout.
    """
    fixture.model.clear_cache()
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    service = OptimizerService(
        fixture.model, fixture.db.name, ServeConfig(), telemetry=telemetry
    ).start()
    buffer = ExperienceBuffer(fixture.scale.adapt_buffer)
    for item in experience:
        buffer.add(query_signature(item.query), item)
    worker = AdaptationWorker(
        service, fixture.db, buffer, AdaptationConfig(checkpoint_dir=str(checkpoint_dir))
    )
    return service, buffer, worker


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Common protocol; see :func:`ledger_run.run_workload` for the order
    the methods are called in."""

    name = ""
    batch_size = 1           # batch the staged replay decodes at

    def __init__(self, fixture: Fixture, seed: int):
        self.fixture = fixture
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.pool_costs = None   # QueryPool: what generating the inputs cost

    # -- protocol -------------------------------------------------------
    def prepare(self) -> None:
        raise NotImplementedError

    def bring_up(self, telemetry=None) -> None:
        raise NotImplementedError

    def tear_down(self) -> None:
        raise NotImplementedError

    def next_round(self) -> Round:
        """Do one round of the workload's timed work."""
        raise NotImplementedError

    def measure(self, seconds: float) -> "list[Round]":
        """Whole rounds until ``seconds`` have passed (at least one)."""
        rounds = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not rounds:
            rounds.append(self.next_round())
        return rounds

    def check(self) -> None:
        """Verify every output kept by the rounds (untimed)."""
        raise NotImplementedError

    def probe_orders(self) -> "list[list[str]]":
        """The live system's orders for the fixed quality-probe set."""
        raise NotImplementedError

    def replay_items(self) -> list:
        """The request stream, for the traced run's staged replay."""
        raise NotImplementedError

    # Which single call the staged replay's stages have to add up to:
    # one decode, or (adapt_cycle) one run_once().
    reconciles_cycle = False

    def experience(self) -> list:
        """Labeled experience for the traced run's adaptation replay."""
        return self.fixture.train_items[: self.fixture.scale.adapt_buffer]

    def describe(self) -> str:
        """One line about the run for the log (call before tear-down)."""
        return ""

    # -- helpers --------------------------------------------------------
    def fail(self, message: str) -> None:
        self.failures.append(message)

    def check_order(self, what: str, item, order) -> bool:
        problem = order_problem(item, order)
        if problem is not None:
            self.fail(f"{what}: {problem}")
        return problem is None

    def check_against_direct(self, what: str, items, orders) -> None:
        """A fixed 10% sample must equal a direct single-query decode."""
        model = self.fixture.model
        for index in range(0, len(items), 10):
            if orders[index] is None:
                continue
            direct = model.predict_join_order(self.fixture.db.name, items[index])
            if direct != orders[index]:
                self.fail(f"{what} {index}: served {orders[index]} != direct {direct}")


class ServeWorkload(Workload):
    """2 closed-loop callers on a started default-config service."""

    batch_size = CLIENTS

    @property
    def round_size(self) -> int:
        """Requests between two host-speed readings."""
        raise NotImplementedError

    def prepare(self) -> None:
        scale = self.fixture.scale
        self.pool_costs = self.fixture.query_pool(scale.serve_pool, 3, 6, 1000 + self.seed)
        self.set_pool(self.pool_costs.items)

    def set_pool(self, items: list) -> None:
        """Serve ``items`` (the traced run probes other workloads' streams
        through a service this way)."""
        self.pool = items
        self.schedule = self.build_schedule()
        self.position = 0
        self.service = None
        self.loop = None
        # pool index -> first order served for it; every later response
        # for the same query must be identical.
        self.served: dict[int, list] = {}

    def build_schedule(self) -> "list[int]":
        """Pool indices in request order; cycled by :meth:`measure`."""
        raise NotImplementedError

    def bring_up(self, telemetry=None) -> None:
        self.fixture.model.clear_cache()
        self.served.clear()
        self.service = OptimizerService(
            self.fixture.model, self.fixture.db.name, ServeConfig(), telemetry=telemetry
        ).start()
        self.loop = ClosedLoop(self.service)
        self.position = 0
        self._round(self.fixture.scale.serve_warmup)

    def tear_down(self) -> None:
        if self.loop is not None:
            self.loop.close()
            self.loop = None
        if self.service is not None:
            self.service.stop()

    def _round(self, size: int) -> Round:
        schedule = self.schedule
        indices = [
            schedule[(self.position + offset) % len(schedule)] for offset in range(size)
        ]
        self.position += size
        requests = [self.pool[index] for index in indices]
        with self.fixture.clock.section() as section:
            results = self.loop.round(requests)
        latencies = []
        for index, (order, latency, error) in zip(indices, results):
            self.attempted += 1
            if error is not None:
                self.fail(f"request for pool[{index}] raised {error}")
                continue
            latencies.append(latency)
            first = self.served.setdefault(index, order)
            if first != order:
                self.fail(f"pool[{index}] served {order} after {first}")
        return Round(section.wall_s, section.factor, latencies, len(latencies))

    def next_round(self) -> Round:
        return self._round(self.round_size)

    def check(self) -> None:
        indices = sorted(self.served)
        items = [self.pool[index] for index in indices]
        orders = [self.served[index] for index in indices]
        for index, item, order in zip(indices, items, orders):
            self.check_order(f"pool[{index}]", item, order)
        self.check_against_direct("pool sample", items, orders)

    def probe_orders(self) -> "list[list[str]]":
        results = self.loop.round(list(self.fixture.probe_items))
        for position, (order, _, error) in enumerate(results):
            if error is not None:
                self.fail(f"probe {position} raised {error}")
        return [order for order, _, _ in results]

    def replay_items(self) -> list:
        return [self.pool[index] for index in self.schedule]

    def describe(self) -> str:
        report = self.service.report()
        return (
            f"plan cache hit rate {report.cache_hit_rate:.3f}, {report.cache_entries} entries,"
            f" mean batch {report.mean_batch_size:.2f}, {len(self.served)} distinct queries served"
        )


class ServeUnique(ServeWorkload):
    """Every request misses: the pool is scanned cyclically and is larger
    than the plan cache, so LRU has evicted a key before it recurs — and
    with ~3 rerank probes per query it overruns the model's 4096-entry
    feature LRU the same way."""

    name = "serve_unique"

    @property
    def round_size(self) -> int:
        return self.fixture.scale.unique_round

    def build_schedule(self) -> "list[int]":
        return list(range(len(self.pool)))


class ServeZipf(ServeWorkload):
    """Same service and callers, requests drawn Zipf over the same pool."""

    name = "serve_zipf"

    @property
    def round_size(self) -> int:
        return self.fixture.scale.zipf_round

    def build_schedule(self) -> "list[int]":
        rng = np.random.default_rng(self.seed)
        weights = np.arange(1, len(self.pool) + 1, dtype=np.float64) ** -ZIPF_EXPONENT
        draws = rng.choice(
            len(self.pool), size=self.fixture.scale.zipf_stream, p=weights / weights.sum()
        )
        return [int(index) for index in draws]


class DecodeBatch(Workload):
    """One thread, no service: full 16-query micro-batches on warm caches."""

    name = "decode_batch"
    batch_size = 16

    def prepare(self) -> None:
        self.pool_costs = self.fixture.query_pool(
            self.fixture.scale.decode_pool, 6, 8, 2000 + self.seed
        )
        # Dealt round-robin by table count, so every batch holds the same
        # mix of 6-, 7- and 8-table queries: otherwise p95 is whichever
        # batch drew the most 8-table queries, a property of the seed.
        items = sorted(self.pool_costs.items, key=lambda item: item.query.num_tables)
        count = -(-len(items) // self.batch_size)
        self.batches = [items[index::count] for index in range(count)]
        self.session = None
        self.telemetry = None
        self.orders: dict[int, list] = {}
        self.next_batch = 0

    def bring_up(self, telemetry=None) -> None:
        # There is no service to hand the telemetry to: a traced run
        # records one span around each call from here instead.
        self.telemetry = telemetry
        model = self.fixture.model
        model.clear_cache()
        self.orders.clear()
        self.session = model.inference_session(self.fixture.db.name)
        for batch in self.batches:  # the untimed warm pass
            self.session.predict_join_orders(batch)
        self.next_batch = 0

    def tear_down(self) -> None:
        self.session = None

    def next_round(self) -> Round:
        index = self.next_batch % len(self.batches)
        self.next_batch += 1
        batch = self.batches[index]
        self.attempted += 1
        trace_id = self.telemetry.tracer.new_trace() if self.telemetry is not None else 0
        with self.fixture.clock.section() as section:
            try:
                with maybe_span(self.telemetry, trace_id, "decode_batch.call"):
                    orders, error = self.session.predict_join_orders(batch), None
            except Exception as exc:  # counted as a failed call
                orders, error = None, repr(exc)
        if error is not None:
            self.fail(f"batch {index} raised {error}")
            return Round(section.wall_s, section.factor, [], 0)
        first = self.orders.setdefault(index, orders)
        if first != orders:
            self.fail(f"batch {index} decoded differently on a later pass")
        return Round(section.wall_s, section.factor, [section.wall_s], len(batch))

    def check(self) -> None:
        items, orders = [], []
        for index in sorted(self.orders):
            items.extend(self.batches[index])
            orders.extend(self.orders[index])
        for position, (item, order) in enumerate(zip(items, orders)):
            self.check_order(f"query {position}", item, order)
        self.check_against_direct("query", items, orders)

    def probe_orders(self) -> "list[list[str]]":
        return batched_orders(self.session, self.fixture.probe_items, self.batch_size)

    def replay_items(self) -> list:
        return [item for batch in self.batches for item in batch]


class AdaptCycle(Workload):
    """One thread calling ``AdaptationWorker.run_once()`` on a started
    service; fresh labeled experience is added before every cycle."""

    name = "adapt_cycle"
    batch_size = 8           # the gate decodes the 8-query validation slice
    SWAP_PROBES = 8

    def prepare(self) -> None:
        fixture = self.fixture
        self.generator = WorkloadGenerator(
            fixture.db, WorkloadConfig(min_tables=3, max_tables=6, seed=3000 + self.seed)
        )
        self.seen: set = set()
        self.pool_costs = distinct_queries(
            fixture, self.generator, fixture.scale.adapt_buffer, True, self.seen
        )
        self.prefill = self.pool_costs.items
        self.checkpoint_dir = RESULTS_DIR / f"ledger_ckpt_{self.name}_{self.seed}"
        self.service = None
        self.worker = None
        self.buffer = None
        self.cycles = 0
        self.accepted = 0
        self.quality_orders = None

    def bring_up(self, telemetry=None) -> None:
        fixture = self.fixture
        self.service, self.buffer, self.worker = start_adaptation(
            fixture, self.prefill, self.checkpoint_dir, telemetry
        )
        self.cycles = self.accepted = 0
        self.quality_orders = None
        for item in fixture.probe_items[: self.SWAP_PROBES]:
            self.service.optimize(item)

    def tear_down(self) -> None:
        if self.worker is not None:
            self.worker.stop()
            self.worker = None
        if self.service is not None:
            self.service.stop()
        shutil.rmtree(self.checkpoint_dir, ignore_errors=True)

    def next_round(self) -> Round:
        fixture = self.fixture
        fresh = distinct_queries(
            fixture, self.generator, fixture.scale.adapt_fresh, True, self.seen
        )
        for item in fresh.items:
            self.buffer.add(query_signature(item.query), item)
        experience = len(self.buffer)
        self.attempted += 1
        self.cycles += 1
        with fixture.clock.section() as section:
            try:
                swapped, error = self.worker.run_once(), None
            except Exception as exc:  # counted as a failed cycle
                swapped, error = False, repr(exc)
        if error is not None:
            self.fail(f"cycle {self.cycles} raised {error}")
            return Round(section.wall_s, section.factor, [], 0)
        if swapped:
            self.accepted += 1
            self.check_swap()
        if self.cycles == fixture.scale.adapt_quality_cycle:
            self.quality_orders = self.live_orders(fixture.probe_items)
        return Round(section.wall_s, section.factor, [section.wall_s], experience)

    def live_orders(self, items) -> "list[list[str]]":
        return [self.service.optimize(item) for item in items]

    def check_swap(self) -> None:
        """After an accepted swap the service must answer as the new
        live model does when called directly."""
        probes = self.fixture.probe_items[: self.SWAP_PROBES]
        live = self.service.session.model
        direct = live.predict_join_orders(self.fixture.db.name, probes)
        for position, (item, order) in enumerate(zip(probes, self.live_orders(probes))):
            if self.check_order(f"swap probe {position}", item, order) and order != direct[position]:
                self.fail(f"cycle {self.cycles} probe {position}: {order} != {direct[position]}")

    def check(self) -> None:
        report = self.service.report()
        if report.retrains != self.cycles:
            self.fail(f"retrains {report.retrains} != cycles {self.cycles}")
        if report.swaps_accepted + report.swaps_rejected != self.cycles:
            self.fail(
                f"accepted {report.swaps_accepted} + rejected {report.swaps_rejected}"
                f" != cycles {self.cycles}"
            )
        if report.swaps_accepted != self.accepted:
            self.fail(f"swaps_accepted {report.swaps_accepted} != observed {self.accepted}")
        if report.adaptation_failures:
            self.fail(f"adaptation_failures {report.adaptation_failures}")
        for position, (item, order) in enumerate(
            zip(self.fixture.probe_items, self.quality_orders or [])
        ):
            self.check_order(f"held-out {position}", item, order)

    def probe_orders(self) -> "list[list[str]]":
        # The live model after a fixed cycle, so the value does not
        # depend on how many cycles the host fitted into the run.
        while self.quality_orders is None:
            self.next_round()
        return self.quality_orders

    def replay_items(self) -> list:
        return list(self.prefill)

    reconciles_cycle = True

    def experience(self) -> list:
        return self.prefill

    def describe(self) -> str:
        return f"{self.cycles} cycles, {self.accepted} swaps accepted"


WORKLOADS = {cls.name: cls for cls in (ServeUnique, ServeZipf, DecodeBatch, AdaptCycle)}
