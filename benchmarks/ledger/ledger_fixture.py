"""The ledger's shared fixture: database, trained model, query pools.

Every workload runs on the model the repo's other benches use, trained
just enough that beam search and the CostEst rerank see non-random
weights.  The training set and the quality-probe set come from fixed
generator seeds, so the model — and therefore ``plan_cost_ratio`` on
the serve and decode workloads — is the same in every run; ``--seed``
drives only the request pools, Zipf draws and experience streams.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import DatabaseFeaturizer, JointTrainer, ModelConfig, MTMLFQO
from repro.core.serializer import query_signature
from repro.datagen import generate_database
from repro.optimizer.selectivity import HistogramEstimator
from repro.workload import LabeledQuery, QueryLabeler, WorkloadConfig, WorkloadGenerator

from ledger_clock import NOMINAL_S, HostClock

__all__ = [
    "FULL", "TINY", "Fixture", "QueryPool", "Scale",
    "build_fixture", "distinct_queries", "environment",
]

REPO_ROOT = Path(__file__).resolve().parents[2]

MODEL_CONFIG = ModelConfig(
    d_model=48, num_heads=4, encoder_layers=1, shared_layers=2, decoder_layers=2
)
_TRAIN_SEED = 77
_PROBE_SEED = 78


@dataclass(frozen=True)
class Scale:
    """Sizes of everything the ledger builds.  ``FULL`` is what
    ``BENCHMARK.json`` runs; ``TINY`` exists for the tier-1 smoke test."""

    train_queries: int      # labeled (with optimal orders) for the 3-epoch pre-train
    train_epochs: int
    probe_queries: int      # fixed quality-probe set behind plan_cost_ratio
    serve_pool: int         # distinct 3-6-table queries; > plan cache so a cyclic scan never hits
    serve_warmup: int       # requests per bring-up
    unique_round: int       # requests between two host-speed readings (serve_unique)
    zipf_round: int         # same, serve_zipf (hits are ~100x cheaper than misses)
    zipf_stream: int        # pre-drawn Zipf ranks, cycled
    decode_pool: int        # distinct 6-8-table queries, decoded in batches of 16
    adapt_buffer: int       # ExperienceBuffer capacity, pre-filled
    adapt_fresh: int        # experiences added before each cycle
    adapt_quality_cycle: int  # plan_cost_ratio is read from the live model after this cycle
    bring_ups: int          # set-up repeats; setup_s takes their median
    replay_batches_small: int  # staged-replay batches at batch size <= 8
    replay_batches_large: int  # ... at batch size 16
    adapt_probe_cycles: int  # run_once() + staged cycle pairs in every traced run


FULL = Scale(
    train_queries=256, train_epochs=3, probe_queries=128,
    serve_pool=1536, serve_warmup=64, unique_round=16, zipf_round=64, zipf_stream=16384,
    decode_pool=256,
    adapt_buffer=32, adapt_fresh=8, adapt_quality_cycle=6,
    bring_ups=3, replay_batches_small=32, replay_batches_large=8, adapt_probe_cycles=3,
)

TINY = Scale(
    train_queries=16, train_epochs=1, probe_queries=8,
    serve_pool=24, serve_warmup=4, unique_round=4, zipf_round=8, zipf_stream=64,
    decode_pool=16,
    adapt_buffer=8, adapt_fresh=4, adapt_quality_cycle=1,
    bring_ups=2, replay_batches_small=2, replay_batches_large=1, adapt_probe_cycles=1,
)


def environment(seed: int, pinned_core: int = -1) -> dict:
    """The environment block every result file carries."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        cores = os.cpu_count() or 1
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a git repository
    return {
        "usable_cores": cores,
        "pinned_core": pinned_core,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {
            name: os.environ.get(name) for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
        },
        "host_clock_nominal_s": NOMINAL_S,
        "seed": seed,
        "git_commit": commit,
    }


@dataclass
class QueryPool:
    """Distinct labeled queries plus what generating them cost."""

    items: list[LabeledQuery]
    generate_ms_per_query: float
    label_ms_per_query: float


@dataclass
class Fixture:
    scale: Scale
    clock: HostClock
    db: object
    model: MTMLFQO
    labeler: QueryLabeler
    estimator: HistogramEstimator
    train_items: list[LabeledQuery]
    probe_items: list[LabeledQuery]
    # Reference seconds per set-up stage (see ledger_clock).
    stage_s: dict[str, float] = field(default_factory=dict)

    @property
    def databases(self) -> dict:
        return {self.db.name: self.db}

    def query_pool(
        self, count: int, min_tables: int, max_tables: int, seed: int,
        with_optimal_order: bool = False,
    ) -> QueryPool:
        """``count`` structurally distinct labeled queries from ``seed``."""
        generator = WorkloadGenerator(
            self.db, WorkloadConfig(min_tables=min_tables, max_tables=max_tables, seed=seed)
        )
        return distinct_queries(self, generator, count, with_optimal_order, set())


def distinct_queries(fixture, generator, count, with_optimal_order, seen: set) -> QueryPool:
    """Draw from ``generator`` until ``count`` labeled queries whose
    signatures are not in ``seen`` (updated in place) are found."""
    items: list[LabeledQuery] = []
    generate_s = label_s = 0.0
    attempts = 0
    with fixture.clock.section() as section:
        while len(items) < count:
            attempts += 1
            fixture.clock.tick()
            if attempts > 50 * count + 1000:
                raise RuntimeError(f"could not generate {count} distinct queries")
            t0 = time.perf_counter()
            query = generator.generate_query()
            t1 = time.perf_counter()
            generate_s += t1 - t0
            signature = query_signature(query)
            if signature in seen:
                continue
            seen.add(signature)
            item = fixture.labeler.label(query, with_optimal_order=with_optimal_order)
            label_s += time.perf_counter() - t1
            if item is None or (with_optimal_order and item.optimal_order is None):
                continue
            items.append(item)
    return QueryPool(
        items=items,
        generate_ms_per_query=1e3 * generate_s / section.factor / attempts,
        label_ms_per_query=1e3 * label_s / section.factor / max(len(items), 1),
    )


def build_fixture(scale: Scale, clock: HostClock) -> Fixture:
    """Database, (F) encoders, fixed train/probe sets, pre-trained model."""
    stage_s: dict[str, float] = {}
    with clock.section() as section:
        db = generate_database(seed=5, num_tables=8, row_range=(80, 300), attr_range=(2, 3))
    stage_s["datagen"] = section.ref_s
    with clock.section() as section:
        featurizer = DatabaseFeaturizer(db, MODEL_CONFIG)
        featurizer.train_encoders(queries_per_table=3, epochs=1)
    stage_s["train_encoders"] = section.ref_s
    model = MTMLFQO(MODEL_CONFIG)
    model.attach_featurizer(db.name, featurizer)
    fixture = Fixture(
        scale=scale, clock=clock, db=db, model=model, labeler=QueryLabeler(db),
        estimator=HistogramEstimator(db), train_items=[], probe_items=[], stage_s=stage_s,
    )
    with clock.section() as section:
        fixture.train_items = fixture.query_pool(
            scale.train_queries, 3, 6, _TRAIN_SEED, with_optimal_order=True
        ).items
        fixture.probe_items = fixture.query_pool(scale.probe_queries, 3, 6, _PROBE_SEED).items
    stage_s["fixed_sets"] = section.ref_s
    with clock.section() as section:
        JointTrainer(model).train(
            [(db.name, item) for item in fixture.train_items],
            epochs=scale.train_epochs, batch_size=16, seed=0,
        )
    stage_s["pretrain"] = section.ref_s
    return fixture
