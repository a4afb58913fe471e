"""The paper's case study in one command: Tables 1-3, ablations A1-A4, Fig. 4,
and the serving system's own Section 7 claims (Adapt, Fleet).

    PYTHONPATH=src python benchmarks/paper/run.py [--seed N] [T1 T2 T3 A1 A2 A3 A4 Fig4 Adapt Fleet]

Prepares one IMDB-like SingleDBStudy at the scale of DESIGN.md §9 and
runs the named sections (default: all, in this order). Each prints its
table; the last stdout line is one JSON object: the seed, seconds per
section, every row's numbers, each claim as ``{"claim", "holds"}``, and
the ``failed`` sections. A paper ordering claim that does not hold is a
result, not a failure; the claims in ``GATED`` (Table 1's headline and
every Adapt / Fleet property) fail the run. Exit status 1 means a
section's assertion failed (an impossible table, or a broken
precondition) or a gated claim did not hold. ``--seed`` sets
``StudyConfig.seed`` and ``run_table3(seed=)`` (the Table 3 workloads
and both arms' training), and offsets the training seeds of Adapt and
Fleet (their initial ``JointTrainer.train`` and ``RoundConfig.seed``);
their databases and workloads are fixed, and every number but the
timings is deterministic per seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import asdict, replace

import numpy as np

from repro.core import EncoderBudget, JoinTree, JointTrainer, MLAConfig, MTMLFQO, ModelConfig, joeu
from repro.core import decoding_embeddings, join_tree_from_order, transfer, tree_from_embeddings
from repro.core.serializer import query_signature
from repro.datagen import generate_database, generate_databases, imdb_like
from repro.engine import ExecutionLimitError
from repro.engine.timing import Stopwatch
from repro.errors import DisconnectedQueryError
from repro.eval import SingleDBStudy, StudyConfig, format_table1, format_table2, format_table3
from repro.eval import join_order_execution_time, run_table3, worst_legal_order
from repro.federation import FleetCoordinator, TenantNode
from repro.optimizer import HistogramEstimator, TrueCardinalityOracle, optimal_plan
from repro.serve import AdaptationConfig, AdaptationWorker, ExperienceBuffer, FeedbackCollector, FeedbackConfig
from repro.serve import OptimizerService, RoundConfig, ServeConfig
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator, traffic_stream

MODEL = ModelConfig(d_model=48, num_heads=4, encoder_layers=1, shared_layers=2, decoder_layers=2)
STUDY = StudyConfig(
    num_queries=260, min_tables=3, max_tables=6, model=MODEL, encoder=EncoderBudget(15, 6),
    joint_epochs=25, treelstm_epochs=12, filter_probability=0.7, like_probability=0.6, max_filters_per_table=1,
)
TABLE3_DATABASES = dict(base_seed=100, row_range=(200, 900), attr_range=(2, 4), fk_skew=1.3, fk_correlation=0.8)
TABLE3 = dict(
    num_queries=120, max_tables=4, model_config=MODEL,
    mla_config=MLAConfig(encoder=EncoderBudget(12, 6), joint_epochs=22, fine_tune_epochs=8),
)
# Adapt and Fleet each run one fixed operating point, verified to show
# their claims; there is no scale knob.
LIFECYCLE_MODEL = ModelConfig(d_model=32, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)
ADAPT_CLIENTS = 16
FLEET_TENANTS = 3
# A 0.4 validation split lets the high-traffic tenant's 24-epoch drift
# adaptation transfer to (at least) one low-traffic tenant while the
# tenants it would hurt reject it at their gates.
FLEET = dict(fine_tune_epochs=24, batch_size=8, min_new_experience=8, validation_fraction=0.4)
FLEET_ENCODER = EncoderBudget(4, 2)
# These claims fail the run when they do not hold. The paper's headline
# is gated here, not asserted in table1(), because tier-1's micro study
# is too small to show it; the Adapt / Fleet claims are the properties
# the serving system promises.
GATED = {
    "T1: MTMLF-QO mean card q-error < PostgreSQL",
    "Adapt: adaptive < frozen on drifted sim ms",
    "Adapt: the gate rejects the poisoned retrain",
    "Adapt: the poisoned retrain leaves the live model and its orders unchanged",
    "Fleet: federated < isolated on drifted sim ms",
    "Fleet: zero-shot onboarded < scratch on sim ms",
    "Fleet: no gate accepts the poisoned round",
    "Fleet: the poisoned round leaves live models, orders and global state unchanged",
}


def build_study(seed: int) -> SingleDBStudy:
    study = SingleDBStudy(imdb_like(seed=0, scale=0.5, fk_skew=1.3, fk_correlation=0.8), replace(STUDY, seed=seed))
    study.prepare()
    return study


def claim(text: str, holds) -> dict:
    return {"claim": text, "holds": bool(holds)}


def labeled(items) -> list:
    """The items with an optimal-order label (the ablations' ground truth)."""
    items = [item for item in items if item.optimal_order is not None]
    assert items, "no queries with optimal-order labels"
    return items


def jo_only_model(study: SingleDBStudy) -> MTMLFQO:
    """A fresh MTMLF-QO that trains on the join-order task alone."""
    model = MTMLFQO(replace(study.config.model, w_card=0.0, w_cost=0.0, w_jo=1.0))
    model.attach_featurizer(study.db.name, study.train_featurizer())
    return model


def order_quality(study: SingleDBStudy, model: MTMLFQO, items: list, **decode) -> dict:
    """Mean JOEU and exact-optimal share of ``model``'s orders against the
    optimal labels, their total simulated time, and decode ms per query."""
    watch = Stopwatch()
    orders = model.predict_join_orders(study.db.name, items, **decode)
    ms_per_query = watch.elapsed_ms / len(items)
    estimator = HistogramEstimator(study.db)
    pairs = list(zip(items, orders))
    quality = {
        "mean_joeu": float(np.mean([joeu(order, item.optimal_order) for item, order in pairs])),
        "optimal": sum(order == item.optimal_order for item, order in pairs) / len(items),
        "sim_ms": sum(join_order_execution_time(study.db, item, order, estimator) for item, order in pairs),
        "ms_per_query": ms_per_query,
    }
    assert 0.0 <= quality["mean_joeu"] <= 1.0 and 0.0 <= quality["optimal"] <= 1.0 and quality["sim_ms"] > 0.0
    return quality


def print_quality(title: str, rows: list[dict]) -> None:
    print(f"{title}\n{'-' * 78}\n{'':<28}{'mean JOEU':>12}{'optimal %':>12}{'sim ms':>14}{'ms/query':>12}")
    for row in rows:
        print(f"{row['name']:<28}{row['mean_joeu']:>12.3f}{100 * row['optimal']:>11.1f}%"
              f"{row['sim_ms']:>14.1f}{row['ms_per_query']:>12.2f}")


# Sections: each prints its table, asserts what must hold for the numbers
# to mean anything, and returns (rows, claims).


def table1(study: SingleDBStudy):
    """Card/cost q-errors of PostgreSQL, Tree-LSTM, MTMLF-QO and the single-task ablations."""
    rows = study.table1(with_ablations=True)
    print(format_table1(rows, title="Table 1 (reproduced): Q-errors on the JOB-like workload"))
    by_name = {row.method: row for row in rows}
    assert set(by_name) == {"PostgreSQL", "Tree-LSTM", "MTMLF-QO", "MTMLF-CardEst", "MTMLF-CostEst"}
    for stats in (stats for row in rows for stats in (row.card, row.cost) if stats is not None):
        assert stats.median >= 1.0 and stats.max >= stats.median and stats.mean >= 1.0
    claims = []
    for kind, single in (("card", "MTMLF-CardEst"), ("cost", "MTMLF-CostEst")):
        mean = {name: getattr(row, kind).mean for name, row in by_name.items() if getattr(row, kind)}
        for rival in ("PostgreSQL", "Tree-LSTM"):
            claims.append(claim(f"T1: MTMLF-QO mean {kind} q-error < {rival}", mean["MTMLF-QO"] < mean[rival]))
        claims.append(claim(f"T1: MTMLF-QO mean {kind} q-error <= {single}", mean["MTMLF-QO"] <= mean[single]))
    return rows, claims


def table2(study: SingleDBStudy):
    """Simulated time of the held-out workload under each join-order source."""
    rows = study.table2(with_ablation=True)
    print(format_table2(rows, title="Table 2 (reproduced): execution time with different join orders"))
    ms = {row.method: row.total_time_ms for row in rows}
    assert set(ms) == {"PostgreSQL", "Optimal", "MTMLF-QO", "MTMLF-JoinSel"}
    # Optimal orders cannot be meaningfully slower than the classical
    # planner's (tolerance covers op-choice differences at eval time).
    assert ms["Optimal"] <= ms["PostgreSQL"] * 1.02
    # All learned orders are legal and executable, hence produced a time.
    assert all(value > 0 for value in ms.values())
    assert rows[2].method == "MTMLF-QO" and rows[2].optimal_fraction is not None
    return rows, [
        claim("T2: Optimal < MTMLF-QO", ms["Optimal"] < ms["MTMLF-QO"]),
        claim("T2: MTMLF-QO < MTMLF-JoinSel", ms["MTMLF-QO"] < ms["MTMLF-JoinSel"]),
        claim("T2: MTMLF-JoinSel <= PostgreSQL", ms["MTMLF-JoinSel"] <= ms["PostgreSQL"]),
        claim("T2: MTMLF-QO < PostgreSQL", ms["MTMLF-QO"] < ms["PostgreSQL"]),
    ]


def table3(databases: list, **scale):
    """Time on the last, unseen database: MLA transfer vs from scratch; ``scale`` goes to run_table3."""
    rows = run_table3(databases, **scale)
    print(format_table3(rows, title="Table 3 (reproduced): execution time on the unseen DB"))
    ms = {row.method: row.total_time_ms for row in rows}
    assert set(ms) == {"PostgreSQL", "Optimal", "MTMLF-QO (MLA)", "MTMLF-QO (single)"}
    assert all(value > 0 for value in ms.values())
    learned = ("MTMLF-QO (MLA)", "MTMLF-QO (single)")
    return rows, [claim(f"T3: {name} < PostgreSQL", ms[name] < ms["PostgreSQL"]) for name in learned]


def a1_bushy(study: SingleDBStudy):
    """Optimal left-deep vs optimal bushy plan cost (exact DP over true cardinalities)."""
    items = labeled(study.test)[:15]
    ratios = []
    for item in items:
        oracle = TrueCardinalityOracle(study.db, max_intermediate_rows=5_000_000)
        try:
            left_deep = optimal_plan(item.query, study.db, left_deep_only=True, oracle=oracle)
            executed = oracle.executions
            bushy = optimal_plan(item.query, study.db, left_deep_only=False, oracle=oracle)
        except (ExecutionLimitError, DisconnectedQueryError):
            continue
        # Both DPs ask about the same connected subsets: the second
        # finds every intermediate on the oracle's view of the query.
        assert oracle.executions == executed
        ratios.append(left_deep.cost / max(bushy.cost, 1e-12))
    assert ratios
    ratios = np.asarray(ratios)
    row = {
        "evaluated": len(ratios), "of": len(items), "median": float(np.median(ratios)),
        "mean": float(ratios.mean()), "max": float(ratios.max()), "bushy_better": int((ratios > 1.0 + 1e-9).sum()),
    }
    print(f"Ablation A1: optimal left-deep vs optimal bushy plan cost\n{'-' * 58}")
    print(f"queries evaluated: {row['evaluated']}/{row['of']}")
    print(f"left-deep/bushy cost ratio: median {row['median']:.3f} mean {row['mean']:.3f} max {row['max']:.3f}")
    print(f"bushy strictly better on {row['bushy_better']}/{row['evaluated']} queries")
    # Bushy space contains left-deep: it can never cost more.
    assert (ratios >= 1.0 - 1e-9).all()
    return [row], []


def a2_sequence_loss(study: SingleDBStudy):
    """Trans_JO trained token-level (L.iii), then refined with the sequence-level criterion (Eq. 3)."""
    test = labeled(study.test)
    model = jo_only_model(study)
    trainer = JointTrainer(model)
    examples = [(study.db.name, item) for item in labeled(study.train)[:80]]
    trainer.train(examples, epochs=15, batch_size=16, seed=0)
    rows = [{"name": "token-level (L.iii)", **order_quality(study, model, test)}]
    trainer.train(examples[:40], epochs=2, batch_size=16, seed=0, jo_criterion="sequence")
    rows.append({"name": "+ sequence-level (Eq. 3)", **order_quality(study, model, test)})
    print_quality("Ablation A2: join-order loss criterion (held-out queries)", rows)
    return rows, [claim("A2: sequence-level mean JOEU > token-level", rows[1]["mean_joeu"] > rows[0]["mean_joeu"])]


def a3_beam_rerank(study: SingleDBStudy):
    """Beam width k with the CostEst rerank on and off (on by default at k > 1; a bare sweep conflates them)."""
    model = study.train_mtmlf("MTMLF-QO")
    test = labeled(study.test)
    quality = {
        (width, rerank): order_quality(study, model, test, beam_width=width, rerank_with_cost=rerank)
        for width in (1, 2, 4) for rerank in (True, False)
    }
    rows = [
        {"name": f"k={width} rerank {'on' if rerank else 'off'}", "k": width, "rerank": rerank, **values}
        for (width, rerank), values in quality.items()
    ]
    print_quality("Ablation A3: beam width k x cost rerank (legality-aware beam search)", rows)
    # A beam of one has no second candidate for the rerank to promote.
    assert all(quality[1, True][key] == quality[1, False][key] for key in ("mean_joeu", "optimal", "sim_ms"))
    return rows, [
        claim(f"A3: k=4 mean JOEU >= k=1, rerank {'on' if rerank else 'off'}",
              quality[4, rerank]["mean_joeu"] >= quality[1, rerank]["mean_joeu"])
        for rerank in (True, False)
    ]


def a4_two_phase(study: SingleDBStudy):
    """JoinSel on scarce optimal orders (25%), on abundant planner orders, and planner-then-optimal."""
    test, train = labeled(study.test), labeled(study.train)
    scarce = train[: max(len(train) // 4, 5)]

    def regime(name, *phases):
        model = jo_only_model(study)
        trainer = JointTrainer(model)
        for items, epochs, seed, criterion in phases:
            examples = [(study.db.name, item) for item in items]
            trainer.train(examples, epochs=epochs, batch_size=16, seed=seed, jo_criterion=criterion)
        return {"name": name, **order_quality(study, model, test)}

    rows = [
        regime("optimal-only (25% labels)", (scarce, 12, 0, "optimal")),
        regime("planner-only (weak)", (train, 12, 0, "planner")),
        regime("two-phase", (train, 8, 0, "planner"), (scarce, 6, 1, "optimal")),
    ]
    print_quality("Ablation A4: two-phase JoinSel training (held-out quality)", rows)
    scarce_only, planner, two_phase = (row["mean_joeu"] for row in rows)
    return rows, [
        claim("A4: two-phase mean JOEU >= planner-only", two_phase >= planner),
        claim("A4: planner-only mean JOEU >= optimal-only", planner >= scarce_only),
    ]


def fig4():
    """Figures 3-4: decoding embeddings of the paper's two plans, and a round trip of random plans."""
    tables = ["T1", "T2", "T3", "T4"]
    bushy_tree = JoinTree(left=join_tree_from_order(tables[:2]), right=join_tree_from_order(tables[2:]))
    plans = {"j(j(j(T1,T2),T3),T4)": join_tree_from_order(tables), "j(j(T1,T2),j(T3,T4))": bushy_tree}
    print("Figure 4 (reproduced): decoding embeddings")
    rows = []
    for name, plan in plans.items():
        embeddings = decoding_embeddings(plan)
        rows.append({"plan": name, **{table: embeddings[table].astype(int).tolist() for table in tables}})
        print(f"plan {name}:\n" + "\n".join(f"  {table}: {rows[-1][table]}" for table in tables))
    left_deep, bushy = rows
    assert left_deep["T3"] == [0, 0, 1, 1, 0, 0, 0, 0] and left_deep["T4"] == [0, 0, 0, 0, 1, 1, 1, 1]
    assert bushy["T3"] == [0, 0, 1, 0, 0, 0, 0, 0] and bushy["T4"] == [0, 0, 0, 1, 0, 0, 0, 0]

    rng = np.random.default_rng(0)

    def random_tree(leaves: list[str]) -> JoinTree:
        if len(leaves) == 1:
            return JoinTree(table=leaves[0])
        split = int(rng.integers(1, len(leaves)))
        return JoinTree(left=random_tree(leaves[:split]), right=random_tree(leaves[split:]))

    trees = [random_tree([f"T{i}" for i in range(int(rng.integers(2, 8)))]) for _ in range(64)]
    round_trips = sum(tree_from_embeddings(decoding_embeddings(tree)) == tree for tree in trees)
    rows.append({"plan": "random", "round_trips": round_trips, "of": len(trees)})
    print(f"codec round trip: {round_trips}/{len(trees)} random plans")
    assert round_trips == len(trees)
    return rows, []


# Section 7: the model keeps learning from the database it serves (Adapt),
# and a provider federates it across customers' databases (Fleet). Both
# are scored by the simulated latency (the Table 2 metric) of the orders
# the services actually returned, and both poison blocks are the
# verify-before-deploy gate.


def labeled_pool(db, keep: int, generate: int, **workload) -> list:
    """The first ``keep`` of ``generate`` workload queries that carry an optimal-order label."""
    labeler = QueryLabeler(db, max_intermediate_rows=2_000_000)
    items = labeler.label_many(WorkloadGenerator(db, WorkloadConfig(**workload)).generate(generate),
                               with_optimal_order=True)
    return [item for item in items if item.optimal_order is not None][:keep]


def serve(optimize, db, stream, clients: int = 1) -> list[float]:
    """Serve ``stream`` ((pool index, item) pairs) through ``optimize`` from
    ``clients`` threads; each response's simulated ms in stream order,
    executed once per (query, order)."""
    with ThreadPoolExecutor(clients) as pool:
        orders = list(pool.map(lambda pair: optimize(pair[1]), stream))
    memo: dict = {}
    for (index, item), order in zip(stream, orders):
        if (index, tuple(order)) not in memo:
            memo[index, tuple(order)] = join_order_execution_time(db, item, order)
    return [memo[index, tuple(order)] for (index, _), order in zip(stream, orders)]


def drift_arm(db, model: MTMLFQO, pre_pool: list, post_pool: list, adaptive: bool, seed: int) -> dict:
    """Pre-drift then drifted traffic from ADAPT_CLIENTS clients; the
    adaptive arm executes served orders into experience and a background
    AdaptationWorker retrains, gates and hot-swaps while traffic flows."""
    config = ServeConfig(max_batch_size=ADAPT_CLIENTS, max_wait_ms=2.0)
    with OptimizerService(model, db.name, config) as service, ExitStack() as loop:
        if adaptive:
            # A rolling window sized to the drifted pool, so pre-drift
            # experience ages out; the trigger equals the distinct
            # traffic, so exactly one cycle fires, after every query has
            # been executed into experience.
            feedback = FeedbackConfig(buffer_capacity=len(post_pool), max_intermediate_rows=2_000_000)
            collector = loop.enter_context(FeedbackCollector(db, feedback))
            service.attach_feedback(collector)
            worker = loop.enter_context(AdaptationWorker(service, db, collector.buffer, AdaptationConfig(
                min_new_experience=len(pre_pool) + len(post_pool), fine_tune_epochs=16, batch_size=8,
                poll_interval_s=0.05, seed=seed)))
        pre = serve(service.optimize, db, traffic_stream(pre_pool, 2, seed=3), ADAPT_CLIENTS)
        drifted = serve(service.optimize, db, traffic_stream(post_pool, 2, seed=4), ADAPT_CLIENTS)
        if adaptive:
            collector.drain(timeout=120)
            watch = Stopwatch()
            while worker.counters()["swaps_accepted"] < 1 and watch.elapsed_s < 180:
                time.sleep(0.05)
        # The drifted traffic continues, on the adapted weights if any.
        drifted += serve(service.optimize, db, traffic_stream(post_pool, 4, seed=5), ADAPT_CLIENTS)
        report = service.report()
    return {"arm": "adaptive" if adaptive else "frozen", "pre_ms": sum(pre), "pre_responses": len(pre),
            "drifted_ms": sum(drifted), "drifted_responses": len(drifted), "swaps_accepted": report.swaps_accepted}


def adapt_poison(db, featurizer, post_pool: list, seed: int) -> dict:
    """One synchronous retrain of a well-trained live model on worst-order labels."""
    model = MTMLFQO(LIFECYCLE_MODEL)
    model.attach_featurizer(db.name, featurizer)
    JointTrainer(model).train([(db.name, item) for item in post_pool], epochs=8, batch_size=8, seed=seed)
    with OptimizerService(model, db.name) as service:
        live = service.session.model
        before = [service.optimize(item) for item in post_pool]
        buffer = ExperienceBuffer(64)
        for item in post_pool:
            buffer.add(query_signature(item.query), replace(item, optimal_order=worst_legal_order(db, item)))
        worker = AdaptationWorker(service, db, buffer, AdaptationConfig(
            min_new_experience=8, fine_tune_epochs=16, batch_size=8, seed=seed))
        swapped = worker.run_once()
        unchanged = service.session.model is live
        after = [service.optimize(item) for item in post_pool]
        worker.stop()
    return {"arm": "poisoned retrain", "swapped": swapped, "swaps_rejected": worker.counters()["swaps_rejected"],
            "model_unchanged": unchanged, "orders_unchanged": after == before, "gate": worker.last_gate}


def online_adaptation(seed: int):
    """Frozen vs adapt-while-serving under workload drift, then a poisoned retrain vs the gate."""
    db = generate_database(seed=9, num_tables=6, row_range=(150, 600), attr_range=(2, 3),
                           fk_skew=1.3, fk_correlation=0.8)
    featurizer = EncoderBudget(4, 2).train(db, LIFECYCLE_MODEL)
    # The templates drift from 2-3 table queries to 4-6 table, LIKE-heavy ones.
    pre_pool = labeled_pool(db, 10, 24, min_tables=2, max_tables=3, seed=7)
    post_pool = labeled_pool(db, 16, 30, min_tables=4, max_tables=6, seed=21,
                             like_probability=0.6, filter_probability=0.8)
    assert len(pre_pool) >= 8 and len(post_pool) >= 12
    initial = MTMLFQO(LIFECYCLE_MODEL)
    initial.attach_featurizer(db.name, featurizer)
    JointTrainer(initial).train([(db.name, item) for item in pre_pool], epochs=4, batch_size=8, seed=seed)
    frozen, adaptive = (drift_arm(db, initial.clone_for_inference(), pre_pool, post_pool, arm, seed)
                        for arm in (False, True))
    poison = adapt_poison(db, featurizer, post_pool, seed)
    win = 1.0 - adaptive["drifted_ms"] / frozen["drifted_ms"]
    print(f"Adapt: serving under workload drift from {ADAPT_CLIENTS} clients\n{'-' * 78}")
    print(f"{'':<12}{'pre-drift ms':>14}{'drifted ms':>14}{'responses':>12}{'swaps':>8}")
    for row in (frozen, adaptive):
        print(f"{row['arm']:<12}{row['pre_ms']:>14.1f}{row['drifted_ms']:>14.1f}"
              f"{row['pre_responses']:>6} / {row['drifted_responses']:<3}{row['swaps_accepted']:>6}")
    gate = poison["gate"]
    print(f"adaptive win on the drifted phase: {100 * win:.1f}%")
    print(f"poisoned retrain: swaps_rejected {poison['swaps_rejected']}, live model unchanged "
          f"{poison['model_unchanged']}, orders unchanged {poison['orders_unchanged']}\n"
          f"  gate: candidate {gate.candidate_ms:.2f} ms vs live {gate.live_ms:.2f} ms "
          f"on {gate.validation_count} held-out queries")
    assert frozen["pre_ms"] == adaptive["pre_ms"], "identical weights served different pre-drift orders"
    assert adaptive["swaps_accepted"] >= 1, "the adaptive arm completed no adaptation cycle"
    return [frozen, adaptive, poison], [
        claim("Adapt: adaptive < frozen on drifted sim ms", adaptive["drifted_ms"] < frozen["drifted_ms"]),
        claim("Adapt: the gate rejects the poisoned retrain",
              not poison["swapped"] and poison["swaps_rejected"] >= 1),
        claim("Adapt: the poisoned retrain leaves the live model and its orders unchanged",
              poison["model_unchanged"] and poison["orders_unchanged"]),
    ]


def fleet_fixture() -> list[tuple]:
    """(db, featurizer, pre-drift pool, drifted pool) per tenant, plus one to onboard."""
    tenants = []
    for i, db in enumerate(generate_databases(FLEET_TENANTS + 1, base_seed=31, row_range=(150, 500),
                                              attr_range=(2, 3), fk_skew=1.3, fk_correlation=0.8)):
        featurizer = FLEET_ENCODER.train(db, LIFECYCLE_MODEL, seed=i)
        pre_pool = labeled_pool(db, 10, 18, min_tables=2, max_tables=3, seed=40 + i)
        drift_pool = labeled_pool(db, 10, 28, min_tables=4, max_tables=5, seed=60 + i,
                                  like_probability=0.6, filter_probability=0.8)
        assert len(pre_pool) >= 6 and len(drift_pool) == 10, f"{db.name}: {len(pre_pool)} / {len(drift_pool)}"
        tenants.append((db, featurizer, pre_pool, drift_pool))
    return tenants


def tenant_model(global_state: np.ndarray, db, featurizer) -> MTMLFQO:
    model = MTMLFQO(LIFECYCLE_MODEL)
    model.load_weights(global_state)
    return transfer(model, db, featurizer)


def fleet_arm(tenants: list, global_state: np.ndarray, seed: int, federated: bool) -> tuple:
    """Drift traffic, one adaptation round, then each tenant's scored
    drifted pool; returns (ms per tenant, the round or None).

    Tenant 0 serves its whole drifted pool; the others a sliver below the
    fresh-experience bar, so they cannot retrain alone. The arms differ in
    one thing: the federated one merges and pushes through the
    coordinator, the isolated one lets each tenant gate only its own
    fine-tune (same knobs). Experience is imported pre-labeled and then
    served as live traffic, which the collector dedups, so the round
    trains on exactly the labeled pool.
    """
    config = RoundConfig(seed=seed, **FLEET)
    with FleetCoordinator(LIFECYCLE_MODEL, config) as fleet:
        fleet.global_model.load_weights(global_state)
        nodes = [fleet.register(TenantNode(db, tenant_model(global_state, db, featurizer), config=config)).start()
                 for db, featurizer, _, _ in tenants[:FLEET_TENANTS]]
        try:
            for i, (node, tenant) in enumerate(zip(nodes, tenants)):
                sliver = tenant[3] if i == 0 else tenant[3][:5]
                node.inject_experience(sliver)
                serve(node.optimize, node.db, traffic_stream(sliver, seed=5 + i))
            for node in nodes:
                node.collector.drain(timeout=300)
            if federated:
                round_ = fleet.run_round()
            else:
                round_ = None
                for node in nodes:
                    update = node.local_update(node.live_model.weights)
                    if update is not None:
                        node.consider_global(update[0])
            scores = [sum(serve(node.optimize, node.db, traffic_stream(tenant[3], seed=100 + i)))
                      for i, (node, tenant) in enumerate(zip(nodes, tenants))]
        finally:
            for node in nodes:
                node.stop()
    return scores, round_


def onboarding(tenants: list, global_state: np.ndarray, seed: int) -> tuple[float, float]:
    """A cold tenant's day-one 2-4 table traffic: global (S)/(T) zero-shot
    vs random (S)/(T), over the same featurizer, so the difference is
    exactly the federated knowledge."""
    db, featurizer, _, _ = tenants[FLEET_TENANTS]
    pool = labeled_pool(db, 16, 30, min_tables=2, max_tables=4, seed=90)
    with FleetCoordinator(LIFECYCLE_MODEL, RoundConfig(seed=seed, **FLEET)) as fleet:
        fleet.global_model.load_weights(global_state)
        with fleet.onboard(db, featurizer) as onboarded:
            onboarded_ms = sum(serve(onboarded.optimize, db, traffic_stream(pool, seed=7)))
    orders = transfer(MTMLFQO(LIFECYCLE_MODEL), db, featurizer).predict_join_orders(db.name, pool)
    return onboarded_ms, sum(join_order_execution_time(db, item, order) for item, order in zip(pool, orders))


def fleet_poison(tenants: list, global_state: np.ndarray, seed: int) -> dict:
    """A poisoned high-traffic tenant's round against a well-adapted fleet.

    Each live model is the global (S)/(T) fine-tuned on its tenant's
    drifted pool, so every gate compares the poisoned merge with a model
    fit to its regime (against a near-random live model a near-random
    candidate can measure as an improvement).
    """
    config = RoundConfig(seed=seed, **FLEET)
    with FleetCoordinator(LIFECYCLE_MODEL, config) as fleet:
        fleet.global_model.load_weights(global_state)
        nodes = []
        for i, (db, featurizer, _, drift_pool) in enumerate(tenants[:FLEET_TENANTS]):
            # Tenant 0's gate validates partly on the adversary's fresh
            # signatures, so its live model fits a broader drifted set.
            extra = labeled_pool(db, 8, 16, min_tables=4, max_tables=5, seed=888, like_probability=0.6,
                                 filter_probability=0.8) if i == 0 else []
            model = tenant_model(global_state, db, featurizer)
            JointTrainer(model).train([(db.name, item) for item in drift_pool + extra], epochs=32, batch_size=8,
                                      seed=seed)
            nodes.append(fleet.register(TenantNode(db, model, config=config)).start())
        try:
            # Buffered experience is what each gate validates the merge on.
            for i, (node, tenant) in enumerate(zip(nodes, tenants)):
                node.inject_experience(tenant[3])
                serve(node.optimize, node.db, traffic_stream(tenant[3], seed=5 + i))
            for node in nodes:
                node.collector.drain(timeout=300)
            # Tenant 0 is poisoned and fine-tuned hot; the raised bar keeps
            # the healthy tenants' unharvested buffers out of the round.
            config.learning_rate, config.fine_tune_epochs = 0.2, 20
            config.min_new_experience = max(config.min_new_experience, len(tenants[0][3]) + 2)
            poison_db = tenants[0][0]
            # 3-4 table queries without LIKE-heavy filters are cheap under
            # any order, so a competent live model and a scrambled
            # candidate separate cleanly at the gate. Every label is
            # corrupted: worst orders for JoinSel, reversed per-node card
            # and cost targets so the cost rerank cannot rescue the decoder.
            poisoned = [replace(item, optimal_order=worst_legal_order(poison_db, item),
                                node_cardinalities=item.node_cardinalities[::-1], node_costs=item.node_costs[::-1])
                        for item in labeled_pool(poison_db, config.min_new_experience + 6, 24,
                                                 min_tables=3, max_tables=4, seed=777)]
            assert nodes[0].inject_experience(poisoned) >= config.min_new_experience

            # Decoded on the live models directly: serving them would feed
            # the collectors and change who has fresh experience.
            def decoded():
                return [[node.live_model.predict_join_order(node.db.name, item) for item in tenant[3]]
                        for node, tenant in zip(nodes, tenants)]

            live_before = [node.live_model for node in nodes]
            orders_before = decoded()
            global_before = fleet.global_state()
            round_ = fleet.run_round()
            assert round_.participants, "the poisoned tenant did not take part in the round"
            global_after = fleet.global_state()
            return {
                "participants": [name for name, _ in round_.participants], "accepted": round_.accepted,
                "rejected": round_.rejected, "reverted": round_.reverted,
                "models_unchanged": all(node.live_model is live for node, live in zip(nodes, live_before)),
                "orders_unchanged": decoded() == orders_before,
                "global_reverted": np.array_equal(global_before, global_after),
                "gates": {node.name: node.last_gate for node in nodes},
            }
        finally:
            for node in nodes:
                node.stop()


def federated_fleet(seed: int):
    """Federated fleet vs isolated tenants, zero-shot onboarding vs scratch, and a poisoned round vs every gate."""
    tenants = fleet_fixture()
    # The provider's pre-training: (S)/(T) on the founding tenants' pooled
    # pre-drift workloads. Zero-shot transfer needs it converged: at 16
    # epochs it reaches the optimal-order baseline on an unseen database's
    # 2-4 table queries, at 4 it is no better than random initialization.
    pretrained = MTMLFQO(LIFECYCLE_MODEL)
    for db, featurizer, _, _ in tenants[:FLEET_TENANTS]:
        pretrained.attach_featurizer(db.name, featurizer)
    JointTrainer(pretrained).train([(db.name, item) for db, _, pre_pool, _ in tenants[:FLEET_TENANTS]
                                    for item in pre_pool], epochs=16, batch_size=8, seed=seed)
    global_state = pretrained.weights.copy()
    isolated, _ = fleet_arm(tenants, global_state, seed, federated=False)
    federated, round_ = fleet_arm(tenants, global_state, seed, federated=True)
    onboarded_ms, scratch_ms = onboarding(tenants, global_state, seed)
    poison = fleet_poison(tenants, global_state, seed)

    print(f"Fleet: {FLEET_TENANTS} tenants + 1 onboarded, drifted-phase simulated ms\n{'-' * 78}")
    print(f"{'tenant':<28}{'isolated ms':>14}{'federated ms':>14}")
    rows = []
    for i, (db, *_) in enumerate(tenants[:FLEET_TENANTS]):
        rows.append({"tenant": db.name, "isolated_ms": isolated[i], "federated_ms": federated[i]})
        print(f"{db.name + (' (high-traffic)' if i == 0 else ''):<28}{isolated[i]:>14.1f}{federated[i]:>14.1f}")
    total = {"tenant": "fleet total", "isolated_ms": sum(isolated), "federated_ms": sum(federated),
             "participants": [name for name, _ in round_.participants], "accepted": round_.accepted,
             "rejected": round_.rejected}
    print(f"{'fleet total':<28}{total['isolated_ms']:>14.1f}{total['federated_ms']:>14.1f}"
          f"   win {100 * (1.0 - total['federated_ms'] / total['isolated_ms']):.1f}%")
    print(f"round: participants {total['participants']} accepted {round_.accepted} rejected {round_.rejected}")
    print(f"onboarded (zero-shot) {onboarded_ms:.1f} ms vs scratch {scratch_ms:.1f} ms"
          f"   win {100 * (1.0 - onboarded_ms / scratch_ms):.1f}%")
    print(f"poisoned round: participants {poison['participants']} accepted {poison['accepted']} "
          f"rejected {poison['rejected']} lineage reverted {poison['reverted']}")
    for name, gate in poison["gates"].items():
        if gate is not None:
            print(f"  gate {name}: candidate {gate.candidate_ms:.2f} ms vs live {gate.live_ms:.2f} ms "
                  f"on {gate.validation_count} held-out queries")
    print(f"live models unchanged {poison['models_unchanged']}, orders unchanged {poison['orders_unchanged']}, "
          f"global state reverted {poison['global_reverted']}")
    rows += [total, {"tenant": "onboarded", "onboarded_ms": onboarded_ms, "scratch_ms": scratch_ms},
             {"tenant": "poisoned round", **poison}]
    return rows, [
        claim("Fleet: federated < isolated on drifted sim ms", total["federated_ms"] < total["isolated_ms"]),
        claim("Fleet: zero-shot onboarded < scratch on sim ms", onboarded_ms < scratch_ms),
        claim("Fleet: no gate accepts the poisoned round", not poison["accepted"] and poison["rejected"]),
        claim("Fleet: the poisoned round leaves live models, orders and global state unchanged",
              poison["models_unchanged"] and poison["orders_unchanged"] and poison["global_reverted"]),
    ]


ON_STUDY = {"T1": table1, "T2": table2, "A1": a1_bushy, "A2": a2_sequence_loss, "A3": a3_beam_rerank,
            "A4": a4_two_phase}
ON_SEED = {
    "T3": lambda seed: table3(generate_databases(4, **TABLE3_DATABASES), seed=seed, **TABLE3),
    "Fig4": lambda seed: fig4(),
    "Adapt": online_adaptation,
    "Fleet": federated_fleet,
}
SECTIONS = ("T1", "T2", "T3", "A1", "A2", "A3", "A4", "Fig4", "Adapt", "Fleet")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0,
                        help="StudyConfig.seed, run_table3(seed=) and the Adapt / Fleet training seeds")
    parser.add_argument("sections", nargs="*", metavar="SECTION", help=f"{' '.join(SECTIONS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.sections) - set(SECTIONS))
    if unknown:
        parser.error(f"unknown sections {unknown}; choose from {SECTIONS}")
    names = [name for name in SECTIONS if not args.sections or name in args.sections]

    result = {"seed": args.seed, "seconds": {}, "rows": {}, "claims": [], "failed": []}
    study = None
    if set(names) & set(ON_STUDY):
        watch = Stopwatch()
        study = build_study(args.seed)
        result["seconds"]["study"] = round(watch.elapsed_s, 2)
    for name in names:
        print()
        watch = Stopwatch()
        try:
            rows, claims = ON_STUDY[name](study) if name in ON_STUDY else ON_SEED[name](args.seed)
        except AssertionError:
            traceback.print_exc()
            result["failed"].append(name)
            continue
        finally:
            result["seconds"][name] = round(watch.elapsed_s, 2)
        result["rows"][name] = rows
        result["claims"] += claims
        if any(item["claim"] in GATED and not item["holds"] for item in claims):
            result["failed"].append(name)
    print()
    for item in result["claims"]:
        print(f"{'holds' if item['holds'] else 'does not hold':<15}{item['claim']}")
    print(json.dumps(result, default=asdict))
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
