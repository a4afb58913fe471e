"""The paper's case study in one command: Tables 1-3, ablations A1-A4, Fig. 4.

    PYTHONPATH=src python benchmarks/paper/run.py [--seed N] [T1 T2 T3 A1 A2 A3 A4 Fig4]

Prepares one IMDB-like SingleDBStudy at the scale of DESIGN.md §9 and
runs the named sections (default: all, in this order). Each prints its
table; the last stdout line is one JSON object: the seed, seconds per
section, every row's numbers, each paper ordering claim as
``{"claim", "holds"}``, and the ``failed`` sections. A claim that does
not hold is a result, not a failure, except Table 1's headline
(``GATED``). Exit status 1 means a section's assertion failed (an
impossible table) or that headline did not hold. ``--seed`` sets
``StudyConfig.seed`` and ``run_table3(seed=)``; the databases are fixed,
and every number but the timings is deterministic per seed.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from dataclasses import asdict, replace

import numpy as np

from repro.core import JoinTree, JointTrainer, MLAConfig, MTMLFQO, ModelConfig, joeu
from repro.core import decoding_embeddings, join_tree_from_order, tree_from_embeddings
from repro.datagen import generate_databases, imdb_like
from repro.engine import ExecutionLimitError
from repro.engine.timing import Stopwatch
from repro.errors import DisconnectedQueryError
from repro.eval import SingleDBStudy, StudyConfig, format_table1, format_table2, format_table3
from repro.eval import join_order_execution_time, run_table3
from repro.optimizer import HistogramEstimator, TrueCardinalityOracle, optimal_plan

MODEL = ModelConfig(d_model=48, num_heads=4, encoder_layers=1, shared_layers=2, decoder_layers=2)
STUDY = StudyConfig(
    num_queries=260, min_tables=3, max_tables=6, model=MODEL, encoder_queries_per_table=15, encoder_epochs=6,
    joint_epochs=25, treelstm_epochs=12, filter_probability=0.7, like_probability=0.6, max_filters_per_table=1,
)
TABLE3_DATABASES = dict(base_seed=100, row_range=(200, 900), attr_range=(2, 4), fk_skew=1.3, fk_correlation=0.8)
TABLE3 = dict(
    num_queries=120, max_tables=4, model_config=MODEL,
    mla_config=MLAConfig(encoder_queries_per_table=12, encoder_epochs=6, joint_epochs=22, fine_tune_epochs=8),
)
# The paper's headline fails the run when it does not hold; it is gated
# here, not asserted in table1(), because tier-1's micro study is too
# small to show it.
GATED = {"T1: MTMLF-QO mean card q-error < PostgreSQL"}


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


ON_STUDY = {"T1": table1, "T2": table2, "A1": a1_bushy, "A2": a2_sequence_loss, "A3": a3_beam_rerank,
            "A4": a4_two_phase}
SECTIONS = ("T1", "T2", "T3", "A1", "A2", "A3", "A4", "Fig4")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0, help="StudyConfig.seed and run_table3(seed=)")
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
            if name == "T3":
                rows, claims = table3(generate_databases(4, **TABLE3_DATABASES), seed=args.seed, **TABLE3)
            else:
                rows, claims = fig4() if name == "Fig4" else ON_STUDY[name](study)
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
