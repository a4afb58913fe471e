"""Micro-scale integration tests for the Table 1/2/3 harnesses.

These run the *same code paths* as the paper harness
(``benchmarks/paper/run.py``) — each of its sections but Fleet is called
here — at the smallest scale that still exercises every row of every
table (Adapt at its own scale).
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import EncoderBudget, MLAConfig, ModelConfig, transfer
from repro.datagen import generate_databases, imdb_like
from repro.eval import experiments
from repro.eval import (
    SingleDBStudy,
    StudyConfig,
    collect_node_qerrors,
    format_table1,
    format_table2,
    run_table3,
)

MICRO_MODEL = ModelConfig(d_model=24, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)
PAPER_HARNESS = Path(__file__).resolve().parent.parent / "benchmarks" / "paper" / "run.py"


@pytest.fixture(scope="module")
def paper():
    """``benchmarks/paper/run.py``, imported by path (it is a script)."""
    spec = importlib.util.spec_from_file_location("paper_run", PAPER_HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def study():
    db = imdb_like(seed=0, scale=0.12, fk_skew=1.2, fk_correlation=0.7)
    config = StudyConfig(
        num_queries=90,
        max_tables=4,
        model=MICRO_MODEL,
        encoder=EncoderBudget(5, 2),
        joint_epochs=4,
        treelstm_epochs=2,
        batch_size=8,
    )
    s = SingleDBStudy(db, config)
    s.prepare()
    return s


class TestSingleDBStudy:
    @pytest.mark.parametrize("field", ["joint_epochs", "treelstm_epochs", "batch_size"])
    def test_study_config_refuses_a_zero(self, field):
        with pytest.raises(ValueError, match=field):
            StudyConfig(**{field: 0})

    def test_prepare_splits(self, study):
        assert len(study.train) > len(study.test) > 0

    def test_table1_all_rows(self, study):
        rows = study.table1(with_ablations=True)
        names = [r.method for r in rows]
        assert names == ["PostgreSQL", "Tree-LSTM", "MTMLF-QO", "MTMLF-CardEst", "MTMLF-CostEst"]
        for row in rows:
            assert row.card is not None or row.cost is not None
        # Ablation rows report only their own task, like the paper.
        by_name = {r.method: r for r in rows}
        assert by_name["MTMLF-CardEst"].cost is None
        assert by_name["MTMLF-CostEst"].card is None
        text = format_table1(rows)
        assert "MTMLF-QO" in text

    def test_table2_all_rows(self, study):
        rows = study.table2(with_ablation=True)
        names = [r.method for r in rows]
        assert names == ["PostgreSQL", "Optimal", "MTMLF-QO", "MTMLF-JoinSel"]
        by_name = {r.method: r for r in rows}
        # "Optimal" orders minimise simulated time under true cards and
        # cost-optimal ops; evaluation re-chooses ops from histogram
        # estimates, so allow a small tolerance.
        assert by_name["Optimal"].total_time_ms <= by_name["PostgreSQL"].total_time_ms * 1.02
        assert by_name["PostgreSQL"].improvement is None
        assert 0.0 <= by_name["MTMLF-QO"].optimal_fraction <= 1.0
        assert "Optimal" in format_table2(rows)

    def test_models_cached_across_tables(self, study):
        model_a = study.train_mtmlf("MTMLF-QO")
        model_b = study.train_mtmlf("MTMLF-QO")
        assert model_a is model_b

    def test_memo_keys_on_the_whole_request(self, study):
        """A refined and an unrefined "MTMLF-QO" never alias, whichever
        script asked first (the memo used to key on the name alone)."""
        refined = study.train_mtmlf("MTMLF-QO", sequence_refine=True)
        plain = study.train_mtmlf("MTMLF-QO")
        assert plain is not refined
        assert study.train_mtmlf("MTMLF-QO", sequence_refine=True) is refined
        states = refined.state_dict(), plain.state_dict()
        assert any(not np.array_equal(states[0][name], states[1][name]) for name in states[0])
        jo_only = study.train_mtmlf("MTMLF-QO", w_card=0.0, w_cost=0.0)
        assert jo_only is not plain and jo_only.config.w_card == 0.0

    def test_sequence_refinement_keeps_the_card_and_cost_fit(self, study):
        """An Eq. 3 step is still Equation 1: the card and cost terms
        hold the heads and Trans_Share where joint training left them
        (a join-order-only refine loop read 2.67x and 2.0x here)."""
        db_name, test = study.db.name, list(study.test)
        means = {}
        for refine in (False, True):
            model = study.train_mtmlf("MTMLF-QO", sequence_refine=refine)
            card = collect_node_qerrors(test, lambda i: model.predict_cardinalities(db_name, [i])[0], "card")
            cost = collect_node_qerrors(test, lambda i: model.predict_costs(db_name, [i])[0], "cost")
            means[refine] = (card.mean, cost.mean)
        for refined, unrefined in zip(means[True], means[False]):
            assert refined <= 1.25 * unrefined

    def test_unprepared_study_raises(self):
        db = imdb_like(seed=1, scale=0.05)
        fresh = SingleDBStudy(db, StudyConfig(model=MICRO_MODEL))
        with pytest.raises(RuntimeError):
            fresh.table1()


class TestPaperHarness:
    """Each harness section on the micro study, so a renamed API fails
    tier-1 rather than the next paper run (Table 3's section runs in
    ``TestTable3``)."""

    @pytest.mark.parametrize("name", ["T1", "T2", "A1", "A2", "A3", "A4"])
    def test_study_section(self, paper, study, name):
        rows, claims = paper.ON_STUDY[name](study)
        assert rows and all(item["claim"].startswith(f"{name}: ") for item in claims)
        assert {item["claim"] for item in claims} >= {text for text in paper.GATED if text.startswith(f"{name}: ")}
        if name == "A1":
            assert 0 < rows[0]["evaluated"] <= rows[0]["of"] <= 15

    def test_fig4_through_the_cli(self, paper, capsys):
        """The CLI's contract: tables, then one JSON line; exit 0."""
        assert paper.main(["--seed", "3", "Fig4"]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["seed"] == 3 and result["failed"] == []
        assert set(result["seconds"]) == set(result["rows"]) == {"Fig4"}
        assert result["rows"]["Fig4"][-1] == {"plan": "random", "round_trips": 64, "of": 64}

    def test_same_json_compares_all_but_timings(self, paper, capsys, tmp_path):
        """``same_json.py``, the CI determinism check: two runs are equal
        outside their timings, and a changed number is named by path."""
        spec = importlib.util.spec_from_file_location("same_json", PAPER_HARNESS.parent / "same_json.py")
        same_json = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(same_json)
        logs = []
        for name in ("a", "b"):
            assert paper.main(["--seed", "3", "Fig4"]) == 0
            logs.append(tmp_path / f"{name}.log")
            logs[-1].write_text(capsys.readouterr().out)
        assert same_json.main([str(log) for log in logs]) == 0
        result = json.loads(logs[1].read_text().strip().splitlines()[-1])
        result["seconds"]["Fig4"] += 1.0
        logs[1].write_text(json.dumps(result))
        assert same_json.main([str(log) for log in logs]) == 0
        last = len(result["rows"]["Fig4"]) - 1
        result["rows"]["Fig4"][last]["round_trips"] -= 1
        logs[1].write_text(json.dumps(result))
        capsys.readouterr()
        assert same_json.main([str(log) for log in logs]) == 1
        assert f"$.rows.Fig4[{last}].round_trips: 64 vs 63" in capsys.readouterr().out

    def test_adapt_through_the_cli(self, paper, capsys):
        """Adapt at the harness's own scale (~2 s): every claim holds.
        Fleet (~5 s) runs in the CI paper job only."""
        assert paper.main(["Adapt"]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["failed"] == [] and [row["arm"] for row in result["rows"]["Adapt"]] == [
            "frozen", "adaptive", "poisoned retrain"]
        assert result["claims"] and all(
            item["claim"].startswith("Adapt: ") and item["holds"] for item in result["claims"])
        assert {item["claim"] for item in result["claims"]} == {
            text for text in paper.GATED if text.startswith("Adapt: ")}

    def test_lifecycle_claims_are_gated(self, paper):
        """Every property the adaptation and fleet sections score fails the run when it does not hold."""
        assert paper.GATED >= {
            "Adapt: adaptive < frozen on drifted sim ms",
            "Adapt: the gate rejects the poisoned retrain",
            "Adapt: the poisoned retrain leaves the live model and its orders unchanged",
            "Fleet: federated < isolated on drifted sim ms",
            "Fleet: zero-shot onboarded < scratch on sim ms",
            "Fleet: no gate accepts the poisoned round",
            "Fleet: the poisoned round leaves live models, orders and global state unchanged",
        }

    def test_unknown_section_is_a_usage_error(self, paper):
        with pytest.raises(SystemExit) as exit_info:
            paper.main(["T9"])
        assert exit_info.value.code == 2


class TestTable3:
    def test_run_table3_micro(self, paper, capsys):
        databases = generate_databases(3, base_seed=50, row_range=(60, 250), attr_range=(2, 3))
        rows, claims = paper.table3(
            databases,
            num_queries=25,
            max_tables=3,
            mla_config=MLAConfig(encoder=EncoderBudget(4, 2), joint_epochs=3, fine_tune_epochs=1),
            model_config=MICRO_MODEL,
        )
        names = [r.method for r in rows]
        assert names == ["PostgreSQL", "Optimal", "MTMLF-QO (MLA)", "MTMLF-QO (single)"]
        for row in rows:
            assert np.isfinite(row.total_time_ms) and row.total_time_ms > 0
        # The headroom row: improvement is measured against PostgreSQL.
        # No ordering is asserted — at this scale every legal order costs
        # about the same (seeds 0 and 1 read Optimal == PostgreSQL).
        postgres, optimal = rows[0], rows[1]
        assert optimal.improvement == pytest.approx(1.0 - optimal.total_time_ms / postgres.total_time_ms)
        assert "MTMLF-QO (MLA)" in capsys.readouterr().out
        assert [item["claim"] for item in claims] == [
            "T3: MTMLF-QO (MLA) < PostgreSQL", "T3: MTMLF-QO (single) < PostgreSQL",
        ]

    def test_both_arms_share_one_test_featurizer(self, monkeypatch):
        """The test database's (F) is trained once and handed to both
        arms: same seed, budget and config would train it twice alike."""
        databases = generate_databases(3, base_seed=50, row_range=(60, 250), attr_range=(2, 3))
        attached = []

        def recording_transfer(model, db, *args, **kwargs):
            model = transfer(model, db, *args, **kwargs)
            attached.append(model.featurizer_for(db.name))
            return model

        monkeypatch.setattr(experiments, "transfer", recording_transfer)
        run_table3(
            databases, num_queries=25, max_tables=3, model_config=MICRO_MODEL,
            mla_config=MLAConfig(encoder=EncoderBudget(4, 2), joint_epochs=3, fine_tune_epochs=1),
        )
        assert len(attached) == 2 and attached[0] is attached[1]
        assert attached[0].db is databases[-1]

    def test_too_few_databases_rejected(self):
        databases = generate_databases(2, base_seed=60, row_range=(50, 100))
        with pytest.raises(ValueError):
            run_table3(databases)
