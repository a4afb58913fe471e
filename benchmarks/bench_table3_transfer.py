"""Table 3: Cross-DB transferability of MTMLF-QO (Section 6.3).

Reproduces the paper's Table 3 — total simulated execution time on a
*held-out* database for: the PostgreSQL-style planner, MTMLF-QO
pre-trained on the other databases via MLA (Algorithm 1) and
transferred (only the featurizer trained locally + small fine-tune),
and a control MTMLF-QO trained from scratch on the test database.

Expected shape (paper): both MTMLF variants beat PostgreSQL by a wide
margin, and the transferred model lands close to the natively-trained
one — evidence that (S)/(T) capture database-agnostic knowledge.

Run:  pytest benchmarks/bench_table3_transfer.py --benchmark-only -s
"""

from repro.core import MLAConfig, ModelConfig
from repro.datagen import generate_databases
from repro.eval import format_table3, run_table3


def test_table3_cross_db_transfer(benchmark):
    databases = generate_databases(
        4, base_seed=100, row_range=(200, 900), attr_range=(2, 4),
        fk_skew=1.3, fk_correlation=0.8,
    )

    def run():
        return run_table3(
            databases,
            num_queries=120,
            max_tables=4,
            mla_config=MLAConfig(
                encoder_queries_per_table=12,
                encoder_epochs=6,
                joint_epochs=22,
                fine_tune_epochs=8,
            ),
            model_config=ModelConfig(
                d_model=48, num_heads=4, encoder_layers=1, shared_layers=2, decoder_layers=2
            ),
        )

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(format_table3(rows, title="Table 3 (reproduced): execution time on the unseen DB"))

    by_name = {row.method: row for row in rows}
    assert set(by_name) == {"PostgreSQL", "Optimal", "MTMLF-QO (MLA)", "MTMLF-QO (single)"}
    for row in rows:
        assert row.total_time_ms > 0
