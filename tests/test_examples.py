"""The example scripts still import, and the quick one still runs: a
deleted or renamed export fails here instead of in front of the next
reader.  Every script is imported; only ``sql_playground.py``'s
``main()`` runs (under a second: parse → ``PostgresStylePlanner`` →
optimal plan → execute).  The others train models for a few seconds
each and are import-checked only here; the CI ``paper`` job runs
``fleet_demo.py``, ``quickstart.py`` and ``serve_demo.py`` end to end.  The paper's tables are ``benchmarks/paper/run.py``
(smoke-tested in ``test_experiments.py``), not an example."""

import importlib.util
from pathlib import Path

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_example_imports():
    assert [path.name for path in EXAMPLES] == [
        "fleet_demo.py",
        "quickstart.py",
        "serve_demo.py",
        "sql_playground.py",
    ]
    for path in EXAMPLES:
        assert callable(load(path).main), f"{path.name} has no main()"


def test_sql_playground_runs(capsys):
    playground = next(path for path in EXAMPLES if path.name == "sql_playground.py")
    load(playground).main()
    out = capsys.readouterr().out
    assert "chosen join order:" in out
    assert "optimal join order (exact, true cardinalities):" in out
    assert "true result cardinality:" in out
    assert "x the optimal plan's simulated time" in out
