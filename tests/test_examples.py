"""The example scripts still import: a deleted or renamed export fails
here instead of in front of the next reader.  Module import only — each
script's ``main()`` trains for tens of seconds and is not run.  The
paper's tables are ``benchmarks/paper/run.py`` (smoke-tested in
``test_experiments.py``), not an example."""

import importlib.util
from pathlib import Path

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_every_example_imports():
    assert [path.name for path in EXAMPLES] == [
        "federated_pretraining.py",
        "fleet_demo.py",
        "quickstart.py",
        "serve_demo.py",
        "sql_playground.py",
    ]
    for path in EXAMPLES:
        spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main), f"{path.name} has no main()"
