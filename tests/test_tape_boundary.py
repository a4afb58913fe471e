"""Runtime pins on the autodiff boundary between serving and training.

MTMLF-QO serves and trains the same (S)/(T) modules, and two facts keep
the two apart.  Both are checked here by running the code:

- **inference records no tape.**  While an inference entry point runs,
  no op builds a node with a backward rule (``Tensor._make``) on any
  thread, the service's drain worker included.  A forgotten
  ``nn.no_grad()`` would keep a graph alive per request and run the
  layer bodies on Tensors instead of the ndarray kernels.
- **the paper's training rule** (Algorithm 1, line 8): one
  ``JointTrainer`` step sends a gradient to every (S)/(T) parameter and
  to no parameter of the featurizer, which is trained per database on
  single-table CardEst and frozen afterwards.  A layer that computes
  through a raw ``nn.kernels`` function instead of the op table skips
  the tape, and its weights get no gradient.

``tests/test_analysis.py::RETIRED`` applies the source edits these tests
exist to catch to a copy of the package and requires each to fail.
"""

import numpy as np
import pytest

from repro.core import DatabaseFeaturizer, JointTrainer, ModelConfig, MTMLFQO
from repro.datagen import generate_database
from repro.nn import Tensor
from repro.serve import OptimizerService
from repro.serve.adaptation import evaluate_regret_gate
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

CONFIG = ModelConfig(d_model=16, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=5, num_tables=6, row_range=(40, 120), attr_range=(2, 3))


@pytest.fixture(scope="module")
def labeled(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=3, max_tables=5, seed=2))
    return QueryLabeler(db).label_many(generator.generate(6), with_optimal_order=True)


def cold_model(db) -> MTMLFQO:
    """A model over a new featurizer: every (F) cache starts empty, so
    each entry point below runs the (F) encoders too."""
    model = MTMLFQO(CONFIG)
    model.attach_featurizer(db.name, DatabaseFeaturizer(db, CONFIG))
    return model


def optimize_one(db, model, items):
    with OptimizerService(model, db.name) as service:
        service.optimize(items[0])


ENTRY_POINTS = {
    "predict_join_orders": lambda db, model, items: model.predict_join_orders(
        db.name, items, rerank_with_cost=True
    ),
    "predict_cardinalities": lambda db, model, items: model.predict_cardinalities(db.name, items),
    "predict_costs": lambda db, model, items: model.predict_costs(db.name, items),
    "beam_candidates_batch": lambda db, model, items: model.beam_candidates_batch(db.name, items),
    "encode_query": lambda db, model, items: model.encode_query(db.name, items[0]),
    "evaluate_regret_gate": lambda db, model, items: evaluate_regret_gate(
        db, model, model.clone_for_inference(), items
    ),
    "optimize": optimize_one,
}


class TestInferenceRecordsNoTape:
    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    def test_entry_point_records_no_tape(self, db, labeled, entry, monkeypatch):
        model = cold_model(db)
        taped = []
        make = Tensor._make

        def counting_make(*args):
            out = make(*args)
            if out._backward is not None:
                taped.append(out.shape)
            return out

        monkeypatch.setattr(Tensor, "_make", staticmethod(counting_make))
        ENTRY_POINTS[entry](db, model, labeled)
        monkeypatch.undo()
        assert taped == [], f"{entry} recorded {len(taped)} tape nodes"
        assert len(model.featurizer_for(db.name).node_cache) > 0  # the (F) encoders ran


class TestTrainingRule:
    def test_one_step_reaches_every_st_parameter_and_no_featurizer_parameter(self, db, labeled):
        model = cold_model(db)
        featurizer = model.featurizer_for(db.name)
        before = {name: p.data.tobytes() for name, p in featurizer.named_parameters()}
        result = JointTrainer(model).train(
            [(db.name, item) for item in labeled], epochs=1, batch_size=len(labeled)
        )
        assert len(result.epoch_losses) == 1 and len(featurizer.node_cache) > 0
        missing = [name for name, p in model.named_parameters() if p.grad is None or not p.grad.any()]
        assert missing == [], f"(S)/(T) parameters without a gradient: {missing}"
        reached = [name for name, p in featurizer.named_parameters() if p.grad is not None]
        assert reached == [], f"featurizer parameters with a gradient: {reached}"
        moved = [name for name, p in featurizer.named_parameters() if p.data.tobytes() != before[name]]
        assert moved == [], f"featurizer parameters changed by the step: {moved}"
