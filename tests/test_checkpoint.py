"""Full-model checkpoint round trips, integrity, and warm-start training.

The ISSUE's contract: ``save_checkpoint`` → ``load_checkpoint`` is
bit-exact (identical join orders and cardinality/cost predictions),
atomic on disk, gives the loaded model a version of its own, refuses
corrupted/truncated files and mismatched databases, and optionally
restores Adam moments keyed by parameter name for warm-start training.
"""

import json
import os

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (
    CheckpointError,
    DatabaseFeaturizer,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    load_checkpoint,
    read_checkpoint_meta,
    save_checkpoint,
)
from repro.core.checkpoint import _META_KEY, _encode_meta
from repro.datagen import generate_database
from repro.workload import QueryLabeler, WorkloadConfig, WorkloadGenerator

SMALL = ModelConfig(d_model=32, num_heads=2, encoder_layers=1, shared_layers=1, decoder_layers=1)


@pytest.fixture(scope="module")
def db():
    return generate_database(seed=6, num_tables=4, row_range=(60, 150), attr_range=(2, 3))


@pytest.fixture(scope="module")
def labeled(db):
    generator = WorkloadGenerator(db, WorkloadConfig(min_tables=2, max_tables=4, seed=7))
    items = QueryLabeler(db).label_many(generator.generate(12), with_optimal_order=True)
    assert len(items) >= 6
    return items


@pytest.fixture(scope="module")
def trained(db, labeled):
    """A trained (featurizer + joint) model plus its trainer."""
    featurizer = DatabaseFeaturizer(db, SMALL)
    featurizer.train_encoders(queries_per_table=3, epochs=1)
    model = MTMLFQO(SMALL)
    model.attach_featurizer(db.name, featurizer)
    trainer = JointTrainer(model)
    trainer.train([(db.name, item) for item in labeled], epochs=2, batch_size=4)
    return model, trainer


class TestRoundTrip:
    def test_bit_exact_predictions(self, db, labeled, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "full"))
        loaded = load_checkpoint(path, databases=db)
        assert loaded.predict_join_orders(db.name, labeled) == model.predict_join_orders(
            db.name, labeled
        )
        for direct, restored in zip(
            model.predict_cardinalities(db.name, labeled),
            loaded.predict_cardinalities(db.name, labeled),
        ):
            np.testing.assert_array_equal(direct, restored)
        for direct, restored in zip(
            model.predict_costs(db.name, labeled),
            loaded.predict_costs(db.name, labeled),
        ):
            np.testing.assert_array_equal(direct, restored)

    @pytest.mark.parametrize("beam_width", [1, 4])
    def test_bit_exact_across_beam_widths(self, db, labeled, trained, tmp_path, beam_width):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "bw"))
        loaded = load_checkpoint(path, databases=db)
        assert loaded.predict_join_orders(
            db.name, labeled, beam_width=beam_width
        ) == model.predict_join_orders(db.name, labeled, beam_width=beam_width)

    def test_clone_for_inference_matches_disk_round_trip(self, db, labeled, trained, tmp_path):
        """``clone_for_inference`` is the in-memory fast path of the same
        guarantee: the state-dict clone, the disk round trip, and the
        source model are all bit-identical."""
        model, _ = trained
        clone = model.clone_for_inference()
        loaded = load_checkpoint(save_checkpoint(model, str(tmp_path / "clone")), databases=db)
        direct = model.predict_join_orders(db.name, labeled)
        assert clone.predict_join_orders(db.name, labeled) == direct
        assert loaded.predict_join_orders(db.name, labeled) == direct
        for from_clone, from_disk in zip(
            clone.predict_cardinalities(db.name, labeled),
            loaded.predict_cardinalities(db.name, labeled),
        ):
            np.testing.assert_array_equal(from_clone, from_disk)
        for from_clone, from_disk in zip(
            clone.predict_costs(db.name, labeled),
            loaded.predict_costs(db.name, labeled),
        ):
            np.testing.assert_array_equal(from_clone, from_disk)

    def test_model_version_and_config_survive(self, db, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "v"))
        loaded = load_checkpoint(path, databases=db)
        assert loaded.config == model.config
        assert sorted(loaded.featurizers) == sorted(model.featurizers)

    def test_save_path_normalized_and_atomic(self, db, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "ckpt"))
        assert path == str(tmp_path / "ckpt.npz")
        save_checkpoint(model, path)  # overwrite in place: no ckpt.npz.npz, no tmp file
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.npz"]
        # Loading resolves the suffix the same way from either spelling.
        for spec in ("ckpt", "ckpt.npz"):
            assert load_checkpoint(str(tmp_path / spec), databases=db).config == model.config

    def test_meta_readable_without_loading(self, db, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "meta"))
        meta = read_checkpoint_meta(path)
        assert meta["config"]["d_model"] == SMALL.d_model
        assert list(meta["featurizers"]) == [db.name]
        assert meta["optimizer"] is None


class TestErrorPaths:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint"):
            load_checkpoint(str(tmp_path / "nope"))

    def test_truncated_file(self, db, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "trunc"))
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size // 2)
        with pytest.raises(CheckpointError):
            load_checkpoint(path, databases=db)

    def test_corrupted_payload_fails_integrity(self, db, trained, tmp_path):
        """Bit rot inside an array is caught by the SHA-256 digest."""
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "rot"))
        with open(path, "r+b") as handle:
            handle.seek(os.path.getsize(path) // 2)
            original = handle.read(1)
            handle.seek(-1, os.SEEK_CUR)
            handle.write(bytes([original[0] ^ 0xFF]))
        with pytest.raises(CheckpointError):
            load_checkpoint(path, databases=db)

    def test_not_a_checkpoint(self, db, tmp_path):
        path = str(tmp_path / "plain.npz")
        with open(path, "wb") as handle:
            np.savez(handle, weight=np.zeros(3))
        with pytest.raises(CheckpointError, match="not an MTMLF-QO checkpoint"):
            load_checkpoint(path, databases=db)

    def test_missing_database_named_in_error(self, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "nodb"))
        with pytest.raises(CheckpointError, match="no\\s+Database was provided"):
            load_checkpoint(path)

    def test_wrong_database_schema_rejected(self, trained, tmp_path):
        model, _ = trained
        other = generate_database(seed=99, num_tables=3, row_range=(20, 40), attr_range=(2, 2))
        path = save_checkpoint(model, str(tmp_path / "schema"))
        saved_name = list(model.featurizers)[0]
        with pytest.raises(CheckpointError):
            load_checkpoint(path, databases={saved_name: other})


class TestArchivesFromOlderBuilds:
    """Builds before the model lost its train/eval mode saved a
    ``dropout`` rate in the config; no caller ever set it off 0.0.
    Builds before model versions became process-wide saved the model's
    ``model_version`` in the meta."""

    @staticmethod
    def _save_with_meta(model, path, edit) -> str:
        """Save ``model``, then rewrite its meta in place with ``edit``."""
        path = save_checkpoint(model, path)
        with np.load(path) as archive:
            arrays = {key: archive[key] for key in archive.files}
        meta = json.loads(bytes(arrays[_META_KEY]).decode())
        edit(meta)
        arrays[_META_KEY] = _encode_meta(meta)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        return path

    @classmethod
    def _save_with_dropout(cls, model, path, rate) -> str:
        return cls._save_with_meta(model, path, lambda meta: meta["config"].update(dropout=rate))

    def test_zero_dropout_archive_loads_and_serves_identical_orders(
        self, db, labeled, trained, tmp_path
    ):
        model, _ = trained
        path = self._save_with_dropout(model, str(tmp_path / "old"), 0.0)
        assert read_checkpoint_meta(path)["config"]["dropout"] == 0.0
        loaded = load_checkpoint(path, databases=db)
        assert loaded.config == model.config
        assert loaded.predict_join_orders(db.name, labeled) == model.predict_join_orders(
            db.name, labeled
        )

    def test_nonzero_dropout_archive_is_refused_naming_the_field(self, db, trained, tmp_path):
        model, _ = trained
        path = self._save_with_dropout(model, str(tmp_path / "old"), 0.1)
        with pytest.raises(CheckpointError, match="dropout=0.1"):
            load_checkpoint(path, databases=db)

    def test_model_version_archive_loads_under_a_fresh_version(
        self, db, labeled, trained, tmp_path
    ):
        model, _ = trained
        path = self._save_with_meta(
            model, str(tmp_path / "old"), lambda meta: meta.update(model_version=model.version)
        )
        assert read_checkpoint_meta(path)["model_version"] == model.version
        loaded = load_checkpoint(path, databases=db)
        assert loaded.version != model.version
        assert loaded.predict_join_orders(db.name, labeled) == model.predict_join_orders(
            db.name, labeled
        )


class TestWarmStart:
    def test_optimizer_state_round_trips(self, db, labeled, trained, tmp_path):
        model, trainer = trained
        path = trainer.save_checkpoint(str(tmp_path / "warm"))
        assert read_checkpoint_meta(path)["optimizer"]["t"] == trainer.optimizer._t
        restored = JointTrainer.warm_start(path, databases=db)
        original = trainer.optimizer.state_dict()
        roundtripped = restored.optimizer.state_dict()
        assert roundtripped["t"] == original["t"]
        assert set(roundtripped["m"]) == set(original["m"])
        for key in original["m"]:
            np.testing.assert_array_equal(roundtripped["m"][key], original["m"][key])
            np.testing.assert_array_equal(roundtripped["v"][key], original["v"][key])

    def test_warm_started_step_matches_original(self, db, labeled, trained, tmp_path):
        """One identical gradient step after restore lands on identical
        weights — the whole point of persisting the moments."""
        model, trainer = trained
        path = trainer.save_checkpoint(str(tmp_path / "step"))
        restored = JointTrainer.warm_start(path, databases=db)
        batch = labeled[:4]
        loss_a = trainer._step(db.name, batch)
        loss_b = restored._step(db.name, batch)
        assert loss_a == loss_b
        for (name_a, pa), (name_b, pb) in zip(
            trainer.model.named_parameters(), restored.model.named_parameters()
        ):
            assert name_a == name_b
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_warm_start_restores_saved_hyperparameters(self, db, labeled, tmp_path):
        """Resuming must continue the saved run's lr/betas, not whatever
        the model config's defaults happen to be."""
        featurizer = DatabaseFeaturizer(db, SMALL)
        model = MTMLFQO(SMALL)
        model.attach_featurizer(db.name, featurizer)
        trainer = JointTrainer(model, learning_rate=5e-4)
        trainer.optimizer.beta1 = 0.85
        path = trainer.save_checkpoint(str(tmp_path / "hyper"))
        restored = JointTrainer.warm_start(path, databases=db)
        assert restored.optimizer.lr == 5e-4
        assert restored.optimizer.beta1 == 0.85
        overridden = JointTrainer.warm_start(path, databases=db, learning_rate=1e-5)
        assert overridden.optimizer.lr == 1e-5  # explicit override wins
        assert overridden.optimizer.beta1 == 0.85

    def test_checkpoint_without_optimizer_refuses_warm_start(self, db, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "cold"))
        with pytest.raises(CheckpointError, match="no optimizer state"):
            JointTrainer.warm_start(path, databases=db)

    def test_stale_optimizer_state_refused_by_name(self, trained):
        """Optimizer state from a differently-shaped parameter set must
        raise, never misalign (the old positional-keying bug)."""
        _, trainer = trained
        bigger = MTMLFQO(ModelConfig(d_model=16, num_heads=2, encoder_layers=1,
                                     shared_layers=2, decoder_layers=1))
        optimizer = nn.Adam(bigger.named_parameters())
        with pytest.raises(ValueError, match="does not match the current parameter set"):
            optimizer.load_state_dict(trainer.optimizer.state_dict())
