"""Full-model checkpoint round trips, integrity, and warm-start training.

The ISSUE's contract: ``save_checkpoint`` → ``load_checkpoint`` is
bit-exact (identical join orders and cardinality/cost predictions),
atomic on disk, gives the loaded model a version of its own, refuses
corrupted/truncated files, format-1 archives, mismatched databases and
any layout but the rebuilt model's, and optionally restores Adam's
moment vectors for warm-start training.
"""

import dataclasses
import hashlib
import json
import os
import re
import zipfile

import numpy as np
import pytest

import repro.nn as nn
from repro.core import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    DatabaseFeaturizer,
    JointTrainer,
    ModelConfig,
    MTMLFQO,
    load_checkpoint,
    read_checkpoint_meta,
    save_checkpoint,
)
from repro.core import checkpoint
from repro.core.checkpoint import _META_KEY
from repro.nn.layers import segment_views, vector_layout
from repro.nn.serialize import atomic_savez
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


def _members(path) -> list[str]:
    with zipfile.ZipFile(path) as archive:
        return sorted(name.removesuffix(".npy") for name in archive.namelist())


def _rewrite(path, edit_meta, resign: bool) -> None:
    """Rewrite a saved archive's meta with ``edit_meta``; ``resign``
    recomputes the digest over the edited meta, as a writer would."""
    with np.load(path) as archive:
        vectors = {key: archive[key] for key in archive.files}
    meta = json.loads(bytes(vectors.pop(_META_KEY)).decode())
    edit_meta(meta)
    if resign:
        meta["digest"] = checkpoint._digest(meta, vectors)
    vectors[_META_KEY] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    atomic_savez(path, vectors)


def _save_v1(model, path, optimizer=None) -> str:
    """The format-1 writer: one npz member per array, the Adam moments
    keyed by parameter name, a digest over the arrays only."""
    arrays = {f"model/{name}": value for name, value in model.state_dict().items()}
    featurizers = {}
    for db_name, featurizer in sorted(model.featurizers.items()):
        for name, value in featurizer.state_dict().items():
            arrays[f"featurizer/{db_name}/{name}"] = value
        featurizers[db_name] = {"schema": [list(e) for e in featurizer.schema_signature()]}
    meta = {
        "format_version": 1,
        "config": dataclasses.asdict(model.config),
        "featurizers": featurizers,
        "optimizer": None,
    }
    if optimizer is not None:
        state = optimizer.state()
        names = [name for name, _ in state["layout"]]
        shapes = [shape for _, shape in state["layout"]]
        for slot in ("m", "v"):
            for name, value in zip(names, segment_views(state[slot], shapes)):
                arrays[f"optim/{slot}/{name}"] = value
        meta["optimizer"] = {"t": state["t"], "keys": sorted(names), "lr": optimizer.lr,
                             "betas": [optimizer.beta1, optimizer.beta2], "eps": optimizer.eps,
                             "weight_decay": optimizer.weight_decay}
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        for part in (name.encode(), str(array.dtype).encode(), str(array.shape).encode(), array.tobytes()):
            digest.update(part)
    meta["digest"] = digest.hexdigest()
    arrays[_META_KEY] = np.frombuffer(json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    with open(path, "wb") as handle:
        np.savez(handle, **arrays)
    return path


def _rename_entry(layout) -> str:
    layout[3][0] += "_renamed"
    return layout[3][0]


def _reorder_entries(layout) -> str:
    layout[0], layout[1] = layout[1], layout[0]
    return layout[0][0]


def _reshape_entry_at_equal_size(layout) -> str:
    index = next(i for i, (_, shape) in enumerate(layout) if len(shape) == 2 and shape[0] != shape[1])
    layout[index][1] = layout[index][1][::-1]
    return layout[index][0]


LAYOUT_EDITS = [_rename_entry, _reorder_entries, _reshape_entry_at_equal_size]


class TestFormat:
    """Format 2: the archive is the training state's vectors and a meta
    whose layouts place every float, all under one digest."""

    def test_archive_members_are_the_vectors(self, db, trained, tmp_path):
        """A return to per-array members fails here, with no timing gate."""
        model, trainer = trained
        assert _members(save_checkpoint(model, str(tmp_path / "bare"))) == sorted(
            [_META_KEY, "model", f"featurizer/{db.name}"]
        )
        assert _members(trainer.save_checkpoint(str(tmp_path / "warm"))) == sorted(
            [_META_KEY, "model", f"featurizer/{db.name}", "optim/m", "optim/v"]
        )

    def test_meta_records_each_vector_layout(self, db, trained, tmp_path):
        model, trainer = trained
        meta = read_checkpoint_meta(trainer.save_checkpoint(str(tmp_path / "layouts")))
        assert meta["format_version"] == CHECKPOINT_FORMAT_VERSION == 2
        named = model.named_parameters()
        assert [(n, tuple(s)) for n, s in meta["model"]["layout"]] == vector_layout(named)
        assert [(n, tuple(s)) for n, s in meta["optimizer"]["layout"]] == trainer.optimizer.layout
        featurizer = model.featurizer_for(db.name)
        assert [(n, tuple(s)) for n, s in meta["featurizers"][db.name]["layout"]] == (
            vector_layout(featurizer.named_parameters())
        )

    def test_v1_archive_is_refused_naming_version_1(self, db, trained, tmp_path):
        model, trainer = trained
        path = _save_v1(model, str(tmp_path / "v1.npz"), optimizer=trainer.optimizer)
        assert len(_members(path)) > 100
        with pytest.raises(CheckpointError, match="format version 1 "):
            load_checkpoint(path, databases=db)
        with pytest.raises(CheckpointError, match="format version 1 "):
            JointTrainer.warm_start(path, databases=db)

    @pytest.mark.parametrize("edit", LAYOUT_EDITS)
    @pytest.mark.parametrize("vector", ["model", "featurizer", "optimizer"])
    def test_layout_edit_is_refused_naming_the_entry(self, db, trained, tmp_path, edit, vector):
        """Re-signed, so only the layout check stands between the edited
        meta and a misaligned load."""
        _, trainer = trained
        path = trainer.save_checkpoint(str(tmp_path / "edited"))
        named = []

        def edit_meta(meta):
            section = {
                "model": meta["model"],
                "featurizer": meta["featurizers"][db.name],
                "optimizer": meta["optimizer"],
            }[vector]
            named.append(edit(section["layout"]))

        _rewrite(path, edit_meta, resign=True)
        with pytest.raises(CheckpointError, match=re.escape(repr(named[0]))):
            JointTrainer.warm_start(path, databases=db)

    def test_layout_byte_flip_fails_the_integrity_check(self, db, trained, tmp_path):
        model, _ = trained
        path = save_checkpoint(model, str(tmp_path / "flip"))

        def flip(meta):
            name = meta["model"]["layout"][0][0]
            meta["model"]["layout"][0][0] = chr(ord(name[0]) ^ 1) + name[1:]

        _rewrite(path, flip, resign=False)
        with pytest.raises(CheckpointError, match="integrity check"):
            load_checkpoint(path, databases=db)


class TestWarmStart:
    def test_optimizer_state_round_trips(self, db, labeled, trained, tmp_path):
        model, trainer = trained
        path = trainer.save_checkpoint(str(tmp_path / "warm"))
        assert read_checkpoint_meta(path)["optimizer"]["t"] == trainer.optimizer._t
        restored = JointTrainer.warm_start(path, databases=db)
        original = trainer.optimizer.state()
        roundtripped = restored.optimizer.state()
        assert roundtripped["t"] == original["t"]
        assert roundtripped["layout"] == original["layout"]
        np.testing.assert_array_equal(roundtripped["m"], original["m"])
        np.testing.assert_array_equal(roundtripped["v"], original["v"])

    def test_warm_started_step_matches_original(self, db, labeled, trained, tmp_path):
        """Identical gradient steps after restore land on identical
        weights and moments — the whole point of persisting the moments."""
        model, trainer = trained
        path = trainer.save_checkpoint(str(tmp_path / "step"))
        restored = JointTrainer.warm_start(path, databases=db)
        for batch in (labeled[:4], labeled[4:8], labeled[:4]):
            assert trainer._step(db.name, batch) == restored._step(db.name, batch)
        assert restored.model.weights.tobytes() == trainer.model.weights.tobytes()
        original, resumed = trainer.optimizer.state(), restored.optimizer.state()
        assert resumed["t"] == original["t"]
        assert resumed["m"].tobytes() == original["m"].tobytes()
        assert resumed["v"].tobytes() == original["v"].tobytes()

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
        raise, naming the first differing entry, never misalign (the old
        positional-keying bug)."""
        _, trainer = trained
        bigger = MTMLFQO(ModelConfig(d_model=16, num_heads=2, encoder_layers=1,
                                     shared_layers=2, decoder_layers=1))
        optimizer = nn.Adam(bigger.named_parameters())
        with pytest.raises(ValueError, match="does not fit this optimizer's parameters: entry 0 "):
            optimizer.load_state(trainer.optimizer.state())
