"""Full-model checkpoints: the MLA ship-and-serve format (Algorithm 1).

The paper's workflow has the cloud provider pre-train (S)+(T) and ship
them to users, who bolt on per-database (F) modules.  This module makes
that a durable artifact: one ``.npz`` file holding the complete
:class:`~repro.core.model.MTMLFQO` as a few vectors — ``model`` (the
(S)/(T) :attr:`MTMLFQO.weights`), one ``featurizer/<db>`` per attached
:class:`~repro.core.encoders.DatabaseFeaturizer`, and with an optimizer
Adam's ``optim/m`` and ``optim/v`` — plus the JSON
``__checkpoint_meta__``: the :class:`~repro.core.config.ModelConfig`
(load rebuilds that architecture), each featurizer's schema signature
(a restore onto the wrong database fails loudly), each vector's layout,
Adam's step and hyper-parameters, and the digest.  A layout is the
ordered ``(name, shape)`` pairs of ``nn.layers.vector_layout``, the rule
``nn.Adam`` lays its vectors out by; a load refuses one that differs
from the rebuilt model's or featurizer's, naming the first differing
entry.  Files are written atomically (:func:`repro.nn.serialize.atomic_savez`:
tmp + fsync + ``os.replace``), and a SHA-256 digest covers the meta and
every vector: a truncated, corrupted or non-checkpoint file, or one of
another format version, raises :class:`CheckpointError` on load.

Round trips are bit-exact: a loaded model produces byte-identical
join orders and cardinality/cost predictions (``tests/test_checkpoint.py``
asserts this property), which is what lets
:meth:`repro.serve.OptimizerService.swap_model` hot-swap checkpoints
into a live service.  The in-memory fast path of the same guarantee is
:meth:`MTMLFQO.clone_for_inference` — one copy of the (S)/(T)
:attr:`MTMLFQO.weights` vector without the disk hop, sharing the frozen
(F) objects instead of rebuilding them.

A checkpoint carries weights, not identity: the loaded model gets a
fresh :attr:`MTMLFQO.version` like every model built in the process,
so serving-layer plan caches never confuse it with the saved one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zipfile

import numpy as np

from ..nn.layers import layout_mismatch, parameter_vector, vector_layout
from ..nn.optim import Adam
from ..nn.serialize import atomic_savez, resolve_npz_path
from ..storage.catalog import Database
from .config import ModelConfig
from .encoders import DatabaseFeaturizer
from .model import MTMLFQO

__all__ = [
    "CheckpointError",
    "CHECKPOINT_FORMAT_VERSION",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint_meta",
]

CHECKPOINT_FORMAT_VERSION = 2

_META_KEY = "__checkpoint_meta__"
_MODEL_KEY = "model"
_FEATURIZER_PREFIX = "featurizer/"
_OPTIM_M, _OPTIM_V = "optim/m", "optim/v"


class CheckpointError(RuntimeError):
    """The file is not a readable checkpoint (corrupt, truncated, wrong
    format version) or does not fit the load target (missing database,
    schema or layout mismatch, no optimizer state)."""


def _digest(meta: dict, vectors: dict[str, np.ndarray]) -> str:
    """SHA-256 over the meta (its ``digest`` aside) and every vector's
    name, dtype, shape and bytes, read through a ``memoryview``."""
    digest = hashlib.sha256(_meta_bytes({k: v for k, v in meta.items() if k != "digest"}))
    for name in sorted(vectors):
        digest.update(f"{name} {vectors[name].dtype} {vectors[name].shape}".encode())
        digest.update(memoryview(vectors[name]))
    return digest.hexdigest()


def _meta_bytes(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True).encode()


def save_checkpoint(model: MTMLFQO, path: str, optimizer: Adam | None = None) -> str:
    """Atomically persist a complete model (and optional Adam state).

    The (S)/(T) and featurizer vectors are written as they are, not
    copied (Adam's moments come from :meth:`Adam.state`): training
    concurrently with a save is unsupported, as everywhere else in the
    repo — retrain offline.  A featurizer's parameters are packed into
    one vector on its first save (:func:`~repro.nn.layers.parameter_vector`:
    values unchanged, so inference reads the same floats), and later
    saves find it packed.  The featurizers and the meta are taken under
    the model's inference lock, consistent with a concurrent
    ``attach_featurizer``.  Returns the resolved ``.npz`` path written.
    """
    with model._infer_lock:
        arrays = {_MODEL_KEY: model.weights}
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "config": dataclasses.asdict(model.config),
            "model": {"layout": vector_layout(model.named_parameters())},
            "featurizers": {},
            "optimizer": None,
        }
        for db_name, featurizer in sorted(model.featurizers.items()):
            named = featurizer.named_parameters()
            arrays[_FEATURIZER_PREFIX + db_name] = parameter_vector([p for _, p in named])
            meta["featurizers"][db_name] = {
                "schema": [list(entry) for entry in featurizer.schema_signature()],
                "layout": vector_layout(named),
            }
    if optimizer is not None:
        state = optimizer.state()
        arrays[_OPTIM_M], arrays[_OPTIM_V] = state["m"], state["v"]
        meta["optimizer"] = {
            "t": state["t"],
            "layout": state["layout"],
            "lr": optimizer.lr,
            "betas": [optimizer.beta1, optimizer.beta2],
            "eps": optimizer.eps,
            "weight_decay": optimizer.weight_decay,
        }
    meta["digest"] = _digest(meta, arrays)
    arrays[_META_KEY] = np.frombuffer(_meta_bytes(meta), dtype=np.uint8)
    return atomic_savez(path, arrays)


def _read_archive(
    path: str, verify_digest: bool, meta_only: bool = False
) -> tuple[dict, dict[str, np.ndarray]]:
    """Load + validate a checkpoint archive into (meta, vectors).

    ``meta_only`` decompresses just the metadata member (npz members load
    lazily), so peeking at a large checkpoint stays cheap; ``vectors`` is
    empty and no digest can be checked in that mode.
    """
    path = resolve_npz_path(path)
    if not os.path.exists(path):
        raise CheckpointError(f"no checkpoint at {path!r}")
    vectors: dict[str, np.ndarray] = {}
    try:
        # Own the file handle: np.load(path) opens the fd itself and
        # leaks it when the constructor raises before the NpzFile exists
        # (e.g. BadZipFile on a truncated file); the outer `with open`
        # closes it on every path.
        with open(path, "rb") as handle, np.load(handle) as archive:
            if _META_KEY not in archive.files:
                raise CheckpointError(f"{path!r} is not an MTMLF-QO checkpoint (no metadata)")
            meta_raw = archive[_META_KEY]
            if not meta_only:
                vectors = {key: archive[key] for key in archive.files if key != _META_KEY}
    except CheckpointError:
        raise
    except (zipfile.BadZipFile, OSError, ValueError, EOFError, KeyError) as error:
        raise CheckpointError(f"unreadable checkpoint {path!r}: {error}") from error
    try:
        meta = json.loads(bytes(meta_raw).decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(f"corrupt checkpoint metadata in {path!r}: {error}") from error
    if meta.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint format version {meta.get('format_version')!r} "
            f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
        )
    if verify_digest and _digest(meta, vectors) != meta.get("digest"):
        raise CheckpointError(f"checkpoint {path!r} failed its integrity check")
    return meta, vectors


def read_checkpoint_meta(path: str) -> dict:
    """The checkpoint's metadata (config, databases, layouts, optimizer,
    ...) without loading or verifying the vectors."""
    meta, _ = _read_archive(path, verify_digest=False, meta_only=True)
    return meta


def _databases_by_name(databases) -> dict[str, Database]:
    if databases is None:
        return {}
    if isinstance(databases, Database):
        databases = [databases]
    if isinstance(databases, dict):
        return dict(databases)
    return {db.name: db for db in databases}


def load_checkpoint(path: str, databases=None) -> MTMLFQO:
    """Rebuild the full model saved by :func:`save_checkpoint`.

    ``databases`` supplies the :class:`Database` handle for each saved
    featurizer (a single ``Database``, a list, or a ``{name: Database}``
    mapping) — table data and statistics are the database's own state,
    not model weights, so the caller provides them and the checkpoint
    verifies the schema signature matches before loading weights.

    The returned model is bit-identical to the saved one — same join
    orders, same cardinality/cost predictions — under a fresh
    :attr:`MTMLFQO.version`, like every model built in this process.
    """
    return _build_model(*_read_archive(path, verify_digest=True), databases)


def _load_vector(what: str, saved_layout, named_parameters, vector: np.ndarray) -> None:
    """Copy a saved vector into the parameters of a rebuilt module (the
    model's own vector, or a featurizer's, packed here) once its saved
    layout is theirs."""
    mismatch = layout_mismatch(saved_layout, vector_layout(named_parameters))
    if mismatch is not None:
        raise CheckpointError(f"the checkpoint's {what} layout differs from this build's: {mismatch}")
    target = parameter_vector([p for _, p in named_parameters])
    if vector.shape != target.shape:
        raise CheckpointError(
            f"the checkpoint's {what} vector has shape {vector.shape}, its layout needs {target.shape}"
        )
    np.copyto(target, vector)


def _build_model(meta: dict, vectors: dict[str, np.ndarray], databases) -> MTMLFQO:
    """The model a verified ``(meta, vectors)`` archive holds."""
    by_name = _databases_by_name(databases)
    saved_dbs = sorted(meta["featurizers"])
    missing = [name for name in saved_dbs if name not in by_name]
    if missing:
        raise CheckpointError(
            f"checkpoint has featurizers for databases {saved_dbs} but no "
            f"Database was provided for {missing}; pass them via `databases`"
        )

    config = ModelConfig(**meta["config"])
    model = MTMLFQO(config)
    _load_vector("(S)/(T)", meta["model"]["layout"], model.named_parameters(), vectors[_MODEL_KEY])

    for db_name in saved_dbs:
        featurizer = DatabaseFeaturizer(by_name[db_name], config)
        saved = meta["featurizers"][db_name]
        saved_schema = tuple((table, tuple(columns)) for table, columns in saved["schema"])
        if featurizer.schema_signature() != saved_schema:
            raise CheckpointError(
                f"database {db_name!r} does not match the checkpointed schema: "
                f"saved {saved_schema} vs provided "
                f"{featurizer.schema_signature()}"
            )
        _load_vector(
            f"featurizer {db_name!r}", saved["layout"], featurizer.named_parameters(),
            vectors[_FEATURIZER_PREFIX + db_name],
        )
        model.attach_featurizer(db_name, featurizer)
    return model


def _optimizer_state(meta: dict, vectors: dict[str, np.ndarray], path: str) -> dict:
    """The saved Adam state — step, layout, hyper-parameters and the two
    moment vectors — of a verified archive."""
    saved = meta.get("optimizer")
    if saved is None:
        raise CheckpointError(f"checkpoint {path!r} carries no optimizer state")
    return {**saved, "m": vectors[_OPTIM_M], "v": vectors[_OPTIM_V]}
