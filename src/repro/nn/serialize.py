"""Atomic ``.npz`` archive writes.

MLA (Algorithm 1) ships the pre-trained (S)+(T) modules from the cloud
provider to users; :mod:`repro.core.checkpoint` writes that format
through these two primitives.
"""

from __future__ import annotations

import os
import tempfile
import zipfile

import numpy as np

__all__ = ["resolve_npz_path", "atomic_savez"]


def resolve_npz_path(path: str) -> str:
    """The on-disk path a ``.npz`` save actually produces.

    ``np.savez`` appends ``.npz`` when missing; applying the same rule on
    both the save and load side keeps the two symmetric.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path = path + ".npz"
    return path


def _write_npz(handle, arrays: dict[str, np.ndarray]) -> None:
    """``np.savez(handle, **arrays)``, without its ``tobytes`` copy of
    each array: a member's bytes reach the zip through a ``memoryview``."""
    with zipfile.ZipFile(handle, mode="w", compression=zipfile.ZIP_STORED, allowZip64=True) as archive:
        for name, array in arrays.items():
            array = np.asarray(array, order="C")
            with archive.open(f"{name}.npy", mode="w", force_zip64=True) as member:
                np.lib.format.write_array_header_1_0(
                    member, np.lib.format.header_data_from_array_1_0(array)
                )
                member.write(memoryview(array.reshape(-1)).cast("B"))


def atomic_savez(path: str, arrays: dict[str, np.ndarray]) -> str:
    """Write ``arrays`` to ``path`` atomically; return the resolved path.

    The archive is written to a temporary file in the target directory,
    flushed and fsynced, then moved into place with ``os.replace`` — a
    crash mid-save can never leave a truncated file at ``path``.
    """
    path = resolve_npz_path(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            _write_npz(handle, arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return path
