"""Atomic ``.npz`` archive writes.

MLA (Algorithm 1) ships the pre-trained (S)+(T) modules from the cloud
provider to users; :mod:`repro.core.checkpoint` writes that format
through these two primitives.
"""

from __future__ import annotations

import os
import tempfile

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
            # A file object suppresses np.savez's implicit ".npz" suffix,
            # so the temporary file's name is exactly tmp_path.
            np.savez(handle, **arrays)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise
    return path
