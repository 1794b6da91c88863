"""Crash-safe file replacement: write aside, fsync, rename into place."""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import BinaryIO, Iterator


@contextmanager
def atomic_write(path: str) -> Iterator[BinaryIO]:
    """A binary file handle whose contents replace ``path`` atomically.

    The handle writes a temporary file in ``path``'s directory.  On a
    clean exit the file is fsynced, renamed onto ``path`` with
    :func:`os.replace` and the directory is fsynced, so a crash at any
    point leaves either the previous file or the complete new one under
    the real name, never a torn one.  If the block raises, the
    temporary file is removed and ``path`` is left as it was.  The new
    file gets the permissions a plain ``open(path, "wb")`` would give it.
    """
    directory = os.path.dirname(os.path.abspath(path))
    temporary = f"{path}.{os.urandom(6).hex()}.tmp"
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.unlink(temporary)
        raise
    directory_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)
