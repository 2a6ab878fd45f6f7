"""Atomic file writes, shared by the CLI's ``--out`` and the height-table
saver.

The content streams into a temp file beside the target, which is then
renamed over it, so the target holds either its old content or all of the
new content, never a part.
"""
from __future__ import annotations

import os
from typing import Iterable


def write_atomic(path, chunks: Iterable[bytes]) -> None:
    """Write ``chunks`` to ``path`` through a temp file and ``os.replace``.

    Each chunk is written as it arrives, so the whole content is never held
    at once.  If anything raises before the rename, interrupts included, the
    temp file is removed and ``path`` is left as it was.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".homing-{os.urandom(8).hex()}")
    # mode 0o666 lets the umask set the file's mode, as a plain open() would;
    # tempfile.mkstemp would make every file written here 0600
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
