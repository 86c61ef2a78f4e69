"""The one way a file reaches disk: a temp file beside it, renamed over it."""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import IO, Iterator


@contextmanager
def write_atomic(path: str | os.PathLike, mode: str = "w") -> Iterator[IO]:
    """Yield a handle ("w": UTF-8 text, "wb": bytes) whose contents replace ``path`` whole.

    Writes go to a randomly named hidden temp file beside the target (a
    symlink's target), renamed over it on success and removed on error.
    Parents are made; new files get mode 0o666 less the umask; no fsync.
    """
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".{os.urandom(8).hex()}.tmp")
    os.makedirs(os.path.dirname(target), exist_ok=True)
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
