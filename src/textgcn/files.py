"""The one file writer (a temp file beside the target, renamed over it) and JSON reader.

``json_setting`` holds a value read from JSON to the type of the setting it fills.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from typing import IO, Iterator, get_args

from .errors import DataError


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


def read_json_object(path: str | os.PathLike) -> dict:
    """The JSON object in ``path``; ``DataError`` naming the file for anything else."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as err:   # invalid JSON, or bytes that are not UTF-8
        raise DataError(f"{path}: not valid JSON ({err})") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path}: not a JSON object")
    return raw


_JSON_TYPES = {int: ((int,), "an integer"), float: ((int, float), "a number"),
               str: ((str,), "a string"), type(None): ((type(None),), "null")}


def json_setting(path: str | os.PathLike, key: str, value, hint):
    """The JSON ``value`` as a setting of type ``hint``; ``DataError`` naming the file and key.

    ``hint`` is ``int``, ``float``, ``str`` or an optional one of them. An
    int takes a JSON integer and never a bool; a float takes an integer or a
    float and returns a float, so ``1`` and ``1.0`` are one setting, as they
    are by flag; a str takes a string; an optional one also takes null.
    """
    kinds = get_args(hint) or (hint,)
    if isinstance(value, bool) or not any(isinstance(value, _JSON_TYPES[k][0]) for k in kinds):
        expected = " or ".join(_JSON_TYPES[k][1] for k in kinds)
        raise DataError(f"{path}: {key} must be {expected}, got {json.dumps(value)}")
    return float(value) if isinstance(value, int) and float in kinds else value
