"""Canonical JSON helpers.

Two encodings are used everywhere:

* compact (sorted keys, no whitespace) for fingerprint hashing, so the
  same logical request always hashes identically;
* pretty (sorted keys, 2-space indent, trailing newline) for artifacts
  on disk and ``--json`` output, so repeated runs are byte-identical and
  diffs stay readable.

The pretty encoding is ``json.dumps(obj, sort_keys=True, indent=2,
ensure_ascii=False)`` plus a newline, byte for byte, but not through
``json.dumps``: ``indent`` switches the stdlib to its pure-Python
encoder, which took about half of the artifact writers' CPU.
``pretty_dumps`` walks the value itself, collecting the pieces in one
list, and leaves strings and numbers to json's C string encoder and to
``int``/``float`` ``__repr__``, as json does; a value json refuses is a
``TypeError`` here too.

Files are written as bytes: the text is encoded before the file is
opened, so text that is not valid UTF-8 (a lone surrogate) creates no
file, and the bytes go to the descriptor with ``os.write`` rather than
through a text stream. ``read_json`` reads them back the same way, as
bytes decoded as strict UTF-8. Every file written here is created with
mode 0600 (before the umask): run artifacts hold patient conversations.
"""

from __future__ import annotations

import json
import os
import tempfile
from json.encoder import encode_basestring
from pathlib import Path
from typing import Any, Callable

FILE_MODE = 0o600
_INF = float("inf")


# Built once: json.dumps builds a new encoder on every call that passes options.
canonical_dumps: Callable[[Any], str] = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=False
).encode


def _float(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _key(key: Any) -> str:
    """A dict key as json converts it, tested in json's order."""
    if isinstance(key, str):
        return encode_basestring(key)
    if isinstance(key, float):
        return encode_basestring(_float(key))
    if key is True:
        return '"true"'
    if key is False:
        return '"false"'
    if key is None:
        return '"null"'
    if isinstance(key, int):
        return encode_basestring(int.__repr__(key))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _emit(value: Any, newline: str, append: Callable[[str], None]) -> None:
    """Appends the pretty encoding of ``value`` at the depth whose line
    break and indent is ``newline``; a container indents its items two
    spaces more. The order of the tests is json's, except that the
    containers come first: no value passes two of them."""
    if isinstance(value, dict):
        if not value:
            append("{}")
            return
        inner = newline + "  "
        sep, comma = "{" + inner, "," + inner
        # json sorts the items, which orders them by key alone: no two
        # keys of a dict are equal.
        for key in sorted(value):
            item = value[key]
            append(sep)
            append(encode_basestring(key) if type(key) is str else _key(key))
            append(": ")
            if type(item) is str:
                append(encode_basestring(item))
            else:
                _emit(item, inner, append)
            sep = comma
        append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            append("[]")
            return
        inner = newline + "  "
        sep, comma = "[" + inner, "," + inner
        for item in value:
            append(sep)
            if type(item) is str:
                append(encode_basestring(item))
            else:
                _emit(item, inner, append)
            sep = comma
        append(newline + "]")
    elif isinstance(value, str):
        append(encode_basestring(value))
    elif value is None:
        append("null")
    elif value is True:
        append("true")
    elif value is False:
        append("false")
    elif isinstance(value, int):
        append(int.__repr__(value))
    elif isinstance(value, float):
        append(_float(value))
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def pretty_dumps(obj: Any) -> str:
    parts: list[str] = []
    _emit(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def write_all(fd: int, data: bytes) -> None:
    """Writes all of ``data`` to ``fd``, which may take many writes."""
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def write_text(path: Path | str, text: str) -> None:
    """Write text to path in place: open, write, close. The parent
    directory must exist, and a reader may see the file half written."""
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, FILE_MODE)
    try:
        write_all(fd, data)
    finally:
        os.close(fd)


def write_json(path: Path | str, obj: Any, atomic: bool = True) -> None:
    """Write the pretty encoding of obj to path. Atomic writes create the
    parent directory and go through a temp file and a rename, so a reader
    sees the old file or the whole new one; ``atomic=False`` writes in
    place, as ``write_text`` does."""
    if not atomic:
        write_text(path, pretty_dumps(obj))
        return
    data = pretty_dumps(obj).encode("utf-8")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        try:
            write_all(fd, data)
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def read_json(path: Path | str) -> Any:
    """The JSON value in the file at ``path``, which must be UTF-8.

    The bytes are decoded strictly before json parses the text:
    ``json.loads`` of the bytes would also take UTF-16, UTF-32 and
    lone surrogates."""
    with open(path, "rb") as handle:
        return json.loads(handle.read().decode("utf-8"))
