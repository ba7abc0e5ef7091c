"""Canonical JSON helpers.

Two encodings are used everywhere:

* compact (sorted keys, no whitespace) for fingerprint hashing, so the
  same logical request always hashes identically;
* pretty (sorted keys, 2-space indent, trailing newline) for artifacts
  on disk, so repeated runs are byte-identical and diffs stay readable.

Every file written here is created with mode 0600 (before the umask):
run artifacts hold patient conversations.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any

FILE_MODE = 0o600


def canonical_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def pretty_dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def write_text(path: Path | str, text: str) -> None:
    """Write text to path in place: open, write, close. The parent
    directory must exist, and a reader may see the file half written."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, FILE_MODE)
    with open(fd, "w", encoding="utf-8") as handle:
        handle.write(text)


def write_json(path: Path | str, obj: Any, atomic: bool = True) -> None:
    """Write the pretty encoding of obj to path. Atomic writes create the
    parent directory and go through a temp file and a rename, so a reader
    sees the old file or the whole new one; ``atomic=False`` writes in
    place, as ``write_text`` does."""
    if not atomic:
        write_text(path, pretty_dumps(obj))
        return
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(pretty_dumps(obj))
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def read_json(path: Path | str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)
