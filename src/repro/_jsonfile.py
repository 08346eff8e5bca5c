"""The repo's JSON files: one journal reader, one appender, one writer.

Every durable file the package keeps is either an append-only JSONL
*journal* (``events.jsonl``, ``queue.jsonl``, ``spans.jsonl``) or a
single JSON *document* that is rewritten whole (cache entries,
``manifest.json``, heartbeats, cache ``layout.json`` and counter
files).  This module owns the bytes and the two rules that make them
safe to read while a writer may die at any instant (see "JSON files on
disk" in ``docs/RUNTIME.md``):

**Torn-line rule.**  A journal record is one ``json.dumps(record,
sort_keys=True)`` line written with a single ``write``, so a killed
writer can leave at most one partial line, at the tail.  Readers skip
blank lines, skip and count lines that do not parse (*torn* lines), and
ignore lines that parse to anything but an object; every record before
a torn line is still good.  A journal that cannot be opened reads as
empty.

**Atomic-replace rule.**  A document is dumped to a temporary file
(``.tmp-*.json``) in the target's own directory and moved over the
target with ``os.replace``, so a reader sees the old document or the
complete new one, never a torn one.  If the dump or the rename fails,
the temporary file is removed and the error propagates.

Callers keep their own fault-injection hooks and failure policies; this
module only raises ``OSError`` (and whatever ``json`` raises on an
unserialisable record).  It imports no other ``repro`` module.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Iterable, List, Optional, Tuple

#: Name prefix of an atomic writer's temporary file.
TEMP_PREFIX = ".tmp-"


def parse_jsonl(lines: Iterable[str]) -> Tuple[List[dict], int]:
    """``(records, torn)``: the object records among ``lines``, and how
    many non-blank lines did not parse (see the torn-line rule)."""
    records: List[dict] = []
    torn = 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            torn += 1
            continue
        if isinstance(record, dict):
            records.append(record)
    return records, torn


def read_jsonl(path: str) -> Tuple[List[dict], int]:
    """:func:`parse_jsonl` over the file at ``path``; a file that cannot
    be read (most often: not written yet) is an empty journal."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return [], 0
    return parse_jsonl(lines)


def read_json(path: str) -> Optional[dict]:
    """The JSON object stored at ``path``, or ``None`` if the file is
    missing, unreadable, torn or holds something other than an object."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError):
        return None
    return document if isinstance(document, dict) else None


def append_jsonl(path: str, record: dict, fsync: bool = False) -> None:
    """Append ``record`` to the journal at ``path`` as one line, in one
    ``write``; with ``fsync`` the line is on disk when this returns.

    A torn tail (a last byte other than a newline) gets its newline in
    the same ``write``, so it stays its own skipped line instead of
    swallowing ``record``."""
    line = (json.dumps(record, sort_keys=True) + "\n").encode("utf-8")
    with open(path, "a+b") as handle:
        end = handle.seek(0, os.SEEK_END)
        if end:
            handle.seek(end - 1)
            if handle.read(1) != b"\n":
                line = b"\n" + line
        handle.write(line)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())


def write_json_atomic(path: str, document: dict,
                      indent: Optional[int] = None) -> None:
    """Replace the file at ``path`` with ``document`` (sorted keys,
    compact unless ``indent``) under the atomic-replace rule."""
    fd, tmp_path = tempfile.mkstemp(dir=os.path.dirname(path),
                                    prefix=TEMP_PREFIX, suffix=".json")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=indent, sort_keys=True)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.remove(tmp_path)
        except OSError:
            pass
        raise
