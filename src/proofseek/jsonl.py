"""Line-delimited JSON helpers used by every file interface."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Union

__all__ = ["append_jsonl", "is_texts", "loads", "read_jsonl", "write_jsonl"]


def loads(text: Union[str, bytes]) -> object:
    """The JSON value of a line from outside the process.  A value nested too
    deeply to decode is a ValueError, like any other text that is not JSON,
    never a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError("JSON value nested too deeply") from exc


def is_texts(value: object) -> bool:
    """Whether a JSON value is a list of strings."""
    return isinstance(value, list) and all(isinstance(text, str) for text in value)


def read_jsonl(path: Union[str, Path]) -> list[dict]:
    """The objects of a JSONL file, blank lines skipped.  A missing file
    raises FileNotFoundError, naming the path."""
    records = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            records.append(loads(line))
    return records


def write_jsonl(path: Union[str, Path], records: Iterable[dict]) -> None:
    lines = [json.dumps(record, ensure_ascii=False, sort_keys=True)
             for record in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                          encoding="utf-8")


def append_jsonl(path: Union[str, Path], record: dict) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        handle.flush()
