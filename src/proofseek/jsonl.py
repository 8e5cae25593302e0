"""Line-delimited JSON helpers used by every file interface.

``typed`` is the one reader of a JSON object into a record: the record's
dataclass declaration is its schema.  Each field is checked against the type
the class declares: a ``bool`` is only a literal ``true`` or ``false``, an
``int`` is a JSON integer and never a bool, a ``float`` is any JSON number
but a bool (an integer stays one), and ``str``, ``Optional[...]``,
``tuple[str, ...]`` (a JSON list) and ``dict[str, str]`` are read as
written.  A field without a default is required, and keys that name no field
are ignored.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from pathlib import Path
from typing import Iterable, Iterator, TypeVar, Union

__all__ = ["append_jsonl", "is_texts", "loads", "numbered_values",
           "read_jsonl", "read_rows", "text_values", "typed", "write_jsonl"]

T = TypeVar("T")


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


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, object, bool], ...]:
    """(name, declared type, required) for each field of the dataclass."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name],
                  f.default is f.default_factory is dataclasses.MISSING)
                 for f in dataclasses.fields(cls))


def _fits(hint: object, value: object) -> bool:
    """Whether the JSON value ``value`` is of the declared type ``hint``."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is Union:
        return any(_fits(arg, value) for arg in args)
    if origin is tuple:
        return isinstance(value, list) and all(_fits(args[0], v) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _fits(args[1], v) for v in value.values())
    if hint is float:
        return type(value) in (int, float)
    return type(value) is hint


def typed(cls: type[T], value: object, where: str, **given: object) -> T:
    """The dataclass ``cls`` built from the JSON object ``value``, each field
    checked against its declared type; ``given`` fields are passed as they
    are and their keys in ``value`` are not read.  A value that is not an
    object, a missing required field, a field of the wrong type and a
    ValueError from the class's own checks each raise one ValueError naming
    ``where`` (a file line or a config section) and the field."""
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected a JSON object, got {value!r:.80}")
    kwargs = dict(given)
    for name, hint, required in _fields(cls):
        if name in given or (name not in value and not required):
            continue
        if name not in value:
            raise ValueError(f"{where}: missing field {name!r}")
        if not _fits(hint, value[name]):
            raise ValueError(f"{where}: field {name!r} must be "
                             f"{hint if typing.get_origin(hint) else hint.__name__}, "
                             f"got {value[name]!r:.80}")
        kwargs[name] = (tuple(value[name]) if typing.get_origin(hint) is tuple
                        else value[name])
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def numbered_values(path: Union[str, Path]) -> Iterator[tuple[str, object]]:
    """``("<path>:<line>", value)`` for each non-blank line of a JSONL file.
    A missing file raises FileNotFoundError, naming the path, and a line
    that is not JSON a ValueError beginning ``<path>:<line>:``."""
    yield from text_values(path, Path(path).read_text(encoding="utf-8"))


def text_values(path: Union[str, Path], text: str) -> Iterator[tuple[str, object]]:
    """``numbered_values`` of ``text``, read from the JSONL file ``path``.
    A line ends only at ``"\\n"``: the writers keep U+0085, U+2028 and
    U+2029 raw inside a value, where ``str.splitlines`` would end one."""
    for number, line in enumerate(text.split("\n"), 1):
        if line.strip():
            try:
                value = loads(line)
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {exc}") from exc
            yield f"{path}:{number}", value


def read_jsonl(path: Union[str, Path]) -> list[dict]:
    """The objects of a JSONL file, blank lines skipped."""
    return [value for _, value in numbered_values(path)]


def read_rows(path: Union[str, Path], cls: type[T], **given: object) -> list[T]:
    """The rows of a JSONL file, each read into ``cls`` by ``typed``."""
    return [typed(cls, value, where, **given)
            for where, value in numbered_values(path)]


def write_jsonl(path: Union[str, Path], records: Iterable[dict]) -> None:
    lines = [json.dumps(record, ensure_ascii=False, sort_keys=True)
             for record in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                          encoding="utf-8")


def append_jsonl(path: Union[str, Path], record: dict) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")
        handle.flush()
