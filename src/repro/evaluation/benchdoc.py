"""Shared machinery of the published BENCH documents.

``BENCH_sweep.json`` (:mod:`repro.sweeps.bench`) and ``BENCH_service.json``
(:mod:`repro.service.bench`) are stamped, validated and written the same
way; this module holds the one copy of each step: the :func:`stamp` header,
the :func:`latency_entry` block, the atomic :func:`write_document`, and a
declarative checker.  A document's schema is one table of nodes
(:func:`number`, :func:`obj`, :func:`array`, :func:`nullable`, ...); each
cross-field invariant is a named rule attached to the :func:`obj` node it
constrains, and runs once that object's fields passed their own checks.

>>> schema = obj({"shots": number(low=1), "errors": number(low=0)}, at_most("errors", "shots"))
>>> validate({"shots": 4, "errors": 1}, schema, ValueError)
>>> validate({"shots": 4, "errors": 5}, schema, ValueError)
Traceback (most recent call last):
    ...
ValueError: errors exceeds shots
"""

from __future__ import annotations

import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable

#: A schema node checks ``value`` found at ``path`` (``""`` is the root).
Node = Callable[[object, str], None]


class _Violation(Exception):
    """A schema violation; :func:`validate` re-raises it as the document's error."""


def require(condition: bool, message: str) -> None:
    """Fail the validation in progress with ``message`` unless ``condition``."""
    if not condition:
        raise _Violation(message)


def where(path: str) -> str:
    """``"path: "`` — the prefix of a message about the object at ``path``."""
    return f"{path}: " if path else ""


def at_most(key: str, bound: str) -> Node:
    """A rule: an object's ``key`` field does not exceed its ``bound`` field."""

    def rule(entry: dict, path: str) -> None:
        require(entry[key] <= entry[bound], f"{where(path)}{key} exceeds {bound}")

    return rule


def validate(document, schema: Node, error: type[Exception]) -> None:
    """Check ``document`` against ``schema``; raise ``error`` on a violation."""
    try:
        schema(document, "")
    except _Violation as violation:
        raise error(str(violation)) from None


# ---------------------------------------------------------------------------
# node kinds
# ---------------------------------------------------------------------------
def number(low: float | None = None, high: float | None = None) -> Node:
    """A number (never a bool) within the optional inclusive bounds."""

    def check(value, path: str) -> None:
        require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{path}: expected a number, got {type(value).__name__}",
        )
        if low is not None:
            require(value >= low, f"{path}: {value} < {low}")
        if high is not None:
            require(value <= high, f"{path}: {value} > {high}")

    return check


NON_NEGATIVE = number(low=0)
FRACTION = number(0.0, 1.0)


def string(value, path: str) -> None:
    """A non-empty string."""
    require(isinstance(value, str) and value, f"{path} must be a non-empty string")


def boolean(value, path: str) -> None:
    require(isinstance(value, bool), f"{path} must be a boolean")


def present(value, path: str) -> None:
    """Any value: the key only has to exist."""


def one_of(*choices) -> Node:
    """One of a fixed set of values (a schema version, a mode, a codec)."""

    def check(value, path: str) -> None:
        require(value in choices, f"{path}: {value!r} is not {' or '.join(map(repr, choices))}")

    return check


def keys(names: str, node: Node) -> dict[str, Node]:
    """``{name: node}`` for each whitespace-separated name."""
    return dict.fromkeys(names.split(), node)


def obj(fields: dict[str, Node], *rules: Node, when: tuple | None = None) -> Node:
    """An object with required ``fields``, then its cross-field ``rules``.

    ``when=(flag, extra)`` also requires the ``extra`` fields while the
    object's ``flag`` field is true (an enabled cache reports its counters).
    """

    def check(value, path: str) -> None:
        require(isinstance(value, dict), f"{path or 'document'}: expected an object")
        schema = fields
        if when is not None and value.get(when[0]):
            schema = {**fields, **when[1]}
        for key in schema:
            require(
                key in value,
                f"{path}: missing key {key!r}" if path else f"missing top-level key {key!r}",
            )
        for key, node in schema.items():
            node(value[key], f"{path}.{key}" if path else key)
        for rule in rules:
            rule(value, path)

    return check


def array(item: Node) -> Node:
    """A non-empty array whose every element is an ``item``."""

    def check(value, path: str) -> None:
        require(isinstance(value, list) and value, f"{path} must be a non-empty array")
        for index, element in enumerate(value):
            item(element, f"{path}[{index}]")

    return check


def nullable(node: Node) -> Node:
    """``null`` or a ``node``."""

    def check(value, path: str) -> None:
        if value is not None:
            node(value, path)

    return check


def mapping(item: Node) -> Node:
    """An object with arbitrary string keys whose every value is an ``item``."""

    def check(value, path: str) -> None:
        require(isinstance(value, dict), f"{path} must be an object")
        for key, element in value.items():
            item(element, f"{path}[{key!r}]")

    return check


def counts(value, path: str) -> None:
    """A histogram: positive-integer string keys, counts of at least 1."""
    require(isinstance(value, dict), f"{path} must be an object")
    for size, count in value.items():
        require(
            isinstance(size, str) and size.isdecimal() and int(size) >= 1,
            f"{path}: key {size!r} must be a positive-integer string",
        )
        number(low=1)(count, f"{path}[{size!r}]")


# ---------------------------------------------------------------------------
# shared blocks
# ---------------------------------------------------------------------------
_LATENCY_KEYS = "count mean_us p50_us p99_us min_us max_us"
LATENCY = obj(keys(_LATENCY_KEYS, number(low=0.0)))


def latency_entry(count: int, *seconds: float) -> dict:
    """The latency block from a count and mean/p50/p99/min/max in seconds."""
    return dict(zip(_LATENCY_KEYS.split(), (count, *(value * 1e6 for value in seconds))))


def current_commit() -> str:
    """The commit the benchmark ran at: ``$GITHUB_SHA``, git, or ``unknown``."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else "unknown"


def stamp(version: int, commit: str | None = None, timestamp: str | None = None) -> dict:
    """The header: ``commit`` defaults to :func:`current_commit`, ``timestamp`` to now."""
    return {
        "schema_version": version,
        "commit": commit if commit is not None else current_commit(),
        "timestamp": timestamp if timestamp is not None else datetime.now(timezone.utc).isoformat(),
    }


def stamp_fields(version: int) -> dict[str, Node]:
    """The schema of :func:`stamp`'s header at ``version``."""
    return {"schema_version": one_of(version), "commit": string, "timestamp": string}


def write_document(document: dict, path: str | Path, validator: Callable[[dict], None]) -> Path:
    """Validate and write a document (atomic via temp + rename)."""
    validator(document)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.with_suffix(path.suffix + ".tmp")
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    tmp_path.replace(path)
    return path
