"""Exception types, and the reader and checkers of every JSON input file.

Each checker's error names its field, and ``build``'s also the file.
"""

import json
from dataclasses import MISSING, fields
from numbers import Integral, Real


class FlowbenchError(Exception):
    """Base class for all flowbench errors."""


class SchemaError(FlowbenchError):
    """A dataset schema is inconsistent or does not match the file."""


class InputError(FlowbenchError, ValueError):
    """A config, synth spec or manifest file is malformed or holds a bad value.

    The message starts with the file's path.
    """


class DataFormatError(FlowbenchError):
    """A raw CSV cell or row violates the expected format.

    ``row`` is the 0-based data row of the file, the header not counted,
    also when deduplication removed rows before it; ``column`` is the
    column name.
    """

    def __init__(self, message, row=None, column=None):
        loc = []
        if row is not None:
            loc.append(f"row {row}")
        if column is not None:
            loc.append(f"column {column!r}")
        if loc:
            message = f"{message} ({', '.join(loc)})"
        super().__init__(message)
        self.row = row
        self.column = column


class TrainingDiverged(FlowbenchError):
    """Loss became non-finite during network training."""

    def __init__(self, epoch, batch):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


def read_json(path, error=InputError):
    """The JSON document in the file at ``path``; malformed JSON raises ``error`` naming it."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: malformed JSON: {exc}") from None


def write_json(path, doc) -> None:
    """Write ``doc`` to ``path`` as JSON indented by two spaces, ending in a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def build(cls, doc, source, what: str, error=InputError):
    """``cls(**doc)`` for ``doc``, the JSON form of a ``what`` read from ``source``.

    A non-object, an unknown or missing key, or a value that ``cls``
    rejects with a ``ValueError`` or ``error`` raises ``error`` with a
    message that starts with ``source``.
    """
    if not isinstance(doc, dict):
        raise error(f"{source}: {what} must be a JSON object, got {doc!r}")
    unknown = doc.keys() - {f.name for f in fields(cls)}
    if unknown:
        raise error(f"{source}: unknown {what} key(s) {sorted(unknown)}")
    missing = {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
    missing -= doc.keys()
    if missing:
        raise error(f"{source}: missing {what} key(s) {sorted(missing)}")
    try:
        return cls(**doc)
    except (ValueError, error) as exc:
        raise error(f"{source}: {exc}") from None


def integer(name: str, value, minimum: int | None = None) -> int:
    """``value`` as an int of at least ``minimum``; a bool, float, string or None raises."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def real(name: str, value) -> float:
    """``value`` as a float; a bool, string, None or other non-real raises."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _bare(text: str) -> bool:
    """Whether ``text`` is non-empty and has no surrounding whitespace."""
    return bool(text) and text == text.strip()


def string(name: str, value, optional: bool = False, bare: bool = False) -> None:
    """Raises unless ``value`` is a string, or None when ``optional``.

    When ``bare``, the string must also be non-empty without surrounding
    whitespace, as every text that ingest compares with a stripped cell is.
    """
    if not isinstance(value, str) and not (optional and value is None):
        raise ValueError(f"{name} must be a string{' or null' if optional else ''}, got {value!r}")
    if bare and value is not None and not _bare(value):
        raise ValueError(f"{name} must be non-empty without surrounding whitespace, "
                         f"got {value!r}")


def strings(name: str, value, unique: bool = True, choices=None) -> tuple[str, ...]:
    """``value`` as a tuple of names; anything else raises.

    The names must be distinct when ``unique``, and each one of ``choices``
    when given. Ingest strips each header and attack-type cell before
    comparing it, so a name must be stripped and non-empty.
    """
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{name} must be a list of strings, got {value!r}")
    if not all(map(_bare, value)):
        raise ValueError(f"{name} must hold non-empty names without surrounding "
                         f"whitespace, got {value!r}")
    if unique and len(set(value)) < len(value):
        raise ValueError(f"{name} must be a list without repeats, got {value!r}")
    if choices is not None and (bad := set(value) - set(choices)):
        raise ValueError(f"unknown {name} {sorted(bad)}; choose from {choices}")
    return tuple(value)
