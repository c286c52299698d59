"""Checks at the input boundary: outside data becomes checked, frozen arrays.

:func:`json_document` reads every JSON document by its table of fields,
refusing unknown and repeated keys, and names each field by one rule:
the document, its key, then deeper keys in brackets
(``scenario 'demand'['man']``).  :func:`checked_array` turns a value
handed to a constructor into a read-only float copy of a known shape,
and :func:`json_numbers` turns a parsed JSON value into a float array
before any of it is used.  :func:`counts` reads step counts, durations
and iteration caps, and :func:`positive` step lengths and tolerances.
Each raises an error that names the field (or an array's first bad
entry), so a bad entry is reported where it comes in and never turns
into a wrong answer later.
:func:`distinct` and :func:`checked_labels` do the same for names that
label rows and variables.

A shape is a tuple with one entry per axis: an int fixes the length, a
string stands for a length that must be the same on every axis with the
same string (``("n", "n")`` is a square matrix), and ``None`` accepts
any length.
"""

import json
import math

import numpy as np

_NUMBER = frozenset({int, float})
_NUMBER_OR_NULL = _NUMBER | {type(None)}

REQUIRED = object()
"""The default of a field that a JSON document must give."""


class JsonFormatError(ValueError):
    """A malformed JSON document."""


def read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` itself, with writing switched off."""
    arr.setflags(write=False)
    return arr


def set_fields(obj, **values):
    """Assign fields of a frozen dataclass instance (from ``__post_init__``)."""
    for name, value in values.items():
        object.__setattr__(obj, name, value)


def distinct(values, name: str, error: type = ValueError) -> tuple:
    """``values`` as a tuple, or ``error`` naming ``name`` and the first
    value that is repeated."""
    values = tuple(values)
    if len(set(values)) != len(values):
        twice = next(v for i, v in enumerate(values) if v in values[:i])
        raise error(f"{name} must be distinct; {twice!r} is repeated")
    return values


def checked_labels(given, name: str, n: int, prefix: str) -> tuple:
    """``tuple(given)``, or ``{prefix}1..{prefix}n`` when ``given`` is
    empty; ``ValueError`` naming ``name`` unless there are ``n`` labels."""
    labels = tuple(given) or tuple(f"{prefix}{i + 1}" for i in range(n))
    if len(labels) != n:
        raise ValueError(f"label lengths must match the matrix: {name} needs {n}, "
                         f"got {len(labels)}")
    return labels


def _count(value, minimum: int):
    """``value`` as an int in ``minimum``..2**63 - 1 (an int64), or None."""
    try:
        k = None if isinstance(value, (bool, np.bool_, str, bytes)) else int(value)
    except (TypeError, ValueError, OverflowError):
        k = None
    return k if k is not None and k == value and minimum <= k < 2 ** 63 else None


def counts(value, name: str, shape: tuple = (), minimum: int = 0,
           error: type = ValueError):
    """An int (``shape == ()``) or a read-only int64 array of one axis,
    each an integer >= ``minimum`` and < 2**63, or ``error`` naming
    ``name`` or the first bad entry.  An integral float reads as its
    integer (``2.0`` is 2); booleans, fractions and strings are refused.
    """
    rule = f"an integer >= {minimum} and < 2**63"
    if not shape:
        k = _count(value, minimum)
        if k is None:
            raise error(f"{name} must be {rule}, got {value!r}")
        return k
    entries = np.array(value, dtype=object)
    if not _fits(entries.shape, shape):
        raise error(f"{name} must have shape {_spec_text(shape)}, got {entries.shape}")
    ks = [_count(v, minimum) for v in entries.tolist()]
    if None in ks:
        i = ks.index(None)
        raise error(f"{name}[{i}] must be {rule}, got {entries[i]!r}")
    return read_only(np.array(ks, dtype=np.int64))


def positive(value, name: str, error: type = ValueError) -> float:
    """``value`` as a finite float > 0, or ``error`` naming ``name``;
    booleans, strings and None are refused."""
    try:
        number = None if isinstance(value, (bool, np.bool_, str, bytes)) else float(value)
    except (TypeError, ValueError, OverflowError):
        number = None
    if number is None or not 0 < number < math.inf:
        raise error(f"{name} must be a positive number (finite and > 0), got {value!r}")
    return number


def _fits(shape: tuple, spec: tuple) -> bool:
    if len(shape) != len(spec):
        return False
    named = {}
    for want, got in zip(spec, shape):
        if isinstance(want, str):
            want = named.setdefault(want, got)
        if want is not None and want != got:
            return False
    return True


def _spec_text(spec: tuple) -> str:
    dims = ["*" if d is None else str(d) for d in spec]
    return f"({dims[0]},)" if len(dims) == 1 else f"({', '.join(dims)})"


def checked_array(value, name: str, shape: tuple, nonneg: bool = False,
                  nan_ok: bool = False, inf_ok: bool = False) -> np.ndarray:
    """Read-only float copy of ``value``, or ``ValueError`` naming ``name``.

    Entries must be finite; ``nan_ok`` also admits NaN (an entry left
    free), ``inf_ok`` also admits infinities (an absent bound).  With
    ``nonneg`` every entry must be >= 0.
    """
    try:
        arr = np.array(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{name} must be an array of numbers") from None
    if not _fits(arr.shape, shape):
        raise ValueError(f"{name} must have shape {_spec_text(shape)}, got {arr.shape}")
    if nan_ok:
        bad, rule = np.isinf(arr), "entries must be finite or NaN"
    elif inf_ok:
        bad, rule = np.isnan(arr), "must not be NaN"
    else:
        bad, rule = ~np.isfinite(arr), "must be finite"
    if bad.any():
        raise ValueError(f"{name} {rule}")
    if nonneg and (arr < 0).any():
        raise ValueError(f"{name} must be nonnegative")
    return read_only(arr)


def _list_of(length) -> str:
    return "a non-empty list of" if length is None else f"a list of {length}"


def json_numbers(value, name: str, shape: tuple, error: type,
                 null_ok: bool = False, nonneg: bool = False) -> np.ndarray:
    """A float of a parsed JSON number (``shape == ()``), or a float array
    of a list of numbers (one axis) or of rows (two axes), or ``error``
    naming ``name``.

    Only JSON numbers are accepted: no booleans, strings, nested lists
    or, unless ``null_ok`` (which reads ``null`` as NaN), nulls.  A
    ``None`` axis accepts any length >= 1; rows must all have one length.
    Every number must be finite, and with ``nonneg`` >= 0.
    """
    allowed = _NUMBER_OR_NULL if null_ok else _NUMBER
    if len(shape) == 2:
        if not isinstance(value, list) or not value or shape[0] not in (None, len(value)):
            raise error(f"{name} must be {_list_of(shape[0])} rows")
        rows, width = value, shape[1]
    else:
        rows, width = [value if shape else [value]], shape[0] if shape else 1
    for i, row in enumerate(rows):
        label = f"{name} row {i}" if len(shape) == 2 else name
        if not isinstance(row, list) or not row or width not in (None, len(row)):
            raise error(f"{label} must be {_list_of(width)} numbers")
        width = len(row)
        if not allowed.issuperset(map(type, row)):
            j = next(j for j, v in enumerate(row) if type(v) not in allowed)
            index = {2: f"[{i}][{j}]", 1: f"[{j}]", 0: ""}[len(shape)]
            raise error(f"{name}{index} is not a number")
    try:
        arr = np.array(value, dtype=float)
    except OverflowError:
        raise error(f"{name} holds a number too large for a float") from None
    if (np.isinf(arr) if null_ok else ~np.isfinite(arr)).any():
        raise error(f"{name} must be finite")
    if nonneg and (arr < 0).any():
        raise error(f"{name} must be >= 0")
    return arr if shape else float(arr)


def as_given(value, name: str, error: type):
    """A field reader that keeps the entry, for a field checked where it is used."""
    return value


def json_string(value, name: str, error: type) -> str:
    """``value`` if it is a JSON string, else ``error`` naming ``name``."""
    if not isinstance(value, str):
        raise error(f"{name} must be a string")
    return value


def json_strings(value, name: str, error: type) -> list:
    """``value`` if it is a list of JSON strings, else ``error`` naming ``name``."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise error(f"{name} must be a list of strings")
    return value


def _entry(name: str, key) -> str:
    """The name of entry ``key`` of the value named ``name``, by the module's rule."""
    return f"{name}[{key!r}]" if name.endswith(("'", '"', "]")) else f"{name} {key!r}"


def _nonfinite(node, name: str):
    """The name of the first non-finite number in ``node``, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else name
    items = node.items() if isinstance(node, dict) \
        else enumerate(node) if isinstance(node, list) else ()
    return next(filter(None, (_nonfinite(child, _entry(name, key)) for key, child in items)),
                None)


def json_map(value, name: str, read, error: type) -> dict:
    """The JSON object ``value`` with each entry read by ``read(entry,
    its name, error=error)``; ``error`` naming ``name`` unless it is an object."""
    if not isinstance(value, dict):
        raise error(f"{name} must be an object")
    return {key: read(entry, _entry(name, key), error=error) for key, entry in value.items()}


def json_object(value, name: str, fields: dict, error: type) -> dict:
    """``value`` read by its field table, key -> ``(reader, default)``: a
    given entry, null included, is ``reader(entry, its name, error=error)``
    and a missing one its default, left out when None.  ``error`` names
    ``name`` for a value that is not an object, a key outside the table
    and a missing field whose default is :data:`REQUIRED`."""
    if not isinstance(value, dict):
        raise error(f"{name} must be an object")
    unknown = value.keys() - fields.keys()
    if unknown:
        raise error(f"{name} has unknown keys: {', '.join(sorted(unknown))}")
    out = {key: default for key, (_, default) in fields.items() if default is not None}
    missing = [key for key, default in out.items() if default is REQUIRED and key not in value]
    if missing:
        raise error(f"{name} is missing required field {missing[0]!r}")
    for key, entry in value.items():
        out[key] = fields[key][0](entry, _entry(name, key), error=error)
    return out


def json_document(data, name: str, fields: dict, error: type,
                  schema: str | None = None) -> dict:
    """The JSON document ``data`` (UTF-8 bytes or text) read by
    :func:`json_object`; :class:`JsonFormatError` first refuses text that
    is not JSON, a key repeated in any object, a document that is not an
    object, ``NaN`` and ``Infinity``, and a ``schema`` other than ``schema``."""
    constants = []

    def unique(pairs):
        obj = dict(pairs)
        if len(obj) < len(pairs):
            distinct((key for key, _ in pairs), f"{name} keys", JsonFormatError)
        return obj

    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data,
                         parse_constant=lambda text: constants.append(text) or float(text),
                         object_pairs_hook=unique)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise JsonFormatError(f"invalid {name} JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise JsonFormatError(f"{name} document must be a JSON object")
    if constants:
        raise JsonFormatError(f"{_nonfinite(doc, name)} is not a finite number: "
                              f"{constants[0]}")
    if schema is not None and (got := doc.pop("schema", None)) != schema:
        raise JsonFormatError(f"{name} schema mismatch: expected {schema!r}, got {got!r}")
    return json_object(doc, name, fields, error)
