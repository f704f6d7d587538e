"""Exception hierarchy shared across the toolkit, and the typed JSON field read."""

import json


class DensecodeError(Exception):
    """Base class for all toolkit errors."""


class SizeLimitError(DensecodeError):
    """A requested object exceeds the configured dense-storage caps."""


class LayoutError(DensecodeError):
    """Slot indices or subsystem dimensions are inconsistent."""


class NumericalError(DensecodeError):
    """A numerical contract was violated (non-Hermitian input, bad spectrum, ...)."""


class ProbabilityError(DensecodeError):
    """A probability vector or tensor fails nonnegativity/normalization."""


class ParameterError(DensecodeError):
    """A scalar parameter is outside its admissible range."""


class ChannelError(DensecodeError):
    """A channel specification is invalid (e.g. Kraus completeness violated)."""


class NonCovariantChannelError(DensecodeError):
    """Covariance certification failed for a channel passed to a capacity routine."""


class OptimizerDivergedError(DensecodeError):
    """No optimizer restart produced a converged result."""


class ConfigError(DensecodeError):
    """Scenario configuration is malformed; message names the field."""


REQUIRED = object()

# JSON types by the Python type a field is read as; a list is rectangular.
JSON_TYPES = {int: "an integer", float: "a number", bool: "a boolean", str: "a string",
              dict: "an object", list: "an array of numbers", tuple: "an array of integers"}


def _shape(value):
    """Shape of a rectangular array of numbers, () for a number, else None."""
    if not isinstance(value, list):
        return () if _is(value, float) else None
    shapes = {_shape(x) for x in value} or {()}
    return (len(value), *shapes.pop()) if len(shapes) == 1 and None not in shapes else None


def _is(value, kind) -> bool:
    """Whether a JSON value has ``kind``, a key of JSON_TYPES or a tuple of
    them.  An integral number counts as an integer, a boolean as no number."""
    if isinstance(kind, tuple):
        return any(_is(value, k) for k in kind)
    if kind is list:
        return isinstance(value, list) and _shape(value) is not None
    if kind is tuple:
        return isinstance(value, list) and all(_is(x, int) for x in value)
    if kind in (int, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool) and (
            kind is float or isinstance(value, int) or value.is_integer())
    return isinstance(value, kind)


def json_field(doc: dict, path: str, kind, default=REQUIRED, error=ConfigError):
    """Field of ``doc`` at the last key of the dotted ``path``, of JSON type
    ``kind`` (see ``_is``; integers, also in arrays, come back as int), or
    ``default`` when absent; a missing or mistyped field raises ``error`` naming it."""
    parent, _, key = path.rpartition(".")
    if key not in doc:
        if default is REQUIRED:
            raise error(f"{parent or 'config'}: missing required field {key!r}")
        return default
    value = doc[key]
    if not _is(value, kind):
        names = [JSON_TYPES[k] for k in (kind if isinstance(kind, tuple) else (kind,))]
        raise error(f"{path}: expected {' or '.join(names)}, got {json.dumps(value)[:40]}")
    if kind is tuple:
        return tuple(int(x) for x in value)
    return int(value) if kind is int else value


def check_fields(doc: dict, path: str, known, error=ConfigError) -> None:
    """Raise ``error`` naming every field of ``doc``, the block at the dotted
    ``path``, that is not in ``known``: a field no reader reads."""
    unknown = set(doc) - set(known)
    if unknown:
        raise error(f"{path}: unknown fields {sorted(unknown)}")
