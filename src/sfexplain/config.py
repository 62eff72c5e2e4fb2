"""Configuration sections read from JSON objects.

The config dataclasses are the schema: ``from_dict`` reads each section, and
``check_fields`` checks each value, by its field's annotation, so no section
or integer field is listed anywhere else.
"""

import dataclasses
import math
import typing
from numbers import Integral, Real

from .errors import SfexplainError


class MalformedConfig(SfexplainError, ValueError):
    """A configuration section that is not a JSON object or does not fit its fields."""


def from_dict(cls, raw):
    """Build the config dataclass cls from the JSON object raw.

    The keys must be field names of cls. A field annotated with a dataclass D
    or ``D | None`` is read by from_dict(D, ...), taking null where None is
    allowed; every other value goes to the constructor unchanged, whose
    ``check_fields`` takes only a JSON integer (not a float, bool or string)
    for an ``int`` field and no bool for a ``float`` one. Input that is not
    an object, an unknown key, or a value the constructor rejects with a
    TypeError, KeyError or ValueError raises MalformedConfig naming cls; a
    MalformedConfig from a nested section passes through unchanged.
    """
    name = cls.__name__
    if not isinstance(raw, dict):
        raise MalformedConfig(f"{name} must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise MalformedConfig(f"unknown config keys for {name}: {sorted(unknown)}")
    kinds = _field_kinds(cls)
    values = {}
    for key, value in raw.items():
        kind, optional = kinds[key]
        if dataclasses.is_dataclass(kind) and not (value is None and optional):
            values[key] = from_dict(kind, value)
        else:
            values[key] = value
    try:
        return cls(**values)
    except (TypeError, KeyError, ValueError) as exc:
        raise MalformedConfig(f"malformed {name}: {exc!r}") from exc


def _field_kinds(cls) -> dict[str, tuple[object, bool]]:
    """Each field of cls: (its annotation without ``| None``, whether it allowed None)."""
    hints = typing.get_type_hints(cls)
    kinds = {}
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        if len(args) == 2 and type(None) in args:
            kinds[f.name] = next(a for a in args if a is not type(None)), True
        else:
            kinds[f.name] = hints[f.name], False
    return kinds


def check_fields(config) -> None:
    """Raise ValueError unless every ``int`` field of the config dataclass
    holds an integer (``is_integer``), every ``float`` field a real number
    that is not a bool, every field annotated with a dataclass an instance of
    it, and every ``frozenset`` field something other than a bare string; a
    field annotated ``| None`` may also hold None. Constructors call it
    before their range checks."""
    for name, (kind, optional) in _field_kinds(type(config)).items():
        value = getattr(config, name)
        if value is None and optional:
            continue
        if kind is int and not is_integer(value):
            raise ValueError(f"{name} must be an integer, not a bool, float or string; got {value!r}")
        if kind is float and (isinstance(value, bool) or not isinstance(value, Real)):
            raise ValueError(f"{name} must be a real number, not a bool or string; got {value!r}")
        if dataclasses.is_dataclass(kind) and not isinstance(value, kind):
            raise ValueError(f"{name} must be an instance of {kind.__name__}, got {type(value).__name__} {value!r}")
        if typing.get_origin(kind) is frozenset and isinstance(value, str):
            raise ValueError(f"{name} must be a collection, not the bare string {value!r}")


def is_integer(value) -> bool:
    """Whether value is an integer, numpy's included, and not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """Whether value is a real number, not a bool, with a finite float64 value:
    an integer past float64's range is not, rather than an OverflowError."""
    if not isinstance(value, Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False
