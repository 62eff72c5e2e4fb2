"""Configuration sections read from JSON objects.

The config dataclasses are the schema: ``from_dict`` reads each value by its
field's annotation, so no section or integer field is listed anywhere else.
"""

import dataclasses
import json
import typing

from .errors import SfexplainError


class MalformedConfig(SfexplainError, ValueError):
    """A configuration section that is not a JSON object or does not fit its fields."""


def from_dict(cls, raw):
    """Build the config dataclass cls from the JSON object raw.

    The keys must be field names of cls. A field annotated with a dataclass D
    or ``D | None`` is read by from_dict(D, ...), taking null where None is
    allowed; a field annotated ``int`` or ``int | None`` accepts only a JSON
    integer (not a float, bool or string), and one annotated ``float`` no
    bool; every other value goes to the constructor unchanged. Input that is
    not an object, an unknown key, a non-integer integer field, a bool in a
    float field, or a value the constructor rejects with a TypeError, KeyError,
    ValueError or OverflowError (an integer past float64's range where a
    number is checked) raises MalformedConfig naming cls; a
    MalformedConfig from a nested section passes through unchanged.
    """
    name = cls.__name__
    if not isinstance(raw, dict):
        raise MalformedConfig(f"{name} must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise MalformedConfig(f"unknown config keys for {name}: {sorted(unknown)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for key, value in raw.items():
        kind, optional = _field_kind(hints[key])
        if value is None and optional:
            values[key] = None
        elif dataclasses.is_dataclass(kind):
            values[key] = from_dict(kind, value)
        elif (kind is int and type(value) is not int) or (kind is float and isinstance(value, bool)):
            want = "integer" if kind is int else "number"
            got = json.dumps(value, default=repr)
            raise MalformedConfig(f"malformed {name}: {key} must be a JSON {want}, got {got}")
        else:
            values[key] = value
    try:
        return cls(**values)
    except (TypeError, KeyError, ValueError, OverflowError) as exc:
        raise MalformedConfig(f"malformed {name}: {exc!r}") from exc


def _field_kind(hint) -> tuple[object, bool]:
    """(the annotation without ``| None``, whether it allowed None)."""
    args = typing.get_args(hint)
    if len(args) == 2 and type(None) in args:
        return next(a for a in args if a is not type(None)), True
    return hint, False
