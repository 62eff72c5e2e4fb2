"""Configuration sections read from JSON objects."""

import dataclasses

from .errors import SfexplainError


class MalformedConfig(SfexplainError, ValueError):
    """A configuration section that is not a JSON object or does not fit its fields."""


def from_dict(cls, raw, **convert):
    """Build the config dataclass cls from the JSON object raw.

    The keys must be field names of cls; convert maps a field name to a
    function applied to its raw value first. Input that is not an object, an
    unknown key, or a value that a converter or the constructor rejects with a
    TypeError, KeyError or ValueError raises MalformedConfig naming cls; a
    MalformedConfig from a nested section passes through unchanged.
    """
    name = cls.__name__
    if not isinstance(raw, dict):
        raise MalformedConfig(f"{name} must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise MalformedConfig(f"unknown config keys for {name}: {sorted(unknown)}")
    try:
        return cls(**{key: convert[key](v) if key in convert else v for key, v in raw.items()})
    except MalformedConfig:
        raise
    except (TypeError, KeyError, ValueError) as exc:
        raise MalformedConfig(f"malformed {name}: {exc!r}") from exc
