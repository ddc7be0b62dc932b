"""Small internal argument-validation helpers shared across subpackages."""

from __future__ import annotations

import math
from collections.abc import Collection, Mapping
from numbers import Real

from .exceptions import ConfigurationError, ReproError

_JSON_TYPES = (
    (bool, "boolean"),
    ((int, float), "number"),
    (str, "string"),
    ((list, tuple), "array"),
    (Mapping, "object"),
)


def json_type(value: object) -> str:
    """The JSON type name of a decoded value (``"array"`` for a list);
    the Python type name for anything JSON cannot hold."""
    if value is None:
        return "null"
    for types, name in _JSON_TYPES:
        if isinstance(value, types):
            return name
    return type(value).__name__


def require_keys(
    data: object,
    allowed: Collection[str],
    what: str,
    exc_type: type[ReproError] = ConfigurationError,
) -> None:
    """The one key check behind every ``from_dict``: ``data`` must be a
    JSON object (a mapping) whose keys are all in ``allowed``.  Raises
    ``exc_type`` naming ``what`` and, for a non-object, its JSON type."""
    if not isinstance(data, Mapping):
        raise exc_type(f"{what} must be a JSON object, got {json_type(data)}")
    unknown = set(data) - set(allowed)
    if unknown:
        raise exc_type(
            f"unknown {what} keys {sorted(unknown)}; allowed: {sorted(allowed)}"
        )


def require_field(data: Mapping[str, object], key: str, what: str) -> object:
    """A required dict field, or :class:`ConfigurationError` naming it
    (malformed ``from_dict`` input must not surface as a bare
    ``KeyError``).  Shared by every result type that round-trips
    through plain dicts."""
    if key not in data:
        raise ConfigurationError(f"{what} dict is missing the {key!r} field")
    return data[key]


def require(condition: bool, exc_type: type[ReproError], message: str) -> None:
    """Raise ``exc_type(message)`` unless ``condition`` holds."""
    if not condition:
        raise exc_type(message)


def require_positive(value: float, name: str, exc_type: type[ReproError]) -> float:
    """Validate that a scalar parameter is a finite number > 0 (NaN,
    infinity and booleans fail)."""
    number = math.nan if isinstance(value, bool) else float(value)
    if not 0 < number < math.inf:
        raise exc_type(f"{name} must be a finite number > 0, got {value!r}")
    return number


def require_non_negative(value: float, name: str, exc_type: type[ReproError]) -> float:
    """Validate that a scalar parameter is a finite number >= 0 (NaN,
    infinity and booleans fail)."""
    number = math.nan if isinstance(value, bool) else float(value)
    if not 0 <= number < math.inf:
        raise exc_type(f"{name} must be a finite number >= 0, got {value!r}")
    return number


def require_count(
    value: object, name: str, exc_type: type[ReproError], minimum: int = 1
) -> int:
    """Validate a count (of phases, samples, workers, ...): a whole
    number >= ``minimum`` (1 unless a seed or index may be 0).

    An integral float such as ``4.0`` is accepted; a boolean, a
    non-number, a fraction, NaN or infinity raises ``exc_type`` instead
    of being truncated or coerced."""
    if (
        isinstance(value, bool)
        or not isinstance(value, Real)
        or not math.isfinite(value)
        or value != int(value)
        or value < minimum
    ):
        raise exc_type(f"{name} must be a whole number >= {minimum}, got {value!r}")
    return int(value)


def require_node_count(n: int, exc_type: type[ReproError], minimum: int = 2) -> int:
    """Validate a node/GPU count."""
    if int(n) != n:
        raise exc_type(f"node count must be an integer, got {n!r}")
    n = int(n)
    if n < minimum:
        raise exc_type(f"node count must be >= {minimum}, got {n}")
    return n


def require_power_of_two(n: int, name: str, exc_type: type[ReproError]) -> int:
    """Validate that ``n`` is a power of two (required by several collectives)."""
    n = int(n)
    if n < 1 or (n & (n - 1)) != 0:
        raise exc_type(f"{name} must be a power of two, got {n}")
    return n


def require_rank(rank: int, n: int, exc_type: type[ReproError]) -> int:
    """Validate that ``rank`` is a valid node index in ``[0, n)``."""
    rank = int(rank)
    if not 0 <= rank < n:
        raise exc_type(f"rank must be in [0, {n}), got {rank}")
    return rank
