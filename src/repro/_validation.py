"""Shared argument-validation helpers.

Every public constructor in :mod:`repro` validates its inputs eagerly so
that configuration mistakes surface at build time rather than as silent
mis-simulation.  These helpers keep the checks terse and the error
messages uniform.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with *message* unless *condition* holds."""
    if not condition:
        raise ValueError(message)


def check_positive(name: str, value: float) -> float:
    """Validate that *value* is a finite number strictly greater than zero."""
    check_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Validate that *value* is a finite number >= 0."""
    check_finite(name, value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_finite(name: str, value: float) -> float:
    """Validate that *value* is a real, finite number (bools rejected)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def check_fraction(name: str, value: float, *, inclusive: bool = True) -> float:
    """Validate that *value* lies in ``[0, 1]`` (or ``(0, 1)`` if exclusive)."""
    check_finite(name, value)
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    else:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value!r}")
    return value


def check_int(name: str, value: int, *, minimum: Optional[int] = None) -> int:
    """Validate that *value* is an integer, optionally bounded below."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_probability_vector(name: str, values: Sequence[float]) -> list:
    """Validate a discrete distribution: non-negative entries summing to ~1."""
    vals = [check_non_negative(f"{name}[{i}]", v) for i, v in enumerate(values)]
    total = sum(vals)
    if not math.isclose(total, 1.0, rel_tol=1e-6, abs_tol=1e-9):
        raise ValueError(f"{name} must sum to 1, got sum={total!r}")
    return vals
