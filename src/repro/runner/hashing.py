"""Content-addressed cache keys for experiment cells.

A cell's key is the SHA-256 of a canonical JSON document naming the
experiment, its parameters and the repro version; a cell's seed is one
of its parameters or part of its experiment id.  Canonical means: keys
sorted, compact separators, enums reduced to their values,
tuples to lists — so the same logical cell always serialises to the
same bytes regardless of dict insertion order or container flavour.

Anything that is not losslessly JSON-representable is rejected rather
than coerced: a key built from ``str(object)`` would silently collide
(or silently never hit) across runs.
"""

from __future__ import annotations

import enum
import hashlib
import json
from typing import Mapping

from .._version import __version__

__all__ = [
    "canonical_json",
    "cell_key",
    "default_experiment_id",
]

_ATOMS = (str, int, bool, type(None))


def _jsonify(value: object) -> object:
    """Reduce *value* to plain JSON types; raise on anything lossy."""
    if isinstance(value, _ATOMS):
        return value
    if isinstance(value, float):
        # repr round-trips exactly in Python 3, so float params keep
        # full precision in the key document.
        return value
    if isinstance(value, enum.Enum):
        return {"__enum__": f"{type(value).__name__}.{value.name}"}
    if isinstance(value, Mapping):
        out = {}
        for k, v in value.items():
            if not isinstance(k, str):
                raise TypeError(f"cache-key mapping keys must be str, got {k!r}")
            out[k] = _jsonify(v)
        return out
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    raise TypeError(
        f"value {value!r} of type {type(value).__name__} is not "
        "cache-key safe; pass only JSON-representable parameters"
    )


def canonical_json(value: object) -> str:
    """Serialise *value* to canonical (sorted, compact) JSON."""
    return json.dumps(_jsonify(value), sort_keys=True, separators=(",", ":"))


def cell_key(
    experiment_id: str, params: Mapping[str, object], version: str = __version__
) -> str:
    """SHA-256 key of one (experiment, params, version) cell."""
    document = canonical_json(
        {"experiment": experiment_id, "params": dict(params), "version": version}
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def default_experiment_id(fn: object) -> str:
    """Stable identity of a module-level experiment callable.

    Lambdas, closures and ``functools.partial`` objects have no stable
    cross-run name — their identity would not survive a code edit that
    moves them one line — so they must be given an explicit
    ``experiment_id`` instead.
    """
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise TypeError(
            f"cannot derive a stable experiment id for {fn!r}; pass "
            "experiment_id= explicitly (lambdas/closures/partials have "
            "no cross-run name)"
        )
    return f"{module}.{qualname}"
