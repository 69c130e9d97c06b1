"""The shared JSON round-trip contract for experiment results.

Every result dataclass in the experiment harness implements::

    result.to_json()        -> JSON-native payload (dict of lists/dicts/scalars)
    Cls.from_json(payload)  -> an equal instance

The contract is what the content-addressed result cache stores and what
``export.py`` serializes from, so there is exactly one on-disk shape per
result type instead of one per consumer.  The helpers here handle the
two patterns plain ``json`` cannot: dataclass fields and dictionaries
whose keys are tuples or floats (JSON object keys must be strings, so
those maps are stored as ``[key, value]`` pair lists instead).
:func:`canonical_json` is the deterministic text form behind the
cache keys and the runner's per-task seeds.
"""

from __future__ import annotations

import dataclasses
import json
from collections.abc import Callable, Iterable, Mapping
from typing import Any

__all__ = [
    "dump_fields",
    "load_fields",
    "dump_map",
    "load_map",
    "canonical_json",
]


def dump_fields(obj: Any) -> dict[str, Any]:
    """A flat dataclass (scalar / str-keyed-dict / list fields) to a dict."""
    return dataclasses.asdict(obj)


def load_fields(cls: type, payload: Mapping[str, Any]) -> Any:
    """Inverse of :func:`dump_fields` for flat dataclasses."""
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - names)
    if unknown:
        raise ValueError(f"{cls.__name__}.from_json: unknown fields {unknown}")
    return cls(**payload)


def dump_map(
    d: Mapping[Any, Any], dump_value: Callable[[Any], Any] = lambda v: v
) -> list[list[Any]]:
    """A dict with tuple/float/int keys as an order-preserving pair list.

    Tuple keys become lists (JSON has no tuples); scalar keys are stored
    as-is, so floats and ints survive the round trip un-stringified.
    """
    return [
        [list(k) if isinstance(k, tuple) else k, dump_value(v)]
        for k, v in d.items()
    ]


def load_map(
    pairs: Iterable[Iterable[Any]],
    load_value: Callable[[Any], Any] = lambda v: v,
) -> dict[Any, Any]:
    """Inverse of :func:`dump_map`; list keys come back as tuples."""
    return {
        tuple(k) if isinstance(k, list) else k: load_value(v)
        for k, v in pairs
    }


def canonical_json(payload: Any) -> str:
    """Deterministic text form (sorted keys, no whitespace) used for
    content-addressed cache keys; tuples are normalized to lists first."""

    def norm(v: Any) -> Any:
        if isinstance(v, tuple):
            return [norm(x) for x in v]
        if isinstance(v, list):
            return [norm(x) for x in v]
        if isinstance(v, dict):
            return {k: norm(x) for k, x in v.items()}
        return v

    return json.dumps(norm(payload), sort_keys=True, separators=(",", ":"))
