"""The key model: ``(tenant, metric)`` pairs as flat registry keys.

A registry key is the tenant and metric joined by the ASCII unit
separator (``0x1f``) — a character that cannot legally appear in either
component, which makes the composite form unambiguous and cheaply
splittable.  The wildcard component ``"*"`` never names a stored key:
it selects the aggregation tree's rollups at query time
(``tenant="*"`` over all keys, optionally narrowed to one metric).

Components are UTF-8 strings of 1–255 encoded bytes.  The byte bound is
a wire decision (key blocks frame one length byte per component on
protocol v3), enforced here so a key that the registry accepts can
always travel.
"""

from __future__ import annotations

from repro.errors import DataError

__all__ = ["KEY_SEP", "WILDCARD", "compose_key", "split_key", "validate_component"]

#: ASCII unit separator: joins tenant and metric inside a flat key.
KEY_SEP = "\x1f"

#: Query-time wildcard: selects a rollup instead of one key.
WILDCARD = "*"

_MAX_COMPONENT_BYTES = 255

#: A key's engine <-> its one-byte code, on the wire (protocol v3) and in
#: spill records (segment version 4).  Order is the code; append-only
#: (codes are a format, not an alphabetical roster).
_ENGINE_NAMES = ("opaq", "kll", "gk", "as95")


def validate_component(name: str, role: str) -> str:
    """Check one key component (tenant or metric); returns it unchanged."""
    if not isinstance(name, str) or not name:
        raise DataError(f"{role} must be a non-empty string, got {name!r}")
    if KEY_SEP in name:
        raise DataError(
            f"{role} {name!r} contains the reserved key separator (0x1f)"
        )
    if len(name.encode("utf-8")) > _MAX_COMPONENT_BYTES:
        raise DataError(
            f"{role} exceeds {_MAX_COMPONENT_BYTES} UTF-8 bytes: {name[:40]!r}…"
        )
    return name


def compose_key(tenant: str, metric: str) -> str:
    """``(tenant, metric) -> "tenant\\x1fmetric"`` (validated).

    Wildcards pass through — the registry's query path interprets them;
    its ingest path rejects them.
    """
    if tenant != WILDCARD:
        validate_component(tenant, "tenant")
    if metric != WILDCARD:
        validate_component(metric, "metric")
    return tenant + KEY_SEP + metric


def split_key(key: str) -> tuple[str, str]:
    """Inverse of :func:`compose_key`."""
    tenant, sep, metric = key.partition(KEY_SEP)
    if not sep or not tenant or not metric or KEY_SEP in metric:
        raise DataError(
            f"malformed registry key {key!r}: expected tenant\\x1fmetric"
        )
    return tenant, metric
