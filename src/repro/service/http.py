"""The compatibility wire layer: JSON/HTTP (wire protocol v1).

The primary transport is the framed binary protocol v3
(:mod:`repro.service.proto`) served by :mod:`repro.service.aio`; this
module remains as the compatibility front end — curl-able, debuggable
with any HTTP tooling, and the bridge for peers that have not migrated
(``docs/service.md`` has the migration note).  Both layers answer from
the same vectorised query path, so their bounds are byte-identical.

Deliberately thin — ``ThreadingHTTPServer`` plus a request handler that
translates JSON bodies to :class:`~repro.service.QuantileService` calls
and repro errors to status codes.  No framework, no dependency; the
subsystem stays importable anywhere the library is.

Endpoints (see ``docs/service.md`` for the full protocol):

==========================  ===============================================
``POST /ingest``            body ``{"values": [..]}`` → ``{"accepted", "epoch"}``
``GET  /quantile``          ``?phi=0.5&phi=0.99`` → bounds + epoch metadata
``POST /quantile``          body ``{"phis": [..]}`` → same
``POST /ingest_keyed``      body ``{"keys": [[tenant, metric], ..], "counts": [..], "values": [..]}`` → ``{"elements", "keys"}``
``POST /quantile_keyed``    body ``{"keys": [[tenant, metric], ..], "phis": [..]}`` → ``{"answers": [..]}``
``POST /snapshot``          advance one epoch → ``{"epoch", "count", ...}``
``GET  /stats``             operational counters
``GET  /healthz``           liveness probe
==========================  ===============================================

Status codes: ``400`` for malformed requests (bad JSON, NaN, unknown φ),
``409`` for queries before the first epoch, ``503`` for backpressure
timeouts (retryable), ``404`` for unknown paths.

:class:`~repro.service.ServiceClient` (re-exported here for protocol v1
import sites) speaks this transport when given an ``http://`` address.
"""

from __future__ import annotations

import json
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from repro.errors import (
    ConfigError,
    DataError,
    EstimationError,
    ReproError,
    ServiceError,
)
from repro.service.client import ServiceClient  # noqa: F401 - v1 import compat
from repro.service.engine import QuantileService
from repro.service.tenancy.keys import compose_key

__all__ = ["ServiceClient", "ServiceHTTPServer", "make_server"]

#: Refuse request bodies beyond this size; a bounded wire buffer is the
#: HTTP-side sibling of the bounded ingest queues.
_MAX_BODY_BYTES = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Routes HTTP verbs+paths to service calls; JSON in, JSON out."""

    server: "ServiceHTTPServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing ------------------------------------------------------

    @property
    def service(self) -> QuantileService:
        return self.server.service

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            super().log_message(format, *args)

    def _reply(self, status: int, payload: dict[str, Any]) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status >= 400:
            # An error reply may leave an unread request body on the
            # socket; closing keeps keep-alive clients from desyncing.
            self.send_header("Connection", "close")
            self.close_connection = True
        self.end_headers()
        self.wfile.write(body)

    def _read_json(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise DataError("request body required (Content-Length missing)")
        if length > _MAX_BODY_BYTES:
            raise DataError(
                f"request body of {length} bytes exceeds the "
                f"{_MAX_BODY_BYTES}-byte limit; split the batch"
            )
        try:
            payload = json.loads(self.rfile.read(length))
        except ValueError as exc:
            raise DataError(f"malformed JSON body: {exc}") from None
        if not isinstance(payload, dict):
            raise DataError("JSON body must be an object")
        return payload

    def _dispatch(self, method: str) -> None:
        parsed = urllib.parse.urlparse(self.path)
        route = (method, parsed.path.rstrip("/") or "/")
        try:
            handler = _ROUTES.get(route)
            if handler is None:
                self._reply(404, {"error": f"no route {method} {parsed.path}"})
                return
            handler(self, urllib.parse.parse_qs(parsed.query))
        except (DataError, ConfigError) as exc:
            self._reply(400, {"error": str(exc)})
        except EstimationError as exc:
            self._reply(409, {"error": str(exc)})
        except ServiceError as exc:
            self._reply(503, {"error": str(exc), "retryable": True})
        except ReproError as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # opaq: ignore[exception-broad-except] last-resort 500 guard  # pragma: no cover
            self._reply(500, {"error": f"internal error: {exc}"})

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._dispatch("POST")

    # -- endpoints -----------------------------------------------------

    def _ep_health(self, query: dict[str, list[str]]) -> None:
        self._reply(200, {"ok": True})

    def _ep_stats(self, query: dict[str, list[str]]) -> None:
        self._reply(200, self.service.stats())

    def _ep_ingest(self, query: dict[str, list[str]]) -> None:
        values = self._read_json().get("values")
        self._reply(200, dict(self.service.ingest(values)))

    def _ep_quantile_get(self, query: dict[str, list[str]]) -> None:
        raw = query.get("phi", [])
        if not raw:
            raise DataError("pass at least one ?phi= parameter")
        self._answer_quantiles(raw)

    def _ep_quantile_post(self, query: dict[str, list[str]]) -> None:
        payload = self._read_json()
        phis = payload.get("phis")
        if not isinstance(phis, list) or not phis:
            raise DataError('body must be {"phis": [fraction, ...]}')
        self._answer_quantiles(phis)

    def _answer_quantiles(self, raw: list[Any]) -> None:
        try:
            phis = [float(p) for p in raw]
        except (TypeError, ValueError):
            raise DataError(f"unparseable quantile fractions: {raw!r}") from None
        # Same vectorised kernel as the binary layer (bounds_arrays), so
        # the two transports serve byte-identical bounds.
        self._reply(200, self.service.query_arrays(phis).to_dict())

    @staticmethod
    def _composite_keys(raw: Any) -> list[str]:
        if not isinstance(raw, list) or not raw:
            raise DataError(
                'body must carry {"keys": [[tenant, metric], ...]}'
            )
        keys: list[str] = []
        for pair in raw:
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise DataError(
                    f"each key must be a [tenant, metric] pair, got {pair!r}"
                )
            keys.append(compose_key(str(pair[0]), str(pair[1])))
        return keys

    def _ep_ingest_keyed(self, query: dict[str, list[str]]) -> None:
        payload = self._read_json()
        keys = self._composite_keys(payload.get("keys"))
        counts, values = payload.get("counts"), payload.get("values")
        self._reply(200, dict(self.service.ingest_keyed(keys, counts, values)))

    def _ep_quantile_keyed(self, query: dict[str, list[str]]) -> None:
        payload = self._read_json()
        keys = self._composite_keys(payload.get("keys"))
        phis = payload.get("phis")
        if not isinstance(phis, list) or not phis:
            raise DataError('body must carry {"phis": [fraction, ...]}')
        answers = self.service.quantiles_keyed(keys, phis)
        self._reply(200, {"answers": [answer.to_dict() for answer in answers]})

    def _ep_snapshot(self, query: dict[str, list[str]]) -> None:
        snapshot = self.service.snapshot()
        self._reply(
            200,
            {
                "epoch": snapshot.epoch,
                "count": snapshot.count,
                "guarantee": snapshot.guarantee,
                "samples": snapshot.summary.num_samples,
            },
        )


_ROUTES = {
    ("GET", "/healthz"): _Handler._ep_health,
    ("GET", "/stats"): _Handler._ep_stats,
    ("POST", "/ingest"): _Handler._ep_ingest,
    ("GET", "/quantile"): _Handler._ep_quantile_get,
    ("POST", "/quantile"): _Handler._ep_quantile_post,
    ("POST", "/ingest_keyed"): _Handler._ep_ingest_keyed,
    ("POST", "/quantile_keyed"): _Handler._ep_quantile_keyed,
    ("POST", "/snapshot"): _Handler._ep_snapshot,
}


class ServiceHTTPServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one :class:`QuantileService`."""

    daemon_threads = True

    def __init__(
        self,
        service: QuantileService,
        host: str = "127.0.0.1",
        port: int = 0,
        verbose: bool = False,
    ) -> None:
        self.service = service
        self.verbose = verbose
        super().__init__((host, port), _Handler)

    @property
    def url(self) -> str:
        """Base URL of the bound socket (resolves ``port=0``)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def make_server(
    service: QuantileService,
    host: str = "127.0.0.1",
    port: int = 0,
    verbose: bool = False,
) -> ServiceHTTPServer:
    """Bind (but do not start) the wire layer for ``service``.

    ``port=0`` asks the OS for a free port; read the result off
    :attr:`ServiceHTTPServer.url`.
    """
    return ServiceHTTPServer(service, host=host, port=port, verbose=verbose)
