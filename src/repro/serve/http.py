"""Thin JSON-over-HTTP front end over :class:`ServerCore`.

Standard library only: :class:`http.server.ThreadingHTTPServer` gives
one handler thread per connection; every handler immediately delegates
to the shared :class:`~repro.serve.core.ServerCore`, so concurrency,
admission and coalescing semantics live in one place regardless of
transport.

Routes
------
``GET /search?q=...&s=...&k=...&deadline_ms=...``
    Run a keyword query; also accepts ``POST /search`` with the same
    fields as a JSON body.  A JSON body may also carry an ``options``
    object — the wire form of
    :class:`~repro.core.config.SearchOptions` (``s``, ``k``,
    ``use_cache``, ``strict_deadline``, ``deadline_ms``); explicit
    top-level parameters win over its fields.  Responds with the
    :func:`repro.core.export.response_to_dict` payload plus a ``serve``
    envelope (degradation report, cache/coalesce provenance).
``POST /documents``
    Append one XML document (JSON body ``{"text": "<xml...>",
    "name"?: ...}``) through the broker; on a durable engine the write
    is WAL'd and crash-safe before the 200 returns.
``POST /admin/flush`` / ``POST /admin/compact``
    Flush the memtable to an immutable segment / compact multi-run
    shards (durable engines only; 500 ``StorageError`` otherwise).
``GET /healthz``
    Liveness + drain state.
``GET /metrics``
    The metrics registry in Prometheus text exposition format.

Error mapping: client errors (bad query, bad parameters, a query mode
the serving engine was not configured for, a ``Content-Length`` that is
not a non-negative integer) are 400; a body over :data:`MAX_BODY_BYTES`
is 413 (:class:`PayloadTooLarge`), refused before any of it is read;
:class:`~repro.errors.Overloaded` is 429 with a ``Retry-After`` header
when the broker can suggest one; :class:`~repro.errors.SearchTimeout`
is 504; any other :class:`~repro.errors.GKSError` is 500.  Bodies are
always JSON: ``{"error": ..., "type": ..., "reason"?: ...}``.

Correlation: every ``/search`` exchange — success *or* error — answers
with an ``X-Request-Id`` header (the client's own when it sent one,
otherwise minted at admission).  The same id is stamped on the
response's :class:`~repro.obs.stats.QueryStats`, the slow-query log
entry and the search's span tree, so one grep joins all four.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from repro.core.config import SearchOptions
from repro.core.export import response_to_dict
from repro.errors import (ConfigError, GKSError, Overloaded, QueryError,
                          SearchTimeout, ValidationError, XMLSyntaxError)
from repro.serve.core import ServerCore

#: largest request body read; a longer declared ``Content-Length`` is 413
MAX_BODY_BYTES = 16 * 1024 * 1024


class PayloadTooLarge(ValidationError):
    """A request declared a body longer than :data:`MAX_BODY_BYTES`."""


def _client_status(exc: Exception) -> int:
    """HTTP status of a request the handler refused before running it."""
    return 413 if isinstance(exc, PayloadTooLarge) else 400


class ServeHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` carrying the shared broker."""

    daemon_threads = True

    def __init__(self, address: tuple[str, int], core: ServerCore) -> None:
        self.core = core
        super().__init__(address, GKSRequestHandler)


def _body_length(header: str | None) -> int:
    """The declared body length, checked before anything is read.

    A negative length would make ``rfile.read`` wait for the client to
    hang up, so it is refused like any other non-integer value.
    """
    if not header:
        return 0
    try:
        length = int(header)
    except ValueError:
        length = -1
    if length < 0:
        raise ValidationError(
            f"Content-Length must be a non-negative integer: {header!r}")
    if length > MAX_BODY_BYTES:
        raise PayloadTooLarge(
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte limit")
    return length


class GKSRequestHandler(BaseHTTPRequestHandler):
    # quiet by default: one log line per request on stderr does not
    # belong in a library; front ends scrape /metrics instead
    def log_message(self, format: str, *args) -> None:
        pass

    @property
    def core(self) -> ServerCore:
        return self.server.core  # type: ignore[attr-defined]

    # -- plumbing -------------------------------------------------------
    def _send_json(self, status: int, payload: dict,
                   headers: dict[str, str] | None = None) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, status: int, exc: Exception,
                         headers: dict[str, str] | None = None) -> None:
        payload = {"error": str(exc), "type": type(exc).__name__}
        if isinstance(exc, Overloaded):
            payload["reason"] = exc.reason
        self._send_json(status, payload, headers=headers)

    def _params(self) -> dict:
        """Merged query-string + JSON-body parameters."""
        split = urlsplit(self.path)
        params = {name: values[-1]
                  for name, values in parse_qs(split.query).items()}
        length = _body_length(self.headers.get("Content-Length"))
        if length:
            raw = self.rfile.read(length)
            body = json.loads(raw.decode("utf-8"))
            if not isinstance(body, dict):
                raise ValidationError("request body must be a JSON object")
            params.update(body)
        return params

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:
        route = urlsplit(self.path).path
        if route == "/healthz":
            payload = self.core.healthz()
            status = 200 if payload["status"] == "ok" else 503
            self._send_json(status, payload)
        elif route == "/metrics":
            text = self.core.registry.render_prometheus().encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type",
                             "text/plain; version=0.0.4; charset=utf-8")
            self.send_header("Content-Length", str(len(text)))
            self.end_headers()
            self.wfile.write(text)
        elif route == "/search":
            self._search()
        else:
            self._send_json(404, {"error": f"no route {route!r}",
                                  "type": "NotFound"})

    def do_POST(self) -> None:
        route = urlsplit(self.path).path
        if route == "/search":
            self._search()
        elif route == "/documents":
            self._add_document()
        elif route == "/admin/flush":
            self._admin("flush")
        elif route == "/admin/compact":
            self._admin("compact")
        else:
            self._send_json(404, {"error": f"no route {route!r}",
                                  "type": "NotFound"})

    def _search(self) -> None:
        # the correlation id is minted (or taken from the client) before
        # admission so even a shed or parse error answers with one
        rid = self.headers.get("X-Request-Id") or \
            self.core.mint_request_id()
        rid_header = {"X-Request-Id": rid}
        try:
            params = self._params()
            raw = params.get("q") or params.get("query")
            if not raw:
                raise ValidationError("missing required parameter 'q'")
            s = int(params["s"]) if "s" in params else None
            k = int(params["k"]) if "k" in params else None
            deadline_s = (float(params["deadline_ms"]) / 1000.0
                          if "deadline_ms" in params else None)
            # the shared tuning record: ``{"options": {...}}`` in the
            # body (or a JSON object in the query string); explicit
            # top-level parameters win over its fields
            options = None
            raw_options = None
            if "options" in params:
                raw_options = params["options"]
                if isinstance(raw_options, str):
                    raw_options = json.loads(raw_options)
            # top-level mode/threshold are shorthand for options fields
            extra = {key: params[key] for key in ("mode", "threshold")
                     if key in params}
            if extra:
                raw_options = {**(raw_options or {}), **extra}
            if raw_options is not None:
                options = SearchOptions.from_mapping(raw_options)
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_error_json(_client_status(exc), exc,
                                  headers=rid_header)
            return
        try:
            response = self.core.search(raw, s, k=k, deadline_s=deadline_s,
                                        options=options, request_id=rid)
        except Overloaded as exc:
            headers = dict(rid_header)
            if exc.retry_after_s is not None:
                headers["Retry-After"] = f"{exc.retry_after_s:.3f}"
            self._send_error_json(429, exc, headers=headers)
            return
        except SearchTimeout as exc:
            self._send_error_json(504, exc, headers=rid_header)
            return
        except GKSError as exc:
            # bad queries and mode-capability mismatches (asking a
            # strict server for probabilistic results) are the
            # client's fault; the rest are ours
            status = 400 if isinstance(
                exc, (QueryError, ValidationError, ConfigError)) else 500
            self._send_error_json(status, exc, headers=rid_header)
            return
        payload = response_to_dict(response,
                                   repository=self.core.engine.repository)
        payload["serve"] = _serve_envelope(response)
        # coalesced followers share the leader's stamped id; the header
        # still reports the id minted for *this* HTTP exchange
        self._send_json(200, payload, headers=rid_header)

    def _add_document(self) -> None:
        try:
            params = self._params()
            text = params.get("text") or params.get("xml")
            if not text:
                raise ValidationError("missing required parameter 'text'")
            name = params.get("name")
        except (ValueError, json.JSONDecodeError) as exc:
            self._send_error_json(_client_status(exc), exc)
            return
        try:
            info = self.core.add_document(text, name=name)
        except Overloaded as exc:
            headers = {}
            if exc.retry_after_s is not None:
                headers["Retry-After"] = f"{exc.retry_after_s:.3f}"
            self._send_error_json(429, exc, headers=headers)
            return
        except GKSError as exc:
            # malformed XML is the client's fault; storage failures ours
            status = 400 if isinstance(
                exc, (XMLSyntaxError, ValidationError)) else 500
            self._send_error_json(status, exc)
            return
        self._send_json(200, info)

    def _admin(self, action: str) -> None:
        try:
            info = (self.core.flush() if action == "flush"
                    else self.core.compact())
        except GKSError as exc:
            self._send_error_json(500, exc)
            return
        self._send_json(200, info)


def _serve_envelope(response) -> dict:
    envelope: dict = {
        "degraded": response.degraded,
        "cache_hit": response.stats.cache_hit,
        "request_id": response.stats.request_id,
    }
    if response.degradation is not None:
        report = response.degradation
        envelope["degradation"] = {
            "stage": report.stage,
            "reason": report.reason,
            "processed": report.processed,
            "total": report.total,
            "elapsed_s": report.elapsed_s,
            "remaining_s": report.remaining_s,
        }
    return envelope


def serve_http(core: ServerCore, host: str = "127.0.0.1",
               port: int = 0) -> ServeHTTPServer:
    """Bind a :class:`ServeHTTPServer`; port 0 picks an ephemeral one.

    Returns the bound (not yet serving) server — call
    ``server.serve_forever()`` (the CLI does) or drive it from a thread
    in tests.  The chosen port is ``server.server_address[1]``.
    """
    return ServeHTTPServer((host, port), core)
