"""HTTP load driver for ``serve``: open loop on a schedule, closed loop.

Open loop (independent users): request *i* is due at ``start +
offsets[i]``.  Two sender threads, each with its own connection, take
requests in order and sleep until each is due; latency is measured from
the **due** time, so a stall in the server or in this generator counts
against every request it delays.  ``lag`` (send time minus due time) is
how late the generator ran, including waits for a free connection.

This deliberately does not use ``repro.serve.loadgen.LoadGenerator
.run_open``, which stamps latency from the actual send and so hides
generator stalls.
"""

from __future__ import annotations

import http.client
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlencode

CONNECTIONS = 2


@dataclass
class Exchange:
    """One request as the client saw it."""

    rid: str
    key: tuple  # (raw query, s, k or None)
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: bytes = b""
    error: str = ""

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def ok(self) -> bool:
        return self.status == 200 and not self.error


def path_for(key: tuple) -> str:
    raw, s, k = key
    params = {"q": raw, "s": s}
    if k is not None:
        params["k"] = k
    return "/search?" + urlencode(params)


def _send(connection: http.client.HTTPConnection, exchange: Exchange) -> None:
    exchange.sent = time.perf_counter()
    try:
        connection.request("GET", path_for(exchange.key),
                           headers={"X-Request-Id": exchange.rid})
        response = connection.getresponse()
        exchange.body = response.read()
        exchange.status = response.status
    except (OSError, http.client.HTTPException) as exc:
        exchange.error = f"{type(exc).__name__}: {exc}"
        connection.close()
    exchange.done = time.perf_counter()


def _workers(port: int, body) -> None:
    connections = [http.client.HTTPConnection("127.0.0.1", port, timeout=60)
                   for _ in range(CONNECTIONS)]
    threads = [threading.Thread(target=body, args=(connection, number))
               for number, connection in enumerate(connections)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=150)
            if thread.is_alive():
                raise TimeoutError("load driver thread did not finish")
    finally:
        for connection in connections:
            connection.close()


def open_loop(port: int, keys: list[tuple], offsets: list[float],
              prefix: str) -> list[Exchange]:
    """Send ``keys[i]`` at ``offsets[i]`` seconds after the start."""
    start = time.perf_counter() + 0.05
    exchanges = [Exchange(rid=f"{prefix}-{i}", key=key, due=start + offset)
                 for i, (key, offset) in enumerate(zip(keys, offsets))]
    cursor = iter(exchanges)
    lock = threading.Lock()

    def body(connection, number) -> None:
        while True:
            with lock:
                exchange = next(cursor, None)
            if exchange is None:
                return
            delay = exchange.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            _send(connection, exchange)

    _workers(port, body)
    return exchanges


def closed_loop(port: int, keys: list[tuple], seconds: float,
                prefix: str) -> tuple[list[Exchange], float]:
    """Each connection sends back to back for *seconds*."""
    exchanges: list[Exchange] = []
    cursor = iter(enumerate(keys))
    lock = threading.Lock()
    start = time.perf_counter()
    stop_at = start + seconds

    def body(connection, number) -> None:
        while time.perf_counter() < stop_at:
            with lock:
                item = next(cursor, None)
            if item is None:
                return
            i, key = item
            exchange = Exchange(rid=f"{prefix}-{i}", key=key,
                                due=time.perf_counter())
            _send(connection, exchange)
            exchanges.append(exchange)

    _workers(port, body)
    return exchanges, time.perf_counter() - start


def sequential(port: int, keys: list[tuple], prefix: str) -> list[Exchange]:
    """One request at a time (the probe set)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    exchanges = []
    for i, key in enumerate(keys):
        exchange = Exchange(rid=f"{prefix}-{i}", key=key,
                            due=time.perf_counter())
        _send(connection, exchange)
        exchanges.append(exchange)
    connection.close()
    return exchanges
