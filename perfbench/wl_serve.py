"""``serve``: HTTP, open loop at one Poisson rate, then a closed loop.

The server (``launcher.py``, its own process) serves dblp s4 from a v4
``varint-dag`` file with two shards behind ``ServerCore`` (2 workers) and
``serve_http``.  Requests draw from a seeded ``generate_queries`` pool of
400 queries with Zipf weights, so queries repeat; 80% carry ``k=10``
(top-k, which bypasses the engine LRU) and 20% ask for the full
response (LRU, export of every node).  The mix is fixed; the seed picks
the corpus, the order of the requests and their arrival times.  The open-loop phase times each
request from its due time; a closed loop with two connections then
measures capacity.
"""

from __future__ import annotations

import hashlib
import json
import random
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import checks
import inputs
import openloop
from common import HERE, WORK, Outcome, fresh_dir, percentile
from metrics import latency_summary, layer_report

#: open-loop arrival rate (requests/s), a tenth of the closed-loop
#: capacity (about 300 requests/s on 2 cores): at 48/s a few heavy top-k
#: queries kept a worker busy often enough that the median latency moved
#: by 30% between seeds; at 30/s it moved by 11%
RATE = 30.0
#: share of the run spent in the open loop; the rest is the closed loop,
#: long enough (10 s at 25 s) to average the host's speed swings
OPEN_SHARE = 0.6
#: requests in one pass of the closed loop's fixed mix
CLOSED_CYCLE = 300
SETUP_REPEATS = 3
PROBES = 8
REFERENCE_SAMPLE = 24


def _keys(pool: list, count: int, seed: int) -> list[tuple]:
    """A fixed Zipf mix of *count* requests in a seeded order.

    Walking the mix in pool order, every fifth request asks for the full
    response and the others for ``k=10``, so which requests are full is
    also the same for every seed.
    """
    keys: list[tuple] = []
    for (raw, s), times in zip(pool, inputs.zipf_counts(len(pool), count)):
        for _ in range(times):
            keys.append((raw, s, None if len(keys) % 5 == 4 else 10))
    random.Random(seed).shuffle(keys)
    return keys


class Server:
    """One launcher process; always stopped and waited for."""

    def __init__(self, texts_path: Path, directory: Path, setups: int,
                 spans_path: Path | None) -> None:
        command = [sys.executable, str(HERE / "launcher.py"),
                   "--texts", str(texts_path), "--dir", str(directory),
                   "--setups", str(setups)]
        if spans_path is not None:
            command += ["--spans", str(spans_path)]
        self.process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                        text=True)
        line = self.process.stdout.readline()
        if not line:
            self.process.wait(timeout=60)
            raise RuntimeError("server launcher exited before serving")
        self.info = json.loads(line)
        self.port = self.info["port"]

    def stop(self) -> dict:
        """SIGTERM, drain, and the launcher's closing report."""
        self.process.send_signal(signal.SIGTERM)
        try:
            out, _ = self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            raise
        if self.process.returncode != 0:
            raise RuntimeError(f"server launcher exited with "
                               f"{self.process.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.communicate()


def _serve(texts_path, directory, setups, spans_path, drive):
    server = Server(texts_path, directory, setups, spans_path)
    try:
        result = drive(server.port)
        closing = server.stop()
    finally:
        server.kill()
    return server.info, result, closing


def _payload(exchange) -> dict:
    return json.loads(exchange.body)


def _check_exchanges(outcome: Outcome, exchanges, seen: dict) -> None:
    """Every request answered 200, and repeats answer identically."""
    for exchange in exchanges:
        outcome.attempted += 1
        if not exchange.ok:
            outcome.fail(f"request {exchange.key} failed: status "
                         f"{exchange.status} {exchange.error}")
            continue
        nodes = json.dumps(_payload(exchange)["nodes"], sort_keys=True)
        digest = hashlib.sha256(nodes.encode()).hexdigest()
        if seen.setdefault(exchange.key, (digest, exchange))[0] != digest:
            outcome.fail(f"request {exchange.key} answered differently "
                         f"on repeat")


def _digest(exchanges) -> str:
    """Digest of the nodes the answered *exchanges* returned."""
    return hashlib.sha256(b"".join(
        json.dumps(checks.wire_nodes(_payload(exchange)),
                   sort_keys=True).encode()
        for exchange in exchanges if exchange.ok)).hexdigest()[:16]


def _check_reference(outcome: Outcome, reference, exchanges) -> None:
    """HTTP payloads node for node against raw monolithic in-process."""
    for exchange in exchanges:
        raw, s, k = exchange.key
        outcome.attempted += 1
        if not exchange.ok:
            continue  # already failed by _check_exchanges
        wire = checks.wire_nodes(_payload(exchange))
        if wire != checks.reference_nodes(reference, raw, s, k):
            outcome.fail(f"HTTP answer to {exchange.key} differs from the "
                         f"in-process raw monolithic engine")


def _capacity(exchanges, cycle: int) -> float:
    """Requests per second over the whole cycles of the closed loop.

    The closed loop walks a fixed mix of *cycle* requests over and over;
    counting only completed cycles keeps the mix behind the figure the
    same in every run, however far the last cycle got.
    """
    ordered = sorted(exchanges,
                     key=lambda exchange: int(exchange.rid.rsplit("-")[-1]))
    whole = len(ordered) // cycle * cycle
    if not whole:
        whole = len(ordered)
    start = min(exchange.sent for exchange in ordered)
    return whole / (max(exchange.done for exchange in ordered[:whole])
                    - start)


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import GKSEngine, Texts
    from repro.datasets import load_dataset

    outcome = Outcome()
    name, scale = inputs.SERVE_CORPUS
    texts = inputs.corpus_texts(name, scale, seed)
    reference = GKSEngine.open(Texts(texts))
    pool = inputs.query_pool(reference.index, inputs.SERVE_POOL)
    picks = random.Random(seed).sample(pool, PROBES)
    probes = [(raw, s, k) for raw, s in picks for k in (10, None)]
    work = fresh_dir(WORK / "serve")
    texts_path = work / "texts.json"
    texts_path.write_text(json.dumps(texts))
    input_bytes = sum(len(text.encode()) for text in texts)

    open_seconds = seconds * OPEN_SHARE
    offsets = inputs.poisson_schedule(RATE, open_seconds, seed)
    keys = _keys(pool, len(offsets), seed)
    closed_keys = _keys(pool, CLOSED_CYCLE, seed + 1) * 100

    def untraced_drive(port):
        probe = openloop.sequential(port, probes, "probe")
        arrivals = openloop.open_loop(port, keys, offsets, "open")
        closed = None
        if not trace:
            closed = openloop.closed_loop(port, closed_keys,
                                          seconds - open_seconds, "closed")
        return probe, arrivals, closed

    info, (probe, arrivals, closed), closing = _serve(
        texts_path, fresh_dir(work / "index"),
        1 if trace else SETUP_REPEATS, None, untraced_drive)
    if not info["lazy"]:
        outcome.fail("the served index was not opened lazily from its "
                     "v4 file")

    seen: dict = {}
    _check_exchanges(outcome, probe + arrivals, seen)
    outcome.answers = _digest(probe)
    sampled = random.Random(seed ^ 0x5EED).sample(
        sorted(seen, key=repr), min(REFERENCE_SAMPLE, len(seen)))
    _check_reference(outcome, reference,
                     probe + [seen[key][1] for key in sampled])
    repository = load_dataset(name, scale=scale, seed=seed)
    for exchange in probe[1:4:2]:  # two full-response probes
        raw, s, _ = exchange.key
        outcome.attempted += 1
        problem = checks.contained(
            repository, reference, raw, s,
            [node["dewey"] for node in checks.wire_nodes(
                _payload(exchange))])
        if problem:
            outcome.fail(problem)

    latencies = [exchange.latency for exchange in arrivals]
    lags = [exchange.sent - exchange.due for exchange in arrivals]
    if not trace:
        closed_exchanges, closed_elapsed = closed
        _check_exchanges(outcome, closed_exchanges, seen)
        summary = latency_summary(latencies)
        outcome.put("setup_s", statistics.median(info["setup_s"]), "s")
        outcome.put("search_p50_ms", summary["p50"], "ms")
        outcome.put("search_qps", _capacity(closed_exchanges, CLOSED_CYCLE),
                    "1/s")
        outcome.put("peak_rss_mb", closing["peak_rss_mb"], "MiB")
        tails = latency_summary(latencies)
        outcome.notes.append(
            f"open loop: {len(arrivals)} requests at {RATE:g}/s over "
            f"{open_seconds:.1f} s (p90 {tails['p90']:.2f} ms, p99 "
            f"{tails['p99']:.2f} ms), generator lag p99 "
            f"{percentile(lags, 99) * 1000:.2f} ms; closed loop: "
            f"{len(closed_exchanges)} requests on "
            f"{openloop.CONNECTIONS} connections in {closed_elapsed:.2f} s "
            f"(capacity over whole {CLOSED_CYCLE}-request cycles)")
        outcome.notes.append(
            f"v4 file {info['index_bytes']} bytes for {input_bytes} bytes "
            f"of XML; broker {json.dumps(closing['broker'])}")
        return outcome

    summary = latency_summary(latencies)  # the untraced phase's tails
    outcome.put("search_p90_ms", summary["p90"], "ms")
    outcome.put("search_p99_ms", summary["p99"], "ms")

    # traced phase: a second server with the span wrappers installed
    spans_path = work / "spans.json"

    def traced_drive(port):
        return (openloop.sequential(port, probes, "traced-probe"),
                openloop.open_loop(port, keys, offsets, "traced"))

    _, (traced_probe, traced), closing = _serve(
        texts_path, fresh_dir(work / "index"), 1, spans_path, traced_drive)
    # repeats of keys the untraced server answered, so a traced answer
    # that differs from the untraced one fails here
    _check_exchanges(outcome, traced_probe + traced, seen)
    outcome.answers = _digest(traced_probe)
    snapshot = json.loads(spans_path.read_text())
    layer_report(outcome, snapshot, cache=closing["cache"],
                 broker=closing["broker"])
    broker_spans = {span[5]: span for span in snapshot["spans"]
                    if span[2] == "serve.search"}
    handler_spans = {span[5]: span for span in snapshot["spans"]
                     if span[2] == "http.handle"}
    http_self, wall, uncovered, received = [], 0.0, 0.0, 0
    for exchange in traced_probe + traced:  # every request the spans saw
        client = exchange.done - exchange.sent
        received += len(exchange.body)
        broker = broker_spans.get(exchange.rid)
        if broker is not None:
            http_self.append(client - (broker[4] - broker[3]))
        handler = handler_spans.get(exchange.rid)
        if handler is not None:
            wall += client
            uncovered += max(0.0, client - (handler[4] - handler[3]))
    outcome.put("http.calls", len(http_self), "count")
    outcome.put("http.self_s", sum(http_self), "s")
    outcome.put("http.self_p50_ms", statistics.median(http_self) * 1000.0
                if http_self else 0.0, "ms")
    outcome.put("http.bytes", received, "bytes")
    outcome.put("trace.overhead_ratio",
                statistics.median(exchange.latency for exchange in traced)
                / statistics.median(latencies), "ratio")
    outcome.put("trace.unattributed_share",
                uncovered / wall if wall else 0.0, "ratio")
    outcome.put("driver.lag_p99_ms", percentile(lags, 99) * 1000.0, "ms")
    outcome.put("index_bytes_per_input_byte",
                info["index_bytes"] / input_bytes, "ratio")
    outcome.snapshot = snapshot
    return outcome
