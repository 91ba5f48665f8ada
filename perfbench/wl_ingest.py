"""``ingest``: one in-process caller adding documents to a durable store.

The store (``EngineConfig(store_path=...)``, default ``memtable_docs=64``
and ``compact_segments=4``, fsync on) starts from dblp s2.  The caller
adds small dblp records (~290 B each, from other seeds) with
``add_document`` and runs one search per three adds from a small query
pool with the engine LRU on, so generation fences keep invalidating the
cache and flushes and compactions stall the caller.  At the end the
engine is closed, the store reopened from a freshly regenerated base
corpus, and recovery checked: every acknowledged document is present
and the probe queries answer identically.  Each phase also probes the
pool before its loop; a traced run compares that probe between its
untraced and traced phase, which start from the same base.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time

import inputs
from common import (WORK, Outcome, dir_bytes, fresh_dir, peak_rss_mb,
                    settle)
from metrics import latency_summary, layer_report, query_median_ms
from spans import Recorder, install, unattributed_seconds

SETUP_REPEATS = 3
RECOVER_REPEATS = 3
#: adds per search in the closed loop
ADDS_PER_SEARCH = 3
#: upper bound on the add rate, to size the record supply
MAX_ADDS_PER_S = 600


def _open(texts: list[str], directory):
    from repro import EngineConfig, GKSEngine, Texts

    return GKSEngine.open(Texts(texts), EngineConfig(store_path=directory))


def _probe(engine, pool) -> list[tuple]:
    return [tuple((node.dewey, node.score) for node in
                  engine.search(raw, s=s, use_cache=False).nodes)
            for raw, s in pool]


def _digest(answers: list[tuple]) -> str:
    return hashlib.sha256(repr(answers).encode()).hexdigest()[:16]


def _loop(engine, records, pool, seconds, seed, outcome,
          recorder: Recorder | None = None):
    """Adds and searches until *seconds* pass; returns the timings."""
    rng = random.Random(seed)
    adds: list[float] = []
    searches: dict[int, list[float]] = {}  # by pool position
    acknowledged: list[int] = []
    base = len(engine.repository)
    started = time.perf_counter()
    op = 0
    while time.perf_counter() - started < seconds and len(adds) < len(
            records):
        begin = time.perf_counter()
        if op % (ADDS_PER_SEARCH + 1) == ADDS_PER_SEARCH:
            slot = rng.randrange(len(pool))
            raw, s = pool[slot]
            if recorder is None:
                engine.search(raw, s=s)
            else:
                with recorder.request("bench.search", f"s{op}"):
                    engine.search(raw, s=s)
            searches.setdefault(slot, []).append(time.perf_counter() - begin)
        else:
            number = len(adds)
            info = engine.add_document(records[number], name=f"rec-{number}")
            adds.append(time.perf_counter() - begin)
            outcome.attempted += 1
            if info["doc_id"] != base + number:
                outcome.fail(f"add {number} acknowledged as document "
                             f"{info['doc_id']}, expected {base + number}")
            acknowledged.append(info["doc_id"])
        op += 1
    outcome.attempted += sum(map(len, searches.values()))
    return adds, searches, acknowledged, time.perf_counter() - started


def _phase(base, records, pool, seconds, seed, outcome, directory,
           setups: int, recorder: Recorder | None = None) -> dict:
    """Set up, run the loop, close, recover; returns what was measured."""
    from repro.xmltree.serialize import serialize_document

    setup_times = []
    engine = None
    for number in range(setups):
        if engine is not None:
            engine.close()
        store = fresh_dir(directory / f"store-{number}")
        started = time.perf_counter()
        engine = _open(base, store)
        setup_times.append(time.perf_counter() - started)
    initial = _probe(engine, pool)
    settle()
    before = engine.cache_info()
    adds, searches, acknowledged, elapsed = _loop(
        engine, records, pool, seconds, seed, outcome, recorder)
    after = engine.cache_info()
    live = _probe(engine, pool)
    engine.close()

    recover_times = []
    for _ in range(1 if recorder is not None else RECOVER_REPEATS):
        started = time.perf_counter()
        recovered = _open(base, store)  # a fresh base repository each time
        recover_times.append(time.perf_counter() - started)
        recovered.close()
    outcome.attempted += 1
    if len(recovered.repository) != len(base) + len(acknowledged):
        outcome.fail(f"recovered {len(recovered.repository)} documents, "
                     f"expected {len(base) + len(acknowledged)}")
    else:
        lost = [doc_id for doc_id in acknowledged
                if serialize_document(recovered.repository[doc_id])
                != serialize_document(engine.repository[doc_id])]
        if lost:
            outcome.fail(f"{len(lost)} acknowledged document(s) differ "
                         f"after recovery, e.g. {lost[0]}")
    outcome.attempted += 1
    if _probe(recovered, pool) != live:
        outcome.fail("the recovered engine answers the probe queries "
                     "differently from the engine before close")
    user_bytes = sum(len(records[i].encode()) for i in range(len(adds)))
    return {"initial": initial, "setup": setup_times, "adds": adds,
            "searches": searches, "elapsed": elapsed,
            "recover": recover_times,
            "cache": {key: after[key] - before[key]
                      for key in ("hits", "misses")},
            "stored_bytes": dir_bytes(store),
            "input_bytes": sum(len(text.encode()) for text in base)
            + user_bytes}


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    from repro import GKSEngine, Texts

    outcome = Outcome()
    name, scale = inputs.INGEST_CORPUS
    base = inputs.corpus_texts(name, scale, seed)
    reference = GKSEngine.open(Texts(base))
    pool = inputs.query_pool(reference.index, inputs.INGEST_POOL)
    reference = None
    records = inputs.new_records(seed, int(MAX_ADDS_PER_S * seconds) + 64)
    work = fresh_dir(WORK / "ingest")

    budget = seconds / 2 if trace else seconds
    plain = _phase(base, records, pool, budget, seed, outcome, work,
                   1 if trace else SETUP_REPEATS)
    outcome.answers = _digest(plain["initial"])
    adds = plain["adds"]
    # the median runs over the queries' means; the tails run over every
    # search
    typical = query_median_ms(plain["searches"].values())
    count = sum(map(len, plain["searches"].values()))
    if not trace:
        outcome.put("setup_s", statistics.median(plain["setup"]), "s")
        outcome.put("search_p50_ms", typical, "ms")
        outcome.put("search_qps", count / plain["elapsed"], "1/s")
        outcome.put("peak_rss_mb", peak_rss_mb(), "MiB")
        added = latency_summary(adds)
        outcome.notes.append(
            f"{len(adds)} adds (p50 {added['p50']:.2f} ms, p99 "
            f"{added['p99']:.2f} ms) and {count} searches over "
            f"{len(plain['searches'])} queries (p50 over per-query means) "
            f"in {plain['elapsed']:.2f} s; recovery median "
            f"{statistics.median(plain['recover']):.3f} s; store "
            f"{plain['stored_bytes']} bytes for {plain['input_bytes']} "
            f"bytes of XML")
        return outcome

    # user-facing write figures and latency tails: the untraced phase
    summary = latency_summary([time_s for times in plain["searches"].values()
                               for time_s in times])
    outcome.put("search_p90_ms", summary["p90"], "ms")
    outcome.put("search_p99_ms", summary["p99"], "ms")
    added = latency_summary(adds)
    outcome.put("add_p50_ms", added["p50"], "ms")
    outcome.put("add_p99_ms", added["p99"], "ms")
    outcome.put("ingest_docs_per_s", len(adds) / plain["elapsed"], "1/s")
    outcome.put("recover_s", statistics.median(plain["recover"]), "s")
    outcome.put("index_bytes_per_input_byte",
                plain["stored_bytes"] / plain["input_bytes"], "ratio")

    recorder = Recorder()
    installed = install(recorder)
    try:
        traced = _phase(base, records, pool, budget, seed, outcome,
                        work / "traced", 1, recorder)
    finally:
        installed.undo()
    outcome.attempted += 1
    if traced["initial"] != plain["initial"]:
        outcome.fail("the probe queries answer differently in the traced "
                     "and the untraced phase")
    outcome.answers = _digest(traced["initial"])
    snapshot = recorder.snapshot()
    layer_report(outcome, snapshot, cache=traced["cache"])
    totals = {}
    for span in snapshot["spans"]:
        for key, value in snapshot["attrs"].get(str(span[0]), {}).items():
            totals[(span[2], key)] = totals.get((span[2], key), 0) + value
    written = (totals.get(("wal.append", "bytes"), 0)
               + totals.get(("store.flush", "bytes"), 0)
               + totals.get(("store.compact", "bytes"), 0))
    user = totals.get(("durable.add_document", "user_bytes"), 0)
    outcome.put("store.bytes_written_per_user_byte",
                written / user if user else 0.0, "ratio")
    wall, uncovered = unattributed_seconds(snapshot, "bench.search")
    outcome.put("trace.overhead_ratio",
                query_median_ms(traced["searches"].values()) / typical,
                "ratio")
    outcome.put("trace.unattributed_share",
                uncovered / wall if wall else 0.0, "ratio")
    outcome.snapshot = snapshot
    return outcome
