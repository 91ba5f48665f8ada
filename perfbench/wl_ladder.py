"""``ladder``: one in-process caller, closed loop, the query pipeline only.

Monolithic raw in-memory indexes over swissprot s2, mirrors s8 and dblp
s4; the frequency-ladder queries (2/4/8/16 keywords, ``s = n // 2``)
run through ``GKSEngine.search(..., use_cache=False)`` with full
responses.  Nearly all the time goes to merge -> LCP -> LCE -> rank;
codec, caches, serve and HTTP are bypassed.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time

import checks
import inputs
from common import Outcome, peak_rss_mb, settle
from metrics import latency_summary, layer_report, query_median_ms
from spans import Recorder, install, unattributed_seconds

SETUP_REPEATS = 3


def _setup(corpora) -> tuple[list, float]:
    from repro import GKSEngine, Texts

    started = time.perf_counter()
    engines = [GKSEngine.open(Texts(texts)) for _, _, texts in corpora]
    return engines, time.perf_counter() - started


def _signature(response) -> tuple:
    return tuple((node.dewey, node.score) for node in response.nodes)


def _closed_loop(engines, plan, seconds: float, seed: int,
                 recorder: Recorder | None = None):
    """Whole passes over every ladder query until *seconds* have passed.

    Returns (latencies in s, in plan order within each pass; answers by
    query; mismatch reports; elapsed s).  Whole passes keep each query's
    share of the samples fixed.
    """
    rng = random.Random(seed)
    latencies: list[float] = []  # in plan order within each pass
    answers: dict = {}
    mismatches: list[str] = []
    started = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - started < seconds:
        order = list(range(len(plan)))
        rng.shuffle(order)
        timings = [0.0] * len(plan)
        for slot in order:
            corpus, raw, s = plan[slot]
            engine = engines[corpus]
            begin = time.perf_counter()
            if recorder is None:
                response = engine.search(raw, s=s, use_cache=False)
            else:
                with recorder.request("bench.search", f"p{passes}-{slot}"):
                    response = engine.search(raw, s=s, use_cache=False)
            timings[slot] = time.perf_counter() - begin
            signature = _signature(response)
            known = answers.setdefault((corpus, raw, s), signature)
            if known != signature:
                mismatches.append(f"ladder query {raw!r} (s={s}) on corpus "
                                  f"{corpus} answered differently on "
                                  f"pass {passes}")
        latencies.extend(timings)
        passes += 1
    return latencies, answers, mismatches, time.perf_counter() - started


def _digest(answers: dict) -> str:
    digest = hashlib.sha256()
    for key in sorted(answers):
        digest.update(repr((key, answers[key])).encode())
    return digest.hexdigest()[:16]


def run(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    corpora = [(name, scale, inputs.corpus_texts(name, scale, seed))
               for name, scale in inputs.LADDER_CORPORA]
    setups = []
    engines = None
    for _ in range(1 if trace else SETUP_REPEATS):
        engines = None  # release the previous set before rebuilding
        engines, elapsed = _setup(corpora)
        setups.append(elapsed)
    plan = [(corpus, raw, s)
            for corpus, engine in enumerate(engines)
            for raw, s in inputs.ladder_queries(engine.index)]
    budget = seconds / 2 if trace else seconds
    settle()
    latencies, answers, mismatches, elapsed = _closed_loop(
        engines, plan, budget, seed)
    # the median runs over the queries' means across the passes; the
    # tails run over every search
    typical = query_median_ms(latencies[i::len(plan)]
                              for i in range(len(plan)))
    outcome.attempted += len(latencies)
    for problem in mismatches:
        outcome.fail(problem)
    outcome.answers = _digest(answers)

    if not trace:
        outcome.put("setup_s", statistics.median(setups), "s")
        outcome.put("search_p50_ms", typical, "ms")
        outcome.put("search_qps", len(latencies) / elapsed, "1/s")
        outcome.put("peak_rss_mb", peak_rss_mb(), "MiB")
        outcome.notes.append(
            f"{len(latencies)} searches over {len(plan)} ladder queries "
            f"in {elapsed:.2f} s; p50 over per-query means; "
            f"setup median of {len(setups)}")
    else:
        summary = latency_summary(latencies)  # the untraced phase's tails
        outcome.put("search_p90_ms", summary["p90"], "ms")
        outcome.put("search_p99_ms", summary["p99"], "ms")
        engines = None
        recorder = Recorder()
        installed = install(recorder)
        try:
            traced_engines, _ = _setup(corpora)
            settle()
            traced, traced_answers, mismatches, _ = _closed_loop(
                traced_engines, plan, budget, seed, recorder)
        finally:
            installed.undo()
        outcome.attempted += len(traced)
        for problem in mismatches:
            outcome.fail(problem)
        if traced_answers != answers:
            outcome.fail("ladder answers differ between the traced and "
                         "the untraced phase")
        outcome.answers = _digest(traced_answers)
        snapshot = recorder.snapshot()
        layer_report(outcome, snapshot)
        wall, uncovered = unattributed_seconds(snapshot, "bench.search")
        outcome.put("trace.overhead_ratio",
                    query_median_ms(traced[i::len(plan)]
                                    for i in range(len(plan))) / typical,
                    "ratio")
        outcome.put("trace.unattributed_share",
                    uncovered / wall if wall else 0.0, "ratio")
        outcome.snapshot = snapshot
        engines = traced_engines

    # oracle: one sampled query per corpus, containment in brute force
    from repro.datasets import load_dataset

    sample = random.Random(seed ^ 0x5EED)
    for corpus, (name, scale, texts) in enumerate(corpora):
        queries = [(raw, s) for c, raw, s in plan if c == corpus]
        raw, s = sample.choice(queries)
        outcome.attempted += 1
        problem = checks.contained(
            load_dataset(name, scale=scale, seed=seed), engines[corpus],
            raw, s, [dewey for dewey, _ in answers[(corpus, raw, s)]])
        if problem:
            outcome.fail(problem)
    return outcome
