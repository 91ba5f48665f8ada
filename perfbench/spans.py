"""Benchmark-owned tracing: spans around the program's public entry points.

Nothing here changes the program.  :func:`install` replaces each timed
entry point with a wrapper that records a span (name, start, end, parent
span, request id) into a :class:`Recorder`; ``Installation.undo`` puts
every original back.  Where a caller imported a function by name
(``from repro.core.merge import merged_list``), the wrapper is also
written over that name in the caller's module.

Very hot leaves (``rank_node`` once per response node, posting-list
lookups, the v4 codec's lazy block decoders) are *folded*: each call
adds its duration and a count to a per-parent accumulator instead of
storing a span record, so memory stays bounded on long runs.  Folded time counts as a child of
the enclosing span like any other.

Spans stay in memory; :meth:`Recorder.dump` writes them out at the end
of the run.  :func:`layer_totals` turns the records into per-layer self
times: a span's self time is its duration minus the time covered by
spans of *other* layers beneath it (a same-layer child is part of its
parent's work, so nested same-layer calls are counted once).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time
from pathlib import Path

CLOCK = time.perf_counter

#: span name -> layer.  Span names are "<module>.<entry point>".
LAYER_OF = {
    "parser.parse_document": "parser",
    "builder.add_repository": "builder",
    "builder.add_document": "builder",
    "builder.add_document_unchecked": "builder",
    "builder.build": "builder",
    "builder.parallel_build": "builder",
    "codec.save_index": "codec",
    "codec.load_index": "codec",
    "codec.postings": "codec",
    "codec.lazy_decode": "codec",
    "merge.merged_list": "merge",
    "lcp.compute_lcp_list": "lcp",
    "lce.discover_lce": "lce",
    "rank.rank_response": "rank",
    "rank.rank_node": "rank",
    "topk.search_top_k": "topk",
    "scatter.sharded_search": "scatter",
    "scatter.sharded_top_k": "scatter",
    "engine.search": "engine",
    "engine.search_top_k": "engine",
    "export.response_to_dict": "export",
    "serve.search": "serve",
    "http.handle": "http",
    "durable.add_document": "durable",
    "wal.append": "wal",
    "store.flush": "store",
    "store.compact": "store",
}

#: layers in pipeline order (the order metrics are printed in)
LAYERS = ("parser", "builder", "codec", "merge", "lcp", "lce", "rank",
          "topk", "scatter", "engine", "export", "serve", "http",
          "durable", "wal", "store")


class Recorder:
    """In-memory span store shared by every wrapper of one run."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.folded: dict[tuple, list] = {}
        self.attrs: dict[int, dict] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fold_lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def request(self, name: str, rid: str):
        """Context manager for a root span tagged with request id *rid*."""
        return _RootSpan(self, name, rid)

    def enter(self, rid: str | None) -> tuple:
        stack = self._stack()
        parent = stack[-1] if stack else (None, None)
        if rid is None:
            rid = parent[1]
        frame = (next(self._ids), rid, parent[0])
        stack.append(frame)
        return frame

    def leave(self, frame: tuple, name: str, start: float,
              end: float) -> None:
        self._stack().pop()
        # list.append is atomic under the interpreter lock
        self.spans.append((frame[0], frame[2], name, start, end, frame[1]))

    def fold(self, name: str, seconds: float) -> None:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        key = (name, parent)
        with self._fold_lock:
            slot = self.folded.get(key)
            if slot is None:
                self.folded[key] = [1, seconds]
            else:
                slot[0] += 1
                slot[1] += seconds

    def set(self, span_id: int, **values) -> None:
        self.attrs.setdefault(span_id, {}).update(values)

    def snapshot(self) -> dict:
        """JSON-able copy of every record (what :meth:`dump` writes)."""
        return {
            "spans": [list(span) for span in self.spans],
            "attrs": {str(key): value for key, value in self.attrs.items()},
            "folded": [[name, parent, count, seconds]
                       for (name, parent), (count, seconds)
                       in self.folded.items()],
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.snapshot()))


class _RootSpan:
    def __init__(self, recorder: Recorder, name: str, rid: str) -> None:
        self.recorder, self.name, self.rid = recorder, name, rid

    def __enter__(self) -> "_RootSpan":
        self.frame = self.recorder.enter(self.rid)
        self.start = CLOCK()
        return self

    def __exit__(self, *exc_info) -> None:
        self.recorder.leave(self.frame, self.name, self.start, CLOCK())


def _spanned(recorder: Recorder, name: str, fn, describe=None,
             rid_of=None, before=None):
    """Wrap *fn* so every call records one span named *name*.

    ``describe(result, args, kwargs)`` returns attributes for the span
    (with ``before(args, kwargs)`` evaluated ahead of the call and
    passed as ``kwargs["__before__"]``); both run outside the span.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rid = rid_of(args, kwargs) if rid_of is not None else None
        prior = before(args, kwargs) if before is not None else None
        frame = recorder.enter(rid)
        start = CLOCK()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.leave(frame, name, start, CLOCK())
        if describe is not None:
            context = kwargs if before is None else {**kwargs,
                                                     "__before__": prior}
            recorder.set(frame[0], **describe(result, args, context))
        return result

    wrapper.__perfbench_original__ = fn
    return wrapper


def _folded(recorder: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = CLOCK()
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.fold(name, CLOCK() - start)

    wrapper.__perfbench_original__ = fn
    return wrapper


def _kw_rid(args, kwargs):
    return kwargs.get("request_id")


def _handler_rid(args, kwargs):
    return args[0].headers.get("X-Request-Id")


def _postings_count(index) -> int:
    shards = getattr(index, "shards", None)
    if shards is not None:
        return sum(shard.index.inverted.total_postings for shard in shards)
    return index.inverted.total_postings


def _json_bytes(payload) -> int:
    return len(json.dumps(payload).encode("utf-8"))


def _files(store) -> dict:
    """(name -> (size, mtime)) of the files in a segment store."""
    listing = {}
    for entry in store.directory.iterdir():
        stat = entry.stat()
        listing[entry.name] = (stat.st_size, stat.st_mtime_ns)
    return listing


def _store_before(args, kwargs) -> dict:
    return _files(args[0])


def _store_written(result, args, kwargs) -> dict:
    """Bytes of the files a flush or compaction (re)wrote."""
    prior = kwargs["__before__"]
    written = sum(size for name, (size, mtime) in _files(args[0]).items()
                  if name != "wal.log" and prior.get(name) != (size, mtime))
    return {"bytes": written}


class Installation:
    """The patches one :func:`install` made, so they can be undone."""

    def __init__(self) -> None:
        self.patches: list[tuple[object, str, object]] = []

    def put(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def put_function(self, module, attr: str, wrapper) -> None:
        """Replace a module-level function everywhere it was imported."""
        original = getattr(module, attr)
        for name, loaded in list(sys.modules.items()):
            if (name.startswith("repro")
                    and getattr(loaded, attr, None) is original):
                self.put(loaded, attr, wrapper)

    def undo(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(recorder: Recorder) -> Installation:
    """Wrap every timed entry point of the program; returns the undo log."""
    # import_module, not "import a.b as c": repro.core re-exports
    # functions under some of its submodules' names
    (export, lce, lcp, merge, ranking, scatter, search, topk, storage,
     wal, http, parser) = (importlib.import_module(name) for name in (
         "repro.core.export", "repro.core.lce", "repro.core.lcp",
         "repro.core.merge", "repro.core.ranking", "repro.core.scatter",
         "repro.core.search", "repro.core.topk", "repro.index.storage",
         "repro.index.wal", "repro.serve.http", "repro.xmltree.parser"))
    from repro.core.engine import GKSEngine
    from repro.index.builder import GKSIndex, IndexBuilder
    from repro.index.codec import _ShardReader
    from repro.index.segments import SegmentStore
    from repro.index.sharding import ParallelIndexBuilder
    from repro.serve.core import ServerCore

    done = Installation()
    span = functools.partial(_spanned, recorder)

    def function(module, attr, name, describe=None):
        done.put_function(module, attr,
                          span(name, getattr(module, attr), describe))

    def method(cls, attr, name, describe=None, rid_of=None):
        done.put(cls, attr, span(name, getattr(cls, attr), describe, rid_of))

    function(parser, "parse_document", "parser.parse_document",
             lambda result, args, kwargs: {
                 "bytes": len(args[0].encode("utf-8"))})
    for attr in ("add_repository", "add_document",
                 "add_document_unchecked"):
        method(IndexBuilder, attr, f"builder.{attr}")
    method(IndexBuilder, "build", "builder.build",
           lambda result, args, kwargs: {"postings": _postings_count(result)})
    method(ParallelIndexBuilder, "build", "builder.parallel_build",
           lambda result, args, kwargs: {"postings": _postings_count(result)})
    function(storage, "save_index", "codec.save_index",
             lambda result, args, kwargs: {"bytes": result.stat().st_size})
    function(storage, "load_index", "codec.load_index")
    done.put(GKSIndex, "postings",
             _folded(recorder, "codec.postings", GKSIndex.postings))
    for attr in ("block_postings", "suffixes", "hash_rows", "hash_table"):
        done.put(_ShardReader, attr,
                 _folded(recorder, "codec.lazy_decode",
                         getattr(_ShardReader, attr)))
    function(merge, "merged_list", "merge.merged_list",
             lambda result, args, kwargs: {"sl_entries": len(result)})
    function(lcp, "compute_lcp_list", "lcp.compute_lcp_list",
             lambda result, args, kwargs: {"entries": len(result)})
    function(lce, "discover_lce", "lce.discover_lce",
             lambda result, args, kwargs: {"nodes": len(result.lce)})
    function(search, "rank_response", "rank.rank_response")
    done.put_function(ranking, "rank_node",
                      _folded(recorder, "rank.rank_node", ranking.rank_node))
    function(topk, "search_top_k", "topk.search_top_k",
             lambda result, args, kwargs: {"returned": len(result.nodes)})
    function(scatter, "sharded_search", "scatter.sharded_search",
             lambda result, args, kwargs: {"shards": args[0].num_shards})
    function(scatter, "sharded_top_k", "scatter.sharded_top_k",
             lambda result, args, kwargs: {"shards": args[0].num_shards,
                                           "returned": len(result.nodes)})
    method(GKSEngine, "search", "engine.search", rid_of=_kw_rid)
    method(GKSEngine, "search_top_k", "engine.search_top_k", rid_of=_kw_rid)
    function(export, "response_to_dict", "export.response_to_dict",
             lambda result, args, kwargs: {"bytes": _json_bytes(result)})
    method(ServerCore, "search", "serve.search", rid_of=_kw_rid)
    method(http.GKSRequestHandler, "do_GET", "http.handle",
           rid_of=_handler_rid)
    method(GKSEngine, "add_document", "durable.add_document",
           lambda result, args, kwargs: {
               "user_bytes": len(args[1].encode("utf-8"))})
    method(wal.WriteAheadLog, "append", "wal.append",
           lambda result, args, kwargs: {
               "bytes": len(wal._encode_frame(result, args[1]))})
    for attr in ("flush", "compact"):
        done.put(SegmentStore, attr, span(
            f"store.{attr}", getattr(SegmentStore, attr), _store_written,
            before=_store_before))
    return done


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def layer_totals(snapshot: dict) -> dict:
    """Per-layer calls, self times and attribute sums of one snapshot.

    Returns ``{layer: {"calls": n, "self_s": total, "self": [per-call
    self seconds], "attrs": {attr: sum}, "names": {span name: [self
    seconds]}}}``.  Only the outermost span of a same-layer nest is a
    call; folded leaves add to their layer's ``self_s`` and
    ``folded_calls``.
    """
    spans = {span[0]: list(span) for span in snapshot["spans"]}
    adopt_cross_thread(spans)
    attrs = {int(key): value for key, value in snapshot["attrs"].items()}
    children: dict = {}
    for span in spans.values():
        children.setdefault(span[1], []).append(span[0])
    folded_under: dict = {}
    for name, parent, count, seconds in snapshot["folded"]:
        folded_under.setdefault(parent, []).append((name, count, seconds))

    totals = {layer: {"calls": 0, "self_s": 0.0, "self": [],
                      "attrs": {}, "names": {}, "folded_calls": 0,
                      "folded_names": {}}
              for layer in LAYERS}

    def layer_of(name: str) -> str | None:
        return LAYER_OF.get(name)

    def foreign_time(span_id: int, layer: str) -> float:
        """Time under *span_id* covered by spans of other layers."""
        covered = 0.0
        for name, count, seconds in folded_under.get(span_id, ()):
            if layer_of(name) != layer:
                covered += seconds
        for child_id in children.get(span_id, ()):
            child = spans[child_id]
            if layer_of(child[2]) == layer:
                covered += foreign_time(child_id, layer)
            else:
                covered += child[4] - child[3]
        return covered

    def parent_layer(span) -> str | None:
        parent = spans.get(span[1])
        return layer_of(parent[2]) if parent is not None else None

    for span in spans.values():
        layer = layer_of(span[2])
        if layer is None:
            continue
        slot = totals[layer]
        if parent_layer(span) == layer:
            continue  # inside an outer span of its own layer
        for key, value in attrs.get(span[0], {}).items():
            slot["attrs"][key] = slot["attrs"].get(key, 0) + value
        own = (span[4] - span[3]) - foreign_time(span[0], layer)
        slot["calls"] += 1
        slot["self_s"] += own
        slot["self"].append(own)
        slot["names"].setdefault(span[2], []).append(own)
    for name, parent, count, seconds in snapshot["folded"]:
        layer = layer_of(name)
        slot = totals[layer]
        slot["folded_calls"] += count
        per_name = slot["folded_names"].setdefault(name, [0, 0.0])
        per_name[0] += count
        per_name[1] += seconds
        owner = spans.get(parent)
        if owner is None or layer_of(owner[2]) != layer:
            slot["self_s"] += seconds
    return totals


def adopt_cross_thread(spans: dict) -> None:
    """Parent each worker-thread engine span to its broker span.

    ``ServerCore`` runs the engine call on a worker thread, so the
    thread-local stack cannot link it to the ``serve.search`` span of
    the handler thread; the shared request id does.
    """
    broker = {span[5]: span[0] for span in spans.values()
              if span[2] == "serve.search"}
    for span in spans.values():
        if (span[1] is None and span[2].startswith("engine.")
                and span[5] in broker):
            span[1] = broker[span[5]]


def queue_waits(snapshot: dict) -> list[float]:
    """Per request: broker admission to the worker's engine call."""
    broker = {span[5]: span[3] for span in snapshot["spans"]
              if span[2] == "serve.search"}
    return [span[3] - broker[span[5]] for span in snapshot["spans"]
            if span[2].startswith("engine.") and span[5] in broker]


def median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def unattributed_seconds(snapshot: dict, root_name: str) -> tuple[float,
                                                                   float]:
    """(wall time of *root_name* spans, part no child span covers)."""
    wall = uncovered = 0.0
    covered: dict = {}
    for span in snapshot["spans"]:
        covered[span[1]] = covered.get(span[1], 0.0) + span[4] - span[3]
    for name, parent, count, seconds in snapshot["folded"]:
        covered[parent] = covered.get(parent, 0.0) + seconds
    for span in snapshot["spans"]:
        if span[2] == root_name:
            duration = span[4] - span[3]
            wall += duration
            uncovered += max(0.0, duration - covered.get(span[0], 0.0))
    return wall, uncovered
