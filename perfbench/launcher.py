"""Benchmark-owned server process for the ``serve`` workload.

``gks serve`` has no flag for a codec or an index path, so it cannot
serve a v4 sharded index; this launcher opens one through the public
API instead::

    python3 perfbench/launcher.py --texts T.json --dir D --setups 3 \
        [--spans S.json]

Each set-up opens the engine twice from the XML texts with
``EngineConfig(codec="varint-dag", shards=2, index_path=...)``: the
first open parses, builds and writes the v4 file, the second parses and
opens that file lazily — a server restarting on its persisted index.
The last engine is served by ``ServerCore(ServeConfig(workers=2))``
behind ``serve_http(port=0)``.  The launcher prints one JSON line with
the port and set-up times, serves until SIGTERM, drains, and prints a
final JSON line with its peak RSS and the broker's counters.  With
``--spans`` the span wrappers are installed before anything else and
the spans are written to that file on exit.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import threading
import time
from pathlib import Path

import common


def _open(texts: list[str], path: Path):
    from repro import EngineConfig, GKSEngine, Texts

    config = EngineConfig(codec="varint-dag", shards=2, index_path=path)
    GKSEngine.open(Texts(texts), config)  # build + encode + write
    return GKSEngine.open(Texts(texts), config)  # parse + lazy open


def _lazy(engine) -> bool:
    from repro.index.codec import LazyInvertedIndex

    return all(isinstance(shard.index.inverted, LazyInvertedIndex)
               for shard in engine.index.shards)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/launcher.py")
    parser.add_argument("--texts", type=Path, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--setups", type=int, default=1)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    common.use_program()
    recorder = None
    if args.spans is not None:
        from spans import Recorder, install

        recorder = Recorder()
        install(recorder)
    from repro import ServeConfig, ServerCore
    from repro.serve.http import serve_http

    texts = json.loads(args.texts.read_text())
    setups = []
    engine = None
    for number in range(args.setups):
        engine = None
        path = args.dir / f"index-{number}.gks"
        started = time.perf_counter()
        engine = _open(texts, path)
        setups.append(time.perf_counter() - started)
    common.settle()
    core = ServerCore(engine, ServeConfig(workers=2))
    server = serve_http(core, port=0)
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    serving = threading.Thread(target=server.serve_forever, daemon=True)
    serving.start()
    print(json.dumps({"port": server.server_address[1], "setup_s": setups,
                      "index_bytes": path.stat().st_size,
                      "lazy": _lazy(engine)}), flush=True)
    stop.wait()
    core.drain()
    server.shutdown()
    server.server_close()
    serving.join(timeout=30)
    core.close()
    if recorder is not None:
        recorder.dump(args.spans)
    print(json.dumps({"peak_rss_mb": common.peak_rss_mb(),
                      "broker": core.stats(),
                      "cache": engine.cache_info()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
