"""Seeded workload inputs: XML texts and query strings.

Every input is a pure function of the workload seed.  Corpora come from
the repository's own synthetic generators and are serialized to XML
text (``repro.xmltree.serialize``), so the program under test sees only
texts and query strings, exactly as a user would hand them over.
"""

from __future__ import annotations

import random

#: ladder corpora (name, scale), from the paper's Figure 8-10 datasets
LADDER_CORPORA = (("swissprot", 2), ("mirrors", 8), ("dblp", 4))
#: ladder query sizes; each query uses s = n // 2
LADDER_SIZES = (2, 4, 8, 16)
SERVE_CORPUS = ("dblp", 4)
SERVE_POOL = 400
INGEST_CORPUS = ("dblp", 2)
INGEST_POOL = 48


def corpus_texts(name: str, scale: int, seed: int) -> list[str]:
    """One XML text per document of the generated corpus."""
    from repro.datasets import load_dataset
    from repro.xmltree.serialize import serialize_document

    repository = load_dataset(name, scale=scale, seed=seed)
    return [serialize_document(document, declaration=False)
            for document in repository]


def ladder_queries(index) -> list[tuple[str, int]]:
    """The frequency-ladder queries (2/4/8/16 keywords, s = n // 2)."""
    from repro.eval.runner import frequency_ladder

    ladder = frequency_ladder(index, count=max(LADDER_SIZES))
    return [(" ".join(ladder[:n]), n // 2) for n in LADDER_SIZES
            if len(ladder) >= n]


#: ``generate_queries`` seed of every query pool.  It fixes the pool's
#: shape (keyword counts, ``s`` and the frequency ranks keywords are
#: drawn from); the workload seed picks the corpus, hence the actual
#: keywords, and the order requests are drawn in.  Seeds then vary the
#: inputs without reshuffling which queries are cheap or expensive.
POOL_SHAPE_SEED = 0


def query_pool(index, size: int) -> list[tuple[str, int]]:
    """``generate_queries`` over *index*'s vocabulary, as query strings."""
    from repro.eval.querygen import WorkloadSpec, generate_queries

    queries = generate_queries(
        index, WorkloadSpec(queries=size, seed=POOL_SHAPE_SEED))
    return [(" ".join(query.keywords), query.s) for query in queries]


def zipf_counts(size: int, count: int, exponent: float = 0.8) -> list[int]:
    """How often each of *size* pool items occurs among *count* requests.

    Item *r* gets the share ``1/(r+1)^exponent`` of the requests
    (largest remainders round the shares to whole requests), so the mix
    is the same for every seed; only its order is drawn from the seed.
    """
    weights = [1.0 / (rank + 1) ** exponent for rank in range(size)]
    total = sum(weights)
    shares = [count * weight / total for weight in weights]
    counts = [int(share) for share in shares]
    by_remainder = sorted(range(size), key=lambda rank: counts[rank]
                          - shares[rank])
    for rank in by_remainder[:count - sum(counts)]:
        counts[rank] += 1
    return counts


def poisson_schedule(rate: float, duration: float, seed: int) -> list[float]:
    """Arrival offsets (seconds) of a Poisson process at *rate*.

    Exactly ``round(rate * duration)`` arrivals (exponential gaps), so
    every run of a workload sends the same number of requests.
    """
    rng = random.Random(seed)
    offsets = []
    at = 0.0
    for _ in range(round(rate * duration)):
        at += rng.expovariate(rate)
        offsets.append(at)
    return offsets


def new_records(seed: int, count: int) -> list[str]:
    """*count* small standalone dblp records (~260 B of XML each).

    Drawn from dblp corpora generated with seeds disjoint from the base
    corpus, one top-level entry per record.
    """
    from repro.datasets.dblp import generate_dblp
    from repro.xmltree.serialize import serialize_node

    records: list[str] = []
    round_ = 0
    while len(records) < count:
        root = generate_dblp(scale=4, seed=seed + 7919 * (round_ + 1))
        records.extend(serialize_node(entry) for entry in root.children)
        round_ += 1
    return records[:count]
