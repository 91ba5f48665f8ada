"""Property-based tests (hypothesis): the efficient algorithms are
cross-validated against brute-force oracles on randomized documents, and
the paper's structural invariants are checked on arbitrary trees."""

from __future__ import annotations

import heapq
import tempfile
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.baselines.bruteforce import (brute_candidates, brute_elca,
                                        brute_slca, subtree_keyword_map)
from repro.baselines.elca import elca
from repro.baselines.slca import slca_indexed_lookup_eager, slca_scan
from repro.core.config import EngineConfig, Texts
from repro.core.engine import GKSEngine
from repro.core.lcp import sliding_blocks
from repro.core.merge import merged_list
from repro.core.query import Query
from repro.core.ranking import (keyword_occurrences, rank_node,
                                received_potential, terminal_points)
from repro.core.search import search
from repro.index.builder import build_index
from repro.index.codec import LazyPostingList
from repro.index.postings import merge_posting_lists
from repro.index.sharding import build_sharded_index
from repro.index.storage import load_index, save_index
from repro.text.analyzer import Analyzer
from repro.xmltree.dewey import is_ancestor_or_self
from repro.xmltree.node import build_tree
from repro.xmltree.parser import parse_document
from repro.xmltree.repository import Repository
from repro.xmltree.serialize import serialize_node

# Text keywords use an alphabet the analyzer maps to itself.
KEYWORDS = ["kilo", "lima", "mike", "november", "oscar"]
TAGS = ["va", "vb", "vc", "vd"]

ANALYZER = Analyzer(use_stemming=False)


def spec_strategy():
    """Nested (tag, text?, children?) specs for build_tree."""
    leaf = st.tuples(st.sampled_from(TAGS), st.sampled_from(KEYWORDS))
    return st.recursive(
        leaf,
        lambda children: st.tuples(
            st.sampled_from(TAGS),
            st.lists(children, min_size=1, max_size=4)),
        max_leaves=12,
    ).map(lambda spec: ("root", [spec]) if not isinstance(spec[1], list)
          else ("root", spec[1]))


@st.composite
def repo_and_query(draw):
    spec = draw(spec_strategy())
    repo = Repository()
    repo.add_root(build_tree(spec))
    count = draw(st.integers(min_value=1, max_value=3))
    keywords = draw(st.lists(st.sampled_from(KEYWORDS), min_size=count,
                             max_size=count, unique=True))
    s = draw(st.integers(min_value=1, max_value=count))
    return repo, Query.of(keywords, s=s)


@settings(max_examples=120, deadline=None)
@given(repo_and_query())
def test_slca_matches_bruteforce(case):
    repo, query = case
    index = build_index(repo, analyzer=ANALYZER)
    oracle = brute_slca(repo, query, analyzer=ANALYZER)
    assert slca_indexed_lookup_eager(index, query) == oracle
    assert slca_scan(index, query) == oracle
    from repro.baselines.slca_intersect import slca_set_intersection

    assert slca_set_intersection(index, query) == oracle


@settings(max_examples=120, deadline=None)
@given(repo_and_query())
def test_elca_matches_bruteforce(case):
    repo, query = case
    index = build_index(repo, analyzer=ANALYZER)
    oracle = brute_elca(repo, query, analyzer=ANALYZER)
    assert elca(index, query) == oracle
    from repro.baselines.elca_stack import elca_stack

    assert elca_stack(index, query) == oracle


@settings(max_examples=120, deadline=None)
@given(repo_and_query())
def test_gks_response_soundness(case):
    """Every response node's subtree really holds ≥ s distinct keywords."""
    repo, query = case
    index = build_index(repo, analyzer=ANALYZER)
    response = search(index, query)
    candidates = set(brute_candidates(repo, query, analyzer=ANALYZER))
    for node in response:
        assert node.dewey in candidates
        assert node.distinct_keywords >= query.effective_s


@settings(max_examples=120, deadline=None)
@given(repo_and_query())
def test_gks_response_coverage(case):
    """Minimal candidates are always represented, and matches imply a
    non-empty response.

    A *minimal* candidate (no candidate strictly inside it), lifted off an
    attribute node per Def 2.1.1, must be comparable to some response node
    — in its subtree or on its ancestor chain.  Non-minimal candidates may
    legitimately go unrepresented: the response follows SLCA semantics and
    drops shallower matches in favour of deeper ones (Table 1's Q1 returns
    x2, not x1).
    """
    repo, query = case
    index = build_index(repo, analyzer=ANALYZER)
    response = search(index, query)
    candidates = brute_candidates(repo, query, analyzer=ANALYZER)
    candidate_set = set(candidates)
    if candidates:
        assert len(response) > 0

    from repro.xmltree.dewey import is_ancestor

    for candidate in candidates:
        if any(other != candidate and is_ancestor(candidate, other)
               for other in candidate_set):
            continue  # not minimal
        lifted = candidate
        if len(candidate) > 1 and index.hashes.is_attribute(candidate):
            lifted = candidate[:-1]
        assert any(is_ancestor_or_self(lifted, dewey)
                   or is_ancestor_or_self(dewey, lifted)
                   for dewey in response.deweys), (
            f"minimal candidate {candidate} not represented")


@settings(max_examples=100, deadline=None)
@given(repo_and_query())
def test_lcp_blocks_have_s_unique_keywords(case):
    repo, query = case
    index = build_index(repo, analyzer=ANALYZER)
    sl = merged_list(index, query)
    for left, right, prefix in sliding_blocks(sl, query.effective_s):
        block_keywords = set(sl.keywords[left:right + 1])
        assert len(block_keywords) == query.effective_s
        if prefix:
            for position in range(left, right + 1):
                assert is_ancestor_or_self(prefix, sl.deweys[position])


@settings(max_examples=100, deadline=None)
@given(repo_and_query())
def test_reference_semantics_monotone_in_s(case):
    """Lemma 2 on reference semantics: candidates shrink as s grows."""
    repo, query = case
    previous = None
    for s in range(1, len(query.keywords) + 1):
        current = set(brute_candidates(repo, query.with_s(s),
                                       analyzer=ANALYZER))
        if previous is not None:
            assert current <= previous
        previous = current


@settings(max_examples=100, deadline=None)
@given(repo_and_query())
def test_ranking_bounds(case):
    """0 < rank ≤ P·(#terminals per keyword)·… — concretely: positive and
    at most P times the total number of terminal points."""
    repo, query = case
    index = build_index(repo, analyzer=ANALYZER)
    response = search(index, query)
    for node in response:
        breakdown = rank_node(index, query, node.dewey)
        assert breakdown.score > 0
        terminal_count = sum(len(points)
                             for points in breakdown.terminals.values())
        assert breakdown.score <= \
            breakdown.initial_potential * terminal_count + 1e-9


@settings(max_examples=100, deadline=None)
@given(repo_and_query())
def test_estimated_counts_at_least_s(case):
    repo, query = case
    index = build_index(repo, analyzer=ANALYZER)
    response = search(index, query)
    for node in response:
        assert node.estimated_keywords >= query.effective_s


@settings(max_examples=100, deadline=None)
@given(spec_strategy())
def test_serializer_parser_round_trip(spec):
    root = build_tree(spec)
    reparsed = parse_document(serialize_node(root))
    original = [(node.dewey, node.tag, node.text)
                for node in root.iter_subtree()]
    rebuilt = [(node.dewey, node.tag, node.text)
               for node in reparsed.root.iter_subtree()]
    assert original == rebuilt


@settings(max_examples=100, deadline=None)
@given(spec_strategy())
def test_subtree_keyword_map_consistency(spec):
    """The oracle keyword map agrees with the index on every node."""
    repo = Repository()
    repo.add_root(build_tree(spec))
    index = build_index(repo, analyzer=ANALYZER)
    mapping = subtree_keyword_map(repo, analyzer=ANALYZER)
    from repro.index.postings import count_in_subtree

    for dewey, keywords in mapping.items():
        for keyword in KEYWORDS:
            expected = keyword in keywords
            found = count_in_subtree(index.postings(keyword), dewey) > 0
            assert expected == found


# ---------------------------------------------------------------------------
# Columnar SL and the one-interval ranker against their references
# ---------------------------------------------------------------------------
def _reference_merge(lists):
    """SL as (dewey, keyword index) pairs: a k-way heap merge."""
    tagged = [[(dewey, keyword) for dewey in postings]
              for keyword, postings in enumerate(lists)]
    return list(heapq.merge(*tagged))


def _reference_rank(index, query, dewey):
    """The potential-flow ranker composed from its helpers: one subtree
    interval per keyword, one division walk per terminal from the node
    down."""
    terminals = {}
    for keyword in query.keywords:
        points = terminal_points(keyword_occurrences(index, keyword, dewey))
        if points:
            terminals[keyword] = points
    potential = float(len(terminals))
    score = 0.0
    for points in terminals.values():
        for terminal in points:
            score += received_potential(index, dewey, terminal, potential)
    return score, terminals


DEWEYS = st.lists(st.integers(min_value=0, max_value=2), min_size=1,
                  max_size=4).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(DEWEYS, max_size=12, unique=True).map(sorted),
                max_size=5))
def test_merge_equals_heap_merge(lists):
    # a three-way alphabet over short ids makes equal Dewey ids under
    # different keywords common, and empty lists come up on their own
    merged = merge_posting_lists(lists)
    assert list(zip(merged.deweys, merged.keywords)) == \
        _reference_merge(lists)


def wide_spec_strategy():
    """Like :func:`spec_strategy` with up to seven children per node, so
    child counts such as 3, 5 and 7 make rounding depend on the order of
    divisions and additions."""
    leaf = st.tuples(st.sampled_from(TAGS), st.sampled_from(KEYWORDS))
    return st.recursive(
        leaf,
        lambda children: st.tuples(
            st.sampled_from(TAGS),
            st.lists(children, min_size=1, max_size=7)),
        max_leaves=30,
    ).map(lambda spec: ("root", [spec]) if not isinstance(spec[1], list)
          else ("root", spec[1]))


@st.composite
def corpus_and_query(draw):
    specs = draw(st.lists(wide_spec_strategy(), min_size=1, max_size=3))
    count = draw(st.integers(min_value=1, max_value=4))
    keywords = draw(st.lists(st.sampled_from(KEYWORDS + TAGS),
                             min_size=count, max_size=count, unique=True))
    s = draw(st.integers(min_value=1, max_value=count))
    return [serialize_node(build_tree(spec)) for spec in specs], \
        " ".join(keywords), s


def _unit_indexes(index):
    """The per-shard indexes the pipeline stages run against."""
    shards = getattr(index, "shards", None)
    return [shard.index for shard in shards] if shards else [index]


def _configured_indexes(layout, texts, directory):
    """The GKS index of *texts* in one storage layout."""
    repo = Repository()
    for doc_id, text in enumerate(texts):
        repo.add(parse_document(text, doc_id=doc_id))
    if layout == "raw":
        return build_index(repo, analyzer=ANALYZER)
    if layout == "v4-lazy":
        path = directory / "v4.idx"
        save_index(build_index(repo, analyzer=ANALYZER), path,
                   codec="varint-dag")
        return load_index(path)
    if layout == "2-shard":
        return build_sharded_index(repo, analyzer=ANALYZER, shards=2)
    # durable store: the base corpus, then every text appended again,
    # one flushed segment per add
    engine = GKSEngine.open(Texts(texts), config=EngineConfig(
        analyzer=ANALYZER, store_path=directory / "store",
        memtable_docs=1, cache_size=0))
    try:
        for text in texts:
            engine.add_document(text)
    finally:
        engine.close()
    return engine.index


@pytest.mark.parametrize("layout", ["raw", "v4-lazy", "2-shard", "durable"])
@settings(max_examples=25, deadline=None)
@given(case=corpus_and_query())
def test_merge_and_rank_match_references(layout, case):
    texts, raw_query, s = case
    query = Query.parse(raw_query, s=s, analyzer=ANALYZER)
    with tempfile.TemporaryDirectory() as directory:
        index = _configured_indexes(layout, texts, Path(directory))
        for unit in _unit_indexes(index):
            lists = [unit.postings(keyword) for keyword in query.keywords]
            if layout == "v4-lazy":
                assert all(isinstance(postings, LazyPostingList)
                           for postings in lists if postings)
            merged = merge_posting_lists(lists)
            assert list(zip(merged.deweys, merged.keywords)) == \
                _reference_merge(lists)
            # every node on a path to a posting, matched or not
            nodes = {posting[:length] for posting in merged.deweys
                     for length in range(1, len(posting) + 1)}
            for dewey in sorted(nodes):
                breakdown = rank_node(unit, query, dewey)
                score, terminals = _reference_rank(unit, query, dewey)
                assert breakdown.score == score
                assert breakdown.terminals == terminals
                assert breakdown.initial_potential == len(terminals)
