"""Potential-flow node ranking (paper §5, Example 5).

Each response node ``e`` starts with potential ``P|e`` = the number of
distinct query keywords in its subtree.  The potential flows down the tree,
dividing equally among a node's direct children at every step; the rank of
``e`` is the total potential arriving at the *terminal points* — the
highest (shallowest) occurrence(s) of each query keyword inside ``e``'s
subtree.  A keyword occurring several times at its highest level
contributes one terminal per occurrence.

Everything is computed from the index alone: keyword occurrences come from
posting-list subtree ranges (contiguous by Dewey order), and the division
factors are the direct-child counts stored in the hash tables — exactly why
the paper stores child counts there (§2.4).  A terminal at ``e`` itself
(the keyword occurs in ``e``'s own text or tag) receives the undivided
``P|e``.

Intuition: many children dilute the flow, so among nodes with equal
keyword coverage the one whose matches sit in a leaner context ranks
higher — the paper's Example 2 ranks an article with few co-authors above
one with many.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

from repro.core.query import Query
from repro.index.builder import GKSIndex
from repro.index.postings import subtree_range
from repro.xmltree.dewey import Dewey, subtree_interval


@dataclass(frozen=True)
class RankBreakdown:
    """Rank of one node plus the evidence behind it."""

    dewey: Dewey
    score: float
    initial_potential: int
    #: keyword → its terminal points (highest occurrences in the subtree).
    terminals: dict[str, tuple[Dewey, ...]]

    @property
    def matched_keywords(self) -> tuple[str, ...]:
        return tuple(self.terminals)

    @property
    def distinct_keywords(self) -> int:
        return self.initial_potential


def keyword_occurrences(index: GKSIndex, keyword: str,
                        dewey: Dewey) -> list[Dewey]:
    """All postings of *keyword* inside ``subtree(dewey)`` (document
    order)."""
    postings = index.postings(keyword)
    lo, hi = subtree_range(postings, dewey)
    return postings[lo:hi]


def terminal_points(occurrences: list[Dewey]) -> tuple[Dewey, ...]:
    """The highest occurrences: all postings at the minimal depth."""
    if not occurrences:
        return ()
    highest = min(map(len, occurrences))
    return tuple(compress(occurrences,
                          map(highest.__eq__, map(len, occurrences))))


def received_potential(index: GKSIndex, root: Dewey, terminal: Dewey,
                       potential: float) -> float:
    """Potential arriving at *terminal* when *potential* starts at *root*.

    Divides by the direct-child count of every node on the path from
    *root* down to the terminal's parent.  Child counts come from the hash
    tables; attribute nodes are leaves so they never appear mid-path.
    """
    if terminal == root:
        return potential
    flowed = potential
    for length in range(len(root), len(terminal)):
        children = index.hashes.child_count(terminal[:length])
        if children and children > 1:
            flowed /= children
    return flowed


def rank_node(index: GKSIndex, query: Query, dewey: Dewey) -> RankBreakdown:
    """Rank one response node for *query* with the potential-flow model.

    :func:`terminal_points` of each keyword's postings in the subtree,
    then :func:`received_potential` per terminal, summed in keyword and
    document order.  The subtree interval is computed once per node and
    the division by the node's own child count once per node; both give
    the same floats as computing them per keyword and per terminal.
    """
    lo_key, hi_key = subtree_interval(dewey)
    terminals: dict[str, tuple[Dewey, ...]] = {}
    for keyword in query.keywords:
        postings = index.postings(keyword)
        lo = bisect_left(postings, lo_key)
        hi = bisect_left(postings, hi_key, lo)
        points = terminal_points(postings[lo:hi])
        if points:
            terminals[keyword] = points

    potential = float(len(terminals))
    start = len(dewey)
    children = index.hashes.child_count(dewey)
    below = potential / children if children and children > 1 else potential
    score = 0.0
    for points in terminals.values():
        for terminal in points:
            if len(terminal) == start:      # the keyword is at dewey itself
                score += potential
            else:
                score += received_potential(index, terminal[:start + 1],
                                            terminal, below)
    return RankBreakdown(dewey=dewey, score=score,
                         initial_potential=len(terminals),
                         terminals=terminals)


def rank_by_keyword_count(index: GKSIndex, query: Query,
                          dewey: Dewey) -> RankBreakdown:
    """Ablation baseline (bench A2): rank = distinct-keyword count only.

    Shares the terminal bookkeeping so the two rankers are comparable.
    """
    terminals: dict[str, tuple[Dewey, ...]] = {}
    for keyword in query.keywords:
        points = terminal_points(keyword_occurrences(index, keyword, dewey))
        if points:
            terminals[keyword] = points
    return RankBreakdown(dewey=dewey, score=float(len(terminals)),
                         initial_potential=len(terminals),
                         terminals=terminals)
