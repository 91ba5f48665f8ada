"""Longest-Common-Prefix (LCP) list generation (paper §4.1, Figs 4–6).

The merged list ``SL`` (a :class:`~repro.index.postings.MergedList`: a
column of Dewey ids and a parallel column of keyword indexes) is swept
once with a sliding window ``[l, r]``:

* ``r`` grows until the window holds ``s`` *unique* query keywords — the
  paper's ``sU(l, r, s)`` test (Fig. 5);
* the longest common prefix of the block is, by Lemma 6, the common prefix
  of its first and last Dewey ids — the Dewey id of the lowest common
  ancestor of the whole block;
* the prefix is filed into the LCP list; a repeated prefix increments its
  counter ("if a prefix exists in the LCP list, its counter is increased
  by 1"), so a node's estimated keyword count is ``s + counter − 1``;
* then ``l`` advances by one.  Because dropping the leftmost entry can only
  lose uniqueness, the minimal ``r`` is monotone in ``l`` and the sweep is
  O(|SL|) window operations, O(d·|SL|) total.

Blocks whose entries span two documents have no common ancestor and are
skipped (their common prefix is empty).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.budget import SearchBudget
from repro.index.postings import MergedList
from repro.xmltree.dewey import Dewey


@dataclass(slots=True)
class LCPEntry:
    """One candidate GKS node: an LCP-list row plus its first block."""

    dewey: Dewey
    counter: int = 1
    first_left: int = 0    # SL position of l when the entry was created
    first_right: int = 0   # SL position of r when the entry was created


@dataclass
class LCPList:
    """Ordered LCP list: entries in first-creation order, with counters."""

    s: int
    entries: dict[Dewey, LCPEntry] = field(default_factory=dict)

    def estimated_keyword_count(self, dewey: Dewey) -> int:
        """``s + counter − 1`` for one entry (paper §4.1)."""
        return self.s + self.entries[dewey].counter - 1

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, dewey: Dewey) -> bool:
        return dewey in self.entries

    def deweys(self) -> list[Dewey]:
        """Entry ids in first-creation order."""
        return list(self.entries)


def iter_sliding_blocks(sl: MergedList,
                        s: int) -> Iterator[tuple[int, int, Dewey]]:
    """Lazily generate the minimal ``s``-unique blocks of the sweep.

    The window reads the two columns of ``SL`` directly and computes
    each block's common prefix inline (Lemma 6: first and last Dewey id
    only).  The generator form lets a :class:`SearchBudget` interrupt
    the sweep between blocks without computing the tail.
    """
    deweys = sl.deweys
    keywords = sl.keywords
    size = len(deweys)
    counts = [0] * (max(keywords) + 1) if keywords else []
    unique = 0
    right = -1
    for left in range(size):
        while unique < s and right + 1 < size:
            right += 1
            keyword = keywords[right]
            counts[keyword] += 1
            if counts[keyword] == 1:
                unique += 1
        if unique < s:
            break  # no block with s unique keywords starts at or after left
        first = deweys[left]
        last = deweys[right]
        length = 0
        limit = min(len(first), len(last))
        while length < limit and first[length] == last[length]:
            length += 1
        yield left, right, first[:length]
        keyword = keywords[left]
        counts[keyword] -= 1
        if counts[keyword] == 0:
            unique -= 1


def sliding_blocks(sl: MergedList,
                   s: int) -> list[tuple[int, int, Dewey]]:
    """All minimal ``s``-unique blocks as ``(l, r, prefix)`` triples.

    Exposed separately so tests can check the window invariants; cross-
    document blocks are reported with an empty prefix.
    """
    return list(iter_sliding_blocks(sl, s))


def compute_lcp_list(sl: MergedList, s: int,
                     budget: SearchBudget | None = None) -> LCPList:
    """Sweep ``SL`` and build the LCP list (the candidate GKS nodes).

    With a budget the sweep polls the deadline between blocks and stops
    early when it trips, leaving a coherent partial LCP list.
    """
    lcp = LCPList(s=s)
    entries = lcp.entries
    total = len(sl)
    for left, right, prefix in iter_sliding_blocks(sl, s):
        if budget is not None and budget.checkpoint("lcp", left, total):
            break
        if prefix:  # same-document block only
            entry = entries.get(prefix)
            if entry is None:
                entries[prefix] = LCPEntry(prefix, 1, left, right)
            else:
                entry.counter += 1
    return lcp
