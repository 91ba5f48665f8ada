"""Posting lists: sorted Dewey-id lists per keyword (paper §2.4).

"The inverted index list for a keyword ki contains the Dewey id of all the
nodes which contain that keyword."  A posting is simply a Dewey tuple; a
posting list is kept sorted in document order, which by the Dewey/pre-order
correspondence means plain tuple order.

This module also provides the sorted-list primitives used by the search
engine: binary search for the contiguous Dewey range of a subtree, and the
merge of several posting lists into the paper's list ``SL`` — kept as
two parallel columns, the Dewey ids and their keyword indexes
(:class:`MergedList`).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

from repro.xmltree.dewey import Dewey, subtree_interval

PostingList = list[Dewey]


def verify_sorted(postings: Sequence[Dewey]) -> bool:
    """True when *postings* is strictly sorted in document order."""
    return all(postings[i] < postings[i + 1]
               for i in range(len(postings) - 1))


def subtree_range(postings: Sequence[Dewey],
                  ancestor: Dewey) -> tuple[int, int]:
    """Half-open index range of postings inside ``subtree(ancestor)``.

    Because descendant ids are exactly the tuples with *ancestor* as a
    prefix, and tuple order is document order, the matching postings form a
    contiguous run locatable with two binary searches in O(log n).
    """
    lo_key, hi_key = subtree_interval(ancestor)
    lo = bisect_left(postings, lo_key)
    hi = bisect_left(postings, hi_key)
    return lo, hi


def count_in_subtree(postings: Sequence[Dewey], ancestor: Dewey) -> int:
    """Number of postings inside ``subtree(ancestor)``."""
    lo, hi = subtree_range(postings, ancestor)
    return hi - lo


def intersect_postings(lists: list[PostingList]) -> PostingList:
    """Dewey ids present in *every* list (all sorted; result sorted).

    Used for phrase keywords ("Peter Buneman"): a node matches the phrase
    when its direct content holds every word of it — a bag-of-words-
    within-one-element approximation of phrase matching (the index stores
    no word positions, mirroring the paper's index layout).
    """
    if not lists:
        return []
    if any(not posting_list for posting_list in lists):
        return []
    result = lists[0]
    for other in lists[1:]:
        merged: PostingList = []
        i = j = 0
        while i < len(result) and j < len(other):
            if result[i] == other[j]:
                merged.append(result[i])
                i += 1
                j += 1
            elif result[i] < other[j]:
                i += 1
            else:
                j += 1
        result = merged
        if not result:
            break
    return result


@dataclass(slots=True)
class MergedList:
    """The merged list ``SL`` in columns (paper §4.1).

    Entry *i* of ``SL`` is the pair ``(deweys[i], keywords[i])``: a
    posting and the index of its query keyword.  Two parallel lists
    instead of one object per entry: the search stages read a column at
    a time, and the cyclic garbage collector tracks two lists rather
    than one container per entry (the Dewey tuples are the index's own).
    """

    deweys: list[Dewey]
    keywords: list[int]

    def __len__(self) -> int:
        return len(self.deweys)

    def __getitem__(self, window: slice) -> "MergedList":
        """Both columns sliced alike: ``sl[:n]`` keeps the first *n*
        entries (what a ``max_sl`` cap keeps).  Single entries are read
        from the columns, ``sl.deweys[i]`` and ``sl.keywords[i]``."""
        return MergedList(self.deweys[window], self.keywords[window])


def merge_posting_lists(lists: Iterable[Sequence[Dewey]]) -> MergedList:
    """Merge sorted posting lists into the sorted list ``SL``.

    Each input list *i* contributes entries tagged with keyword index
    *i*.  The lists are concatenated and stably sorted by Dewey id, so
    entries with equal Dewey ids (one element holding several query
    keywords) stay in keyword order.  Timsort finds the k sorted runs
    and merges them in O(|SL|·log k) comparisons, matching the paper's
    O(d·|SL|·log n) bound (each Dewey comparison is O(d)).
    """
    deweys: list[Dewey] = []
    keywords: list[int] = []
    for index, posting_list in enumerate(lists):
        deweys.extend(posting_list)
        keywords.extend(repeat(index, len(deweys) - len(keywords)))
    order = sorted(range(len(deweys)), key=deweys.__getitem__)
    return MergedList([deweys[i] for i in order],
                      [keywords[i] for i in order])
