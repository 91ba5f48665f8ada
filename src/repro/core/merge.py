"""Building the merged Dewey-id list ``SL`` for a query (paper §4.1).

"For the query keywords ki ∈ Q, we first merge their respective inverted
index lists such that in the merged list, keywords follow their arrival
order in the XML document."  Dewey order is document order, so merging
the sorted posting lists by Dewey id yields exactly that ordering.

``SL`` is columnar: a :class:`~repro.index.postings.MergedList` holds the
Dewey ids and the keyword indexes as two parallel lists, which the LCP
sweep and LCE discovery read directly (DESIGN.md, "SL and LCP data
shapes").
"""

from __future__ import annotations

from repro.core.budget import SearchBudget
from repro.index.builder import GKSIndex
from repro.index.postings import MergedList, merge_posting_lists
from repro.core.query import Query


def merged_list(index: GKSIndex, query: Query,
                budget: SearchBudget | None = None) -> MergedList:
    """The sorted merged list ``SL`` of all query-keyword postings.

    Entry *i* is ``(sl.deweys[i], sl.keywords[i])``: a posting and the
    index of its keyword in ``query.keywords``; equal Dewey ids appear in
    keyword order.  Keywords absent from the corpus simply contribute
    empty lists; ``|SL| <= Σ|Si|`` with equality unless an element holds
    two query keywords at the same Dewey id under the same keyword
    (impossible — posting lists are deduplicated per keyword).

    A :class:`SearchBudget` caps the result at ``max_sl`` entries (the
    kept prefix is a coherent leading slice of the corpus in document
    order) and charges the merge against the deadline.
    """
    sl = merge_posting_lists(
        index.postings(keyword) for keyword in query.keywords)
    if budget is not None:
        sl = budget.admit_sl(sl)
        budget.checkpoint("merge", len(sl), len(sl))
    return sl
