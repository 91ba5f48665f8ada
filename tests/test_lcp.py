"""Unit tests for the merged list + LCP sliding window (paper §4.1)."""

from repro.core.lcp import compute_lcp_list, sliding_blocks
from repro.core.merge import merged_list
from repro.core.query import Query
from repro.index.postings import MergedList


def entries(*pairs):
    return MergedList([dewey for dewey, _ in pairs],
                      [keyword for _, keyword in pairs])


class TestSlidingBlocks:
    def test_each_block_has_s_unique_keywords(self):
        sl = entries(((0, 0), 0), ((0, 1), 0), ((0, 2), 1), ((0, 3), 0))
        blocks = sliding_blocks(sl, 2)
        for left, right, _ in blocks:
            keywords = {sl.keywords[i] for i in range(left, right + 1)}
            assert len(keywords) >= 2

    def test_blocks_are_minimal_windows(self):
        # duplicates force r to reach past them
        sl = entries(((0, 0), 0), ((0, 1), 0), ((0, 2), 1))
        blocks = sliding_blocks(sl, 2)
        assert [(l, r) for l, r, _ in blocks] == [(0, 2), (1, 2)]

    def test_right_end_is_monotone(self):
        sl = entries(((0, 0), 0), ((0, 1), 1), ((0, 2), 0), ((0, 3), 1))
        rights = [r for _, r, _ in sliding_blocks(sl, 2)]
        assert rights == sorted(rights)

    def test_s_equal_one_blocks_are_singletons(self):
        sl = entries(((0, 0), 0), ((0, 5), 1))
        blocks = sliding_blocks(sl, 1)
        assert [(l, r) for l, r, _ in blocks] == [(0, 0), (1, 1)]
        assert [prefix for _, _, prefix in blocks] == [(0, 0), (0, 5)]

    def test_insufficient_unique_keywords_yields_nothing(self):
        sl = entries(((0, 0), 0), ((0, 1), 0))
        assert sliding_blocks(sl, 2) == []

    def test_cross_document_block_has_empty_prefix(self):
        sl = entries(((0, 0), 0), ((1, 0), 1))
        blocks = sliding_blocks(sl, 2)
        assert blocks == [(0, 1, ())]


class TestLCPList:
    def test_counter_increments_for_repeated_prefix(self):
        sl = entries(((0, 0, 0), 0), ((0, 0, 1), 1), ((0, 0, 2), 0))
        lcp = compute_lcp_list(sl, 2)
        assert lcp.entries[(0, 0)].counter == 2
        assert lcp.estimated_keyword_count((0, 0)) == 3  # s+counter−1

    def test_first_block_positions_recorded(self):
        sl = entries(((0, 0, 0), 0), ((0, 0, 1), 1))
        lcp = compute_lcp_list(sl, 2)
        entry = lcp.entries[(0, 0)]
        assert (entry.first_left, entry.first_right) == (0, 1)

    def test_cross_document_blocks_skipped(self):
        sl = entries(((0, 0), 0), ((1, 0), 1))
        assert len(compute_lcp_list(sl, 2)) == 0

    def test_creation_order_preserved(self):
        sl = entries(((0, 0, 0), 0), ((0, 0, 1), 1), ((0, 1, 0), 0),
                     ((0, 1, 1), 1))
        lcp = compute_lcp_list(sl, 2)
        assert lcp.deweys()[0] == (0, 0)

    def test_contains_and_len(self):
        lcp = compute_lcp_list(entries(((0, 1, 0), 0), ((0, 1, 1), 1)), 2)
        assert (0, 1) in lcp and (0, 2) not in lcp
        assert len(lcp) == 1


class TestPaperExample4:
    """Figure 4: SL = did.0.1.0.0, did.0.1.1.0.2, did.0.1.1.0.3,
    did.0.1.1.0.4, did.1.0.1, did.1.0.2 with s=2."""

    SL = entries(
        ((0, 0, 1, 0, 0), 0),
        ((0, 0, 1, 1, 0, 2), 1),
        ((0, 0, 1, 1, 0, 3), 0),
        ((0, 0, 1, 1, 0, 4), 1),
        ((0, 1, 0, 1), 0),
        ((0, 1, 0, 2), 1),
    )
    # (we model 'did' as a real document root component: did=doc 0, and
    #  the paper's 0.1 → (0, 0, 1) etc.)

    def test_lcp_list_matches_figure(self):
        lcp = compute_lcp_list(self.SL, 2)
        assert lcp.entries[(0, 0, 1)].counter == 1
        assert lcp.entries[(0, 0, 1, 1, 0)].counter == 2
        assert lcp.entries[(0,)].counter == 1          # the 'did' entry
        assert lcp.entries[(0, 1, 0)].counter == 1

    def test_estimates_match_figure(self):
        lcp = compute_lcp_list(self.SL, 2)
        assert lcp.estimated_keyword_count((0, 0, 1)) == 2
        assert lcp.estimated_keyword_count((0, 0, 1, 1, 0)) == 3


class TestMergedList:
    def test_merged_list_uses_query_keyword_order(self, figure1_index):
        query = Query.of(["a", "b"])
        sl = merged_list(figure1_index, query)
        assert sl.deweys == sorted(sl.deweys)
        assert set(sl.keywords) == {0, 1}

    def test_absent_keyword_contributes_nothing(self, figure1_index):
        query = Query.of(["a", "zzz"])
        sl = merged_list(figure1_index, query)
        assert all(keyword == 0 for keyword in sl.keywords)
