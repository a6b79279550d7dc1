import numpy as np
import pytest

import synthetic_corpus as sc
from recexplain import corpus as cp
from recexplain.graphs import EmptyPoolError, build_pair_graph

from conftest import toy_graph
from oracles import pair_graph_oracle

LEX = cp.AttributeLexicon(["room", "staff", "view", "pool"])


def corpus_from_records(records, ratios=(1.0, 0.0, 0.0), seed=0, min_activity=1):
    return cp.build_corpus(records, LEX, min_activity, ratios, seed)


def minimal_corpus():
    records = [
        cp.RawRecord("u0", "c0", 5.0, "The room was spotless.", 0),
    ]
    return corpus_from_records(records)


class TestBuildPairGraph:
    def test_minimal_graph(self):
        corpus = minimal_corpus()
        g = build_pair_graph(corpus, "u0", "c0")
        assert g.n_nodes == 4
        assert g.attribute_ids == (0,)  # room
        assert len(g.sentence_ids) == 1
        # edges: user-room, item-room, room-sentence
        assert set(g.neighbors[0].tolist()) == {2}
        assert set(g.neighbors[1].tolist()) == {2}
        assert set(g.neighbors[2].tolist()) == {0, 1, 3}
        assert set(g.neighbors[3].tolist()) == {2}

    def test_item_restriction_excludes_sentence(self):
        # u0 reviews c1 mentioning "view"; c0's reviews never mention view,
        # so that sentence is in the (u0, c0) candidate pool but not the graph
        records = [
            cp.RawRecord("u0", "c0", 5.0, "The room was big.", 0),
            cp.RawRecord("u0", "c1", 5.0, "What a view.", 1),
            cp.RawRecord("u1", "c0", 5.0, "The room was small.", 2),
        ]
        corpus = corpus_from_records(records)
        g = build_pair_graph(corpus, "u0", "c0")
        view_sids = {s.sentence_id for s in corpus.sentences.values() if 2 in s.attributes}
        assert view_sids and view_sids <= corpus.user_sentences["u0"]
        assert view_sids.isdisjoint(g.sentence_ids)

    def test_attribute_nodes_only_from_retained_sentences(self):
        # u0 mentioned "staff" about another item, but no sentence in the
        # (u0, c0) pool survives with that attribute when restriction is on;
        # the attribute node set must come from retained sentences only
        records = [
            cp.RawRecord("u0", "c0", 5.0, "The room was big.", 0),
            cp.RawRecord("u0", "c1", 5.0, "The staff were kind.", 1),
            cp.RawRecord("u1", "c0", 5.0, "The room was tiny.", 2),
        ]
        corpus = corpus_from_records(records)
        g = build_pair_graph(corpus, "u0", "c0")
        expected = set()
        for sid in g.sentence_ids:
            expected |= corpus.sentences[sid].attributes
        assert set(g.attribute_ids) == expected
        assert 1 not in g.attribute_ids  # staff never enters via a retained sentence


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    return sc.planted_corpus(tmp_path_factory.mktemp("planted"), hidden=8)


class TestPoolRule:
    """`build_pair_graph` is the one owner of which sentences a pair's graph
    holds: training sentences of the user or the item that carry one of the
    item's training attributes."""

    def test_pool_contains_target_for_train_pairs(self, planted):
        for user_id, item_id in planted.pairs("train"):
            pool = set(build_pair_graph(planted, user_id, item_id).sentence_ids)
            assert set(planted.ground_truth_sentences(user_id, item_id, "train")) <= pool

    def test_pool_disjoint_from_held_out_truth(self, planted):
        for part in ("valid", "test"):
            for user_id, item_id in planted.pairs(part):
                pool = set(build_pair_graph(planted, user_id, item_id).sentence_ids)
                assert pool.isdisjoint(planted.ground_truth_sentences(user_id, item_id, part))

    def test_pool_is_the_item_restricted_union(self, planted):
        for part in ("train", "valid", "test"):
            for user_id, item_id in planted.pairs(part):
                union = planted.user_sentences[user_id] | planted.item_sentences[item_id]
                item_attrs = planted.item_attributes[item_id]
                want = [s for s in sorted(union) if planted.sentences[s].attributes & item_attrs]
                assert want and build_pair_graph(planted, user_id, item_id).sentence_ids == tuple(want)

    def test_empty_pool_raises(self):
        # r1 is in the test split, and neither u1 nor c1 has a training review
        records = [
            cp.RawRecord("u0", "c0", 5.0, "The room was big.", 0),
            cp.RawRecord("u1", "c1", 5.0, "The staff were kind.", 1),
        ]
        built = corpus_from_records(records)
        split = cp.CorpusSplit(train=frozenset({"r0"}), valid=frozenset(), test=frozenset({"r1"}))
        corpus = cp.Corpus(built.reviews, built.sentences, LEX, split)
        assert corpus.pairs("test") == [("u1", "c1")]
        with pytest.raises(EmptyPoolError, match=r"empty candidate pool for \(u1, c1\)"):
            build_pair_graph(corpus, "u1", "c1")

    def test_item_restriction_can_empty_the_pool(self):
        # an item's own training sentences carry its attributes, so only an
        # item without a training review loses a non-empty union: here u0's
        # room sentence, as c1's one review is in the test split
        records = [
            cp.RawRecord("u0", "c0", 5.0, "The room was big.", 0),
            cp.RawRecord("u0", "c1", 5.0, "What a view.", 1),
        ]
        built = corpus_from_records(records)
        split = cp.CorpusSplit(train=frozenset({"r0"}), valid=frozenset(), test=frozenset({"r1"}))
        corpus = cp.Corpus(built.reviews, built.sentences, LEX, split)
        assert corpus.user_sentences["u0"] and not corpus.item_sentences["c1"]
        with pytest.raises(EmptyPoolError, match=r"empty candidate pool for \(u0, c1\)"):
            build_pair_graph(corpus, "u0", "c1")


def richer_corpus():
    texts = [
        ("u0", "c0", "The room was big. The staff was kind."),
        ("u0", "c1", "Lovely view. The pool was cold."),
        ("u1", "c0", "The staff was rude. The pool was dirty."),
        ("u1", "c1", "The room was fine. Great view."),
        ("u2", "c0", "The view from the room!"),
        ("u2", "c1", "The staff loved the pool."),
    ]
    records = [cp.RawRecord(u, c, 5.0, t, i) for i, (u, c, t) in enumerate(texts)]
    return corpus_from_records(records)


class TestGraphInvariants:
    def test_symmetry_and_bipartiteness(self):
        corpus = richer_corpus()
        for user_id, item_id in corpus.pairs("train"):
            g = build_pair_graph(corpus, user_id, item_id)
            for i in range(g.n_nodes):
                for j in g.neighbors[i]:
                    assert i in g.neighbors[j]
                    # every edge has exactly one attribute end
                    ends_in_attrs = [g.attr_slice.start <= k < g.attr_slice.stop for k in (i, int(j))]
                    assert ends_in_attrs.count(True) == 1

    def test_every_attribute_touches_a_sentence(self):
        corpus = richer_corpus()
        for user_id, item_id in corpus.pairs("train"):
            g = build_pair_graph(corpus, user_id, item_id)
            lo, hi = g.sent_slice.start, g.sent_slice.stop
            for ai in range(g.attr_slice.start, g.attr_slice.stop):
                assert any(lo <= j < hi for j in g.neighbors[ai])

    def test_sentences_touch_attributes_only(self):
        corpus = richer_corpus()
        g = build_pair_graph(corpus, "u0", "c0")
        lo, hi = g.attr_slice.start, g.attr_slice.stop
        for si in range(g.sent_slice.start, g.sent_slice.stop):
            assert len(g.neighbors[si]) >= 1
            assert all(lo <= j < hi for j in g.neighbors[si])

    def test_rebuild_bit_identical(self):
        corpus = richer_corpus()
        a = build_pair_graph(corpus, "u0", "c0")
        b = build_pair_graph(corpus, "u0", "c0")
        assert a.attribute_ids == b.attribute_ids
        assert a.sentence_ids == b.sentence_ids
        assert all(np.array_equal(x, y) for x, y in zip(a.edges, b.edges))


def rows_of(edges):
    """The nodes each row attends to, in edge order."""
    return [row.tolist() for row in np.split(edges.src, edges.starts[1:])]


def graphs_to_check():
    corpus = richer_corpus()
    for user_id, item_id in corpus.pairs("train"):
        yield build_pair_graph(corpus, user_id, item_id)
    rng = np.random.default_rng(3)
    for _ in range(10):
        yield toy_graph(int(rng.integers(1, 6)), int(rng.integers(1, 12)), rng)


class TestNeighborView:
    """What each node attends to: `edge_arrays` is the attention edge list,
    both directions of every link plus every self loop, sorted by row."""

    def test_self_loops_on(self):
        edges = build_pair_graph(minimal_corpus(), "u0", "c0").edge_arrays()
        assert rows_of(edges) == [[0, 2], [1, 2], [0, 1, 2, 3], [2, 3]]
        assert edges.dst.tolist() == [0, 0, 1, 1, 2, 2, 2, 2, 3, 3]
        assert edges.starts.tolist() == [0, 2, 4, 8]

    def test_edge_arrays_symmetric_with_diagonal(self):
        for g in graphs_to_check():
            edges = g.edge_arrays()
            pairs = set(zip(edges.dst.tolist(), edges.src.tolist()))
            assert len(pairs) == len(edges.dst)  # no edge twice
            assert {(i, i) for i in range(g.n_nodes)} <= pairs
            assert pairs == {(j, i) for i, j in pairs}
            for i, row in enumerate(rows_of(edges)):
                assert set(row) == {i, *g.neighbors[i].tolist()}

    def test_edge_arrays_sorted_by_row(self):
        for g in graphs_to_check():
            n = g.n_nodes
            dst, src, starts, flat = g.edge_arrays()
            assert dst.dtype == src.dtype == starts.dtype == flat.dtype == np.int64
            assert np.all(np.diff(dst) >= 0)
            assert starts.shape == (n,)
            # starts[i] is row i's first edge, and every row has one
            assert np.array_equal(starts, np.searchsorted(dst, np.arange(n)))
            assert np.array_equal(dst[starts], np.arange(n))
            assert np.array_equal(flat, dst * n + src)

    def test_isolated_node_attends_to_itself(self):
        # a user who never shares attributes with the pool has no neighbors
        g = build_pair_graph(isolated_user_corpus(), "u0", "c1")
        assert g.neighbors[0].size == 0
        assert rows_of(g.edge_arrays())[0] == [0]


def isolated_user_corpus():
    """u0 mentions only the room, and c1's pool only the pool."""
    records = [
        cp.RawRecord("u0", "c0", 5.0, "The room was big.", 0),
        cp.RawRecord("u1", "c0", 5.0, "The pool was cold.", 1),
        cp.RawRecord("u1", "c1", 5.0, "The pool again.", 2),
    ]
    return corpus_from_records(records)


def every_pair_graph(planted):
    """(corpus, graph) for every pair of the planted corpus, and for every
    user and item with a non-empty pool in this module's small corpora."""
    for part in ("train", "valid", "test"):
        for user_id, item_id in planted.pairs(part):
            yield planted, build_pair_graph(planted, user_id, item_id)
    for corpus in (minimal_corpus(), richer_corpus(), isolated_user_corpus()):
        for user_id in corpus.users:
            for item_id in corpus.items:
                try:
                    yield corpus, build_pair_graph(corpus, user_id, item_id)
                except EmptyPoolError:
                    pass


class TestAttentionEdges:
    """`build_pair_graph` lists its links straight from the pool; the
    oracle builds one neighbor set per node and reads the edges off them."""

    def test_edges_match_set_oracle(self, planted):
        seen, lone_users = 0, 0
        for corpus, g in every_pair_graph(planted):
            want = pair_graph_oracle(corpus, g.user_id, g.item_id)
            got = g.edge_arrays()
            assert got is g.edges
            assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(got, want))
            seen += 1
            lone_users += rows_of(got)[0] == [0]
        assert seen > len(planted.pairs("train"))
        assert lone_users  # (u0, c1) of `isolated_user_corpus` at least

    def test_neighbors_are_the_rows_less_the_self_loop(self, planted):
        for _, g in every_pair_graph(planted):
            rows = rows_of(g.edges)
            assert len(g.neighbors) == g.n_nodes
            for i, nbrs in enumerate(g.neighbors):
                assert nbrs.dtype == np.int64
                assert nbrs.tolist() == [j for j in rows[i] if j != i]
            # the count the benchmark halves for graphs.edges_p50
            assert sum(len(x) for x in g.neighbors) == len(g.edges.dst) - g.n_nodes
