import numpy as np
import pytest

from recexplain import corpus as cp
from recexplain.graphs import GraphError, build_pair_graph

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
        g = build_pair_graph(corpus, "u0", "c0", "train")
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
        # so with the restriction on, that sentence is excluded from (u0, c0)
        records = [
            cp.RawRecord("u0", "c0", 5.0, "The room was big.", 0),
            cp.RawRecord("u0", "c1", 5.0, "What a view.", 1),
            cp.RawRecord("u1", "c0", 5.0, "The room was small.", 2),
        ]
        corpus = corpus_from_records(records)
        g_on = build_pair_graph(corpus, "u0", "c0", "train", restrict_to_item_attributes=True)
        g_off = build_pair_graph(corpus, "u0", "c0", "train", restrict_to_item_attributes=False)
        view_sids = {s.sentence_id for s in corpus.sentences.values() if 2 in s.attributes}
        assert view_sids.isdisjoint(g_on.sentence_ids)
        assert view_sids <= set(g_off.sentence_ids)

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
        g = build_pair_graph(corpus, "u0", "c0", "train", restrict_to_item_attributes=True)
        expected = set()
        for sid in g.sentence_ids:
            expected |= corpus.sentences[sid].attributes
        assert set(g.attribute_ids) == expected
        assert 1 not in g.attribute_ids  # staff never enters via a retained sentence

    def test_train_labels(self):
        records = [
            cp.RawRecord("u0", "c0", 5.0, "The room was big. The pool was warm.", 0),
            cp.RawRecord("u1", "c0", 5.0, "The staff were kind.", 1),
            cp.RawRecord("u0", "c1", 5.0, "The room was ok.", 2),
        ]
        corpus = corpus_from_records(records)
        g = build_pair_graph(corpus, "u0", "c0", "train")
        truth = set(corpus.ground_truth_sentences("u0", "c0", "train"))
        assert g.positives == truth
        labels = dict(zip(g.attribute_ids, g.attr_labels))
        assert labels[0] == 1.0 and labels[3] == 1.0  # room, pool in target
        assert labels.get(1, 0.0) == 0.0  # staff only in the other user's review

    def test_eval_mode_has_no_labels(self):
        records = [
            cp.RawRecord("u0", "c0", 5.0, "The room was big.", 0),
            cp.RawRecord("u0", "c0", 5.0, "The room was fine.", 1),
            cp.RawRecord("u1", "c0", 5.0, "The staff were kind.", 2),
        ]
        corpus = cp.build_corpus(records, LEX, 1, (0.5, 0.0, 0.5), 1)
        pair = corpus.pairs("test")[0]
        g = build_pair_graph(corpus, pair[0], pair[1], "eval")
        assert g.positives is None and g.attr_labels is None


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
            g = build_pair_graph(corpus, user_id, item_id, "train")
            for i in range(g.n_nodes):
                for j in g.neighbors[i]:
                    assert i in g.neighbors[j]
                    # every edge has exactly one attribute end
                    ends_in_attrs = [g.attr_slice.start <= k < g.attr_slice.stop for k in (i, int(j))]
                    assert ends_in_attrs.count(True) == 1

    def test_every_attribute_touches_a_sentence(self):
        corpus = richer_corpus()
        for user_id, item_id in corpus.pairs("train"):
            g = build_pair_graph(corpus, user_id, item_id, "train")
            lo, hi = g.sent_slice.start, g.sent_slice.stop
            for ai in range(g.attr_slice.start, g.attr_slice.stop):
                assert any(lo <= j < hi for j in g.neighbors[ai])

    def test_sentences_touch_attributes_only(self):
        corpus = richer_corpus()
        g = build_pair_graph(corpus, "u0", "c0", "train")
        lo, hi = g.attr_slice.start, g.attr_slice.stop
        for si in range(g.sent_slice.start, g.sent_slice.stop):
            assert len(g.neighbors[si]) >= 1
            assert all(lo <= j < hi for j in g.neighbors[si])

    def test_rebuild_bit_identical(self):
        corpus = richer_corpus()
        a = build_pair_graph(corpus, "u0", "c0", "train")
        b = build_pair_graph(corpus, "u0", "c0", "train")
        assert a.attribute_ids == b.attribute_ids
        assert a.sentence_ids == b.sentence_ids
        assert all(np.array_equal(x, y) for x, y in zip(a.neighbors, b.neighbors))
        assert np.array_equal(a.attr_labels, b.attr_labels)


class TestNeighborView:
    def test_self_loops_on(self):
        g = build_pair_graph(minimal_corpus(), "u0", "c0", "train", self_loops=True)
        assert g.neighbor_view(0).tolist() == [0, 2]
        assert g.neighbor_view(2).tolist() == [0, 1, 2, 3]
        assert g.neighbor_view(3).tolist() == [2, 3]

    def test_self_loops_off(self):
        g = build_pair_graph(minimal_corpus(), "u0", "c0", "train", self_loops=False)
        assert g.neighbor_view(0).tolist() == [2]

    def test_unknown_node_fatal(self):
        g = build_pair_graph(minimal_corpus(), "u0", "c0", "train")
        with pytest.raises(GraphError):
            g.neighbor_view(99)

    def test_edge_arrays_row_sorted(self):
        g = build_pair_graph(richer_corpus(), "u1", "c1", "train")
        centers, nbrs, indptr = g.edge_arrays()
        assert centers.shape == nbrs.shape
        assert np.all(np.diff(centers) >= 0)
        assert indptr[-1] == centers.size
        for i in range(g.n_nodes):
            seg = nbrs[indptr[i] : indptr[i + 1]]
            assert np.all(np.diff(seg) > 0)
            assert i in seg  # self loop present by default

    def test_isolated_node_without_self_loops_fatal(self):
        # a user who never shares attributes with the pool ends up isolated
        records = [
            cp.RawRecord("u0", "c0", 5.0, "The room was big.", 0),
            cp.RawRecord("u1", "c0", 5.0, "The pool was cold.", 1),
            cp.RawRecord("u1", "c1", 5.0, "The pool again.", 2),
        ]
        corpus = corpus_from_records(records)
        g = build_pair_graph(corpus, "u0", "c1", "eval", self_loops=False)
        with pytest.raises(GraphError):
            g.edge_arrays()
