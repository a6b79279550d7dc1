import json

import pytest

from recexplain import corpus as cp


@pytest.fixture
def lexicon():
    return cp.AttributeLexicon(["room", "staff", "view", "hot tub"])


def write_reviews(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


class TestSegmentTokenize:
    def test_two_terminal_marks(self):
        assert cp.segment_and_tokenize("Great view. Nice staff!") == [
            ["great", "view", "."],
            ["nice", "staff", "!"],
        ]

    def test_empty(self):
        assert cp.segment_and_tokenize("") == []

    def test_abbreviation_splits_literally(self):
        out = cp.segment_and_tokenize("Mr. Smith stayed.")
        assert out == [["mr", "."], ["smith", "stayed", "."]]

    def test_deterministic(self):
        text = "The room, was clean!? Really.  Yes."
        assert cp.segment_and_tokenize(text) == cp.segment_and_tokenize(text)


class TestLexicon:
    def test_single_match(self, lexicon):
        assert lexicon.match(["the", "room", "was", "clean"]) == {0}

    def test_no_match_means_drop(self, lexicon):
        assert lexicon.match(["i", "drank", "two", "bottles"]) == frozenset()

    def test_multi_match(self, lexicon):
        assert lexicon.match(["room", "and", "staff"]) == {0, 1}

    def test_multiword_contiguous(self, lexicon):
        assert lexicon.match(["the", "hot", "tub", "rocks"]) == {3}
        assert lexicon.match(["hot", "water", "tub"]) == frozenset()

    def test_duplicate_surface_rejected(self):
        with pytest.raises(cp.CorpusError):
            cp.AttributeLexicon(["room", "Room"])

    def test_roundtrip(self, tmp_path, lexicon):
        lexicon.save(tmp_path / "attrs.tsv")
        again = cp.AttributeLexicon.load_table(tmp_path / "attrs.tsv")
        assert again.surfaces == lexicon.surfaces


class TestIngest:
    def test_strict_threshold(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        write_reviews(
            path,
            [
                {"user_id": "u1", "item_id": "i1", "rating": 10, "text": "Nice room."},
                {"user_id": "u2", "item_id": "i1", "rating": 11, "text": "Nice room."},
            ],
        )
        records, errors = cp.ingest_reviews(path, 10)
        assert [r.user_id for r in records] == ["u2"]
        assert errors == []

    def test_malformed_isolated(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        with open(path, "w") as fh:
            for u in ("a", "b"):
                fh.write(json.dumps({"user_id": u, "item_id": "i", "rating": 5, "text": "x"}) + "\n")
            fh.write("{broken\n")
            fh.write(json.dumps({"user_id": "c", "item_id": "i", "rating": 5, "text": "x"}) + "\n")
        records, errors = cp.ingest_reviews(path, 0)
        assert len(records) == 3
        assert len(errors) == 1
        assert "line 3" in errors[0]

    def test_missing_field_reported_with_line(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        write_reviews(path, [{"user_id": "u", "item_id": "i", "text": "no rating"}])
        records, errors = cp.ingest_reviews(path, 0)
        assert records == [] and "line 1" in errors[0]

    @pytest.mark.parametrize("field", ["user_id", "item_id"])
    @pytest.mark.parametrize("char", ["\t", "\n", "\r"])
    def test_tab_or_line_break_in_id_reported(self, tmp_path, field, char):
        path = tmp_path / "reviews.jsonl"
        bad = {"user_id": "u1", "item_id": "i1", "rating": 5, "text": "Nice room."}
        bad[field] = f"x{char}y"
        spaced = dict(bad, **{field: "x y"})
        write_reviews(path, [bad, spaced])
        records, errors = cp.ingest_reviews(path, 0)
        assert [getattr(r, field) for r in records] == ["x y"]
        assert len(errors) == 1 and errors[0].startswith("line 1: bad record (") and field in errors[0]

    @pytest.mark.parametrize("field", ["user_id", "item_id", "text"])
    @pytest.mark.parametrize("value", [None, True, ["u1"], {"id": "u1"}], ids=["null", "bool", "array", "object"])
    def test_non_scalar_field_reported(self, tmp_path, field, value):
        path = tmp_path / "reviews.jsonl"
        good = {"user_id": "u1", "item_id": "i1", "rating": 5, "text": "Nice room."}
        write_reviews(path, [dict(good, **{field: value}), good])
        records, errors = cp.ingest_reviews(path, 0)
        assert [r.line_no for r in records] == [2]
        assert errors == [f"line 1: bad record ({field} is not a string or number)"]

    def test_numbers_accepted_as_text(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        write_reviews(path, [{"user_id": 7, "item_id": 1.5, "rating": 5, "text": 42}])
        records, errors = cp.ingest_reviews(path, 0)
        assert errors == []
        assert [(r.user_id, r.item_id, r.text) for r in records] == [("7", "1.5", "42")]

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(OSError):
            cp.ingest_reviews(tmp_path / "nope.jsonl", 0)


class _R:
    def __init__(self, user_id, item_id):
        self.user_id = user_id
        self.item_id = item_id


class TestActivityFilter:
    def test_already_fixpoint(self):
        reviews = [_R(f"u{i}", f"c{j}") for i in range(2) for j in range(3)]
        assert cp.filter_min_activity(reviews, 2) == reviews

    def test_user_below_threshold_removed(self):
        reviews = [_R("a", f"c{j}") for j in range(14)] + [_R("b", f"c{j}") for j in range(15)]
        # items all have < 15 reviews here, so give each item enough mass
        reviews = [_R("a", "c0") for _ in range(14)] + [_R("b", "c0") for _ in range(15)]
        kept = cp.filter_min_activity(reviews, 15)
        assert {r.user_id for r in kept} == {"b"}

    def test_chain_removal_two_passes(self):
        # user A supports item X; dropping A (2 < 3 reviews) drops X below
        # threshold, which then demotes user B's count as well.
        reviews = (
            [_R("A", "X"), _R("A", "X")]
            + [_R("B", "X"), _R("B", "Y"), _R("B", "Y")]
            + [_R("C", "Y"), _R("C", "Y"), _R("C", "Y")]
        )
        kept = cp.filter_min_activity(reviews, 3)
        # exhaustive recount: the fixpoint must satisfy both constraints
        from collections import Counter

        users = Counter(r.user_id for r in kept)
        items = Counter(r.item_id for r in kept)
        assert all(v >= 3 for v in users.values())
        assert all(v >= 3 for v in items.values())
        assert {r.user_id for r in kept} == {"C"}
        # pass 1 only removes A; the cascade needs a second pass
        one_pass = [r for r in reviews if r.user_id != "A"]
        items_after_one = Counter(r.item_id for r in one_pass)
        assert items_after_one["X"] < 3

    def test_rerun_is_identity(self):
        reviews = [_R(f"u{i % 3}", f"c{i % 2}") for i in range(12)]
        once = cp.filter_min_activity(reviews, 2)
        assert cp.filter_min_activity(once, 2) == once

    def test_empty_result(self):
        assert cp.filter_min_activity([_R("a", "x")], 2) == []


class TestSplit:
    def test_ratio_counts(self):
        split = cp.split_corpus([f"r{i}" for i in range(100)], (0.7, 0.15, 0.15), 7)
        assert (len(split.train), len(split.valid), len(split.test)) == (70, 15, 15)
        assert split.train | split.valid | split.test == {f"r{i}" for i in range(100)}

    def test_deterministic(self):
        ids = [f"r{i}" for i in range(40)]
        a = cp.split_corpus(ids, (0.7, 0.15, 0.15), 11)
        b = cp.split_corpus(ids, (0.7, 0.15, 0.15), 11)
        assert (a.train, a.valid, a.test) == (b.train, b.valid, b.test)

    def test_rounding_rule(self):
        # floor valid, floor test, remainder to train: 10 -> 8/1/1
        split = cp.split_corpus([f"r{i}" for i in range(10)], (0.7, 0.15, 0.15), 3)
        assert (len(split.train), len(split.valid), len(split.test)) == (8, 1, 1)

    def test_bad_ratios_fatal(self):
        with pytest.raises(cp.CorpusError):
            cp.split_corpus(["a"], (0.5, 0.2, 0.2), 0)


def toy_corpus(lexicon, n_users=4, n_items=4, seed=5, min_activity=2):
    """Small dense corpus: every user reviews every item."""
    records = []
    line = 0
    words = ["room", "staff", "view"]
    for u in range(n_users):
        for c in range(n_items):
            attr = words[(u + c) % 3]
            text = f"The {attr} was great. I liked it a lot."
            records.append(cp.RawRecord(f"u{u}", f"c{c}", 5.0, text, line))
            line += 1
    return cp.build_corpus(records, lexicon, min_activity, (0.7, 0.15, 0.15), seed)


class TestBuildCorpus:
    def test_attribute_free_sentences_dropped(self, lexicon):
        corpus = toy_corpus(lexicon)
        for s in corpus.sentences.values():
            assert s.attributes

    def test_train_words_from_train_only(self, lexicon):
        corpus = toy_corpus(lexicon)
        want = [s.words for s in corpus.sentences.values() if corpus.split.of(s.review_id) == "train"]
        assert want and len(want) < len(corpus.sentences)
        assert sorted(corpus.train_words()) == sorted(want)

    def test_pool_contains_target_in_train_mode(self, lexicon):
        corpus = toy_corpus(lexicon)
        for user_id, item_id in corpus.pairs("train"):
            pool = set(corpus.candidate_pool(user_id, item_id, "train"))
            truth = set(corpus.ground_truth_sentences(user_id, item_id, "train"))
            assert truth <= pool

    def test_eval_pool_leak_free(self, lexicon):
        corpus = toy_corpus(lexicon)
        for user_id, item_id in corpus.pairs("test"):
            pool = set(corpus.candidate_pool(user_id, item_id, "eval"))
            truth = set(corpus.ground_truth_sentences(user_id, item_id, "test"))
            assert pool.isdisjoint(truth)

    def test_degenerate_union(self, lexicon):
        records = [
            cp.RawRecord("u0", "c0", 5.0, "The room was great. The staff was kind.", 0),
        ]
        corpus = cp.build_corpus(records, lexicon, 1, (1.0, 0.0, 0.0), 0)
        pool = corpus.candidate_pool("u0", "c0", "train")
        assert set(pool) == set(corpus.ground_truth_sentences("u0", "c0", "train"))

    def test_stats_fields(self, lexicon):
        stats = toy_corpus(lexicon).stats()
        assert set(stats) == {"users", "items", "reviews", "sentences", "attributes"}

    def test_save_load_roundtrip_bitexact(self, tmp_path, lexicon):
        corpus = toy_corpus(lexicon)
        cp.save_corpus(corpus, tmp_path / "one")
        again = cp.load_corpus(tmp_path / "one")
        cp.save_corpus(again, tmp_path / "two")
        for name in ("attributes.tsv", "sentences.tsv", "reviews.tsv", "splits.json"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        assert not (tmp_path / "one" / "vocab.tsv").exists()
        assert again.stats() == corpus.stats()
        assert again.sentences == corpus.sentences

    def test_rebuild_deterministic(self, lexicon):
        a = toy_corpus(lexicon)
        b = toy_corpus(lexicon)
        assert a.split == b.split
        assert a.sentences == b.sentences
        assert set(a.sentences) == set(b.sentences)

    def test_empty_pool_raises(self, lexicon):
        corpus = toy_corpus(lexicon)
        with pytest.raises(cp.CorpusError):
            corpus.candidate_pool("ghost", "c0", "eval")
