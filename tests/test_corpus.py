import json
import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import build_corpus_oracle
from recexplain import corpus as cp
from recexplain.graphs import build_pair_graph


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

    def test_entry_with_punctuation_matches_its_tokens(self):
        lexicon = cp.AttributeLexicon(["room", "wi-fi", "check-in desk"])
        [words] = cp.segment_and_tokenize("The Wi-Fi was fast at the check-in desk.")
        assert lexicon.match(words) == {1, 2}
        assert lexicon.match(cp.segment_and_tokenize("The wifi was fast.")[0]) == frozenset()
        assert lexicon.surfaces == ("room", "wi-fi", "check-in desk")

    @pytest.mark.parametrize("first, second", [("wi-fi", "Wi - Fi"), ("hot tub", "hot  tub")])
    def test_surfaces_with_the_same_tokens_rejected(self, first, second):
        with pytest.raises(cp.CorpusError, match=f"{first.lower()!r} and {second.lower()!r} are the same tokens"):
            cp.AttributeLexicon(["room", first, second])

    def test_lexicon_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "lexicon.txt"
        path.write_bytes("\ufeffroom\nstaff\n".encode("utf-8"))
        lexicon = cp.load_attribute_lexicon(path)
        assert lexicon.surfaces == ("room", "staff")
        assert lexicon.match(["the", "room"]) == {0}


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

    def test_tab_or_line_break_in_id_kept(self, tmp_path, lexicon):
        ids = ["u\tone", "u\ntwo", "u\rthree"]
        rows = [{"user_id": u, "item_id": f"i{k}\t{u}", "rating": 5, "text": "Nice room."} for k, u in enumerate(ids)]
        write_reviews(tmp_path / "reviews.jsonl", rows)
        records, errors = cp.ingest_reviews(tmp_path / "reviews.jsonl", 0)
        assert errors == [] and [(r.user_id, r.item_id) for r in records] == [(r["user_id"], r["item_id"]) for r in rows]
        corpus = cp.build_corpus(records, lexicon, 1, (1.0, 0.0, 0.0), 0)
        cp.save_corpus(corpus, tmp_path / "corpus", {})
        again = cp.load_corpus(tmp_path / "corpus")
        assert again.reviews == corpus.reviews and sorted(again.users) == sorted(ids)

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
        write_reviews(path, [{"user_id": 7, "item_id": 1.5, "rating": "5", "text": 42}])
        records, errors = cp.ingest_reviews(path, 0)
        assert errors == []
        assert [(r.user_id, r.item_id, r.rating, r.text) for r in records] == [("7", "1.5", 5.0, "42")]

    @pytest.mark.parametrize(
        "rating",
        ["true", '"Infinity"', "NaN", "-Infinity", "1e999", '"nan"', '"five"', "1" + "0" * 400, "null"],
        ids=["bool", "infinity-string", "nan", "minus-infinity", "overflowing-float", "nan-string",
             "word", "overflowing-int", "null"],
    )
    def test_rating_not_a_finite_number_reported(self, tmp_path, rating):
        # the threshold is below every value, so a rating that slipped
        # through would be kept, and NaN would be dropped without a report
        path = tmp_path / "reviews.jsonl"
        good = '{"user_id": "u1", "item_id": "i1", "rating": 5, "text": "Nice room."}'
        path.write_text(good.replace("5", rating) + "\n" + good + "\n", encoding="utf-8")
        records, errors = cp.ingest_reviews(path, 0.5)
        assert [r.line_no for r in records] == [2]
        assert len(errors) == 1 and errors[0].startswith("line 1: bad record (rating ")

    def test_reviews_file_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        row = {"user_id": "u1", "item_id": "i1", "rating": 5, "text": "Nice room."}
        path.write_bytes(b"\xef\xbb\xbf" + (json.dumps(row) + "\n" + json.dumps(row) + "\n").encode("utf-8"))
        records, errors = cp.ingest_reviews(path, 0)
        assert errors == [] and [(r.line_no, r.user_id) for r in records] == [(1, "u1"), (2, "u1")]

    def test_byte_order_mark_after_the_first_line_reported(self, tmp_path):
        path = tmp_path / "reviews.jsonl"
        row = json.dumps({"user_id": "u1", "item_id": "i1", "rating": 5, "text": "Nice room."})
        path.write_bytes((row + "\n\ufeff" + row + "\n").encode("utf-8"))
        records, errors = cp.ingest_reviews(path, 0)
        assert [r.line_no for r in records] == [1]
        assert len(errors) == 1 and errors[0].startswith("line 2: invalid JSON (Unexpected UTF-8 BOM")

    def test_unreadable_file_fatal(self, tmp_path):
        with pytest.raises(OSError):
            cp.ingest_reviews(tmp_path / "nope.jsonl", 0)


class _R:
    def __init__(self, user_id, item_id):
        self.user_id = user_id
        self.item_id = item_id


def active(reviews, min_count):
    """The reviews whose indices `_active_rows` keeps, in order."""
    return [reviews[i] for i in cp._active_rows([(r.user_id, r.item_id) for r in reviews], min_count)]


class TestActivityFilter:
    def test_already_fixpoint(self):
        reviews = [_R(f"u{i}", f"c{j}") for i in range(2) for j in range(3)]
        assert active(reviews, 2) == reviews

    def test_user_below_threshold_removed(self):
        reviews = [_R("a", f"c{j}") for j in range(14)] + [_R("b", f"c{j}") for j in range(15)]
        # items all have < 15 reviews here, so give each item enough mass
        reviews = [_R("a", "c0") for _ in range(14)] + [_R("b", "c0") for _ in range(15)]
        kept = active(reviews, 15)
        assert {r.user_id for r in kept} == {"b"}

    def test_chain_removal_two_passes(self):
        # user A supports item X; dropping A (2 < 3 reviews) drops X below
        # threshold, which then demotes user B's count as well.
        reviews = (
            [_R("A", "X"), _R("A", "X")]
            + [_R("B", "X"), _R("B", "Y"), _R("B", "Y")]
            + [_R("C", "Y"), _R("C", "Y"), _R("C", "Y")]
        )
        kept = active(reviews, 3)
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
        once = active(reviews, 2)
        assert active(once, 2) == once

    def test_empty_result(self):
        assert active([_R("a", "x")], 2) == []


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

    def test_sentence_rows_number_training_sentences(self, lexicon):
        corpus = toy_corpus(lexicon)
        review_of = {sid: rid for rid, r in corpus.reviews.items() for sid in r.sentence_ids}
        want = sorted(sid for sid in corpus.sentences if corpus.split.of(review_of[sid]) == "train")
        assert want and len(want) < len(corpus.sentences)
        assert corpus.sentence_rows == {sid: row for row, sid in enumerate(want)}

    def test_training_indexes(self, lexicon):
        corpus = toy_corpus(lexicon)
        want = {name: {} for name in ("user_sentences", "item_sentences", "user_attributes", "item_attributes")}
        for rid in corpus.split.train:
            r = corpus.reviews[rid]
            attrs = {a for sid in r.sentence_ids for a in corpus.sentences[sid].attributes}
            for side, key in (("user", r.user_id), ("item", r.item_id)):
                want[f"{side}_sentences"].setdefault(key, set()).update(r.sentence_ids)
                want[f"{side}_attributes"].setdefault(key, set()).update(attrs)
        assert want["user_sentences"] and len(corpus.split.train) < len(corpus.reviews)
        for name, index in want.items():
            keys = corpus.users if name.startswith("user") else corpus.items
            assert getattr(corpus, name) == {key: index.get(key, set()) for key in keys}, name
        assert corpus.user_rows == {u: corpus.users.index(u) for u in corpus.users}
        assert corpus.item_rows == {c: corpus.items.index(c) for c in corpus.items}

    def test_degenerate_union(self, lexicon):
        records = [
            cp.RawRecord("u0", "c0", 5.0, "The room was great. The staff was kind.", 0),
        ]
        corpus = cp.build_corpus(records, lexicon, 1, (1.0, 0.0, 0.0), 0)
        pool = build_pair_graph(corpus, "u0", "c0").sentence_ids
        assert set(pool) == set(corpus.ground_truth_sentences("u0", "c0", "train"))

    def test_stats_fields(self, lexicon):
        stats = toy_corpus(lexicon).stats()
        assert set(stats) == {"users", "items", "reviews", "sentences", "attributes"}

    def test_save_load_roundtrip_bitexact(self, tmp_path, lexicon):
        corpus = toy_corpus(lexicon)
        cp.save_corpus(corpus, tmp_path / "one", {"config_hash": "abc"})
        again = cp.load_corpus(tmp_path / "one")
        cp.save_corpus(again, tmp_path / "two", {"config_hash": "abc"})
        assert sorted(p.name for p in (tmp_path / "one").iterdir()) == ["corpus.json", "meta.json"]
        assert (tmp_path / "one" / "corpus.json").read_bytes() == (tmp_path / "two" / "corpus.json").read_bytes()
        assert cp.load_meta(tmp_path / "one") == {"config_hash": "abc"}
        assert again.lexicon.surfaces == corpus.lexicon.surfaces
        assert again.reviews == corpus.reviews
        assert again.sentences == corpus.sentences
        assert again.split == corpus.split
        assert again.stats() == corpus.stats()

    def test_rebuild_deterministic(self, lexicon):
        a = toy_corpus(lexicon)
        b = toy_corpus(lexicon)
        assert a.split == b.split
        assert a.sentences == b.sentences
        assert set(a.sentences) == set(b.sentences)


_ATTRIBUTE_TEXTS = ["The room was clean. I liked it.", "Nice staff! Great view.", "The hot tub was warm.", "Meh. The view, though."]
_TEXTS = ["", "I liked it.", "Fine. Just fine!", *_ATTRIBUTE_TEXTS]


@st.composite
def tail_corpora(draw):
    """(records, min_activity): active users over a few items, one-off
    users, texts that are empty, attribute-free or attribute-bearing, and a
    ladder the activity filter takes apart one rung per pass."""
    min_activity = draw(st.integers(1, 4))
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        rows.append((f"u{draw(st.integers(0, 5))}", f"c{draw(st.integers(0, 4))}", draw(st.sampled_from(_TEXTS))))
    for k in range(draw(st.integers(0, 8))):
        rows.append((f"solo{k}", f"c{draw(st.integers(0, 4))}", draw(st.sampled_from(_TEXTS))))
    # user a{j} reviews item x{j} once and x{j+1} min_activity - 1 times:
    # x0 has one review, so (for min_activity >= 2) dropping it drops a0,
    # which drops x1 below the count, which drops a1, and so on
    attribute_text = st.sampled_from(_ATTRIBUTE_TEXTS)
    for j in range(draw(st.integers(0, 3))):
        rows.append((f"a{j}", f"x{j}", draw(attribute_text)))
        rows += [(f"a{j}", f"x{j + 1}", draw(attribute_text)) for _ in range(min_activity - 1)]
    rows = draw(st.permutations(rows))
    return [cp.RawRecord(u, c, 5.0, text, line) for line, (u, c, text) in enumerate(rows)], min_activity


class _Messages(logging.Handler):
    """Keeps the messages of the records it handles."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


class TestActivityPrefilter:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tail_corpora())
    def test_equals_tagging_everything_then_filtering(self, case):
        records, min_activity = case
        lexicon = cp.AttributeLexicon(["room", "staff", "view", "hot tub"])
        warnings = _Messages()
        cp.log.addHandler(warnings)
        try:
            corpus = cp.build_corpus(records, lexicon, min_activity, (0.6, 0.2, 0.2), 3)
        finally:
            cp.log.removeHandler(warnings)
        reviews, sentences, stats, emptied = build_corpus_oracle(records, lexicon, min_activity)
        assert warnings.messages == [f"activity filter removed every review (min_count={min_activity})"] * emptied
        assert {rid: (r.user_id, r.item_id, r.sentence_ids) for rid, r in corpus.reviews.items()} == reviews
        assert {sid: (s.words, s.attributes) for sid, s in corpus.sentences.items()} == sentences
        assert all(sid == s.sentence_id for sid, s in corpus.sentences.items())
        assert corpus.split == cp.split_corpus(list(reviews), (0.6, 0.2, 0.2), 3)
        assert corpus.stats() == stats

    def test_one_off_reviewers_are_not_tokenized(self, lexicon, monkeypatch):
        records = [cp.RawRecord(f"u{u}", f"c{c}", 5.0, "The room was clean. I liked it.", 0)
                   for u in range(2) for c in range(2)]
        records += [cp.RawRecord(f"solo{k}", "c0", 5.0, "Solo room. Solo staff!", 0) for k in range(5)]
        seen = []
        match = lexicon.match
        monkeypatch.setattr(lexicon, "match", lambda tokens: seen.append(tokens) or match(tokens))
        corpus = cp.build_corpus(records, lexicon, 2, (1.0, 0.0, 0.0), 0)
        assert len(seen) == 2 * 4 and not any("solo" in tokens for tokens in seen)
        assert sorted(corpus.reviews) == ["r0", "r1", "r2", "r3"]

    @pytest.mark.parametrize(
        "rows",
        [
            # no user or item has two records: the raw filter leaves nothing
            [("u0", "c0", "Nice room."), ("u1", "c1", "Nice staff.")],
            # every record passes the raw filter, but the attribute-free ones
            # leave each user and item one tagged review
            [("u0", "c0", "Nice room."), ("u1", "c1", "Nice staff."), ("u0", "c1", "I liked it."), ("u1", "c0", "")],
            # only a one-off reviewer's record keeps a sentence
            [("u0", "c0", "Fine."), ("u1", "c1", "Fine."), ("u0", "c1", "Fine."), ("u1", "c0", "Fine."),
             ("solo", "c0", "Nice room.")],
        ],
        ids=["raw-filter-empties", "tagged-filter-empties", "tagged-only-outside-raw-filter"],
    )
    def test_removed_every_review_logged_once(self, lexicon, caplog, rows):
        records = [cp.RawRecord(u, c, 5.0, text, line) for line, (u, c, text) in enumerate(rows)]
        with caplog.at_level(logging.WARNING, logger="recexplain.corpus"):
            corpus = cp.build_corpus(records, lexicon, 2, (1.0, 0.0, 0.0), 0)
        assert corpus.reviews == {}
        assert caplog.messages == ["activity filter removed every review (min_count=2)"]

    def test_nothing_tagged_is_not_a_removal(self, lexicon, caplog):
        # filtering no tagged review removes none, so nothing is logged
        records = [cp.RawRecord(u, c, 5.0, "Fine.", 0) for u in ("u0", "u1") for c in ("c0", "c1")]
        records.append(cp.RawRecord("solo", "c0", 5.0, "Fine.", 0))
        with caplog.at_level(logging.WARNING, logger="recexplain.corpus"):
            assert cp.build_corpus(records, lexicon, 2, (1.0, 0.0, 0.0), 0).reviews == {}
        assert caplog.messages == []

    def test_min_activity_below_one_rejected(self, lexicon):
        with pytest.raises(cp.CorpusError, match="min_count must be >= 1"):
            cp.build_corpus([cp.RawRecord("u0", "c0", 5.0, "Nice room.", 0)], lexicon, 0, (1.0, 0.0, 0.0), 0)


def corpus_json(tmp_path, lexicon):
    """A saved toy corpus's directory and its parsed corpus.json."""
    cp.save_corpus(toy_corpus(lexicon), tmp_path, {})
    return tmp_path, json.loads((tmp_path / "corpus.json").read_text(encoding="utf-8"))


def first(table):
    return table[min(table)]


class TestLoadCorpus:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.pop("lexicon"), "key ['lexicon'] is missing or of the wrong type"),
            (lambda doc: doc["lexicon"].append(7), "key ['lexicon'] is missing or of the wrong type"),
            (lambda doc: doc["lexicon"].append("Room"), "duplicate attribute surface: 'room'"),
            (lambda doc: first(doc["sentences"])["words"].append(3), "key ['sentences']['r0.s0']['words'] is missing"),
            (lambda doc: first(doc["sentences"])["attributes"].append(True), "key ['sentences']['r0.s0']['attributes'] is"),
            (lambda doc: first(doc["sentences"])["attributes"].append(4), "['attributes'] holds an id outside the lexicon"),
            (lambda doc: first(doc["sentences"])["attributes"].append(-1), "['attributes'] holds an id outside the lexicon"),
            (lambda doc: doc["sentences"].update(r0=[]), "key ['sentences']['r0'] is missing or of the wrong type"),
            (lambda doc: first(doc["reviews"]).update(user_id=None), "key ['reviews']['r0']['user_id'] is missing"),
            (lambda doc: first(doc["reviews"])["sentence_ids"].append("r99.s0"),
             "key ['reviews']['r0']['sentence_ids'] names unknown sentence 'r99.s0'"),
            # a sentence belongs to one review, once: a repeat would count twice in the tf-idf fit and the ground truth
            (lambda doc: first(doc["reviews"])["sentence_ids"].append("r0.s0"),
             "key ['reviews']['r0']['sentence_ids'] repeats sentence 'r0.s0' of review 'r0'"),
            (lambda doc: doc["reviews"][max(doc["reviews"])]["sentence_ids"].append("r0.s0"),
             "['sentence_ids'] repeats sentence 'r0.s0' of review 'r0'"),
            (lambda doc: [doc["split"][p].remove("r0") for p in ("train", "valid", "test") if "r0" in doc["split"][p]],
             "key ['reviews']['r0'] is a review in no split"),
            (lambda doc: doc["split"]["test"].append("r99"), "key ['split'] names a review twice, or one"),
            (lambda doc: doc["split"]["valid"].append(doc["split"]["train"][0]), "key ['split'] names a review twice"),
        ],
    )
    def test_malformed_names_file_and_key(self, tmp_path, lexicon, edit, message):
        dirpath, doc = corpus_json(tmp_path, lexicon)
        edit(doc)
        (dirpath / "corpus.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(cp.CorpusError) as err:
            cp.load_corpus(dirpath)
        assert str(err.value).startswith(f"{dirpath / 'corpus.json'}: ")
        assert message in str(err.value)

    @pytest.mark.parametrize("name", ["corpus.json", "meta.json"])
    @pytest.mark.parametrize("content", [b"[]", b"\xff{}", b"{} garbage"], ids=["array", "not-utf8", "garbage"])
    def test_not_a_json_object_names_the_file(self, tmp_path, lexicon, name, content):
        dirpath, _ = corpus_json(tmp_path, lexicon)
        (dirpath / name).write_bytes(content)
        load = cp.load_corpus if name == "corpus.json" else cp.load_meta
        with pytest.raises(cp.CorpusError, match=f"^{dirpath / name}: not a JSON object|^{dirpath / name}: not JSON"):
            load(dirpath)

    def test_saved_keys_are_the_schema_keys(self, tmp_path, lexicon):
        _, doc = corpus_json(tmp_path, lexicon)
        levels = 0

        def walk(value, kind, path):
            nonlocal levels
            if type(kind) is list:
                for item in value:
                    walk(item, kind[0], path)
            elif type(kind) is dict:
                named = kind.keys() if "*" not in kind else value.keys()
                assert value.keys() == named, path
                levels += 1
                for key in named:
                    walk(value[key], kind.get(key, kind.get("*")), f"{path}[{key!r}]")

        walk(doc, cp._SCHEMA, "doc")
        assert levels > 1 + len(doc["sentences"]) + len(doc["reviews"])
        assert {k: sorted(v.get("*", v)) for k, v in cp._SCHEMA.items() if type(v) is dict} == {
            "sentences": ["attributes", "words"],
            "reviews": ["item_id", "sentence_ids", "user_id"],
            "split": ["test", "train", "valid"],
        }

    def test_older_layout_loads_to_the_same_corpus(self, tmp_path, lexicon):
        # corpus.json once also held each sentence's review_id, each
        # review's rating and the split's seed and ratios
        dirpath, doc = corpus_json(tmp_path, lexicon)
        new = cp.load_corpus(dirpath)
        for rid, review in doc["reviews"].items():
            review["rating"] = 5.0
            for sid in review["sentence_ids"]:
                doc["sentences"][sid]["review_id"] = rid
        doc["split"].update(seed=5, ratios=[0.7, 0.15, 0.15])
        (dirpath / "corpus.json").write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        old = cp.load_corpus(dirpath)
        assert old.lexicon.surfaces == new.lexicon.surfaces
        assert (old.reviews, old.sentences, old.split) == (new.reviews, new.sentences, new.split)
        assert old.stats() == new.stats()

    def test_missing_corpus_asks_to_preprocess(self, tmp_path):
        with pytest.raises(cp.CorpusError, match="corpus.json: no such file; re-run preprocess"):
            cp.load_corpus(tmp_path)
        assert cp.load_meta(tmp_path) == {}
