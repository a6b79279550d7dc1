import logging
import re

import numpy as np
import pytest

import synthetic_corpus as sc
from oracles import graph_inputs_oracle
from recexplain import cli
from recexplain import features as ft
from recexplain.config import PipelineConfig
from recexplain.corpus import AttributeLexicon, Corpus, CorpusSplit, Review, Sentence
from recexplain.graphs import build_pair_graph


def write_vectors(path, rows, dim=None):
    dim = dim if dim is not None else len(rows[0][1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(rows)} {dim}\n")
        for key, vals in rows:
            fh.write(key + " " + " ".join(str(v) for v in vals) + "\n")


class TestLoadVectorFile:
    def test_literal_parse(self, tmp_path):
        path = tmp_path / "v.txt"
        write_vectors(path, [("a", [1, 0, 0]), ("b", [0, 1, 0])])
        table = ft.load_vector_file(path)
        assert table.vectors.shape[0] == 2 and table.dim == 3
        assert np.array_equal(table.lookup("a"), [1.0, 0.0, 0.0])
        assert table.lookup("zz") is None

    def test_row_length_mismatch_names_row(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("1 3\na 1 0\n")
        with pytest.raises(ft.VectorFileError, match="row 1"):
            ft.load_vector_file(path)

    # "² 3": a digit to str.isdigit that int() rejects
    @pytest.mark.parametrize("header", ["x 3", "1 3.5", "1", "-1 3", "\u00b2 3"])
    def test_bad_header_names_row(self, tmp_path, header):
        path = tmp_path / "v.txt"
        path.write_text(f"{header}\na 1 0 0\n", encoding="utf-8")
        with pytest.raises(ft.VectorFileError, match=re.escape(f"{path}: header row")):
            ft.load_vector_file(path)

    def test_non_numeric_value_names_row(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 3\na 1 0 0\nb 0 abc 1\n")
        with pytest.raises(ft.VectorFileError, match=re.escape(f"{path}: row 2 ('b') has a non-numeric value")):
            ft.load_vector_file(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_value_names_row(self, tmp_path, value):
        path = tmp_path / "v.txt"
        path.write_text(f"3 2\na 1 0\n\nb 0 {value}\nc 1 1\n")
        with pytest.raises(ft.VectorFileError, match=re.escape(f"{path}: row 2 ('b') has a non-finite value")):
            ft.load_vector_file(path)

    def test_blank_lines_are_not_rows(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\na 1 0\n\nb 0 1\n")
        table = ft.load_vector_file(path)
        assert table.index == {"a": 0, "b": 1}
        assert np.array_equal(table.vectors, [[1.0, 0.0], [0.0, 1.0]])

    def test_rows_numbered_over_data_lines(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\n\na 1 0\n\n\nb 0\n")
        with pytest.raises(ft.VectorFileError, match=re.escape(f"{path}: row 2 ('b') has 1 values")):
            ft.load_vector_file(path)

    def test_duplicate_id_fatal(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("2 2\na 1 0\na 0 1\n")
        with pytest.raises(ft.VectorFileError, match="duplicate"):
            ft.load_vector_file(path)

    @pytest.mark.parametrize(
        "text, reason",
        [("", "the file is empty"), (" \n\n\t\n", "the file is empty"), ("\n0 3\n\n", "the header declares 0 rows")],
        ids=["empty", "whitespace-only", "zero-count"],
    )
    def test_file_with_no_vectors_is_an_error(self, tmp_path, text, reason):
        path = tmp_path / "v.txt"
        path.write_text(text)
        with pytest.raises(ft.VectorFileError, match=re.escape(f"{path}: no vectors ({reason})")):
            ft.load_vector_file(path)

    def test_blank_lines_before_header_are_skipped(self, tmp_path, caplog):
        plain, padded = tmp_path / "plain.txt", tmp_path / "padded.txt"
        plain.write_text("2 2\na 1 2\nb 3 4\n")
        padded.write_text("\n  \n2 2\na 1 2\nb 3 4\n")
        with caplog.at_level("WARNING"):
            got = ft.load_vector_file(padded)
        want = ft.load_vector_file(plain)
        assert got.index == want.index == {"a": 0, "b": 1}
        assert np.array_equal(got.vectors, want.vectors) and not caplog.records

    def test_count_mismatch_fatal(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("3 2\na 1 0\n")
        with pytest.raises(ft.VectorFileError):
            ft.load_vector_file(path)

    @pytest.mark.parametrize(
        "header, message",
        [("1000000000000 2", "declared 1000000000000 rows, found 2"),
         ("2 1000000000000", "row 1 ('a') has 2 values, expected 1000000000000")],
        ids=["count", "dim"],
    )
    def test_huge_header_allocates_nothing(self, tmp_path, header, message):
        # a table of the declared shape would take 14.6 TiB
        path = tmp_path / "v.txt"
        path.write_text(f"{header}\na 1 0\nb 0 1\n")
        with pytest.raises(ft.VectorFileError, match=re.escape(f"{path}: {message}")):
            ft.load_vector_file(path)

    def test_save_roundtrip(self, tmp_path):
        path = tmp_path / "v.txt"
        vecs = np.array([[0.25, -1.5], [3.0, 0.125]])
        sc.save_vector_file(path, {"x": 0, "y": 1}, vecs)
        table = ft.load_vector_file(path)
        assert np.array_equal(table.vectors, vecs)


def word_table():
    vecs = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    return ft.EmbeddingTable(vecs, index={"a": 0, "b": 1, "<unk>": 2})


class TestFallbackEmbedding:
    def test_arithmetic_mean(self):
        out = ft.sentence_fallback_embedding(["a", "b"], word_table())
        assert np.allclose(out, [0.5, 0.5])

    def test_single_token_identity(self):
        out = ft.sentence_fallback_embedding(["a"], word_table())
        assert np.array_equal(out, [1.0, 0.0])

    def test_all_unknown_gives_unk_vector(self):
        out = ft.sentence_fallback_embedding(["zz", "qq"], word_table())
        assert np.allclose(out, [0.5, 0.5])

    def test_empty_tokens_zero_vector(self):
        out = ft.sentence_fallback_embedding([], word_table())
        assert np.array_equal(out, [0.0, 0.0])

    def test_one_lookup_per_word(self, monkeypatch):
        table = word_table()
        asked = []
        lookup = ft.EmbeddingTable.lookup
        monkeypatch.setattr(ft.EmbeddingTable, "lookup", lambda self, key: asked.append(key) or lookup(self, key))
        ft.sentence_fallback_embedding(["a", "zz", "a"], table)
        assert sorted(asked) == sorted(["<unk>", "a", "zz", "a"])


def tiny_corpus(surfaces=("a", "a b")):
    """Review r0 (train: s1 "a", s2 "b a") and review r1 (test: s3 "b")."""
    sentences = {
        sid: Sentence(sid, words, frozenset({0}))
        for sid, words in (("s1", ("a",)), ("s2", ("b", "a")), ("s3", ("b",)))
    }
    reviews = {"r0": Review("r0", "u0", "c0", ("s1", "s2")), "r1": Review("r1", "u1", "c0", ("s3",))}
    split = CorpusSplit(train=frozenset({"r0"}), valid=frozenset(), test=frozenset({"r1"}))
    return Corpus(reviews, sentences, AttributeLexicon(list(surfaces)), split)


class TestNodeFeatureProvider:
    def test_dim_mismatch_fails_fast(self):
        with pytest.raises(ft.VectorFileError):
            ft.provider_from_vectors(tiny_corpus(), 3, word_table())

    @pytest.mark.parametrize("kind", ["word", "sentence"])
    def test_empty_table_names_its_file(self, tmp_path, kind, monkeypatch):
        # the read rejects either file with no vectors, before a provider is built
        paths = {name: tmp_path / f"{name}s.txt" for name in ("word", "sentence")}
        write_vectors(paths["word"], [("a", [1, 0]), ("b", [0, 1])])
        write_vectors(paths["sentence"], [("s1", [1, 0]), ("s2", [0, 1])])
        paths[kind].write_text("")
        cfg = PipelineConfig.from_dict(
            {"paths": {"attribute_vectors": str(paths["word"]), "sentence_vectors": str(paths["sentence"])},
             "model": {"hidden": 2}}
        )
        monkeypatch.setattr(cli, "provider_from_vectors", lambda *a: pytest.fail("built a provider"))
        with pytest.raises(ft.VectorFileError, match=re.escape(f"{paths[kind]}: no vectors")):
            cli._build_provider(cfg, tiny_corpus())

    def test_attribute_vectors_and_multiword_mean(self):
        prov = ft.provider_from_vectors(tiny_corpus(("a", "a b")), 2, word_table())
        assert np.allclose(prov.attr_X, [[1.0, 0.0], [0.5, 0.5]])

    def test_missing_attribute_counts_warning(self, caplog):
        # a row per lexicon surface, so each surface counts once, whether
        # or not a graph holds it
        with caplog.at_level(logging.WARNING, logger="recexplain.features"):
            prov = ft.provider_from_vectors(tiny_corpus(("a", "zz", "qq zz")), 2, word_table())
        assert np.array_equal(prov.attr_X[1:], np.zeros((2, 2)))
        assert [r.getMessage() for r in caplog.records] == ["2 attribute vectors missing; used zeros"]

    def test_attribute_row_averages_lexicon_tokens(self, tmp_path, caplog):
        # the lexicon tags `wi-fi` as the tokens wi, -, fi, so its row is
        # looked up by those, not by the whitespace-split word "wi-fi"
        path = tmp_path / "words.txt"
        write_vectors(path, [("wi", [3.0, 0.0]), ("-", [0.0, 3.0]), ("fi", [0.0, 0.0]), ("a", [1.0, 1.0])])
        words = ft.load_vector_file(path)
        corpus = tiny_corpus(("wi-fi",))
        with caplog.at_level(logging.WARNING, logger="recexplain.features"):
            prov = ft.provider_from_vectors(corpus, 2, words)
        assert np.allclose(prov.attr_X, [[1.0, 1.0]])
        assert not any("attribute vectors missing" in r.getMessage() for r in caplog.records)
        graph = build_pair_graph(corpus, "u0", "c0")
        assert np.array_equal(graph_inputs_oracle(graph, corpus, words)[0], prov.attr_X)

    def test_sentence_table_preferred(self):
        st = ft.EmbeddingTable(np.array([[9.0, 9.0, 9.0], [8.0, 8.0, 8.0]]), index={"s2": 0, "s1": 1})
        corpus = tiny_corpus()
        prov = ft.provider_from_vectors(corpus, 2, word_table(), st)
        assert prov.sentence_dim == 3
        assert np.array_equal(prov.sent_X[[corpus.sentence_rows["s1"], corpus.sentence_rows["s2"]]], [[8.0] * 3, [9.0] * 3])

    def test_missing_sentence_id_is_an_error(self):
        # the table was built from another preprocess run; width hidden or
        # not, it fails when the provider is built
        for width in (2, 3):
            st = ft.EmbeddingTable(np.full((2, width), 9.0), index={"s1": 0, "other": 1}, path="sents.txt")
            with pytest.raises(ft.VectorFileError, match=r"^sents\.txt: no vector for sentence id 's2'"):
                ft.provider_from_vectors(tiny_corpus(), 2, word_table(), st)

    def test_only_training_sentences_have_rows(self):
        # s3 is a test review's: no pool holds it, so the table needs no row for it
        st = ft.EmbeddingTable(np.full((2, 3), 9.0), index={"s1": 0, "s2": 1})
        corpus = tiny_corpus()
        assert corpus.sentence_rows == {"s1": 0, "s2": 1}
        for table in (st, None):
            prov = ft.provider_from_vectors(corpus, 2, word_table(), table)
            assert prov.sent_X.shape == (2, prov.sentence_dim)

    def test_avg_word_mode_ignores_sentence_table(self):
        # the average-word ablation is a provider given no sentence table
        prov = ft.provider_from_vectors(tiny_corpus(), 2, word_table(), None)
        assert prov.sentence_dim == 2
        assert np.array_equal(prov.sent_X, [[1.0, 0.0], [0.5, 0.5]])


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """The planted corpus with its word and sentence vector tables."""
    root = tmp_path_factory.mktemp("planted")
    corpus = sc.planted_corpus(root, hidden=8)
    return corpus, ft.load_vector_file(root / "word_vectors.txt"), ft.load_vector_file(root / "sentence_vectors.txt")


def without(table, key):
    """`table` less the row of `key`."""
    keys = [k for k in table.index if k != key]
    return ft.EmbeddingTable(table.vectors[[table.index[k] for k in keys]], index={k: i for i, k in enumerate(keys)})


class TestGraphInputs:
    @pytest.mark.parametrize(
        "tables",
        [
            lambda words, sents: (words, sents),
            lambda words, sents: (words, None),
            lambda words, sents: (without(words, "hops"), None),
        ],
        ids=["sentence-table", "average-words", "average-words-hops-missing"],
    )
    def test_matches_per_graph_oracle(self, planted, tables):
        # "hops" is an attribute and a word: without its vector, its node
        # gets zeros and the sentences holding it average the unknown token
        corpus, words, sents = planted
        word_table, sentence_table = tables(words, sents)
        prov = ft.provider_from_vectors(corpus, 8, word_table, sentence_table)
        checked = 0
        for part in ("train", "valid", "test"):
            for user_id, item_id in corpus.pairs(part):
                graph = build_pair_graph(corpus, user_id, item_id)
                got = ft.graph_inputs(graph, corpus)
                attr_X, sent_X = graph_inputs_oracle(graph, corpus, word_table, sentence_table)
                # the rows it names, gathered from the provider
                assert np.array_equal(prov.attr_X[got.attr_rows], attr_X)
                assert np.array_equal(prov.sent_X[got.sent_rows], sent_X)
                assert (got.user_row, got.item_row) == (corpus.users.index(user_id), corpus.items.index(item_id))
                checked += 1
        assert checked == sum(len(corpus.pairs(part)) for part in ("train", "valid", "test"))
