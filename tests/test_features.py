import re

import numpy as np
import pytest

import synthetic_corpus as sc
from recexplain import features as ft
from recexplain.corpus import Sentence


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
        assert len(table) == 2 and table.dim == 3
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

    def test_empty_file_warns(self, tmp_path, caplog):
        path = tmp_path / "v.txt"
        path.write_text("")
        with caplog.at_level("WARNING"):
            table = ft.load_vector_file(path)
        assert len(table) == 0
        assert any("empty" in rec.message for rec in caplog.records)

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


def _sentence(sid, words):
    return Sentence(sid, tuple(words), frozenset({0}))


class TestNodeFeatureProvider:
    def test_dim_mismatch_fails_fast(self):
        with pytest.raises(ft.VectorFileError):
            ft.NodeFeatureProvider(hidden=3, word_table=word_table())

    @pytest.mark.parametrize("kind", ["word", "sentence"])
    def test_empty_table_names_its_file(self, tmp_path, kind):
        path = tmp_path / f"{kind}s.txt"
        path.write_text("")
        empty = ft.load_vector_file(path)
        tables = {"word_table": empty} if kind == "word" else {"word_table": word_table(), "sentence_table": empty}
        with pytest.raises(ft.VectorFileError, match=re.escape(f"{path}: ") + f".*{kind} vector table is empty"):
            ft.NodeFeatureProvider(hidden=2, **tables)

    def test_attribute_vectors_and_multiword_mean(self):
        prov = ft.NodeFeatureProvider(hidden=2, word_table=word_table())
        m = prov.attr_matrix(["a", "a b"])
        assert np.allclose(m, [[1.0, 0.0], [0.5, 0.5]])

    def test_missing_attribute_counts_warning(self):
        prov = ft.NodeFeatureProvider(hidden=2, word_table=word_table())
        # one missing surface counts once, however many graphs ask for it
        for _ in range(2):
            out = prov.attribute_vector("zz")
            assert np.array_equal(out, [0.0, 0.0])
        assert len(prov.missing_attr) == 1

    def test_sentence_table_preferred(self):
        st = ft.EmbeddingTable(np.array([[9.0, 9.0, 9.0]]), index={"s1": 0})
        prov = ft.NodeFeatureProvider(hidden=2, word_table=word_table(), sentence_table=st)
        assert prov.sentence_dim == 3
        out = prov.sent_matrix([_sentence("s1", ["a"])])
        assert np.array_equal(out, [[9.0, 9.0, 9.0]])

    def test_missing_sentence_id_is_an_error(self):
        # the table was built from another preprocess run; width hidden or not
        for width in (2, 3):
            st = ft.EmbeddingTable(np.full((1, width), 9.0), index={"other": 0}, path="sents.txt")
            prov = ft.NodeFeatureProvider(hidden=2, word_table=word_table(), sentence_table=st)
            with pytest.raises(ft.VectorFileError, match=r"^sents\.txt: no vector for sentence id 's1'"):
                prov.sent_matrix([_sentence("s1", ["a", "b"])])

    def test_avg_word_mode_ignores_sentence_table(self):
        # the average-word ablation is a provider given no sentence table
        prov = ft.NodeFeatureProvider(hidden=2, word_table=word_table(), sentence_table=None)
        assert prov.sentence_dim == 2
        out = prov.sent_matrix([_sentence("s1", ["b"])])
        assert np.array_equal(out, [[0.0, 1.0]])
