import numpy as np
import pytest

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

    def test_save_roundtrip(self, tmp_path):
        path = tmp_path / "v.txt"
        vecs = np.array([[0.25, -1.5], [3.0, 0.125]])
        ft.save_vector_file(path, {"x": 0, "y": 1}, vecs)
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
    return Sentence(sid, "r0", tuple(words), frozenset({0}), tuple(0 for _ in words))


class TestNodeFeatureProvider:
    def test_dim_mismatch_fails_fast(self):
        with pytest.raises(ft.VectorFileError):
            ft.NodeFeatureProvider(hidden=3, word_table=word_table())

    def test_attribute_vectors_and_multiword_mean(self):
        prov = ft.NodeFeatureProvider(hidden=2, word_table=word_table())
        m = prov.attr_matrix(["a", "a b"])
        assert np.allclose(m, [[1.0, 0.0], [0.5, 0.5]])

    def test_missing_attribute_counts_warning(self):
        prov = ft.NodeFeatureProvider(hidden=2, word_table=word_table())
        out = prov.attribute_vector("zz")
        assert np.array_equal(out, [0.0, 0.0])
        assert prov.missing_attr == 1

    def test_sentence_table_preferred(self):
        st = ft.EmbeddingTable(np.array([[9.0, 9.0, 9.0]]), index={"s1": 0})
        prov = ft.NodeFeatureProvider(hidden=2, word_table=word_table(), sentence_table=st)
        assert prov.sentence_dim == 3
        out = prov.sent_matrix([_sentence("s1", ["a"])])
        assert np.array_equal(out, [[9.0, 9.0, 9.0]])

    def test_missing_sentence_falls_back_to_words(self):
        st = ft.EmbeddingTable(np.array([[9.0, 9.0]]), index={"other": 0})
        prov = ft.NodeFeatureProvider(hidden=2, word_table=word_table(), sentence_table=st)
        out = prov.sent_matrix([_sentence("s1", ["a", "b"])])
        assert np.allclose(out, [[0.5, 0.5]])
        assert prov.missing_sent == 1

    def test_avg_word_mode_ignores_sentence_table(self):
        # the average-word ablation is a provider given no sentence table
        prov = ft.NodeFeatureProvider(hidden=2, word_table=word_table(), sentence_table=None)
        assert prov.sentence_dim == 2
        out = prov.sent_matrix([_sentence("s1", ["b"])])
        assert np.array_equal(out, [[0.0, 1.0]])
