"""The command-line pipeline and its config on the planted corpus."""

import json
import logging
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import synthetic_corpus as sc
from recexplain import cli
from recexplain.archive import MAGIC, load_tensors, save_tensors
from recexplain.config import ConfigError, PipelineConfig
from recexplain.corpus import load_corpus
from recexplain.features import graph_inputs, load_vector_file
from recexplain.graphs import build_pair_graph
from recexplain import model as model_module
from recexplain.model import Model
from recexplain.selector import TfidfVectorizer
from recexplain.training import BEST_CHECKPOINT, LAST_CHECKPOINT, checkpoint_params, checkpoint_provider

HIDDEN = 32
EPOCHS = 8
LEARNING_RATE = 2e-3

# Planted-signal gate bounds, fixed before the model was trained on this
# corpus and never lowered.  Drawing one sentence uniformly from each test
# pool hits a planted copy at a rate of 0.18; uniform random 5-subsets of
# the pools score test BLEU-4 0.25 on average (0.28 or more in 21% of
# draws), a planted copy plus 4 random others 0.31 (never below 0.287).
MIN_COVERAGE = 0.9  # share of test pools holding a planted copy
MIN_TOP1 = 0.8  # share of test pairs whose top-scored sentence is a planted copy
MIN_BLEU4 = 0.28


def write_config(path, data, workdir, **sections):
    doc = {
        "paths": {
            "reviews": str(data / "reviews.jsonl"),
            "lexicon": str(data / "lexicon.txt"),
            "attribute_vectors": str(data / "word_vectors.txt"),
            "sentence_vectors": str(data / "sentence_vectors.txt"),
            "workdir": str(workdir),
        },
        "corpus": {"rating_threshold": 10, "min_activity": 2},
        "model": {"hidden": HIDDEN},
        "training": {"epochs": EPOCHS, "learning_rate": LEARNING_RATE},
        "seed": 0,
    }
    for name, values in sections.items():
        doc.setdefault(name, {}).update(values)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def planted(tmp_path_factory):
    """Planted inputs and a workdir after preprocess -> train ->
    select --no-ilp -> select -> evaluate; returns (config path, workdir,
    exit codes per stage, outputs), where outputs holds the text of both
    selections files and of evaluation.json as those stages wrote them.
    """
    root = tmp_path_factory.mktemp("planted")
    data, workdir = root / "data", root / "work"
    sc.write_inputs(data, seed=0)
    config = write_config(root / "config.json", data, workdir)
    codes = {"preprocess": cli.main(["preprocess", "--config", str(config)])}
    sc.write_vector_files(workdir / "corpus", data, hidden=HIDDEN)
    codes["train"] = cli.main(["train", "--config", str(config)])
    codes["select --no-ilp"] = cli.main(["select", "--config", str(config), "--no-ilp"])
    outputs = {"selections.jsonl --no-ilp": (workdir / "selections.jsonl").read_text(encoding="utf-8")}
    for stage in ("select", "evaluate"):
        codes[stage] = cli.main([stage, "--config", str(config)])
    outputs["selections.jsonl"] = (workdir / "selections.jsonl").read_text(encoding="utf-8")
    outputs["evaluation.json"] = (workdir / "evaluation.json").read_text(encoding="utf-8")
    return config, workdir, codes, outputs


def changed_config(config, tmp_path, section, key, value):
    """A copy of `config` with `section.key` set to `value`."""
    doc = json.loads(config.read_text(encoding="utf-8"))
    doc.setdefault(section, {})[key] = value
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps(doc), encoding="utf-8")
    return changed


def emptied_review(text):
    """corpus.json text with the first review's sentence list emptied."""
    doc = json.loads(text)
    doc["reviews"][min(doc["reviews"])]["sentence_ids"] = []
    return json.dumps(doc)


def selection_records(workdir):
    lines = (workdir / "selections.jsonl").read_text(encoding="utf-8").splitlines()
    return lines[0], lines[1:]


def with_value(table, at, value):
    """A copy of `table` whose element `at` (in flat order) is `value`."""
    table = table.copy()
    table.flat[at] = value
    return table


def assert_selects_as_trained(config, workdir, outputs):
    """select --checkpoint with `config` (whose vector files differ from the
    trained ones) writes the trained selections: it reads the node inputs
    from the checkpoint.  The header differs, as it hashes the files."""
    cfg = PipelineConfig.load(config)
    argv = ["select", "--config", str(config), "--checkpoint", str(workdir / BEST_CHECKPOINT)]
    assert cli.main(argv) == 0
    _, records = selection_records(Path(cfg.paths.workdir))
    assert records == outputs["selections.jsonl"].splitlines()[1:]


class TestPipeline:
    def test_every_stage_exits_zero(self, planted):
        _, workdir, codes, outputs = planted
        assert codes == {"preprocess": 0, "train": 0, "select --no-ilp": 0, "select": 0, "evaluate": 0}
        _, records = selection_records(workdir)
        report = json.loads(outputs["evaluation.json"])
        assert records and report["pairs"] + report["excluded"] == len(records)

    def test_planted_signal_is_learned(self, planted):
        # Under --no-ilp (alpha = 0) the chosen set is the top K by score,
        # recorded in descending-score order, so its first id is the top-1.
        _, workdir, _, outputs = planted
        corpus = load_corpus(workdir / "corpus")
        pairs = corpus.pairs("test")
        planted_words = {pair: sc.planted_words_for_pair(*pair) for pair in pairs}
        covered = 0
        for pair in pairs:
            pool = build_pair_graph(corpus, *pair).sentence_ids
            covered += any(corpus.sentences[s].words == planted_words[pair] for s in pool)
        records = [json.loads(line) for line in outputs["selections.jsonl --no-ilp"].splitlines()[1:]]
        hits = sum(
            corpus.sentences[rec["sentence_ids"][0]].words == planted_words[rec["user_id"], rec["item_id"]]
            for rec in records
        )
        bleu4 = json.loads(outputs["evaluation.json"])["bleu4"]
        summary = f"top-1 {hits}/{len(pairs)}, pools with a planted copy {covered}/{len(pairs)}, test BLEU-4 {bleu4:.4f}"
        assert covered >= MIN_COVERAGE * len(pairs), summary
        assert hits >= MIN_TOP1 * len(pairs), summary
        assert bleu4 >= MIN_BLEU4, summary

    @pytest.mark.parametrize("name", ["selections.jsonl --no-ilp", "selections.jsonl"])
    def test_recorded_ids_in_descending_score_order(self, planted, name):
        # the planted gate's "first id is the top-1" rests on this order;
        # under --no-ilp the ids are the top K by score
        config, workdir, _, outputs = planted
        cfg = PipelineConfig.load(config)
        corpus = load_corpus(workdir / "corpus")
        provider = cli._build_provider(cfg, corpus)
        model = Model(cfg.model, len(corpus.users), len(corpus.items), provider.sentence_dim)
        params = checkpoint_params(load_tensors(workdir / BEST_CHECKPOINT)[0], model.init_params(cfg.seed), "param")
        records = [json.loads(line) for line in outputs[name].splitlines()[1:]]
        assert len(records) == len(corpus.pairs("test"))
        for rec in records:
            graph = build_pair_graph(corpus, rec["user_id"], rec["item_id"])
            scores = model.forward([graph], [graph_inputs(graph, corpus, provider)], params).scores
            chosen = [graph.sentence_ids.index(sid) for sid in rec["sentence_ids"]]
            assert chosen == sorted(chosen, key=lambda i: (-scores[i], i))
            if name.endswith("--no-ilp"):
                assert chosen == np.argsort(-scores, kind="stable")[: cfg.selection.k].tolist()

    def test_no_ilp_flag_writes_the_selections_of_alpha_zero(self, planted, tmp_path):
        config, workdir, _, outputs = planted
        shutil.copytree(workdir / "corpus", tmp_path / "work" / "corpus")
        shutil.copytree(workdir / "checkpoints", tmp_path / "work" / "checkpoints")
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["paths"]["workdir"] = str(tmp_path / "work")
        doc["selection"] = {"alpha": 0}
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["select", "--config", str(changed)]) == 0
        assert (tmp_path / "work" / "selections.jsonl").read_text(encoding="utf-8") == outputs["selections.jsonl --no-ilp"]

    def test_select_computes_each_sentence_vector_once(self, planted, tmp_path, monkeypatch):
        # the vectorizer lives for the select run and remembers every row
        config, workdir, _, _ = planted
        shutil.copytree(workdir / "corpus", tmp_path / "work" / "corpus")
        shutil.copytree(workdir / "checkpoints", tmp_path / "work" / "checkpoints")
        changed = changed_config(config, tmp_path, "paths", "workdir", str(tmp_path / "work"))
        vector, matrix = TfidfVectorizer.vector, TfidfVectorizer.matrix
        calls, pooled = Counter(), []

        def counted_vector(self, words):
            calls[tuple(words)] += 1
            return vector(self, words)

        def recorded_matrix(self, sentences):
            pooled.extend(tuple(words) for words in sentences)
            return matrix(self, sentences)

        monkeypatch.setattr(TfidfVectorizer, "vector", counted_vector)
        monkeypatch.setattr(TfidfVectorizer, "matrix", recorded_matrix)
        assert cli.main(["select", "--config", str(changed)]) == 0
        assert set(calls) == set(pooled) and max(calls.values()) == 1
        assert len(pooled) > len(calls)  # the pools share sentences
        written = (tmp_path / "work" / "selections.jsonl").read_text(encoding="utf-8")
        assert written == (workdir / "selections.jsonl").read_text(encoding="utf-8")

    def test_select_reads_no_vector_file(self, planted, tmp_path, monkeypatch):
        config, workdir, _, outputs = planted
        shutil.copytree(workdir / "corpus", tmp_path / "work" / "corpus")
        shutil.copytree(workdir / "checkpoints", tmp_path / "work" / "checkpoints")
        changed = changed_config(config, tmp_path, "paths", "workdir", str(tmp_path / "work"))

        def unreadable(path):
            raise AssertionError(f"select read {path}")

        monkeypatch.setattr(cli, "load_vector_file", unreadable)
        assert cli.main(["select", "--config", str(changed)]) == 0
        assert (tmp_path / "work" / "selections.jsonl").read_text(encoding="utf-8") == outputs["selections.jsonl"]

    @pytest.mark.parametrize("paths", [{}, {"sentence_vectors": ""}], ids=["sentence-vectors", "average-word-vectors"])
    def test_checkpoints_store_the_provider_tables(self, planted, tmp_path, paths):
        config, workdir, _, _ = planted
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["paths"].update(paths, workdir=str(tmp_path / "work"))
        doc["training"]["epochs"] = 1
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc), encoding="utf-8")
        shutil.copytree(workdir / "corpus", tmp_path / "work" / "corpus")
        assert cli.main(["train", "--config", str(changed)]) == 0
        cfg = PipelineConfig.load(changed)
        corpus = load_corpus(tmp_path / "work" / "corpus")
        built = cli._build_provider(cfg, corpus)
        for name in (BEST_CHECKPOINT, LAST_CHECKPOINT):
            tensors, _ = load_tensors(tmp_path / "work" / name)
            assert tensors["feature.attr"].tobytes() == built.attr_X.tobytes()
            assert tensors["feature.sent"].tobytes() == built.sent_X.tobytes()
            stored = checkpoint_provider(tensors, corpus, cfg.model.hidden)
            assert stored.attr_X.tobytes() == built.attr_X.tobytes() and stored.sentence_dim == built.sentence_dim

    @pytest.mark.parametrize(
        "key, edit, message",
        [
            ("feature.attr", None, "missing or misshapen"),
            ("feature.sent", None, "missing or misshapen"),
            ("feature.attr", lambda t: t[:, :-1], "missing or misshapen"),
            ("feature.attr", lambda t: t[:-1], "missing or misshapen"),
            ("feature.sent", lambda t: t[1:], "missing or misshapen"),
            ("feature.sent", lambda t: t.ravel(), "missing or misshapen"),
            ("feature.attr", lambda t: with_value(t, 3, np.inf), "holds a non-finite value"),
            ("feature.sent", lambda t: with_value(t, 5, np.nan), "holds a non-finite value"),
        ],
        ids=["attr-missing", "sent-missing", "attr-narrow", "attr-row-short", "sent-row-short", "sent-flat",
             "attr-inf", "sent-nan"],
    )
    def test_bad_checkpoint_tables_are_an_error(self, planted, tmp_path, capsys, key, edit, message):
        config, workdir, _, _ = planted
        tensors, meta = load_tensors(workdir / BEST_CHECKPOINT)
        if edit is None:
            del tensors[key]
        else:
            tensors[key] = edit(tensors[key])
        path = tmp_path / "bad.ntar"
        save_tensors(path, tensors, meta)
        capsys.readouterr()
        assert cli.main(["select", "--config", str(config), "--checkpoint", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: checkpoint tensor {key!r} {message}; re-run train")

    def test_select_keeps_one_chunk_trace_alive(self, planted, tmp_path, monkeypatch, one_live_trace):
        config, workdir, _, _ = planted
        shutil.copytree(workdir / "corpus", tmp_path / "work" / "corpus")
        shutil.copytree(workdir / "checkpoints", tmp_path / "work" / "checkpoints")
        changed = changed_config(config, tmp_path, "paths", "workdir", str(tmp_path / "work"))
        monkeypatch.setattr(model_module, "READOUT_ROWS", 0)  # one graph per chunk
        assert cli.main(["select", "--config", str(changed)]) == 0
        _, records = selection_records(tmp_path / "work")
        assert len(one_live_trace) == len(records) > 2

    def test_select_needs_attribute_vectors(self, planted, tmp_path, capsys):
        # select reads its node inputs from the checkpoint, but the train hash digests the file
        config, workdir, _, _ = planted
        changed = changed_config(config, tmp_path, "paths", "attribute_vectors", "")
        ckpt = workdir / LAST_CHECKPOINT
        assert cli.main(["select", "--config", str(changed), "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err.startswith("error: missing required config field paths.attribute_vectors")

    @pytest.mark.parametrize(
        "stage, field",
        [
            (stage, field)
            for stage in ("preprocess", "train", "select", "evaluate")
            for field in ("reviews", "lexicon", "attribute_vectors", "workdir")
            if (stage, field) != ("preprocess", "attribute_vectors")
        ],
    )
    def test_stage_needs_every_path_its_stamp_digests(self, planted, tmp_path, capsys, stage, field):
        # an unset path digests as "", so running on would only report a
        # stale stamp that re-running the producing stage cannot mend
        config, _, _, _ = planted
        changed = changed_config(config, tmp_path, "paths", field, "")
        capsys.readouterr()
        assert cli.main([stage, "--config", str(changed)]) == 1
        assert capsys.readouterr().err.startswith(f"error: missing required config field paths.{field}")

    def test_changed_hidden_asks_to_retrain(self, planted, tmp_path, capsys):
        config, _, _, _ = planted
        changed = changed_config(config, tmp_path, "model", "hidden", 2 * HIDDEN)
        assert cli.main(["select", "--config", str(changed)]) == 1
        assert "re-run train" in capsys.readouterr().err

    def test_changed_k_asks_to_retrain(self, planted, tmp_path, capsys):
        # validation scores the top K, so K picks the best checkpoint
        config, _, _, _ = planted
        changed = changed_config(config, tmp_path, "selection", "k", 3)
        assert cli.main(["select", "--config", str(changed)]) == 1
        assert "re-run train" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "stage, section, key, value, producer",
        [("train", "corpus", "min_activity", 3, "preprocess"), ("evaluate", "selection", "k", 3, "select")],
    )
    def test_stale_inputs_name_the_stage_to_rerun(
        self, planted, tmp_path, capsys, stage, section, key, value, producer
    ):
        config, _, _, _ = planted
        changed = changed_config(config, tmp_path, section, key, value)
        assert cli.main([stage, "--config", str(changed)]) == 1
        assert f"re-run {producer}" in capsys.readouterr().err

    def test_reviews_edited_in_place_ask_to_preprocess(self, planted, tmp_path, capsys):
        config, _, _, _ = planted
        doc = json.loads(config.read_text(encoding="utf-8"))
        reviews = tmp_path / "reviews.jsonl"
        lines = Path(doc["paths"]["reviews"]).read_text(encoding="utf-8").splitlines(keepends=True)
        reviews.write_text("".join(lines), encoding="utf-8")
        doc["paths"].update(reviews=str(reviews), workdir=str(tmp_path / "work"))
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["preprocess", "--config", str(changed)]) == 0
        cli._load_processed(PipelineConfig.load(changed))  # fresh before the edit
        reviews.write_text("".join(lines[:-1]), encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["train", "--config", str(changed)]) == 1
        assert "re-run preprocess" in capsys.readouterr().err

    def test_vector_width_mismatch_is_an_error(self, planted, tmp_path, capsys):
        config, _, _, _ = planted
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["model"]["hidden"] = 2 * HIDDEN
        doc["paths"]["workdir"] = str(tmp_path / "work")
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["preprocess", "--config", str(changed)]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--config", str(changed)]) == 1
        assert capsys.readouterr().err.startswith(f"error: attribute/word vectors have dim {HIDDEN}, expected {2 * HIDDEN}")

    @pytest.mark.parametrize(
        "lines, message",
        [
            (["x 32"], "header row"),
            (["1 2", "room 0.5 abc"], "row 1 ('room') has a non-numeric value"),
            (["2 2", "room 0.5 0.5", "bed nan 0.5"], "row 2 ('bed') has a non-finite value"),
            ([""], "attribute/word vector table is empty"),
            (["\u00b2 2", "room 0.5 0.5"], "header row"),
        ],
    )
    def test_malformed_vector_file_is_an_error(self, planted, tmp_path, capsys, lines, message):
        config, _, _, _ = planted
        vectors = tmp_path / "word_vectors.txt"
        vectors.write_text("\n".join(lines) + "\n", encoding="utf-8")
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["paths"]["workdir"] = str(tmp_path / "work")
        doc["paths"]["attribute_vectors"] = str(vectors)
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["preprocess", "--config", str(changed)]) == 0
        capsys.readouterr()
        assert cli.main(["train", "--config", str(changed)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {vectors}: {message}")

    def test_corrupt_checkpoint_is_an_error(self, planted, tmp_path, capsys):
        config, workdir, _, _ = planted
        junk = tmp_path / "junk.ntar"
        raw = (workdir / LAST_CHECKPOINT).read_bytes()
        start = len(MAGIC) + 8
        tensors = json.loads(raw[start : start + int.from_bytes(raw[len(MAGIC) : start], "little")])["tensors"]
        first = tensors[0]["name"]

        def rewritten(**changes):  # the header alone, with the first entry changed
            tensors[0].update(changes)
            header = json.dumps({"tensors": tensors, "meta": {}}).encode()
            return MAGIC + len(header).to_bytes(8, "little") + header

        cases = [
            (b"not an archive\n", "not a tensor archive"),
            (raw[:40], "truncated header"),
            (rewritten(shape=[3, 3]), f"tensor '{first}': 'nbytes'"),
            (rewritten(dtype="<x9"), f"tensor '{first}': 'dtype' '<x9' is not a numeric or bool type"),
        ]
        for content, message in cases:
            junk.write_bytes(content)
            assert cli.main(["select", "--config", str(config), "--checkpoint", str(junk)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {junk}: ") and message in err

    def test_train_leaves_last_and_best_checkpoints(self, planted):
        _, workdir, _, _ = planted
        assert sorted(p.name for p in (workdir / "checkpoints").iterdir()) == ["best.ntar", "last.ntar"]
        rows = [line.split() for line in (workdir / "train_log.txt").read_text(encoding="utf-8").splitlines()[2:]]
        best_row = max(rows, key=lambda row: (float(row[-1]), -int(row[0])))  # the first epoch of the best BLEU-4
        _, meta = load_tensors(workdir / BEST_CHECKPOINT)
        assert meta["best"]["epoch"] == meta["epoch"] == int(best_row[0])
        _, last = load_tensors(workdir / LAST_CHECKPOINT)
        assert last["epoch"] == int(rows[-1][0]) and last["best"] == meta["best"]

    def test_select_without_best_checkpoint_asks_to_train(self, planted, tmp_path, capsys):
        # a workdir trained before best.ntar existed holds other checkpoint files
        config, workdir, _, _ = planted
        shutil.copytree(workdir / "corpus", tmp_path / "corpus")
        (tmp_path / "checkpoints").mkdir()
        (tmp_path / "checkpoints" / "best.json").write_text('{"checkpoint": "epoch_0.ntar"}', encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["select", "--config", str(config), "--workdir", str(tmp_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: no checkpoint at {tmp_path / BEST_CHECKPOINT}; run train first")

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            ("corpus.json", lambda text: text + "garbage\n", "not JSON"),
            ("corpus.json", lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "split"}),
             "key ['split'] is missing"),
            ("corpus.json", lambda text: text.replace('"sentence_ids": ["', '"sentence_ids": ["r999.s0", "', 1),
             "names unknown sentence 'r999.s0'"),
            # build_corpus never writes one; training would see a pair without ground truth
            ("corpus.json", emptied_review, "key ['reviews']['r0']['sentence_ids'] is empty"),
            ("corpus.json", None, "no such file; re-run preprocess"),
            ("meta.json", lambda text: text + "garbage\n", "not JSON"),
        ],
        ids=["corpus-garbage", "corpus-key-removed", "unknown-sentence", "empty-review", "no-corpus", "meta-garbage"],
    )
    def test_malformed_corpus_is_an_error(self, planted, tmp_path, capsys, name, edit, message):
        # "no-corpus" is also what a workdir preprocessed before corpus.json gets
        config, workdir, _, _ = planted
        shutil.copytree(workdir / "corpus", tmp_path / "corpus")
        path = tmp_path / "corpus" / name
        if edit is None:
            path.unlink()
        else:
            path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")
        capsys.readouterr()
        for stage in ("train", "select", "evaluate"):
            assert cli.main([stage, "--config", str(config), "--workdir", str(tmp_path)]) == 1, stage
            err = capsys.readouterr().err
            assert err.startswith(f"error: {path}: ") and message in err, (stage, err)

    def test_checkpoint_with_factored_heads_is_an_error(self, planted, tmp_path, capsys):
        # older checkpoints hold each head apart: gat.{l}.{h}.wq/wk/wa from
        # before the heads were folded, gat.{l}.{h}.q/k from before each
        # layer's heads became one gat.{l}.qk
        config, workdir, _, _ = planted
        tensors, meta = load_tensors(workdir / LAST_CHECKPOINT)
        shutil.copytree(workdir / "corpus", tmp_path / "work" / "corpus")
        current = {name: t for name, t in tensors.items() if not name.startswith("param.gat.")}
        factored, per_head = dict(current), dict(current)
        for layer, heads in enumerate((4, 1)):
            for head in range(heads):
                factored[f"param.gat.{layer}.{head}.wq"] = np.zeros((HIDDEN, HIDDEN * 4**layer))
                factored[f"param.gat.{layer}.{head}.wk"] = np.zeros((HIDDEN, HIDDEN * 4**layer))
                factored[f"param.gat.{layer}.{head}.wa"] = np.zeros(2 * HIDDEN)
                for v, column in (("q", head), ("k", heads + head)):
                    per_head[f"param.gat.{layer}.{head}.{v}"] = tensors[f"param.gat.{layer}.qk"][:, column]
        capsys.readouterr()
        for name, old in (("factored", factored), ("per-head", per_head)):
            path = tmp_path / f"{name}.ntar"
            save_tensors(path, old, meta)
            for stage, flag in (("select", "--checkpoint"), ("train", "--resume")):
                argv = [stage, "--config", str(config), "--workdir", str(tmp_path / "work"), flag, str(path)]
                assert cli.main(argv) == 1, (name, stage)
                err = capsys.readouterr().err
                assert err.startswith("error: checkpoint tensor 'param.gat.0.qk' missing or misshapen"), (name, stage)

    def test_non_finite_checkpoint_tensor_is_an_error(self, planted, tmp_path, capsys):
        config, workdir, _, _ = planted
        tensors, meta = load_tensors(workdir / LAST_CHECKPOINT)
        tensors["param.head.score"] = tensors["param.head.score"].copy()
        tensors["param.head.score"][0] = np.nan
        path = tmp_path / "nan.ntar"
        save_tensors(path, tensors, meta)
        shutil.copytree(workdir / "corpus", tmp_path / "work" / "corpus")
        capsys.readouterr()
        for stage, flag in (("select", "--checkpoint"), ("train", "--resume")):
            argv = [stage, "--config", str(config), "--workdir", str(tmp_path / "work"), flag, str(path)]
            assert cli.main(argv) == 1, stage
            err = capsys.readouterr().err
            assert err.startswith("error: checkpoint tensor 'param.head.score' holds a non-finite value"), stage

    def test_sentence_id_missing_from_vectors_is_an_error(self, planted, tmp_path, capsys):
        # the planted sentence vectors are 16-d against hidden 32
        config, workdir, _, outputs = planted
        corpus = load_corpus(workdir / "corpus")
        missing = build_pair_graph(corpus, *corpus.pairs("test")[0]).sentence_ids[0]
        doc = json.loads(config.read_text(encoding="utf-8"))
        table = load_vector_file(doc["paths"]["sentence_vectors"])
        assert table.dim != HIDDEN
        kept = [sid for sid in table.index if sid != missing]
        vectors = tmp_path / "sentence_vectors.txt"
        sc.save_vector_file(vectors, {sid: row for row, sid in enumerate(kept)}, table.vectors[[table.index[s] for s in kept]])
        shutil.copytree(workdir / "corpus", tmp_path / "work" / "corpus")
        doc["paths"].update(workdir=str(tmp_path / "work"), sentence_vectors=str(vectors))
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        # train reads the vector files, and builds the provider before it reads a pool
        assert cli.main(["train", "--config", str(changed)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {vectors}: no vector for sentence id {missing!r}")
        assert not (tmp_path / "work" / "checkpoints").exists()
        assert_selects_as_trained(changed, workdir, outputs)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ("{not json", "not JSON"),
            ('["u", "i", []]', "not a JSON object"),
            ('{"item_id": "i", "sentence_ids": []}', "record has no user_id string"),
            ('{"user_id": "u", "sentence_ids": []}', "record has no item_id string"),
            ('{"user_id": "u", "item_id": "i"}', "record has no sentence_ids list"),
            ('{"user_id": "u", "item_id": "i", "sentence_ids": ["no-such-sentence"]}',
             "sentence id 'no-such-sentence' is not in the corpus"),
            (None, "repeats the pair"),  # None: line 2's record again
            # line 2's first sentence three times, as another pair
            (lambda rec: {**rec, "user_id": "u", "sentence_ids": rec["sentence_ids"][:1] * 3}, "repeats sentence id"),
        ],
    )
    def test_malformed_selections_name_the_line(self, planted, tmp_path, capsys, bad, message):
        config, workdir, _, _ = planted
        header, records = selection_records(workdir)
        rec = json.loads(records[0])
        if bad is None:
            bad, message = records[0], f"{message} {(rec['user_id'], rec['item_id'])} of line 2"
        elif callable(bad):
            bad, message = json.dumps(bad(rec)), f"{message} {rec['sentence_ids'][0]!r}"
        path = tmp_path / "selections.jsonl"
        path.write_text("\n".join([header, records[0], "", bad, *records[1:]]) + "\n", encoding="utf-8")
        assert cli.main(["evaluate", "--config", str(config), "--selections", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path} line 4: {message}")

    @pytest.mark.parametrize("name", ["config", "lexicon", "attribute_vectors", "sentence_vectors", "selections"])
    def test_file_not_utf8_is_an_error(self, planted, tmp_path, capsys, name):
        config, workdir, _, outputs = planted
        bad = tmp_path / f"{name}.bad"
        header, _ = selection_records(workdir)
        bad.write_bytes(header.encode() + b"\n\xff\n" if name == "selections" else b"\xff\n")
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["paths"]["workdir"] = str(tmp_path / "work")
        if name in doc["paths"]:
            doc["paths"][name] = str(bad)
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc), encoding="utf-8")
        shutil.copytree(workdir / "corpus", tmp_path / "work" / "corpus")
        argv, where = {
            "config": (["preprocess", "--config", str(bad)], f"{bad}:"),
            "lexicon": (["preprocess", "--config", str(changed)], f"{bad}:"),
            "attribute_vectors": (["train", "--config", str(changed)], f"{bad}:"),
            "sentence_vectors": (["train", "--config", str(changed)], f"{bad}:"),
            "selections": (["evaluate", "--config", str(changed), "--selections", str(bad)], f"{bad} line 2:"),
        }[name]
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {where} not UTF-8 (invalid start byte)")
        if name.endswith("_vectors"):  # select reads neither vector file
            assert_selects_as_trained(changed, workdir, outputs)

    def test_review_line_not_utf8_is_skipped(self, planted, tmp_path, capsys, caplog):
        config, workdir, _, _ = planted
        doc = json.loads(config.read_text(encoding="utf-8"))
        reviews = tmp_path / "reviews.jsonl"
        lines = Path(doc["paths"]["reviews"]).read_bytes().splitlines(keepends=True)
        reviews.write_bytes(b"".join([*lines[:2], b"\xff\n", *lines[2:]]))
        doc["paths"].update(reviews=str(reviews), workdir=str(tmp_path / "work"))
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        with caplog.at_level("WARNING"):
            assert cli.main(["preprocess", "--config", str(changed)]) == 0
        assert json.loads(capsys.readouterr().out)["ingest_errors"] == 1
        assert "ingest: line 3: not UTF-8 (invalid start byte)" in caplog.messages
        # the skipped line was no record, so every review keeps its id
        corpus_json = "corpus/corpus.json"
        assert (tmp_path / "work" / corpus_json).read_bytes() == (workdir / corpus_json).read_bytes()

    def test_pairs_with_empty_pools_are_skipped(self, planted, tmp_path, caplog):
        # a valid and a test review of an item no training review names:
        # both pairs' pools are empty
        config, workdir, _, _ = planted
        shutil.copytree(workdir / "corpus", tmp_path / "work" / "corpus")
        path = tmp_path / "work" / "corpus" / "corpus.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        for rid, user_id, part in (("rx0", "u0", "valid"), ("rx1", "u1", "test")):
            doc["sentences"][f"{rid}.s0"] = {"attributes": [0], "words": list(sc.template_words(sc.ATTRS[0]))}
            doc["reviews"][rid] = {"user_id": user_id, "item_id": "cx", "sentence_ids": [f"{rid}.s0"]}
            doc["split"][part].append(rid)
        path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
        changed = changed_config(config, tmp_path, "paths", "workdir", str(tmp_path / "work"))
        with caplog.at_level(logging.WARNING, logger="recexplain.training"):
            cli.cmd_train(PipelineConfig.load(changed))
        # the benchmark counts skipped operations by this message's wording
        assert [r.getMessage() for r in caplog.records if r.name == "recexplain.training"] == [
            "valid: skipped 1 pairs with empty pools"
        ]
        info = cli.cmd_select(PipelineConfig.load(changed))
        _, records = selection_records(tmp_path / "work")
        assert info["skipped"] == 1 and info["pairs"] == len(records) == len(load_corpus(path.parent).pairs("test")) - 1
        assert "cx" not in {json.loads(line)["item_id"] for line in records}
        report = cli.cmd_evaluate(PipelineConfig.load(changed))
        assert report.pairs + report.excluded == len(records)

    def test_evaluate_counts_each_pair_once(self, planted, monkeypatch):
        # one n-gram profile of each side per pair, read by BLEU-1/2/4 and ROUGE-1/2
        config, _, _, _ = planted
        calls = []
        profile = cli.metrics.ngram_profile
        monkeypatch.setattr(cli.metrics, "ngram_profile", lambda *a, **k: calls.append(a) or profile(*a, **k))
        report = cli.cmd_evaluate(PipelineConfig.load(config))
        assert report.pairs > 0 and len(calls) == 2 * report.pairs

    @pytest.mark.parametrize("keep_header", [True, False])
    def test_explicit_selections_evaluate_every_record(self, planted, tmp_path, keep_header):
        config, workdir, _, _ = planted
        header, records = selection_records(workdir)
        path = tmp_path / "selections.jsonl"
        path.write_text("\n".join(([header] if keep_header else []) + records) + "\n", encoding="utf-8")
        report = cli.cmd_evaluate(PipelineConfig.load(config), selections=str(path))
        assert report.pairs + report.excluded == len(records)


# one value outside each key's accepted range
OUT_OF_RANGE = [
    ("seed", -1),
    ("corpus.min_activity", 0),
    ("corpus.ratios", [1.2, -0.1, -0.1]),
    ("model.hidden", 0),
    ("model.deep_hidden", 0),
    ("model.gat_heads", []),
    ("model.gat_heads", [0]),
    ("model.gat_heads", [4, 0]),
    ("training.lambda", -0.5),
    ("training.lambda", 1.5),
    ("training.batch_size", 0),
    ("training.learning_rate", 0),
    ("training.learning_rate", -1e-4),
    ("training.epochs", 0),
    ("training.pair_budget", -1),
    ("training.patience", -1),
    ("selection.k", 0),
    ("selection.k", -2),
    ("selection.pool", 0),
    ("selection.exact_cap", -1),
    ("selection.alpha", -1),
]


def parsed_config(tmp_path, argv, **sections):
    config = write_config(tmp_path / "config.json", tmp_path, tmp_path / "work", **sections)
    args = cli._build_parser().parse_args(["train", "--config", str(config), *argv])
    return cli._load_config(args)


class TestConfig:
    @pytest.mark.parametrize(
        "flag, section, field, value",
        [
            ("--no-gat", "model", "disable_gat", True),
            ("--no-dcn", "model", "disable_dcn", True),
            ("--no-ilp", "selection", "alpha", 0),
        ],
        ids=["--no-gat-model-disable_gat", "--no-dcn-model-disable_dcn", "--no-ilp-selection-alpha"],
    )
    def test_flag_and_field_hash_alike(self, tmp_path, flag, section, field, value):
        by_flag = parsed_config(tmp_path, [flag])
        by_field = parsed_config(tmp_path, [], **{section: {field: value}})
        plain = parsed_config(tmp_path, [])
        assert getattr(getattr(by_flag, section), field) == value
        assert by_flag.select_hash() == by_field.select_hash() != plain.select_hash()
        assert by_flag.train_hash() == by_field.train_hash()

    @pytest.mark.parametrize(
        "variants",
        [
            [([], {"selection": {"alpha": 2}}), ([], {"selection": {"alpha": 2.0}})],
            [([], {"selection": {"alpha": 0}}), ([], {"selection": {"alpha": 0.0}}), (["--no-ilp"], {})],
            [([], {"corpus": {"ratios": [1, 0, 0]}}), ([], {"corpus": {"ratios": [1.0, 0.0, 0.0]}})],
            [([], {"corpus": {"rating_threshold": 3}}), ([], {"corpus": {"rating_threshold": 3.0}})],
        ],
        ids=["alpha-2", "alpha-0-and-no-ilp", "ratios", "rating_threshold"],
    )
    def test_number_forms_hash_alike(self, tmp_path, variants):
        # a float field stores 2 and 2.0 alike, so rewriting a number asks for no re-run
        hashes = {parsed_config(tmp_path, argv, **sections).select_hash() for argv, sections in variants}
        assert len(hashes) == 1

    @pytest.mark.parametrize(
        "doc, name",
        [
            ({"ablations": {"disable_gat": True}}, "ablations"),
            ({"workers": 2}, "workers"),
            ({"corpus": {"vocab_size": 20000}}, "corpus.vocab_size"),
            ({"graph": {"self_loops": False}}, "graph.self_loops"),
            ({"graph": {"restrict_to_item_attributes": True}}, "graph.restrict_to_item_attributes"),
            ({"model": {"gat_activation": "elu"}}, "model.gat_activation"),
            ({"model": {"leaky_slope": 0.2}}, "model.leaky_slope"),
            ({"model": {"embed_init_scale": 0.1}}, "model.embed_init_scale"),
            ({"model": {"dtype": "float64"}}, "model.dtype"),
            ({"model": {"cross_layers": 2}}, "model.cross_layers"),
            ({"model": {"deep_layers": 2}}, "model.deep_layers"),
            ({"training": {"beta1": 0.9}}, "training.beta1"),
            ({"training": {"beta2": 0.999}}, "training.beta2"),
            ({"training": {"adam_eps": 1e-8}}, "training.adam_eps"),
            ({"training": {"all_pairs": False}}, "training.all_pairs"),
            ({"training": {"balanced_bce": True}}, "training.balanced_bce"),
            ({"selection": {"disable_ilp": True}}, "selection.disable_ilp"),
        ],
    )
    def test_removed_keys_rejected_by_name(self, doc, name):
        with pytest.raises(ConfigError, match=name):
            PipelineConfig.from_dict(doc)

    @pytest.mark.parametrize(
        "doc, name",
        [
            ({"model": []}, "model"),
            ({"selection": 5}, "selection"),
            ({"model": {"hidden": "32"}}, "model.hidden"),
            ({"model": {"hidden": 32.0}}, "model.hidden"),
            ({"model": {"gat_heads": [4, 1.5]}}, "model.gat_heads"),
            ({"model": {"disable_gat": 1}}, "model.disable_gat"),
            ({"training": {"epochs": True}}, "training.epochs"),
            ({"training": {"lambda": False}}, "training.lambda"),
            ({"corpus": {"ratios": [0.5, 0.5]}}, "corpus.ratios"),
            ({"corpus": {"rating_threshold": "3"}}, "corpus.rating_threshold"),
            ({"paths": {"workdir": None}}, "paths.workdir"),
            ({"seed": "1"}, "seed"),
        ],
    )
    def test_misfit_values_rejected_by_name(self, doc, name):
        with pytest.raises(ConfigError, match=rf"\b{name}\b"):
            PipelineConfig.from_dict(doc)

    def test_ints_fit_floats_and_lists_fit_tuples(self):
        cfg = PipelineConfig.from_dict(
            {"training": {"lambda": 1, "learning_rate": 1}, "corpus": {"rating_threshold": None, "ratios": [1, 0, 0]},
             "model": {"gat_heads": [2]}}
        )
        assert cfg.training.lam == 1 and cfg.corpus.ratios == (1, 0, 0) and cfg.model.gat_heads == (2,)

    @pytest.mark.parametrize(
        "key, value",
        OUT_OF_RANGE,
        ids=[f"{key}={json.dumps(value, separators=(',', ':'))}" for key, value in OUT_OF_RANGE],
    )
    def test_out_of_range_rejected_by_name(self, planted, tmp_path, capsys, key, value):
        config, _, _, _ = planted
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["paths"]["workdir"] = str(tmp_path / "work")
        section, _, name = key.rpartition(".")
        (doc.setdefault(section, {}) if section else doc)[name] = value
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc), encoding="utf-8")
        assert cli.main(["preprocess", "--config", str(changed)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config key {key} must be ")

    def test_negative_seed_flag_rejected(self, planted, tmp_path, capsys):
        # the range check sees the config after the CLI overrides
        config, _, _, _ = planted
        argv = ["preprocess", "--config", str(config), "--workdir", str(tmp_path / "work"), "--seed", "-1"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: config key seed must be >= 0, got -1")

    def test_negative_ratio_rejected_before_ingest(self, planted, tmp_path, monkeypatch, capsys):
        # they sum to 1, so only the range check stops them before the corpus is read
        config, _, _, _ = planted
        changed = changed_config(config, tmp_path, "corpus", "ratios", [1.2, -0.1, -0.1])
        monkeypatch.setattr(cli, "ingest_reviews", lambda *a: pytest.fail("ingested the reviews"))
        assert cli.main(["preprocess", "--config", str(changed), "--workdir", str(tmp_path / "work")]) == 1
        assert capsys.readouterr().err.startswith(
            "error: config key corpus.ratios must be a list of shares >= 0, got [1.2, -0.1, -0.1]"
        )


class TestAblations:
    """Each of the paper's ablations runs through every stage."""

    @pytest.mark.parametrize(
        "flags, paths",
        [
            (["--no-gat"], {}),
            (["--no-dcn"], {}),
            (["--no-ilp"], {}),
            (["--no-gat", "--no-dcn"], {}),
            ([], {"sentence_vectors": ""}),
        ],
        ids=["no-gat", "no-dcn", "no-ilp", "no-gat-no-dcn", "average-word-vectors"],
    )
    def test_every_stage_exits_zero(self, planted, tmp_path, flags, paths):
        config, _, _, _ = planted
        doc = json.loads(config.read_text(encoding="utf-8"))
        doc["paths"].update(paths, workdir=str(tmp_path / "work"))
        doc["training"]["epochs"] = 1
        changed = tmp_path / "changed.json"
        changed.write_text(json.dumps(doc), encoding="utf-8")
        for stage in ("preprocess", "train", "select", "evaluate"):
            assert cli.main([stage, "--config", str(changed), *flags]) == 0, stage
        _, records = selection_records(tmp_path / "work")
        report = json.loads((tmp_path / "work" / "evaluation.json").read_text(encoding="utf-8"))
        assert records and report["pairs"] + report["excluded"] == len(records)
        assert {json.loads(rec)["solver"] for rec in records} == {"exact"}
