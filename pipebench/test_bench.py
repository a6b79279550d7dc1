"""Tests of the benchmark itself: python3 -m pytest pipebench"""

import json
import math
import sys
from pathlib import Path

import pytest

import calibrate
import checks
import spans
from corpus_gen import write_corpus, write_vectors
from run import END_TO_END, end_to_end, stage_samples
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_bytes(tmp_path, name):
    shape = WORKLOADS[name].shape
    for out, seed in (("a", 7), ("b", 7), ("c", 8)):
        write_corpus(shape, seed, tmp_path / out)
    for f in ("reviews.jsonl", "lexicon.txt"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    assert (tmp_path / "a" / "reviews.jsonl").read_bytes() != (tmp_path / "c" / "reviews.jsonl").read_bytes()


def test_vectors_same_seed_same_bytes(tmp_path):
    sentences = {"r0.s0": ("the", "zaba", "."), "r1.s1": ("zaba", "kilo", "moru", ".")}
    for out in ("a", "b"):
        (tmp_path / out).mkdir()
        write_vectors(sentences, ["zaba"], hidden=4, sentence_dim=3, seed=5, out_dir=tmp_path / out)
    for f in ("word_vectors.txt", "sentence_vectors.txt"):
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
    header = (tmp_path / "a" / "sentence_vectors.txt").read_text().splitlines()[0]
    assert header == "2 3"


def test_generated_corpus_has_filtered_tail(tmp_path):
    shape = WORKLOADS["sparse_pools"].shape
    info = write_corpus(shape, 3, tmp_path)
    tail = shape.tail_one_off_users + shape.tail_low_ratings + shape.tail_attr_free_reviews
    assert info["records"] == info["main_reviews"] + tail
    rows = [json.loads(line) for line in (tmp_path / "reviews.jsonl").read_text().splitlines()]
    assert sum(r["rating"] <= 3 for r in rows) == shape.tail_low_ratings
    assert sum(r["user_id"].startswith("x") for r in rows) == shape.tail_one_off_users


def test_seeds_change_words_not_work(tmp_path):
    shape = WORKLOADS["dense_pools"].shape
    docs = []
    for seed in (1, 2):
        write_corpus(shape, seed, tmp_path / str(seed))
        docs.append([json.loads(line) for line in (tmp_path / str(seed) / "reviews.jsonl").read_text().splitlines()])
    a, b = docs
    assert [(r["user_id"], r["item_id"], r["rating"]) for r in a] == [(r["user_id"], r["item_id"], r["rating"]) for r in b]
    assert [len(r["text"].split()) for r in a] == [len(r["text"].split()) for r in b]
    assert all(x["text"] != y["text"] for x, y in zip(a, b))


# -- output checks ---------------------------------------------------------------

BY_USER = {"u1": {"r1.s0", "r1.s1"}, "u2": {"r2.s0"}}
BY_ITEM = {"i1": {"r3.s0", "r3.s1"}, "i2": {"r4.s0"}}
GOOD = [
    {"config_hash": "abc"},
    {"user_id": "u1", "item_id": "i1", "sentence_ids": ["r1.s0", "r3.s1"], "objective": 1.5, "solver": "exact"},
    {"user_id": "u2", "item_id": "i2", "sentence_ids": ["r4.s0"], "objective": -0.25, "solver": "greedy"},
]


def _write(path, records, raw_tail=""):
    path.write_text("".join(json.dumps(r) + "\n" for r in records) + raw_tail, encoding="utf-8")
    return path


def test_selections_checker_accepts_valid_file(tmp_path):
    errors, pairs = checks.check_selections(_write(tmp_path / "s.jsonl", GOOD), 2, BY_USER, BY_ITEM)
    assert errors == []
    assert pairs == [("u1", "i1"), ("u2", "i2")]


@pytest.mark.parametrize(
    "corrupt",
    [
        {"sentence_ids": ["r1.s0", "r2.s0"]},  # r2.s0 belongs to another user
        {"sentence_ids": ["r1.s0", "r1.s0"]},  # duplicate id
        {"sentence_ids": ["r1.s0", "r1.s1", "r3.s0"]},  # more than k
        {"sentence_ids": []},
        {"objective": math.nan},
        {"objective": "1.5"},
        {"solver": "ilp"},
    ],
)
def test_selections_checker_rejects_corruption(tmp_path, corrupt):
    path = _write(tmp_path / "s.jsonl", [GOOD[0], dict(GOOD[1], **corrupt), GOOD[2]])
    errors, _ = checks.check_selections(path, 2, BY_USER, BY_ITEM)
    assert len(errors) == 1


def test_selections_checker_rejects_repeated_pair(tmp_path):
    errors, _ = checks.check_selections(_write(tmp_path / "s.jsonl", GOOD + [GOOD[1]]), 2, BY_USER, BY_ITEM)
    assert errors == ["selections line 4: pair ('u1', 'i1') selected twice"]


def test_selections_checker_rejects_truncated_line(tmp_path):
    path = _write(tmp_path / "s.jsonl", GOOD, raw_tail='{"user_id": "u1", "item_')
    errors, _ = checks.check_selections(path, 2, BY_USER, BY_ITEM)
    assert any("invalid JSON" in e for e in errors)


def test_evaluation_checker(tmp_path):
    doc = {k: 0.5 for k in ("bleu1", "bleu2", "bleu4", "rouge1", "rouge2", "rougeL",
                            "attr_precision", "attr_recall", "attr_f1")}
    doc.update(pairs=3, excluded=1)
    path = tmp_path / "evaluation.json"
    path.write_text(json.dumps(doc))
    assert checks.check_evaluation(path, 4) == []
    assert checks.check_evaluation(path, 5)
    path.write_text(json.dumps(dict(doc, bleu4=float("nan"))))
    assert checks.check_evaluation(path, 4)


def test_train_log_checker(tmp_path):
    path = tmp_path / "train_log.txt"
    path.write_text("# header\n0 1.0 0.5 0.5 0.1 0.1 0.1\n1 0.9 0.4 0.5 0.2 0.1 0.1\n")
    assert checks.check_train_log(path, 2) == []
    assert checks.check_train_log(path, 3)
    path.write_text("# header\n0 nan 0.5 0.5 0.1 0.1 0.1\n")
    assert checks.check_train_log(path, 1)


# -- spans and self time -------------------------------------------------------

def test_self_times_on_hand_built_tree():
    tree = [
        ["cli.train", 0.0, 10.0, -1],
        ["training.setup", 1.0, 4.0, 0],
        ["training.relevance_targets", 1.5, 3.0, 1],
        ["training.run", 5.0, 9.0, 0],
        ["model.forward", 5.0, 6.0, 3],
        ["model.gat_layer", 5.1, 5.4, 4],
        ["model.gat_layer", 5.5, 5.7, 4],
        ["model.backward", 6.5, 8.0, 3],
    ]
    got = spans.self_times(tree)
    want = [10 - 3 - 4, 3 - 1.5, 1.5, 4 - 1 - 1.5, 1 - 0.3 - 0.2, 0.3, 0.2, 1.5]
    assert got == pytest.approx(want)
    assert sum(got) == pytest.approx(10.0)


def test_self_times_merge_overlapping_children():
    tree = [["a", 0.0, 10.0, -1], ["b", 2.0, 6.0, 0], ["c", 4.0, 8.0, 0], ["d", 9.0, 12.0, 0]]
    assert spans.self_times(tree)[0] == pytest.approx(10 - 6 - 1)


def test_tracer_nests_calls_and_splits_forward_by_caller():
    ticks = iter(range(100))
    tr = spans.Tracer(clock=lambda: float(next(ticks)))
    forward = tr.wrap(lambda: None, "model.forward")
    validate = tr.wrap(lambda: forward(), "training.validate")
    tr.call("cli.train", lambda: (forward(), validate()))
    tr.call("cli.select", forward)
    names = [(s[0], s[3]) for s in tr.spans]
    assert names == [("cli.train", -1), ("model.forward", 0), ("training.validate", 0),
                     ("model.forward", 2), ("cli.select", -1), ("model.forward", 4)]
    out = spans.layer_metrics(tr.to_dict(), untraced_total_s=5.0, val_bleu4=0.125)
    assert out["model.forward_calls"] == 3
    assert out["model.forward.train_s"] == 1.0
    assert out["model.forward.validate_s"] == 1.0
    assert out["model.forward.select_s"] == 1.0
    assert out["trace.total_s"] == 7.0 + 3.0
    assert out["trace.overhead_s"] == 10.0 - 5.0
    assert out["share.train.model"] == pytest.approx(2.0 / 7.0)
    assert out["share.train.training"] == pytest.approx(2.0 / 7.0)
    assert out["training.val_bleu4"] == 0.125


def test_layer_metrics_scale_times_not_shares():
    tree = {"spans": [["cli.train", 0.0, 4.0, -1], ["model.forward", 1.0, 2.0, 0]], "counts": {}, "samples": {}}
    out = spans.layer_metrics(tree, untraced_total_s=5.0, val_bleu4=0.0, scale=2.0)
    assert out["trace.total_s"] == 8.0
    assert out["trace.overhead_s"] == 3.0
    assert out["model.forward_s"] == 2.0
    assert out["share.train.model"] == pytest.approx(0.25)


# -- host-speed calibration ------------------------------------------------------

def test_scaled_converts_wall_to_reference_seconds():
    ref = calibrate.REFERENCE_S
    assert calibrate.scaled(3.0, ref, ref) == pytest.approx(3.0)
    # a host running at half speed: the stage and the reference both take twice as long
    assert calibrate.scaled(6.0, 2 * ref, 2 * ref) == pytest.approx(3.0)
    assert calibrate.scaled(4.0, ref, 3 * ref) == pytest.approx(2.0)


def test_stage_samples_bracket_each_stage_by_its_own_references():
    ref = calibrate.REFERENCE_S
    full = {
        "stage_s": {"setup": [0.1, 0.2], "train": 4.0, "select": 1.0, "evaluate": 0.5},
        # host at full speed, then half speed from the train stage on
        "reference_s": [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref],
        "peak_rss_mb": 50.0,
        "quality": {"test_bleu4": 0.1, "test_rougeL": 0.2, "test_attr_f1": 0.3},
    }
    select_only = {"select_s": 3.0, "reference_s": [ref, ref]}
    samples = stage_samples([full], [select_only])
    assert samples["preprocess"] == pytest.approx([0.1, 0.2])
    assert samples["train"] == pytest.approx([4.0 / 1.5])
    assert samples["select"] == pytest.approx([0.5, 3.0])
    assert samples["evaluate"] == pytest.approx([0.25])
    assert stage_samples([full], [select_only], scale=False)["select"] == [1.0, 3.0]
    out = end_to_end([full], [select_only])
    assert out["setup_s"] == pytest.approx(0.15)
    assert out["select_s"] == pytest.approx(1.75)
    assert out["total_s"] == pytest.approx(0.15 + 4.0 / 1.5 + 1.75 + 0.25)
    assert sorted(out) == sorted(name for name, _ in END_TO_END)


def test_reference_is_positive_and_near_nominal():
    t = calibrate.reference()
    assert calibrate.REFERENCE_S / 10 < t < calibrate.REFERENCE_S * 10


def test_layer_metrics_names_match_per_layer_list():
    tr = spans.Tracer()
    tr.call("cli.preprocess", lambda: None)
    out = spans.layer_metrics(tr.to_dict(), 1.0, 0.1)
    assert sorted(out) == sorted(name for name, _, _ in spans.PER_LAYER)


# -- BENCHMARK.json agrees with the code -----------------------------------------

def test_benchmark_json_matches_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == spans.PER_LAYER
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"
    )


def test_every_hook_names_a_program_function():
    sys.path.insert(0, str(HERE.parent / "src"))
    for module, path, *_ in spans.HOOKS + spans.COUNTERS:
        owner, attr = spans._resolve(module, path)
        assert callable(getattr(owner, attr)), f"{module}.{path}"
