import math
import os
import random
import re
import shutil
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from recexplain import corpus as cp
from recexplain import metrics
from recexplain import training as tr
from recexplain.archive import load_tensors, save_tensors
from recexplain.features import EmbeddingTable, provider_from_vectors
from recexplain import model as model_module
from recexplain.model import ModelConfig, readout_chunks

from oracles import bleu_oracle


def targets_of(cands, gt):
    """The targets of one problem computed alone."""
    (targets,) = tr.relevance_targets([(cands, gt)])
    return targets


def random_batch(rng):
    """Problems over a shared pool of sentences drawn from six words, so
    grams repeat inside a sentence; some sentences are shorter than 4
    tokens, some candidates are shorter than every reference, and each
    problem's candidates include one of its references."""

    def sentence(lo, hi):
        return tuple(f"w{rng.randrange(6)}" for _ in range(rng.randint(lo, hi)))

    shared = [sentence(1, 3) for _ in range(3)] + [sentence(4, 14) for _ in range(5)]
    problems = []
    for _ in range(rng.randint(1, 5)):
        gt = [sentence(5, 12) for _ in range(rng.randint(1, 3))] + rng.sample(shared, rng.randint(0, 2))
        cands = [sentence(1, 3) for _ in range(3)] + [sentence(4, 14) for _ in range(6)]
        cands += rng.sample(shared, 3) + [cands[1], cands[6], rng.choice(gt)]
        problems.append((cands, gt))
    return problems


class TestRelevanceTargets:
    def test_member_of_ground_truth_is_one(self):
        gt = [("the", "room", "was", "clean"), ("staff", "were", "kind")]
        targets = targets_of([gt[0], ("totally", "different", "words")], gt)
        assert targets[0] == pytest.approx(1.0, abs=1e-15)

    def test_no_overlap_is_floor(self):
        gt = [("aaa", "bbb", "ccc")]
        targets = targets_of([("x", "y", "z")], gt)
        assert targets[0] < 0.01

    def test_max_over_ground_truth(self):
        cand = ("the", "cat", "sat")
        gt = [("the", "cat", "ate"), ("the", "cat", "sat", "down")]
        want = max(bleu_oracle(list(cand), [list(g)]) for g in gt)
        got = targets_of([cand], list(gt))[0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_cacheable_deterministic(self):
        gt = [("a", "b", "c")]
        cands = [("a", "b"), ("c", "d"), ("a", "b", "c")]
        assert np.array_equal(targets_of(cands, gt), targets_of(cands, gt))

    def test_equals_sentence_bleu_and_oracle(self):
        rng = random.Random(5)
        for _ in range(25):
            problems = random_batch(rng)
            for (cands, gt), got in zip(problems, tr.relevance_targets(problems), strict=True):
                assert got.tolist() == [max(metrics.sentence_bleu(list(c), list(g)) for g in gt) for c in cands]
                for target, c in zip(got, cands):
                    assert abs(target - max(bleu_oracle(list(c), [list(g)]) for g in gt)) <= 1e-12
                assert got[-1] == 1.0

    def test_interned_counts_equal_clipped_matches(self):
        rng = random.Random(11)
        for _ in range(25):
            for cands, gt in random_batch(rng):
                key_ids = {}
                interned = {s: tr._interned(s, key_ids) for s in (*cands, *gt)}
                slot = np.full(len(key_ids), -1, dtype=np.intp)
                counts = tr._clipped_counts([interned[c] for c in cands], [interned[g] for g in gt], slot)
                assert (slot == -1).all()
                for i, c in enumerate(cands):
                    for j, g in enumerate(gt):
                        for n in range(1, metrics.MAX_N + 1):
                            assert counts[i, n - 1, j] == metrics.overlap(c, g)[2][n - 1]

    def test_batching_changes_nothing(self):
        problems = random_batch(random.Random(3)) + random_batch(random.Random(4))
        together = tr.relevance_targets(problems)
        assert len(together) == len(problems)
        for (cands, gt), got in zip(problems, together):
            assert np.array_equal(got, targets_of(cands, gt))

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(tr.TrainingError):
            tr.relevance_targets([([("a",)], [("a",)]), ([("a",)], [])])


class TestPairwiseRankLoss:
    def test_tie_contributes_zero(self):
        loss, grad = tr.pairwise_rank_loss(
            np.array([1.0, 2.0]), np.array([0.5, 0.5]), np.array([[0, 1]])
        )
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_equal_scores_log_half(self):
        loss, _ = tr.pairwise_rank_loss(
            np.array([1.0, 1.0]), np.array([0.9, 0.1]), np.array([[0, 1]])
        )
        assert loss == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_margin_two(self):
        loss, _ = tr.pairwise_rank_loss(
            np.array([2.0, 0.0]), np.array([0.9, 0.1]), np.array([[0, 1]])
        )
        assert loss == pytest.approx(0.126928011, abs=1e-8)

    def test_swap_invariance(self):
        scores = np.array([0.3, -0.4, 1.2])
        targets = np.array([0.9, 0.2, 0.5])
        l1, g1 = tr.pairwise_rank_loss(scores, targets, np.array([[0, 1], [1, 2]]))
        l2, g2 = tr.pairwise_rank_loss(scores, targets, np.array([[1, 0], [2, 1]]))
        assert l1 == pytest.approx(l2, abs=1e-15)
        assert np.allclose(g1, g2, atol=1e-15)

    def test_depends_only_on_score_differences(self):
        scores = np.array([0.3, -0.4, 1.2, 0.0])
        targets = np.array([0.9, 0.2, 0.5, 0.7])
        pairs = np.array([[0, 1], [2, 3], [0, 3]])
        base, _ = tr.pairwise_rank_loss(scores, targets, pairs)
        shifted, _ = tr.pairwise_rank_loss(scores + 123.0, targets, pairs)
        assert base == pytest.approx(shifted, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=6)
        targets = rng.uniform(size=6)
        pairs = np.array([[0, 1], [2, 3], [4, 5], [0, 5]])
        _, grad = tr.pairwise_rank_loss(scores, targets, pairs)
        eps = 1e-6
        for i in range(6):
            up = scores.copy(); up[i] += eps
            dn = scores.copy(); dn[i] -= eps
            fd = (tr.pairwise_rank_loss(up, targets, pairs)[0] -
                  tr.pairwise_rank_loss(dn, targets, pairs)[0]) / (2 * eps)
            assert grad[i] == pytest.approx(fd, abs=1e-7)

    @pytest.mark.parametrize("pair", [[0, 1], [1, 0]], ids=["hi-first", "lo-first"])
    @pytest.mark.parametrize("gap", [800.0, 720.0, -800.0], ids=["ranked-800", "ranked-720", "misranked-800"])
    def test_gap_past_exp_overflow(self, gap, pair):
        # e^d overflows past d = 709.78, and pytest.ini makes that warning an
        # error; sigmoid(-d) is then e^-d: 0 at 800, a subnormal at 720
        loss, grad = tr.pairwise_rank_loss(np.array([gap, 0.0]), np.array([1.0, 0.0]), np.array([pair]))
        want = -1.0 if gap < 0 else -np.exp(-gap)
        assert loss == np.logaddexp(0.0, -gap)
        assert grad.tolist() == [want, -want]

    def test_no_pairs(self):
        loss, grad = tr.pairwise_rank_loss(np.zeros(3), np.zeros(3), np.zeros((0, 2), dtype=int))
        assert loss == 0.0 and grad.shape == (3,)


class TestSamplePairs:
    def test_only_distinct_targets(self):
        targets = np.array([0.5, 0.5, 0.9])
        rng = np.random.default_rng(0)
        pairs = tr.sample_rank_pairs(targets, 100, rng)
        assert {tuple(p) for p in pairs.tolist()} == {(0, 2), (1, 2)}

    def test_budget_respected_and_seeded(self):
        targets = np.linspace(0, 1, 30)
        a = tr.sample_rank_pairs(targets, 10, np.random.default_rng(4))
        b = tr.sample_rank_pairs(targets, 10, np.random.default_rng(4))
        assert a.shape == (10, 2)
        assert np.array_equal(a, b)


class TestAttributeLoss:
    def test_perfect_positive(self):
        loss, _ = tr.attribute_loss(np.array([1.0 - 1e-13]), np.array([1.0]))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_half_probability(self):
        loss, _ = tr.attribute_loss(np.array([0.5]), np.array([1.0]))
        assert loss == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_balanced_adds_negative_class(self):
        loss, _ = tr.attribute_loss(np.array([0.5]), np.array([0.0]))
        assert loss == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.05, 0.95, size=5)
        y = rng.integers(0, 2, size=5).astype(float)
        _, grad = tr.attribute_loss(p, y)
        eps = 1e-7
        for i in range(5):
            up = p.copy(); up[i] += eps
            dn = p.copy(); dn[i] -= eps
            fd = (tr.attribute_loss(up, y)[0] - tr.attribute_loss(dn, y)[0]) / (2 * eps)
            assert grad[i] == pytest.approx(fd, rel=1e-5)


class TestCombinedLoss:
    def test_lambda_endpoints_and_midpoint(self):
        assert tr.combined_loss(2.0, 4.0, 1.0) == 2.0
        assert tr.combined_loss(2.0, 4.0, 0.0) == 4.0
        assert tr.combined_loss(2.0, 4.0, 0.5) == 3.0


class TestAdam:
    def test_zero_gradient_no_op(self):
        params = {"w": np.array([1.0, -2.0])}
        state = tr.AdamState.init(params)
        tr.adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
        assert np.array_equal(params["w"], [1.0, -2.0])

    def test_first_step_is_lr_times_sign(self):
        params = {"w": np.array([0.0])}
        state = tr.AdamState.init(params)
        tr.adam_step(params, {"w": np.array([1.0])}, state, lr=0.1)
        assert params["w"][0] == pytest.approx(-0.1, abs=1e-6)

    def test_trajectory_deterministic(self):
        def run():
            params = {"w": np.array([0.3, -0.7])}
            state = tr.AdamState.init(params)
            rng = np.random.default_rng(5)
            for _ in range(20):
                tr.adam_step(params, {"w": rng.normal(size=2)}, state, lr=0.01)
            return params["w"]

        assert np.array_equal(run(), run())

    def test_nonfinite_gradient_aborts(self):
        params = {"w": np.array([0.0])}
        state = tr.AdamState.init(params)
        with pytest.raises(tr.TrainingError, match="w"):
            tr.adam_step(params, {"w": np.array([np.nan])}, state, lr=0.1)

    def test_same_bytes_as_textbook_expression(self):
        # tensors of the sparse_pools shapes, gradients across scales
        rng = np.random.default_rng(3)
        shapes = {"embed.user": (140, 128), "cross.0.w": (1536,), "deep.0.w": (128, 1536), "head.attr": (512,)}
        params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        want = {name: t.copy() for name, t in params.items()}
        state = tr.AdamState.init(params)
        want_state = tr.AdamState.init(want)
        for step in range(6):
            grads = {name: 10.0 ** rng.integers(-12, 3) * rng.normal(size=t.shape) for name, t in params.items()}
            grads["head.attr"][:7] = 0.0
            tr.adam_step(params, grads, state, lr=1e-3)
            textbook_adam_step(want, grads, want_state, lr=1e-3)
            assert_same_adam(params, state, want, want_state)

    def test_same_bytes_after_load_checkpoint(self, tmp_path):
        make_trainer(tmp_path, epochs=2, seed=4).run()
        resumed = make_trainer(tmp_path, epochs=2, seed=4)
        resumed.load_checkpoint(tmp_path / tr.LAST_CHECKPOINT)
        params, state = resumed.params, resumed.adam
        want = {name: t.copy() for name, t in params.items()}
        want_state = tr.AdamState(
            m={name: t.copy() for name, t in state.m.items()},
            v={name: t.copy() for name, t in state.v.items()},
            t=state.t,
        )
        rng = np.random.default_rng(8)
        for step in range(4):
            grads = {name: rng.normal(size=t.shape) for name, t in params.items()}
            tr.adam_step(params, grads, state, lr=1e-3)
            textbook_adam_step(want, grads, want_state, lr=1e-3)
            assert_same_adam(params, state, want, want_state)


def textbook_adam_step(params, grads, state, lr):
    """Adam as written out in full, one fresh array per operation."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        state.m[name] = tr.ADAM_BETA1 * state.m[name] + (1.0 - tr.ADAM_BETA1) * g
        state.v[name] = tr.ADAM_BETA2 * state.v[name] + (1.0 - tr.ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1.0 - tr.ADAM_BETA1**t)
        v_hat = state.v[name] / (1.0 - tr.ADAM_BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + tr.ADAM_EPS)


def assert_same_adam(params, state, want, want_state):
    assert state.t == want_state.t
    for table, got, ref in (("param", params, want), ("m", state.m, want_state.m), ("v", state.v, want_state.v)):
        assert set(got) == set(ref)
        for name in ref:
            assert got[name].tobytes() == ref[name].tobytes(), f"{table} {name} at step {state.t}"


# -- end-to-end trainer smoke on a tiny deterministic corpus ----------------

LEX = cp.AttributeLexicon(["room", "staff", "view", "pool"])


def tiny_corpus():
    words = ["room", "staff", "view", "pool"]
    records = []
    line = 0
    for u in range(4):
        for c in range(4):
            attr = words[(u + c) % 4]
            other = words[(u + c + 1) % 4]
            text = f"The {attr} was truly delightful here. The {other} seemed fine too."
            records.append(cp.RawRecord(f"u{u}", f"c{c}", 5.0, text, line))
            line += 1
    return cp.build_corpus(records, LEX, 2, (0.7, 0.15, 0.15), 3)


def make_provider(corpus, hidden=4, sent_dim=3, seed=0):
    rng = np.random.default_rng(seed)
    tokens = [cp.UNK_TOKEN] + sorted({w for sid in corpus.sentence_rows for w in corpus.sentences[sid].words})
    word_vecs = rng.normal(size=(len(tokens), hidden))
    word_table = EmbeddingTable(word_vecs, index={t: i for i, t in enumerate(tokens)})
    sids = sorted(corpus.sentences)
    sent_vecs = rng.normal(size=(len(sids), sent_dim))
    sent_table = EmbeddingTable(sent_vecs, index={s: i for i, s in enumerate(sids)})
    return provider_from_vectors(corpus, hidden, word_table, sent_table)


HASH = "0123456789abcdef"  # stands in for PipelineConfig.train_hash()


def make_trainer(tmp_path, corpus=None, epochs=3, lam=0.5, seed=1, model_cfg=None, **kw):
    corpus = corpus or tiny_corpus()
    provider = make_provider(corpus)
    model_cfg = model_cfg or ModelConfig(hidden=4, gat_heads=(2, 1), deep_hidden=4)
    train_cfg = tr.TrainConfig(lam=lam, batch_size=4, learning_rate=1e-3, epochs=epochs, pair_budget=20, patience=50)
    return tr.Trainer(corpus, provider, model_cfg, train_cfg, workdir=tmp_path, config_hash=HASH, seed=seed, **kw)


def early_stopping_trainer(workdir, epochs=8):
    """A trainer whose run, left to its 8 epochs, stops early."""
    trainer = make_trainer(workdir, epochs=epochs, seed=2)
    trainer.train_cfg.patience = 1
    return trainer


def written(workdir):
    """The bytes of every file a training run leaves in `workdir`; the
    checkpoints directory holds nothing but last.ntar and best.ntar."""
    assert sorted(p.name for p in (workdir / "checkpoints").iterdir()) == ["best.ntar", "last.ntar"]
    names = ["train_log.txt", tr.LAST_CHECKPOINT, tr.BEST_CHECKPOINT]
    return {str(name): (workdir / name).read_bytes() for name in names}


class TestTrainer:
    def test_loss_decreases(self, tmp_path):
        trainer = make_trainer(tmp_path / "a", epochs=5)
        trainer.run()
        lines = [
            l.split() for l in (tmp_path / "a" / "train_log.txt").read_text().splitlines()
            if not l.startswith("#")
        ]
        losses = [float(l[1]) for l in lines]
        assert len(losses) == 5
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize(
        "disable_gat, disable_dcn", [(False, False), (True, False), (False, True)], ids=["default", "no-gat", "no-dcn"]
    )
    def test_chunking_changes_a_batch_only_by_rounding(self, tmp_path, monkeypatch, disable_gat, disable_dcn):
        # the same minibatch, one graph per readout and all in one readout
        model_cfg = ModelConfig(hidden=4, gat_heads=(2, 1), deep_hidden=4, disable_gat=disable_gat, disable_dcn=disable_dcn)
        trainer = make_trainer(tmp_path, model_cfg=model_cfg)
        batch = np.random.default_rng([trainer.seed, 1, 0]).permutation(len(trainer.train_pairs))
        rows = lambda pos: len(trainer.train_pairs[pos].graph.sentence_ids)
        monkeypatch.setattr(model_module, "READOUT_ROWS", 0)
        assert len(list(readout_chunks(batch, rows))) == len(batch) > 2
        single, single_terms = trainer._batch_loss(batch, 3)
        monkeypatch.setattr(model_module, "READOUT_ROWS", 10**9)
        assert len(list(readout_chunks(batch, rows))) == 1
        whole, whole_terms = trainer._batch_loss(batch, 3)
        # BLAS products over stacked rows round differently: the losses
        # agree to a few ulps, not bit for bit
        assert len(whole_terms) == len(single_terms)
        for got, want in zip(whole_terms, single_terms):
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        for name, grad in whole.items():
            err = np.abs(grad - single[name]).max()
            assert err <= 1e-12 * np.abs(single[name]).max(), name

    def test_one_chunk_trace_alive_at_a_time(self, tmp_path, monkeypatch, one_live_trace):
        # training and validation, one graph per chunk
        trainer = make_trainer(tmp_path, epochs=2)
        monkeypatch.setattr(model_module, "READOUT_ROWS", 0)
        trainer.run()
        assert len(one_live_trace) == 2 * (len(trainer.train_pairs) + len(trainer.valid_pairs)) > 4

    def test_lambda_one_leaves_attr_head_at_init(self, tmp_path):
        trainer = make_trainer(tmp_path / "b", epochs=2, lam=1.0)
        init_attr = trainer.params["head.attr"].copy()
        init_score = trainer.params["head.score"].copy()
        trainer.run()
        assert np.array_equal(trainer.params["head.attr"], init_attr)
        assert not np.array_equal(trainer.params["head.score"], init_score)

    def test_same_seed_identical_logs(self, tmp_path):
        make_trainer(tmp_path / "r1", epochs=3, seed=9).run()
        make_trainer(tmp_path / "r2", epochs=3, seed=9).run()
        a = (tmp_path / "r1" / "train_log.txt").read_bytes()
        b = (tmp_path / "r2" / "train_log.txt").read_bytes()
        assert a == b

    def test_resume_reproduces_trajectory_bitexact(self, tmp_path):
        full = make_trainer(tmp_path / "full", epochs=4, seed=2)
        full.run()

        part = make_trainer(tmp_path / "part", epochs=2, seed=2)
        part.run()
        resumed = make_trainer(tmp_path / "part", epochs=4, seed=2)
        resumed.load_checkpoint(tmp_path / "part" / tr.LAST_CHECKPOINT)
        resumed.run()

        assert written(tmp_path / "part") == written(tmp_path / "full")

    def test_resume_reads_no_feature_tensor(self, tmp_path, monkeypatch):
        make_trainer(tmp_path, epochs=1, seed=2).run()
        loaded = []

        def recorded(*args):
            tensors, meta = load_tensors(*args)
            loaded.extend(tensors)
            return tensors, meta

        monkeypatch.setattr(tr, "load_tensors", recorded)
        make_trainer(tmp_path, epochs=2, seed=2).load_checkpoint(tmp_path / tr.LAST_CHECKPOINT)
        stored = list(load_tensors(tmp_path / tr.LAST_CHECKPOINT)[0])
        assert [name for name in stored if name.startswith("feature.")]
        assert loaded == [name for name in stored if not name.startswith("feature.")]

    def test_pairs_hold_no_provider_rows(self, tmp_path):
        # a pair names its node inputs by row; the provider holds the floats
        trainer = make_trainer(tmp_path)
        for pair in trainer.train_pairs + trainer.valid_pairs:
            inputs = pair.inputs
            assert inputs.attr_rows.dtype == inputs.sent_rows.dtype == np.intp
            assert isinstance(inputs.user_row, int) and isinstance(inputs.item_row, int)
            held = [getattr(pair, f.name) for f in fields(pair)] + [getattr(inputs, f.name) for f in fields(inputs)]
            floats = [value for value in held if isinstance(value, np.ndarray) and value.dtype.kind == "f"]
            assert all(value.ndim == 1 for value in floats)  # targets and labels, one number per node

    def test_resume_from_final_epoch_trains_nothing(self, tmp_path):
        full = make_trainer(tmp_path, epochs=3, seed=2)
        best = full.run()
        before = written(tmp_path)

        resumed = make_trainer(tmp_path, epochs=3, seed=2)
        resumed.load_checkpoint(tmp_path / tr.LAST_CHECKPOINT)
        assert resumed.run() == best
        assert written(tmp_path) == before

    @pytest.mark.parametrize(
        "edit",
        [
            lambda tensors: {name: t for name, t in tensors.items() if name.startswith("param.")},
            lambda tensors: {**tensors, "adam.m.embed.user": tensors["adam.m.embed.user"][:1]},
        ],
        ids=["params-only", "one-row-adam-moment"],
    )
    def test_resume_rejects_bad_adam_state(self, tmp_path, edit):
        make_trainer(tmp_path / "a", epochs=1, seed=2).run()
        tensors, meta = load_tensors(tmp_path / "a" / tr.LAST_CHECKPOINT)
        save_tensors(tmp_path / "bad.ntar", edit(tensors), meta)
        resumed = make_trainer(tmp_path / "b", epochs=2, seed=2)
        with pytest.raises(tr.TrainingError, match=r"'adam\.m\.embed\.user' missing or misshapen"):
            resumed.load_checkpoint(tmp_path / "bad.ntar")

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda meta: {"config_hash": meta["config_hash"]}, "'adam_t' missing or not int"),
            (lambda meta: {**meta, "adam_t": 3.0}, "'adam_t' missing or not int"),
            (lambda meta: {**meta, "epoch": "0"}, "'epoch' missing or not int"),
            (lambda meta: {**meta, "adam_t": 0}, "'adam_t' is 0, not an int >= 1"),
            (lambda meta: {**meta, "adam_t": -1}, "'adam_t' is -1, not an int >= 1"),
            (lambda meta: {**meta, "epoch": -1}, "'epoch' is -1, not an int >= 0"),
            (lambda meta: {**meta, "best": None}, "'best' missing or not dict"),
            (lambda meta: {**meta, "best": {**meta["best"], "val_bleu3": 0.0}}, "'best' has fields"),
            (lambda meta: {**meta, "best": {k: v for k, v in meta["best"].items() if k != "epoch"}},
             "'best' has fields"),
            (lambda meta: {**meta, "best": {**meta["best"], "val_bleu4": "0.5"}}, r"'best\.val_bleu4' is '0\.5', not a"),
            (lambda meta: {**meta, "best": {**meta["best"], "val_bleu4": None}}, r"'best\.val_bleu4' is None, not a"),
            (lambda meta: {**meta, "best": {**meta["best"], "epoch": 0.0}}, r"'best\.epoch' is 0\.0, not an int"),
            (lambda meta: {**meta, "best": {**meta["best"], "epoch": True}}, r"'best\.epoch' is True, not an int"),
        ],
        ids=["hash-only", "float-adam-t", "string-epoch", "zero-adam-t", "negative-adam-t", "negative-epoch",
             "null-best", "extra-best-field", "best-without-epoch", "string-best-bleu", "null-best-bleu", "float-best-epoch", "bool-best-epoch"],
    )
    def test_resume_rejects_bad_metadata(self, tmp_path, edit, message):
        make_trainer(tmp_path / "a", epochs=1, seed=2).run()
        tensors, meta = load_tensors(tmp_path / "a" / tr.LAST_CHECKPOINT)
        save_tensors(tmp_path / "bad.ntar", tensors, edit(meta))
        resumed = make_trainer(tmp_path / "b", epochs=2, seed=2)
        with pytest.raises(tr.TrainingError, match=f"checkpoint metadata {message}"):
            resumed.load_checkpoint(tmp_path / "bad.ntar")

    @pytest.mark.parametrize(
        "edit, found",
        [
            (lambda meta: {k: v for k, v in meta.items() if k != "config_hash"}, None),
            (lambda meta: {**meta, "config_hash": "fedcba9876543210"}, "fedcba9876543210"),
        ],
        ids=["no-hash", "other-hash"],
    )
    def test_resume_rejects_other_config_hash(self, tmp_path, edit, found):
        make_trainer(tmp_path / "a", epochs=1, seed=2).run()
        tensors, meta = load_tensors(tmp_path / "a" / tr.LAST_CHECKPOINT)
        assert meta["config_hash"] == HASH
        save_tensors(tmp_path / "bad.ntar", tensors, edit(meta))
        resumed = make_trainer(tmp_path / "b", epochs=2, seed=2)
        message = f"checkpoint config hash {found!r} does not match the current config's {HASH!r}"
        with pytest.raises(tr.TrainingError, match=re.escape(message)):
            resumed.load_checkpoint(tmp_path / "bad.ntar")

    @pytest.mark.parametrize("prefix", ["param", "adam.m", "adam.v"])
    def test_resume_rejects_non_finite_tensor(self, tmp_path, prefix):
        make_trainer(tmp_path / "a", epochs=1, seed=2).run()
        tensors, meta = load_tensors(tmp_path / "a" / tr.LAST_CHECKPOINT)
        key = f"{prefix}.head.score"
        tensors[key] = tensors[key].copy()
        tensors[key][-1] = np.inf
        save_tensors(tmp_path / "bad.ntar", tensors, meta)
        resumed = make_trainer(tmp_path / "b", epochs=2, seed=2)
        with pytest.raises(tr.TrainingError, match=re.escape(f"checkpoint tensor {key!r} holds a non-finite value")):
            resumed.load_checkpoint(tmp_path / "bad.ntar")

    def test_resume_keeps_early_stop_count(self, tmp_path):
        trainer = early_stopping_trainer(tmp_path / "full")
        trainer.run()
        trained = len((tmp_path / "full" / "train_log.txt").read_text().splitlines()) - 2
        assert trained < 8  # stopped early, after two epochs without a new best

        early_stopping_trainer(tmp_path / "part", epochs=trained - 1).run()
        resumed = early_stopping_trainer(tmp_path / "part")
        resumed.load_checkpoint(tmp_path / "part" / tr.LAST_CHECKPOINT)
        resumed.run()
        assert written(tmp_path / "part") == written(tmp_path / "full")

    def test_resume_after_early_stop_trains_nothing(self, tmp_path):
        best = early_stopping_trainer(tmp_path).run()
        before = written(tmp_path)
        assert int(before["train_log.txt"].splitlines()[-1].split()[0]) < 7  # stopped early

        resumed = early_stopping_trainer(tmp_path)
        resumed.load_checkpoint(tmp_path / tr.LAST_CHECKPOINT)
        assert resumed.run() == best
        assert written(tmp_path) == before

    def test_resume_after_a_kill_at_any_replace_matches_an_uninterrupted_run(self, tmp_path, monkeypatch):
        # a kill leaves the log line of the epoch being saved and the
        # temporary file; resuming from last.ntar must cut the log back, or
        # that epoch is logged twice, and the retraced epoch replaces the file
        replace = os.replace
        calls = []

        def recording_replace(src, dst):
            calls.append((Path(dst).name, Path(src).read_bytes()))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", recording_replace)
        early_stopping_trainer(tmp_path / "full").run()
        want = written(tmp_path / "full")
        names = [name for name, _ in calls]
        assert names[0] == "best.ntar" and 1 < names.count("best.ntar") < names.count("last.ntar")
        for at, (name, data) in enumerate(calls):  # each best.ntar is its epoch's last.ntar
            assert name == "last.ntar" or calls[at + 1] == ("last.ntar", data)

        class Killed(BaseException):
            pass

        for kill_at in range(len(calls)):
            workdir = tmp_path / f"killed-{kill_at}"
            count = iter(range(len(calls)))

            def killing_replace(src, dst):
                if next(count) == kill_at:
                    shutil.copyfile(src, workdir / "left.tmp")
                    raise Killed(src)
                replace(src, dst)

            monkeypatch.setattr(os, "replace", killing_replace)
            with pytest.raises(Killed) as killed:
                early_stopping_trainer(workdir).run()
            monkeypatch.setattr(os, "replace", replace)
            replace(workdir / "left.tmp", killed.value.args[0])  # a killed process leaves its temporary file
            resumed = early_stopping_trainer(workdir)
            if (workdir / tr.LAST_CHECKPOINT).exists():
                resumed.load_checkpoint(workdir / tr.LAST_CHECKPOINT)
            resumed.run()
            assert written(workdir) == want, kill_at

    def test_embeddings_stay_at_init_without_gat_and_dcn(self, tmp_path):
        # no attention and a score head that does not read [user | item]:
        # nothing reaches the user and item rows, and Adam leaves them be.
        # The sentence projection's bias shifts every score of a graph
        # alike, so it stays at its initial value too, with zero moments
        model_cfg = ModelConfig(hidden=4, deep_hidden=4, disable_gat=True, disable_dcn=True)
        trainer = make_trainer(tmp_path, epochs=2, model_cfg=model_cfg)
        assert trainer.model.project_sentences  # sentence vectors are 3-wide, hidden 4
        frozen = ("embed.user", "embed.item", "proj.b")
        init = {name: trainer.params[name].copy() for name in frozen + ("head.score", "proj.w")}
        trainer.run()
        for name in frozen:
            assert trainer.params[name].tobytes() == init[name].tobytes(), name
        assert not trainer.adam.m["proj.b"].any() and not trainer.adam.v["proj.b"].any()
        assert not np.array_equal(trainer.params["head.score"], init["head.score"])
        assert not np.array_equal(trainer.params["proj.w"], init["proj.w"])

    def test_validation_uses_top_k(self, tmp_path):
        trainer = make_trainer(tmp_path, k=1)
        assert trainer.valid_pairs
        want = [0.0, 0.0, 0.0]
        for pair in trainer.valid_pairs:
            scores = trainer.model.forward([pair.graph], [pair.inputs], trainer.params, trainer.provider).scores
            top = pair.graph.sentence_ids[int(np.argmax(scores))]
            ref = [w for words in pair.truth_words for w in words]
            for slot, max_n in enumerate((1, 2, 4)):
                want[slot] += metrics.sentence_bleu(list(trainer.corpus.sentences[top].words), ref, max_n=max_n)
        n = len(trainer.valid_pairs)
        assert list(trainer.validate()) == [total / n for total in want]

    def test_validation_counts_each_pair_once(self, tmp_path, monkeypatch):
        # one `metrics.overlap` per pair, read for BLEU-1, 2 and 4: two profiles
        trainer = make_trainer(tmp_path)
        assert trainer.valid_pairs
        profile = metrics.ngram_profile
        calls = []
        monkeypatch.setattr(metrics, "ngram_profile", lambda *args: calls.append(args) or profile(*args))
        trainer.validate()
        assert len(calls) == 2 * len(trainer.valid_pairs)

    def test_validation_pairs_use_eval_pools(self, tmp_path):
        trainer = make_trainer(tmp_path / "c")
        for pair in trainer.valid_pairs:
            truth = set(
                trainer.corpus.ground_truth_sentences(pair.graph.user_id, pair.graph.item_id, "valid")
            )
            assert truth.isdisjoint(pair.graph.sentence_ids)

    def test_targets_one_for_positives(self, tmp_path):
        trainer = make_trainer(tmp_path / "d")
        for pair in trainer.train_pairs:
            truth = trainer.corpus.ground_truth_sentences(pair.graph.user_id, pair.graph.item_id, "train")
            positives = set(truth) & set(pair.graph.sentence_ids)
            assert positives
            for sid in positives:
                idx = pair.graph.sentence_ids.index(sid)
                assert pair.targets[idx] == pytest.approx(1.0, abs=1e-12)

    def test_train_labels(self, tmp_path):
        records = [
            cp.RawRecord("u0", "c0", 5.0, "The room was big. The pool was warm.", 0),
            cp.RawRecord("u1", "c0", 5.0, "The staff were kind.", 1),
            cp.RawRecord("u0", "c1", 5.0, "The room was ok.", 2),
        ]
        trainer = make_trainer(tmp_path, corpus=cp.build_corpus(records, LEX, 1, (1.0, 0.0, 0.0), 0), epochs=1)
        pair = next(p for p in trainer.train_pairs if (p.graph.user_id, p.graph.item_id) == ("u0", "c0"))
        labels = dict(zip(pair.graph.attribute_ids, pair.attr_labels))
        assert labels[0] == 1.0 and labels[3] == 1.0  # room, pool in target
        assert labels[1] == 0.0  # staff only in the other user's review

    def test_attr_labels_mark_attributes_of_target_sentences(self, tmp_path):
        trainer = make_trainer(tmp_path)
        for pair in trainer.train_pairs:
            truth = trainer.corpus.ground_truth_sentences(pair.graph.user_id, pair.graph.item_id, "train")
            mentioned = set().union(*(trainer.corpus.sentences[s].attributes for s in truth))
            want = [1.0 if a in mentioned else 0.0 for a in pair.graph.attribute_ids]
            assert pair.attr_labels.tolist() == want
            assert 0.0 < pair.attr_labels.sum() <= len(want)

    def test_valid_pairs_have_no_labels(self, tmp_path):
        trainer = make_trainer(tmp_path)
        assert trainer.valid_pairs
        assert all(pair.attr_labels is None and pair.targets is None for pair in trainer.valid_pairs)
