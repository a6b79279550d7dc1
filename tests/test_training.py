import math

import numpy as np
import pytest

from recexplain import corpus as cp
from recexplain import training as tr
from recexplain.features import EmbeddingTable, NodeFeatureProvider
from recexplain.model import ModelConfig

from oracles import bleu_oracle


class TestRelevanceTargets:
    def test_member_of_ground_truth_is_one(self):
        gt = [("the", "room", "was", "clean"), ("staff", "were", "kind")]
        targets = tr.relevance_targets([gt[0], ("totally", "different", "words")], gt)
        assert targets[0] == pytest.approx(1.0, abs=1e-15)

    def test_no_overlap_is_floor(self):
        gt = [("aaa", "bbb", "ccc")]
        targets = tr.relevance_targets([("x", "y", "z")], gt)
        assert targets[0] < 0.01

    def test_max_over_ground_truth(self):
        cand = ("the", "cat", "sat")
        gt = [("the", "cat", "ate"), ("the", "cat", "sat", "down")]
        want = max(bleu_oracle(list(cand), [list(g)]) for g in gt)
        got = tr.relevance_targets([cand], list(gt))[0]
        assert got == pytest.approx(want, abs=1e-12)

    def test_cacheable_deterministic(self):
        gt = [("a", "b", "c")]
        cands = [("a", "b"), ("c", "d"), ("a", "b", "c")]
        a = tr.relevance_targets(cands, gt)
        b = tr.relevance_targets(cands, gt)
        assert np.array_equal(a, b)

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(tr.TrainingError):
            tr.relevance_targets([("a",)], [])


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

    def test_all_pairs_mode(self):
        targets = np.array([0.1, 0.5, 0.9])
        pairs = tr.sample_rank_pairs(targets, 1, np.random.default_rng(0), all_pairs=True)
        assert pairs.shape == (3, 2)


class TestAttributeLoss:
    def test_all_negative_unbalanced_zero(self):
        loss, grad = tr.attribute_loss(np.array([0.3, 0.9]), np.array([0.0, 0.0]), balanced=False)
        assert loss == 0.0 and np.all(grad == 0.0)

    def test_perfect_positive(self):
        loss, _ = tr.attribute_loss(np.array([1.0 - 1e-13]), np.array([1.0]), balanced=False)
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_half_probability(self):
        loss, _ = tr.attribute_loss(np.array([0.5]), np.array([1.0]), balanced=False)
        assert loss == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_balanced_adds_negative_class(self):
        loss, _ = tr.attribute_loss(np.array([0.5]), np.array([0.0]), balanced=True)
        assert loss == pytest.approx(-math.log(0.5), abs=1e-12)

    def test_gradient_finite_difference(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.05, 0.95, size=5)
        y = rng.integers(0, 2, size=5).astype(float)
        for balanced in (False, True):
            _, grad = tr.attribute_loss(p, y, balanced=balanced)
            eps = 1e-7
            for i in range(5):
                up = p.copy(); up[i] += eps
                dn = p.copy(); dn[i] -= eps
                fd = (tr.attribute_loss(up, y, balanced)[0] - tr.attribute_loss(dn, y, balanced)[0]) / (2 * eps)
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
    return cp.build_corpus(records, LEX, 2, 1000, (0.7, 0.15, 0.15), 3)


def make_provider(corpus, hidden=4, sent_dim=3, seed=0):
    rng = np.random.default_rng(seed)
    vocab_tokens = list(corpus.vocab.tokens)
    word_vecs = rng.normal(size=(len(vocab_tokens), hidden))
    word_table = EmbeddingTable(word_vecs, index={t: i for i, t in enumerate(vocab_tokens)})
    sids = sorted(corpus.sentences)
    sent_vecs = rng.normal(size=(len(sids), sent_dim))
    sent_table = EmbeddingTable(sent_vecs, index={s: i for i, s in enumerate(sids)})
    return NodeFeatureProvider(hidden=hidden, word_table=word_table, sentence_table=sent_table)


def make_trainer(tmp_path, corpus=None, epochs=3, lam=0.5, seed=1):
    corpus = corpus or tiny_corpus()
    provider = make_provider(corpus)
    model_cfg = ModelConfig(hidden=4, gat_heads=(2, 1), deep_hidden=4)
    train_cfg = tr.TrainConfig(lam=lam, batch_size=4, learning_rate=1e-3, epochs=epochs, pair_budget=20, patience=50)
    return tr.Trainer(corpus, provider, model_cfg, train_cfg, workdir=tmp_path, seed=seed)


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
        resumed.load_checkpoint(tmp_path / "part" / "checkpoints" / "epoch_1.ntar", resume=True)
        resumed.run()

        ref = (tmp_path / "full" / "checkpoints" / "epoch_3.ntar").read_bytes()
        got = (tmp_path / "part" / "checkpoints" / "epoch_3.ntar").read_bytes()
        assert ref == got

    def test_zero_epochs_rejected(self, tmp_path):
        with pytest.raises(tr.TrainingError, match="epochs"):
            make_trainer(tmp_path, epochs=0)

    def test_resume_from_final_epoch_trains_nothing(self, tmp_path):
        full = make_trainer(tmp_path, epochs=3, seed=2)
        best = full.run()
        ckpt_dir = tmp_path / "checkpoints"
        written = {p.name: p.read_bytes() for p in ckpt_dir.iterdir()}
        log = (tmp_path / "train_log.txt").read_bytes()

        resumed = make_trainer(tmp_path, epochs=3, seed=2)
        resumed.load_checkpoint(ckpt_dir / "epoch_2.ntar", resume=True)
        assert resumed.run() == best
        assert {p.name: p.read_bytes() for p in ckpt_dir.iterdir()} == written
        assert (tmp_path / "train_log.txt").read_bytes() == log

    def test_resume_keeps_early_stop_count(self, tmp_path):
        def trainer(name, epochs):
            out = make_trainer(tmp_path / name, epochs=epochs, seed=2)
            out.train_cfg.patience = 1
            return out

        trainer("full", 8).run()
        trained = len((tmp_path / "full" / "train_log.txt").read_text().splitlines()) - 2
        assert trained < 8  # stopped early, after two epochs without a new best

        trainer("part", trained - 1).run()
        resumed = trainer("part", 8)
        resumed.load_checkpoint(tmp_path / "part" / "checkpoints" / f"epoch_{trained - 2}.ntar", resume=True)
        resumed.run()
        for name in ("train_log.txt", "checkpoints/best.json"):
            assert (tmp_path / "part" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()

    def test_validation_pairs_use_eval_pools(self, tmp_path):
        trainer = make_trainer(tmp_path / "c")
        for pair in trainer.valid_pairs:
            truth = set(
                trainer.corpus.ground_truth_sentences(pair.user_id, pair.item_id, "valid")
            )
            assert truth.isdisjoint(pair.graph.sentence_ids)

    def test_targets_one_for_positives(self, tmp_path):
        trainer = make_trainer(tmp_path / "d")
        for pair in trainer.train_pairs:
            for sid in pair.graph.positives:
                idx = pair.graph.sentence_ids.index(sid)
                assert pair.targets[idx] == pytest.approx(1.0, abs=1e-12)
