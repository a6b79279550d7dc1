"""Relevance targets, the multi-task loss, Adam, and the training loop.

Supervision: each candidate sentence's relevance target is its best
smoothed sentence-BLEU against the target review's sentences, so target
sentences themselves sit at exactly 1.  Ranking uses a pairwise logistic
loss over sampled candidate pairs with distinct targets; attribute nodes
get a balanced binary cross-entropy term, with both the positive and the
negative class.  The combined objective is
lambda * rank_loss + (1 - lambda) * attribute_loss, minimized with
bias-corrected Adam at beta1 0.9, beta2 0.999 and eps 1e-8 (Kingma & Ba
2015).  Validation scores the top K sentences by descending score, K being
`selection.k`.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import metrics
from .archive import load_tensors, save_tensors
from .corpus import Corpus, EmptyPoolError
from .features import GraphInputs, NodeFeatureProvider, graph_inputs
from .graphs import PairGraph, build_pair_graph
from .model import Model, ModelConfig
from .selector import SelectConfig

log = logging.getLogger(__name__)

TIE_TOL = 1e-6
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(Exception):
    pass


@dataclass
class TrainConfig:
    lam: float = 0.5
    batch_size: int = 16
    learning_rate: float = 2e-4
    epochs: int = 50
    pair_budget: int = 200
    patience: int = 10


def relevance_targets(candidates, ground_truth, profiles: dict | None = None) -> np.ndarray:
    """Max smoothed sentence-BLEU of each candidate against the target
    review's sentences.  `candidates`/`ground_truth` are lists of word
    tuples.  `profiles` memoises each sentence's n-gram profile, keyed on
    its words; the trainer passes one memo per split it assembles and drops
    it afterwards, so a sentence that recurs across pools is counted once.
    """
    if not ground_truth:
        raise TrainingError("relevance targets need a non-empty ground truth")
    if profiles is None:
        profiles = {}

    def profile(words):
        words = tuple(words)
        found = profiles.get(words)
        if found is None:
            found = profiles[words] = metrics.ngram_profile(words)
        return found

    refs = [profile(g) for g in ground_truth]
    return np.array(
        [max(metrics.profile_bleu(profile(c), r) for r in refs) for c in candidates]
    )


def sample_rank_pairs(
    targets: np.ndarray, budget: int, rng: np.random.Generator, tol: float = TIE_TOL
) -> np.ndarray:
    """Unordered candidate pairs with |r_i - r_j| > tol, uniformly sampled
    down to `budget`.  Shape (P, 2).
    """
    n = targets.shape[0]
    diff = np.abs(targets[:, None] - targets[None, :])
    ii, jj = np.where(np.triu(diff > tol, k=1))
    pairs = np.stack([ii, jj], axis=1) if ii.size else np.zeros((0, 2), dtype=np.int64)
    if pairs.shape[0] <= budget:
        return pairs
    pick = rng.choice(pairs.shape[0], size=budget, replace=False)
    return pairs[np.sort(pick)]


def pairwise_rank_loss(
    scores: np.ndarray, targets: np.ndarray, pairs: np.ndarray, tol: float = TIE_TOL
) -> tuple[float, np.ndarray]:
    """Mean logistic ranking loss over the given pairs and its gradient on
    the scores.  A pair oriented so the higher-target side leads
    contributes -log sigmoid(g_hi - g_lo); ties (within tol) contribute 0,
    and swapping a pair's order changes nothing.
    """
    if pairs.shape[0] == 0:
        return 0.0, np.zeros_like(scores)
    i = pairs[:, 0]
    j = pairs[:, 1]
    sign = np.where(targets[i] - targets[j] > tol, 1.0, np.where(targets[j] - targets[i] > tol, -1.0, 0.0))
    d = sign * (scores[i] - scores[j])
    live = sign != 0.0
    # -log sigmoid(d) = softplus(-d)
    loss_terms = np.where(live, np.logaddexp(0.0, -d), 0.0)
    count = int(live.sum())
    if count == 0:
        return 0.0, np.zeros_like(scores)
    # d/d(g_i) of softplus(-sign*(g_i - g_j)) = -sign * sigmoid(-sign*(g_i-g_j))
    coeff = np.where(live, -sign / (1.0 + np.exp(d)), 0.0) / count
    # bincount adds in array order: every i term, then every j term
    grad = np.bincount(
        np.concatenate([i, j]), weights=np.concatenate([coeff, -coeff]), minlength=scores.shape[0]
    )
    return float(loss_terms.sum() / count), grad


def attribute_loss(probs: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean balanced attribute cross-entropy and its gradient on the
    probabilities: -y*log(p) - (1-y)*log(1-p).  Without the negative-class
    term the loss is minimized by pushing every probability to 1.
    """
    m = probs.shape[0]
    if m == 0:
        return 0.0, np.zeros(0)
    p = np.clip(probs, 1e-12, 1.0 - 1e-12)
    y = labels
    loss = -(y * np.log(p)) - (1.0 - y) * np.log(1.0 - p)
    grad = -(y / p) + (1.0 - y) / (1.0 - p)
    return float(loss.sum() / m), grad / m


def combined_loss(rank: float, attr: float, lam: float) -> float:
    return lam * rank + (1.0 - lam) * attr


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def init(cls, params: dict[str, np.ndarray]) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0,
        )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name!r} at step {t}")
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1.0 - ADAM_BETA1**t)
        v_hat = state.v[name] / (1.0 - ADAM_BETA2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


@dataclass
class TrainPair:
    user_id: str
    item_id: str
    graph: PairGraph
    inputs: GraphInputs
    targets: np.ndarray | None  # None for validation pairs
    truth_words: list[tuple[str, ...]]


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    rank_loss: float
    attr_loss: float
    val_bleu1: float
    val_bleu2: float
    val_bleu4: float


class Trainer:
    """Drives optimization with validation-based model selection.

    Deterministic for a fixed seed: epoch shuffles and per-graph pair
    samples draw from generators keyed by (seed, epoch[, position]), so a
    resumed run retraces the original trajectory bit for bit.
    """

    def __init__(
        self,
        corpus: Corpus,
        provider: NodeFeatureProvider,
        model_cfg: ModelConfig,
        train_cfg: TrainConfig,
        workdir,
        seed: int = 0,
        config_hash: str = "",
        k: int = SelectConfig.k,
    ):
        self.corpus = corpus
        self.provider = provider
        self.train_cfg = train_cfg
        self.seed = seed
        self.k = k
        self.workdir = Path(workdir)
        self.config_hash = config_hash
        self.user_rows = {u: i for i, u in enumerate(corpus.users)}
        self.item_rows = {c: i for i, c in enumerate(corpus.items)}
        self.model = Model(
            model_cfg, len(corpus.users), len(corpus.items), provider.sentence_dim
        )
        self.params = self.model.init_params(seed)
        self.adam = AdamState.init(self.params)
        self.start_epoch = 0
        self.best: EpochRecord | None = None

        self.train_pairs = self._assemble("train")
        self.valid_pairs = self._assemble("valid")
        if not self.train_pairs:
            raise TrainingError("no usable training pairs")

    def _assemble(self, part: str) -> list[TrainPair]:
        mode = "train" if part == "train" else "eval"
        out: list[TrainPair] = []
        skipped = 0
        profiles: dict = {}
        for user_id, item_id in self.corpus.pairs(part):
            truth_ids = self.corpus.ground_truth_sentences(user_id, item_id, part)
            truth_words = [self.corpus.sentences[s].words for s in truth_ids]
            if not truth_words:
                skipped += 1
                continue
            try:
                graph = build_pair_graph(self.corpus, user_id, item_id, mode)
            except EmptyPoolError:
                skipped += 1
                continue
            inputs = graph_inputs(
                graph, self.corpus, self.provider,
                self.user_rows[user_id], self.item_rows[item_id],
            )
            targets = None
            if part == "train":
                cand_words = [self.corpus.sentences[s].words for s in graph.sentence_ids]
                targets = relevance_targets(cand_words, truth_words, profiles)
            out.append(TrainPair(user_id, item_id, graph, inputs, targets, truth_words))
        if skipped:
            log.warning("%s: skipped %d pairs with empty pools or ground truth", part, skipped)
        return out

    # -- one graph ----------------------------------------------------------

    def _graph_loss(self, pair: TrainPair, rng: np.random.Generator, grads: dict[str, np.ndarray]):
        """Loss terms of one graph; its gradient is added into `grads`."""
        cfg = self.train_cfg
        trace = self.model.forward(pair.graph, pair.inputs, self.params)
        pairs = sample_rank_pairs(pair.targets, cfg.pair_budget, rng)
        l_rank, d_scores = pairwise_rank_loss(trace.scores, pair.targets, pairs)
        l_attr, d_probs = attribute_loss(trace.attr_probs, pair.graph.attr_labels)
        loss = combined_loss(l_rank, l_attr, cfg.lam)
        self.model.backward(trace, self.params, cfg.lam * d_scores, (1.0 - cfg.lam) * d_probs, grads)
        return loss, l_rank, l_attr

    # -- validation ---------------------------------------------------------

    def validate(self) -> tuple[float, float, float]:
        """Macro smoothed BLEU-{1,2,4} of the top-K scored sentences (by
        descending score, K = `self.k`) against the held-out review, over
        valid pairs.
        """
        if not self.valid_pairs:
            return 0.0, 0.0, 0.0
        sums = [0.0, 0.0, 0.0]
        for pair in self.valid_pairs:
            trace = self.model.forward(pair.graph, pair.inputs, self.params)
            top = np.argsort(-trace.scores, kind="stable")[: self.k]
            cand = [w for idx in top for w in self.corpus.sentences[pair.graph.sentence_ids[idx]].words]
            ref = [w for words in pair.truth_words for w in words]
            for slot, max_n in enumerate((1, 2, 4)):
                sums[slot] += metrics.sentence_bleu(cand, ref, max_n=max_n)
        n = len(self.valid_pairs)
        return sums[0] / n, sums[1] / n, sums[2] / n

    # -- training loop ------------------------------------------------------

    def run(self) -> EpochRecord:
        cfg = self.train_cfg
        ckpt_dir = self.workdir / "checkpoints"
        ckpt_dir.mkdir(parents=True, exist_ok=True)
        log_path = self.workdir / "train_log.txt"
        mode = "a" if self.start_epoch > 0 else "w"
        with open(log_path, mode, encoding="utf-8") as fh:
            if self.start_epoch == 0:
                fh.write("# epoch train_loss rank_loss attr_loss val_bleu1 val_bleu2 val_bleu4\n")
                fh.write(f"# validation: smoothed sentence BLEU of descending-score top-{self.k} vs ground truth; model selected on BLEU-4\n")
            for epoch in range(self.start_epoch, cfg.epochs):
                order = np.random.default_rng([self.seed, 1, epoch]).permutation(len(self.train_pairs))
                losses, rank_losses, attr_losses = [], [], []
                for start in range(0, len(order), cfg.batch_size):
                    batch = order[start : start + cfg.batch_size]
                    acc = self.model.zero_grads(self.params)
                    for pos in batch:
                        rng = np.random.default_rng([self.seed, 2, epoch, int(pos)])
                        loss, l_rank, l_attr = self._graph_loss(self.train_pairs[pos], rng, acc)
                        losses.append(loss)
                        rank_losses.append(l_rank)
                        attr_losses.append(l_attr)
                    for name in acc:
                        acc[name] /= len(batch)
                    adam_step(self.params, acc, self.adam, cfg.learning_rate)
                b1, b2, b4 = self.validate()
                if not all(math.isfinite(v) for v in (b1, b2, b4)):
                    raise TrainingError(f"validation BLEU is not finite at epoch {epoch}")
                record = EpochRecord(
                    epoch=epoch,
                    loss=float(np.mean(losses)),
                    rank_loss=float(np.mean(rank_losses)),
                    attr_loss=float(np.mean(attr_losses)),
                    val_bleu1=b1,
                    val_bleu2=b2,
                    val_bleu4=b4,
                )
                line = (
                    f"{record.epoch} {record.loss:.10g} {record.rank_loss:.10g} "
                    f"{record.attr_loss:.10g} {record.val_bleu1:.10g} "
                    f"{record.val_bleu2:.10g} {record.val_bleu4:.10g}"
                )
                fh.write(line + "\n")
                fh.flush()
                if self.best is None or record.val_bleu4 > self.best.val_bleu4:
                    self.best = record
                self._save_checkpoint(ckpt_dir / f"epoch_{epoch}.ntar", record)
                if epoch - self.best.epoch > cfg.patience:
                    log.info("early stop at epoch %d (patience %d)", epoch, cfg.patience)
                    break
        best_doc = {
            "epoch": self.best.epoch,
            "metric": self.best.val_bleu4,
            "checkpoint": f"epoch_{self.best.epoch}.ntar",
            "config_hash": self.config_hash,
        }
        (ckpt_dir / "best.json").write_text(json.dumps(best_doc, sort_keys=True), encoding="utf-8")
        return self.best

    # -- checkpointing ------------------------------------------------------

    def _save_checkpoint(self, path, record: EpochRecord) -> None:
        tables = (("param", self.params), ("adam.m", self.adam.m), ("adam.v", self.adam.v))
        tensors = {f"{prefix}.{name}": t for prefix, table in tables for name, t in table.items()}
        meta = {
            "epoch": record.epoch,
            "adam_t": self.adam.t,
            "best": asdict(self.best),
            "val_bleu4": record.val_bleu4,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "n_users": len(self.corpus.users),
            "n_items": len(self.corpus.items),
        }
        save_tensors(path, tensors, meta)

    def load_checkpoint(self, path) -> None:
        """Resume from a checkpoint: parameters, Adam state, epoch and best
        record.  The metadata must hold `adam_t` and `epoch` as integers and
        `best` as an object with exactly `EpochRecord`'s fields.
        """
        tensors, meta = load_tensors(path)
        if self.config_hash and meta.get("config_hash") and meta["config_hash"] != self.config_hash:
            raise TrainingError(
                f"checkpoint config hash {meta['config_hash']} does not match current config"
            )
        for key, kind in (("adam_t", int), ("epoch", int), ("best", dict)):
            value = meta.get(key)
            if not isinstance(value, kind) or isinstance(value, bool):
                raise TrainingError(f"checkpoint metadata {key!r} missing or not {kind.__name__}")
        record_fields = sorted(f.name for f in fields(EpochRecord))
        if sorted(meta["best"]) != record_fields:
            raise TrainingError(
                f"checkpoint metadata 'best' has fields {sorted(meta['best'])}, not {record_fields}"
            )
        self.params.update(checkpoint_params(tensors, self.params, "param"))
        self.adam.m = checkpoint_params(tensors, self.params, "adam.m")
        self.adam.v = checkpoint_params(tensors, self.params, "adam.v")
        self.adam.t = meta["adam_t"]
        self.start_epoch = meta["epoch"] + 1
        self.best = EpochRecord(**meta["best"])


def checkpoint_params(tensors: dict[str, np.ndarray], like: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """The checkpoint's `<prefix>.*` tensors (`param`, `adam.m` or
    `adam.v`), one per entry of `like` and of the same shape; anything else
    means the checkpoint belongs to another model config.
    """
    params = {}
    for name, p in like.items():
        key = f"{prefix}.{name}"
        if key not in tensors or tensors[key].shape != p.shape:
            raise TrainingError(f"checkpoint tensor {key!r} missing or misshapen")
        params[name] = tensors[key]
    return params
