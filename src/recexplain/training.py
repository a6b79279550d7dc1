"""Relevance targets, the multi-task loss, Adam, and the training loop.

Supervision: each candidate sentence's relevance target is its best
smoothed sentence-BLEU against the target review's sentences, so target
sentences themselves sit at exactly 1.  Ranking uses a pairwise logistic
loss over candidate pairs with distinct targets, of which each graph
draws at most `PAIR_BUDGET` uniformly per epoch; attribute nodes
get a balanced binary cross-entropy term, with both the positive and the
negative class.  The combined objective is
lambda * rank_loss + (1 - lambda) * attribute_loss, minimized with
bias-corrected Adam at beta1 0.9, beta2 0.999 and eps 1e-8 (Kingma & Ba
2015).  Validation scores the top K sentences by descending score, K being
`selection.k`.

`Trainer` owns a train pair's supervision: it computes the relevance
targets and the attribute labels from the pair's ground-truth sentences
and builds each `TrainPair` with them.  A validation pair is a
`ValidPair`, which holds the held-out review's words, joined once, in
their place.  Both records are frozen.  Training needs at least one
validation pair, since without one no epoch could become best.

Chunks.  A minibatch runs as chunks of consecutive graphs
(`model.readout_chunks`, at most `model.READOUT_ROWS` sentence rows each):
one forward and one backward per chunk, each graph's losses taken on its
slice of the chunk's scores, its rank pairs still drawn from the
generator keyed by (seed, 2, epoch, position), and the loss terms kept
in batch order.  `_batch_loss` is the one caller outside the model that
holds a trace: it drops each chunk's trace before the next forward, since
two chunks' attention traces at once raised peak RSS on the benchmark's
sparse pools by about 3 MB.  Validation needs no backward, so it scores
through `Model.scores`, which runs the same chunks and drops each trace
before it yields a score.  The chunks depend only on the batch, so a
resumed run forms the same ones and retraces the uninterrupted run bit
for bit; another chunk bound changes a batch's gradient by rounding only.

Checkpoints.  Every epoch replaces `checkpoints/last.ntar`, the resume
point; an epoch with a new best BLEU-4 first replaces `checkpoints/best.ntar`
with the same bytes.  Each replace is atomic (`archive.save_tensors`), and
a run killed between the two retraces that epoch when resumed from last.
A checkpoint holds the parameters (`param.*`), Adam's moments (`adam.m.*`,
`adam.v.*`) and the provider's node input tables (`feature.attr`, and
`feature.sent` in `Corpus.sentence_rows` order), which select scores with
instead of re-reading the vector files (`checkpoint_provider` checks them
against the corpus); its metadata holds the epoch, Adam's step count, the
best record and the train config hash.  A `Trainer` given `resume=`, a
checkpoint, takes its parameters, Adam's moments and step count, start
epoch and best record from it (`_resume_state`); only a fresh run
draws parameters (`Model.init_params`) and zero moments.  Resume skips
the tables, unread (`archive.load_tensors` with prefixes); they come from the
vector files again (`features.provider_from_vectors`), whose digests the
hash covers.  Select reads the parameters and the tables and skips Adam's
moments.
"""

from __future__ import annotations

import functools
import logging
import math
from collections.abc import Iterator
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path

import numpy as np

from . import metrics
from .archive import load_tensors, save_tensors
from .corpus import Corpus
from .features import GraphInputs, NodeFeatureProvider, graph_inputs
from .graphs import EmptyPoolError, PairGraph, build_pair_graph
from .metrics import MAX_N
from .model import Model, ModelConfig, readout_chunks

log = logging.getLogger(__name__)

TIE_TOL = 1e-6
PAIR_BUDGET = 200  # most rank pairs one train graph draws in one epoch
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
EXP_MAX = float(np.log(np.finfo(np.float64).max))  # exp(d) is finite exactly for d <= EXP_MAX

LAST_CHECKPOINT = Path("checkpoints", "last.ntar")  # under the workdir
BEST_CHECKPOINT = Path("checkpoints", "best.ntar")


class TrainingError(Exception):
    pass


@dataclass
class TrainConfig:
    lam: float = 0.5
    batch_size: int = 16
    learning_rate: float = 2e-4
    epochs: int = 50
    patience: int = 10


def _interned(words, key_ids: dict) -> tuple[int, np.ndarray, np.ndarray]:
    """A sentence's length, the ids of its (n-gram, occurrence) keys for
    orders 1..MAX_N, and each key's order minus one.  The t-th repeat of
    gram g within the sentence is the key (g, t); `key_ids` numbers the
    keys of every sentence interned into it."""
    seen: dict = {}
    ids, orders = [], []
    for n in range(1, MAX_N + 1):
        for i in range(len(words) - n + 1):
            gram = words[i : i + n]
            t = seen.get(gram, 0)
            seen[gram] = t + 1
            ids.append(key_ids.setdefault((gram, t), len(key_ids)))
            orders.append(n - 1)
    return len(words), np.array(ids, dtype=np.intp), np.array(orders, dtype=np.intp)


def _clipped_counts(cands, refs, slot: np.ndarray) -> np.ndarray:
    """(n_cand, MAX_N, n_ref) clipped n-gram matches of each interned
    candidate against each interned reference.  `slot` maps every key id to
    -1 and is left that way; here it numbers the references' keys."""
    keys, key_col = np.unique(np.concatenate([k for _, k, _ in refs]), return_inverse=True)
    ref_col = np.repeat(np.arange(len(refs)), [k.size for _, k, _ in refs])
    in_ref = np.zeros((keys.size, len(refs)))
    in_ref[key_col, ref_col] = 1.0
    cand_keys = np.concatenate([k for _, k, _ in cands])
    cand_row = np.concatenate([orders for _, _, orders in cands])
    cand_row += MAX_N * np.repeat(np.arange(len(cands)), [k.size for _, k, _ in cands])
    slot[keys] = np.arange(keys.size)
    col = slot[cand_keys]
    slot[keys] = -1
    hit = col >= 0
    in_cand = np.zeros((MAX_N * len(cands), keys.size))
    in_cand[cand_row[hit], col[hit]] = 1.0
    return (in_cand @ in_ref).astype(np.int64).reshape(len(cands), MAX_N, len(refs))


def relevance_targets(problems) -> list[np.ndarray]:
    """Per (candidates, ground_truth) problem of a split, the max smoothed
    sentence-BLEU of each candidate against the ground truth's sentences;
    both are lists of word tuples.  Every value is the one
    `metrics.sentence_bleu` gives for that candidate and sentence.

    Counting.  Each distinct sentence of the split is interned once, as its
    length and the ids of its (n-gram, occurrence) keys: the t-th repeat of
    gram g within the sentence is the key (g, t), t = 0, 1, ...  A gram
    seen a times in one sentence and b times in another gives them the keys
    (g, 0..a-1) and (g, 0..b-1), which share exactly min(a, b) keys, and
    keys of different grams never coincide.  So the clipped matches of
    order n, the sum of min(a, b) over the grams of order n, are the size
    of the intersection of the two key sets restricted to order n.  Per
    problem, one 0/1 (n_cand * MAX_N, n_keys) @ (n_keys, n_ref) product
    over the ground truth's keys gives every such count.

    Scoring.  `metrics.bleu_from_matches` scores each distinct
    (m1..m4, candidate length, reference length) tuple of the split once.
    """
    if any(not truth for _, truth in problems):
        raise TrainingError("relevance targets need a non-empty ground truth")
    key_ids: dict = {}
    interned: dict = {}
    for cands, truth in problems:
        for words in (*cands, *truth):
            words = tuple(words)
            if words not in interned:
                interned[words] = _interned(words, key_ids)
    slot = np.full(len(key_ids), -1, dtype=np.intp)

    @functools.cache
    def score(cell):
        return metrics.bleu_from_matches(cell[:MAX_N], cell[MAX_N], cell[MAX_N + 1])

    out = []
    for cands, truth in problems:
        cands = [interned[tuple(w)] for w in cands]
        refs = [interned[tuple(w)] for w in truth]
        counts = _clipped_counts(cands, refs, slot)
        n_cand, n_ref = len(cands), len(refs)
        columns = [counts[:, n, :].ravel().tolist() for n in range(MAX_N)]
        columns.append(np.repeat([length for length, _, _ in cands], n_ref).tolist())
        columns.append([length for length, _, _ in refs] * n_cand)
        scores = np.array(list(map(score, zip(*columns))))
        out.append(scores.reshape(n_cand, n_ref).max(axis=1))
    return out


def sample_rank_pairs(targets: np.ndarray, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Unordered candidate pairs with |r_i - r_j| > TIE_TOL, uniformly
    sampled down to `budget`.  Shape (P, 2).
    """
    diff = np.abs(targets[:, None] - targets[None, :])
    ii, jj = np.where(np.triu(diff > TIE_TOL, k=1))
    pairs = np.stack([ii, jj], axis=1) if ii.size else np.zeros((0, 2), dtype=np.int64)
    if pairs.shape[0] <= budget:
        return pairs
    pick = rng.choice(pairs.shape[0], size=budget, replace=False)
    return pairs[np.sort(pick)]


def pairwise_rank_loss(scores: np.ndarray, targets: np.ndarray, pairs: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean logistic ranking loss over the given pairs and its gradient on
    the scores.  A pair oriented so the higher-target side leads
    contributes -log sigmoid(g_hi - g_lo); ties (within TIE_TOL) contribute
    0, and swapping a pair's order changes nothing.
    """
    if pairs.shape[0] == 0:
        return 0.0, np.zeros_like(scores)
    i = pairs[:, 0]
    j = pairs[:, 1]
    sign = np.where(targets[i] - targets[j] > TIE_TOL, 1.0, np.where(targets[j] - targets[i] > TIE_TOL, -1.0, 0.0))
    d = sign * (scores[i] - scores[j])
    live = sign != 0.0
    # -log sigmoid(d) = softplus(-d)
    loss_terms = np.where(live, np.logaddexp(0.0, -d), 0.0)
    count = int(live.sum())
    if count == 0:
        return 0.0, np.zeros_like(scores)
    # d/d(g_i) of softplus(-sign*(g_i - g_j)) = -sign * sigmoid(-d), as
    # 1 / (1 + e^d); where e^d would overflow, sigmoid(-d) is e^-d to rounding
    big = d > EXP_MAX
    sig = 1.0 / (1.0 + np.exp(np.where(big, 0.0, d)))
    sig[big] = np.exp(-d[big])
    coeff = np.where(live, -sign * sig, 0.0) / count
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
        )


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of `params`, `state.m` and `state.v`,
    in place.  Each operation is the textbook expression's, in its order,
    so the bytes are those of

        m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
        p -= lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps).
    """
    state.t += 1
    t = state.t
    correct1 = 1.0 - ADAM_BETA1**t
    correct2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise TrainingError(f"non-finite gradient in {name!r} at step {t}")
        m, v = state.m[name], state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        g2 = (1.0 - ADAM_BETA2) * g
        g2 *= g
        v *= ADAM_BETA2
        v += g2
        den = np.divide(v, correct2, out=g2)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        step = m / correct1
        step *= lr
        step /= den
        p -= step


@dataclass(frozen=True)
class TrainPair:
    graph: PairGraph
    inputs: GraphInputs
    targets: np.ndarray  # (N,) each candidate's relevance target
    attr_labels: np.ndarray  # (M,) 0/1: a target sentence mentions the attribute


@dataclass(frozen=True)
class ValidPair:
    graph: PairGraph
    inputs: GraphInputs
    reference: list[str]  # the held-out review's words, its sentences joined


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
    resumed run retraces the original trajectory bit for bit.  A fresh run
    draws its parameters (`Model.init_params`) and starts Adam at zero; one
    given `resume`, a checkpoint path, takes its parameters, Adam's state,
    start epoch and best record from that checkpoint (`_resume_state`).
    """

    def __init__(
        self,
        corpus: Corpus,
        provider: NodeFeatureProvider,
        model_cfg: ModelConfig,
        train_cfg: TrainConfig,
        workdir,
        config_hash: str,
        seed: int,
        k: int,
        resume=None,
    ):
        self.corpus = corpus
        self.provider = provider
        self.train_cfg = train_cfg
        self.seed = seed
        self.k = k
        self.workdir = Path(workdir)
        self.config_hash = config_hash
        self.model = Model(
            model_cfg, len(corpus.users), len(corpus.items), provider.sentence_dim
        )
        if resume is None:
            params = self.model.init_params(seed)
            state = params, AdamState.init(params), 0, None
        else:
            state = _resume_state(resume, self.model.param_shapes(), config_hash)
        self.params, self.adam, self.start_epoch, self.best = state

        sentences = corpus.sentences
        train = list(self._graphs("train"))
        problems = [
            ([sentences[s].words for s in graph.sentence_ids], [sentences[s].words for s in truth])
            for graph, _, truth in train
        ]
        self.train_pairs: list[TrainPair] = []
        for (graph, inputs, truth), targets in zip(train, relevance_targets(problems)):
            mentioned = set().union(*(sentences[s].attributes for s in truth))
            labels = np.array([1.0 if a in mentioned else 0.0 for a in graph.attribute_ids])
            self.train_pairs.append(TrainPair(graph, inputs, targets, labels))
        self.valid_pairs = [
            ValidPair(graph, inputs, [w for s in truth for w in sentences[s].words])
            for graph, inputs, truth in self._graphs("valid")
        ]
        if not self.train_pairs:
            raise TrainingError("no usable training pairs")

    def _graphs(self, part: str) -> Iterator[tuple[PairGraph, GraphInputs, list[str]]]:
        """Each pair of `part` whose pool is not empty: its graph, its node
        inputs and its ground-truth sentence ids.  The pairs with an empty
        pool are skipped, with one warning once the last pair is yielded."""
        skipped = 0
        for user_id, item_id in self.corpus.pairs(part):
            try:
                graph = build_pair_graph(self.corpus, user_id, item_id)
            except EmptyPoolError:
                skipped += 1
                continue
            yield graph, graph_inputs(graph, self.corpus), self.corpus.ground_truth_sentences(user_id, item_id, part)
        if skipped:
            log.warning("%s: skipped %d pairs with empty pools", part, skipped)

    # -- one batch ----------------------------------------------------------

    def _batch_loss(self, batch, epoch: int) -> tuple[dict[str, np.ndarray], list[tuple[float, float, float]]]:
        """The summed gradient of a batch of train positions and each
        graph's loss terms, in batch order.  The batch runs chunk by chunk
        (`readout_chunks`); each graph's losses are taken on its slice of
        its chunk's scores, its rank pairs drawn from the generator keyed
        by (seed, 2, epoch, position)."""
        cfg = self.train_cfg
        grads = self.model.zero_grads(self.params)
        terms = []
        for chunk in readout_chunks(batch, lambda pos: len(self.train_pairs[pos].graph.sentence_ids)):
            pairs = [self.train_pairs[pos] for pos in chunk]
            trace = self.model.forward([p.graph for p in pairs], [p.inputs for p in pairs], self.params, self.provider)
            d_scores = np.empty_like(trace.scores)
            d_probs = np.empty_like(trace.attr_probs)
            for b, (pos, pair) in enumerate(zip(chunk, pairs)):
                rows, attrs = trace.sentences(b), trace.attributes(b)
                rng = np.random.default_rng([self.seed, 2, epoch, int(pos)])
                rank_pairs = sample_rank_pairs(pair.targets, PAIR_BUDGET, rng)
                l_rank, d_scores[rows] = pairwise_rank_loss(trace.scores[rows], pair.targets, rank_pairs)
                l_attr, d_probs[attrs] = attribute_loss(trace.attr_probs[attrs], pair.attr_labels)
                terms.append((combined_loss(l_rank, l_attr, cfg.lam), l_rank, l_attr))
            self.model.backward(trace, self.params, cfg.lam * d_scores, (1.0 - cfg.lam) * d_probs, grads)
            del trace  # before the next chunk's forward
        return grads, terms

    # -- validation ---------------------------------------------------------

    def validate(self) -> tuple[float, float, float]:
        """Macro smoothed BLEU-{1,2,4} of the top-K scored sentences (by
        descending score, K = `self.k`) against the held-out review, over
        valid pairs; each pair's n-grams are counted once (`metrics.overlap`)
        and read at orders 1, 2 and 4.
        """
        sums = [0.0, 0.0, 0.0]
        items = ((pair.graph, pair.inputs) for pair in self.valid_pairs)
        for pair, (graph, scores) in zip(self.valid_pairs, self.model.scores(items, self.params, self.provider)):
            top = np.argsort(-scores, kind="stable")[: self.k]
            cand = [w for idx in top for w in self.corpus.sentences[graph.sentence_ids[idx]].words]
            cand_len, ref_len, matches = metrics.overlap(cand, pair.reference)
            for slot, max_n in enumerate((1, 2, 4)):
                sums[slot] += metrics.bleu_from_matches(matches[:max_n], cand_len, ref_len)
        n = len(self.valid_pairs)
        return sums[0] / n, sums[1] / n, sums[2] / n

    # -- training loop ------------------------------------------------------

    def run(self) -> EpochRecord:
        """Train from `start_epoch` to `epochs` or the early stop; return the
        best record.  The log keeps only its lines of earlier epochs.
        Without a validation pair no epoch could become best, so that is an
        error naming the cause."""
        if not self.valid_pairs:
            n = len(self.corpus.pairs("valid"))
            cause = f"all {n} have empty pools" if n else "the valid split is empty (see corpus.ratios)"
            raise TrainingError(f"no usable validation pairs: {cause}")
        cfg = self.train_cfg
        (self.workdir / LAST_CHECKPOINT).parent.mkdir(parents=True, exist_ok=True)
        log_path = self.workdir / "train_log.txt"
        done = {str(epoch) for epoch in range(self.start_epoch)}
        old = log_path.read_text(encoding="utf-8") if done and log_path.exists() else ""
        kept = [line for line in old.splitlines(keepends=True) if line.split(" ", 1)[0] in done]
        with open(log_path, "w", encoding="utf-8") as fh:
            fh.write("# epoch train_loss rank_loss attr_loss val_bleu1 val_bleu2 val_bleu4\n")
            fh.write(f"# validation: smoothed sentence BLEU of descending-score top-{self.k} vs ground truth; model selected on BLEU-4\n")
            fh.writelines(kept)
            for epoch in range(self.start_epoch, cfg.epochs):
                if self.best is not None and epoch - 1 - self.best.epoch > cfg.patience:
                    log.info("early stop after epoch %d (patience %d)", epoch - 1, cfg.patience)
                    break
                order = np.random.default_rng([self.seed, 1, epoch]).permutation(len(self.train_pairs))
                terms = []  # a (loss, rank loss, attribute loss) per train pair
                for start in range(0, len(order), cfg.batch_size):
                    batch = order[start : start + cfg.batch_size]
                    acc, batch_terms = self._batch_loss(batch, epoch)
                    terms.extend(batch_terms)
                    for name in acc:
                        acc[name] /= len(batch)
                    adam_step(self.params, acc, self.adam, cfg.learning_rate)
                b1, b2, b4 = self.validate()
                if not all(math.isfinite(v) for v in (b1, b2, b4)):
                    raise TrainingError(f"validation BLEU is not finite at epoch {epoch}")
                loss, rank_loss, attr_loss = (float(np.mean(column)) for column in zip(*terms))
                record = EpochRecord(
                    epoch=epoch,
                    loss=loss,
                    rank_loss=rank_loss,
                    attr_loss=attr_loss,
                    val_bleu1=b1,
                    val_bleu2=b2,
                    val_bleu4=b4,
                )
                fh.write(" ".join(format(value, ".10g") for value in astuple(record)) + "\n")
                fh.flush()
                if self.best is None or record.val_bleu4 > self.best.val_bleu4:
                    self.best = record
                    self._save_checkpoint(self.workdir / BEST_CHECKPOINT, record)
                self._save_checkpoint(self.workdir / LAST_CHECKPOINT, record)
        return self.best

    # -- checkpointing ------------------------------------------------------

    def _save_checkpoint(self, path, record: EpochRecord) -> None:
        tables = (("param", self.params), ("adam.m", self.adam.m), ("adam.v", self.adam.v))
        tensors = {f"{prefix}.{name}": t for prefix, table in tables for name, t in table.items()}
        tensors["feature.attr"] = self.provider.attr_X
        tensors["feature.sent"] = self.provider.sent_X
        meta = {
            "epoch": record.epoch,
            "adam_t": self.adam.t,
            "best": asdict(self.best),
            "config_hash": self.config_hash,
        }
        save_tensors(path, tensors, meta)


def _checkpoint_tensor(tensors: dict[str, np.ndarray], key: str, shape: tuple[int | None, ...]) -> np.ndarray:
    """The checkpoint's tensor `key`, which must be present, of `shape` (a
    None entry allows any size) and finite; anything else is an error
    naming the tensor."""
    tensor = tensors.get(key)
    if tensor is None or tensor.ndim != len(shape) or any(want not in (None, n) for want, n in zip(shape, tensor.shape)):
        raise TrainingError(f"checkpoint tensor {key!r} missing or misshapen; re-run train")
    if not np.all(np.isfinite(tensor)):
        raise TrainingError(f"checkpoint tensor {key!r} holds a non-finite value; re-run train")
    return tensor


def checkpoint_params(tensors: dict[str, np.ndarray], shapes: dict[str, tuple[int, ...]], prefix: str) -> dict[str, np.ndarray]:
    """The checkpoint's `<prefix>.*` tensors (`param`, `adam.m` or
    `adam.v`), one per entry of `shapes` (`Model.param_shapes`) and of that
    shape; anything else means the checkpoint belongs to another model
    config.  A NaN or an infinity is an error naming its tensor.
    """
    return {name: _checkpoint_tensor(tensors, f"{prefix}.{name}", shape) for name, shape in shapes.items()}


def _resume_state(path, shapes: dict[str, tuple[int, ...]], config_hash: str) -> tuple[dict, AdamState, int, EpochRecord]:
    """A checkpoint's parameters, Adam state, start epoch (the saved epoch
    plus one) and best record; `shapes` is `Model.param_shapes`.  The
    metadata must hold `config_hash`, `adam_t` as an integer >= 1 (a saved
    run has taken a step), `epoch` as an integer >= 0, and `best` as an
    object with exactly `EpochRecord`'s fields: `epoch` an integer, the
    others finite numbers (a bool is neither).  The node input tables are
    skipped unread.
    """
    tensors, meta = load_tensors(path, ("param.", "adam."))
    if meta.get("config_hash") != config_hash:
        raise TrainingError(
            f"checkpoint config hash {meta.get('config_hash')!r} does not match "
            f"the current config's {config_hash!r}"
        )
    for key, kind in (("adam_t", int), ("epoch", int), ("best", dict)):
        value = meta.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise TrainingError(f"checkpoint metadata {key!r} missing or not {kind.__name__}")
    for key, least in (("adam_t", 1), ("epoch", 0)):
        if meta[key] < least:
            raise TrainingError(f"checkpoint metadata {key!r} is {meta[key]}, not an int >= {least}")
    record_fields = sorted(f.name for f in fields(EpochRecord))
    if sorted(meta["best"]) != record_fields:
        raise TrainingError(
            f"checkpoint metadata 'best' has fields {sorted(meta['best'])}, not {record_fields}"
        )
    for name in record_fields:
        value = meta["best"][name]
        kind, noun = (int, "an int") if name == "epoch" else ((int, float), "a finite number")
        typed = isinstance(value, kind) and not isinstance(value, bool)
        if not typed or isinstance(value, float) and not math.isfinite(value):
            raise TrainingError(f"checkpoint metadata 'best.{name}' is {value!r}, not {noun}")
    params = checkpoint_params(tensors, shapes, "param")
    m, v = (checkpoint_params(tensors, shapes, f"adam.{moment}") for moment in "mv")
    return params, AdamState(m, v, meta["adam_t"]), meta["epoch"] + 1, EpochRecord(**meta["best"])


def checkpoint_provider(tensors: dict[str, np.ndarray], corpus: Corpus, hidden: int) -> NodeFeatureProvider:
    """The provider over a checkpoint's node input tables.  `feature.attr`
    needs a row per lexicon attribute at width `hidden`, `feature.sent` a
    row per training sentence of `corpus` (in `Corpus.sentence_rows`
    order), and every value must be finite; anything else is an error
    naming the tensor.  The checkpoint's parameters fix the sentence width.
    """
    return NodeFeatureProvider(
        _checkpoint_tensor(tensors, "feature.attr", (len(corpus.lexicon), hidden)),
        _checkpoint_tensor(tensors, "feature.sent", (len(corpus.sentence_rows), None)),
    )
