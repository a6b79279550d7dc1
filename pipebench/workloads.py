"""The benchmark's workloads: a corpus shape plus the pipeline config.

Each workload stresses a different layer, so that an optimisation of one
layer shows on the workload built for it and shows no change on the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from corpus_gen import RATING_THRESHOLD, CorpusShape

# The split and the model's initial weights are fixed, like the corpus
# layout, so that every benchmark seed gives the same work.
PIPELINE_SEED = 0
# One epoch: relevance targets are computed once per run, so more epochs
# would only add model time; the learning rate is above the program's
# default so that one epoch moves the model.
EPOCHS = 1
LEARNING_RATE = 1e-3


@dataclass(frozen=True)
class Workload:
    shape: CorpusShape
    hidden: int
    sentence_dim: int
    min_activity: int
    ratios: tuple[float, float, float]
    selection: dict = field(default_factory=dict)

    def config(self, data_dir: Path, workdir: Path) -> dict:
        """Pipeline config as the program reads it from JSON."""
        return {
            "paths": {
                "reviews": str(data_dir / "reviews.jsonl"),
                "lexicon": str(data_dir / "lexicon.txt"),
                "attribute_vectors": str(data_dir / "word_vectors.txt"),
                "sentence_vectors": str(data_dir / "sentence_vectors.txt"),
                "workdir": str(workdir),
            },
            "corpus": {
                "rating_threshold": RATING_THRESHOLD,
                "min_activity": self.min_activity,
                "ratios": list(self.ratios),
            },
            "model": {"hidden": self.hidden, "deep_hidden": self.hidden},
            "training": {
                "epochs": EPOCHS,
                "patience": EPOCHS,
                "learning_rate": LEARNING_RATE,
            },
            "selection": dict(self.selection),
            "seed": PIPELINE_SEED,
        }


WORKLOADS = {
    # Few items that every user reviews, a narrow model, paper defaults K=5,
    # alpha=2, pool 100.  Pools exceed the 100-candidate cap, so smoothed-BLEU
    # relevance targets dominate train_s; embedding tables are tiny.  Pools
    # also exceed exact_cap, so selection is greedy and the tf-idf matrix
    # dominates select_s: the exact solver's heavy tail on near-flat scores
    # (seconds for some 100-candidate pairs) is select_heavy's to measure.
    # The large test share makes select_s long enough to time.
    "dense_pools": Workload(
        shape=CorpusShape(
            users=64, items=3, reviews_per_user=3, attributes=16,
            attrs_per_item=6, attrs_per_user=6, filler_words=400,
            sentences_per_review=(3, 4), phrase_noise=0.05, padding_words=(1, 3),
            second_attr=0.3, tail_one_off_users=1000, tail_low_ratings=800,
            tail_attr_free_reviews=500, attr_free_sentences=(0, 1),
        ),
        hidden=32, sentence_dim=32, min_activity=3,
        ratios=(0.5, 0.1, 0.4), selection={"exact_cap": 50},
    ),
    # Many users and items with few reviews each, a large tail that
    # preprocessing filters out, and a wide model: forward/backward, the
    # per-graph full-size gradient tables, Adam and checkpoint bytes dominate
    # train_s; targets, tf-idf and the solver are small.  The large test
    # share makes select_s long enough to time.
    "sparse_pools": Workload(
        shape=CorpusShape(
            users=140, items=28, reviews_per_user=3, attributes=60,
            attrs_per_item=8, attrs_per_user=10, filler_words=1500,
            sentences_per_review=(2, 2), phrase_noise=0.05, padding_words=(1, 3),
            second_attr=0.3, tail_one_off_users=3000, tail_low_ratings=2000,
            tail_attr_free_reviews=1500, attr_free_sentences=(1, 2),
        ),
        hidden=128, sentence_dim=64, min_activity=2, ratios=(0.5, 0.1, 0.4),
    ),
    # Serving shape: redundant near-duplicate pools, K=8, a large test share.
    # The model runs forward-only at select time and the exact
    # branch-and-bound solver dominates select_s.  The pool cap bounds the
    # solver's size, so its cost per pair stays within milliseconds.
    "select_heavy": Workload(
        shape=CorpusShape(
            users=40, items=20, reviews_per_user=8, attributes=12,
            attrs_per_item=4, attrs_per_user=4, filler_words=80,
            sentences_per_review=(3, 3), phrase_noise=0.08, padding_words=(0, 1),
            second_attr=0.0, tail_one_off_users=1000, tail_low_ratings=800,
            tail_attr_free_reviews=500, attr_free_sentences=(0, 1),
        ),
        hidden=32, sentence_dim=32, min_activity=4,
        ratios=(0.4, 0.2, 0.4), selection={"k": 8, "pool": 16},
    ),
}
