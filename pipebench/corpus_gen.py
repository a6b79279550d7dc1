"""Seeded review corpora for the pipeline benchmark.

Users prefer some attributes and items have some attributes.  A review of
(user, item) writes one sentence per mentioned attribute, built around that
attribute's fixed phrase, so a held-out review shares n-grams with the
training sentences of the same user or item that mention the same
attributes; the quality metrics are therefore non-zero and carry signal.

Besides the reviews the pipeline keeps, the generator writes a tail that
preprocessing must filter out: one-off reviewers (activity filter), reviews
rated at or below the threshold (rating filter), attribute-free sentences
and whole attribute-free reviews (tagging).

The corpus *layout* -- which items each user reviews, which attributes each
user, item and sentence has, sentence lengths, noise, order, ratings, where
each tail record sits in the file -- is drawn from a generator fixed per
shape, so every seed gives the pipeline the same work and timings differ
across seeds only by measurement noise.  The seed draws the spelling of
every word and the word and sentence vectors, so the seeds differ in tokens,
tf-idf weights and embeddings, and hence in what the model learns and
selects.  The same seed gives the same bytes.

Word and sentence vector files are derived from the processed corpus after
preprocessing, as a real deployment would take them from an embedding
model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

RATING_THRESHOLD = 3
STRUCTURE_SEED = 2202

_ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch", "sh", "tr", "pl"]
_VOWELS = ["a", "e", "i", "o", "u", "ai", "ou"]


@dataclass(frozen=True)
class CorpusShape:
    """Sizes and text statistics of one generated corpus."""

    users: int
    items: int
    reviews_per_user: int  # distinct items per user, at most `items`
    attributes: int
    attrs_per_item: int
    attrs_per_user: int
    filler_words: int
    sentences_per_review: tuple[int, int]  # attribute sentences, inclusive range
    phrase_noise: float  # per-word chance a phrase word is swapped for filler
    padding_words: tuple[int, int]  # filler words around each phrase
    second_attr: float  # chance a sentence also mentions a second attribute
    tail_one_off_users: int
    tail_low_ratings: int
    tail_attr_free_reviews: int
    attr_free_sentences: tuple[int, int]  # per kept review


def _words(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    out = []
    while len(out) < count:
        syllables = int(rng.integers(2, 4))
        word = "".join(
            _ONSETS[int(rng.integers(len(_ONSETS)))] + _VOWELS[int(rng.integers(len(_VOWELS)))]
            for _ in range(syllables)
        )
        if word not in taken:
            taken.add(word)
            out.append(word)
    return out


def _deal_items(rng: np.random.Generator, shape: CorpusShape) -> list[list[int]]:
    """Items each user reviews, dealt from concatenated permutations so every
    item receives nearly the same number of reviews."""
    stream: list[int] = []
    out = []
    for _ in range(shape.users):
        mine: list[int] = []
        while len(mine) < shape.reviews_per_user:
            if not stream:
                stream = [int(i) for i in rng.permutation(shape.items)]
            pos = next((p for p, c in enumerate(stream) if c not in mine), None)
            if pos is None:  # every remaining slot repeats an item this user has
                stream.extend(int(i) for i in rng.permutation(shape.items))
                continue
            mine.append(stream.pop(pos))
        out.append(sorted(mine))
    return out


class _Writer:
    def __init__(self, shape: CorpusShape, rng: np.random.Generator, spelling: np.random.Generator):
        self.shape = shape
        self.rng = rng
        taken: set[str] = set()
        self.attrs = _words(spelling, shape.attributes, taken)
        self.filler = _words(spelling, shape.filler_words, taken)
        # each attribute's fixed phrase "<attr> <w1> <w2> <w3> <w4>"; no two
        # phrases share a word
        picks = rng.choice(len(self.filler), size=(len(self.attrs), 4), replace=False)
        self.phrases = [[a] + [self.filler[int(i)] for i in row] for a, row in zip(self.attrs, picks)]

    def _fill(self, lo_hi: tuple[int, int]) -> list[str]:
        n = int(self.rng.integers(lo_hi[0], lo_hi[1] + 1))
        return [self.filler[int(i)] for i in self.rng.integers(len(self.filler), size=n)]

    def _phrase(self, attr: int) -> list[str]:
        words = list(self.phrases[attr])
        for k in range(1, len(words)):
            if self.rng.random() < self.shape.phrase_noise:
                words[k] = self.filler[int(self.rng.integers(len(self.filler)))]
        return words

    def review_text(self, plan: list[tuple[int, ...]], free: int) -> str:
        """One sentence per planned attribute tuple, plus `free` attribute-free
        sentences, in random order."""
        sents = []
        for attrs in plan:
            words = self._fill(self.shape.padding_words) + self._phrase(attrs[0])
            for extra in attrs[1:]:
                words += ["and"] + self._phrase(extra)
            sents.append(" ".join(words + self._fill(self.shape.padding_words)) + ".")
        sents += [" ".join(self._fill((4, 9))) + "." for _ in range(free)]
        order = self.rng.permutation(len(sents))
        return " ".join(sents[int(i)] for i in order)


def _plan(st: np.random.Generator, shape: CorpusShape, topics: list[int], fallback: list[int]):
    """Attributes of each sentence of one review, and its attribute-free count."""
    lo, hi = shape.sentences_per_review
    plan = []
    for _ in range(int(st.integers(lo, hi + 1))):
        pool = topics if topics and st.random() < 0.7 else fallback
        attr = pool[int(st.integers(len(pool)))]
        others = [a for a in fallback if a != attr]
        if others and st.random() < shape.second_attr:
            plan.append((attr, others[int(st.integers(len(others)))]))
        else:
            plan.append((attr,))
    lo, hi = shape.attr_free_sentences
    return plan, int(st.integers(lo, hi + 1))


def write_corpus(shape: CorpusShape, seed: int, out_dir) -> dict:
    """Write reviews.jsonl and lexicon.txt under `out_dir`; returns counts."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    st = np.random.default_rng(STRUCTURE_SEED)
    item_attrs = [
        sorted(int(a) for a in st.choice(shape.attributes, shape.attrs_per_item, replace=False))
        for _ in range(shape.items)
    ]
    user_attrs = [
        set(int(a) for a in st.choice(shape.attributes, shape.attrs_per_user, replace=False))
        for _ in range(shape.users)
    ]
    # (user, item, kind, sentence plan, attribute-free sentences); kind 0 is
    # kept, 1 a one-off reviewer, 2 a low rating, 3 an attribute-free review
    layout = []
    for u, items in enumerate(_deal_items(st, shape)):
        for c in items:
            topics = [a for a in item_attrs[c] if a in user_attrs[u]]
            layout.append((f"u{u}", c, 0, *_plan(st, shape, topics, item_attrs[c])))
    kept = len(layout)
    for k in range(shape.tail_one_off_users):
        c = int(st.integers(shape.items))
        layout.append((f"x{k}", c, 1, *_plan(st, shape, [], item_attrs[c])))
    for _ in range(shape.tail_low_ratings):
        u, c = int(st.integers(shape.users)), int(st.integers(shape.items))
        layout.append((f"u{u}", c, 2, *_plan(st, shape, [], item_attrs[c])))
    for _ in range(shape.tail_attr_free_reviews):
        u, c = int(st.integers(shape.users)), int(st.integers(shape.items))
        layout.append((f"u{u}", c, 3, [], int(st.integers(1, 4))))
    order = st.permutation(len(layout))

    w = _Writer(shape, st, np.random.default_rng([seed, STRUCTURE_SEED]))
    with open(out_dir / "reviews.jsonl", "w", encoding="utf-8") as fh:
        for i in order:
            user, c, kind, plan, free = layout[int(i)]
            low, high = (1, RATING_THRESHOLD) if kind == 2 else (RATING_THRESHOLD + 1, 5)
            rec = {"user_id": user, "item_id": f"i{c}", "rating": int(st.integers(low, high + 1)),
                   "text": w.review_text(plan, free)}
            fh.write(json.dumps(rec) + "\n")
    (out_dir / "lexicon.txt").write_text("".join(a + "\n" for a in w.attrs), encoding="utf-8")
    return {"records": len(layout), "main_reviews": kept}


def _token_rng(seed: int, kind: str, key: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{kind}:{key}".encode()).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:8], "little")])


def _write_vectors(path: Path, keys: list[str], vectors: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{vectors.shape[0]} {vectors.shape[1]}\n")
        for key, row in zip(keys, vectors):
            fh.write(key + " " + " ".join(f"{v:.8g}" for v in row) + "\n")


def write_vectors(sentences: dict[str, tuple[str, ...]], lexicon: list[str], hidden: int,
                  sentence_dim: int, seed: int, out_dir) -> tuple[Path, Path]:
    """Word vectors (dim `hidden`) for every token of the processed corpus and
    sentence vectors (dim `sentence_dim`) per processed sentence id.

    Word vectors are stable pseudo-random draws per token.  A sentence vector
    adds a direction per attribute it mentions to a projection of its mean
    word vector, so sentences about the same attribute lie close together.
    """
    out_dir = Path(out_dir)
    tokens = sorted({t for words in sentences.values() for t in words})
    word = {t: _token_rng(seed, "word", t).normal(scale=0.5, size=hidden) for t in tokens}
    word_path = out_dir / "word_vectors.txt"
    _write_vectors(word_path, tokens, np.stack([word[t] for t in tokens]))

    attrs = set(lexicon)
    direction = {a: _token_rng(seed, "attr", a).normal(size=sentence_dim) for a in attrs}
    proj = np.random.default_rng([seed, 3]).normal(scale=hidden ** -0.5, size=(sentence_dim, hidden))
    sids = sorted(sentences)
    rows = np.zeros((len(sids), sentence_dim))
    for i, sid in enumerate(sids):
        words = sentences[sid]
        rows[i] = proj @ np.mean([word[t] for t in words], axis=0)
        for a in sorted(attrs.intersection(words)):
            rows[i] += direction[a]
        rows[i] += _token_rng(seed, "sent", sid).normal(scale=0.05, size=sentence_dim)
    sent_path = out_dir / "sentence_vectors.txt"
    _write_vectors(sent_path, sids, rows)
    return word_path, sent_path
