"""Review corpus preprocessing.

Raw reviews (JSON lines with user_id, item_id, rating, text) are filtered
by rating, segmented into sentences, tokenized, tagged with lexicon
attributes, pruned of attribute-free sentences, activity-filtered to a
fixpoint, split into train/valid/test, and indexed for candidate-pool
lookups.  Everything is deterministic given (input files, seed).
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

UNK_TOKEN = "<unk>"


class CorpusError(Exception):
    pass


class EmptyPoolError(CorpusError):
    """Raised when a (user, item) pair has no candidate sentences."""


# Sentence boundaries sit after terminal punctuation followed by whitespace.
# Tokens are lowercase word/number runs (apostrophes kept inside words) or
# single punctuation marks.  Deliberately simple and reproducible;
# abbreviation-aware splitting is out of scope.
_BOUNDARY = re.compile(r"(?<=[.!?])\s+")
_TOKEN = re.compile(r"[a-z0-9']+|[^\sa-z0-9']")


def segment_and_tokenize(text: str) -> list[list[str]]:
    """Split text into sentences and tokenize each; empty text gives []."""
    out = []
    for chunk in _BOUNDARY.split(text.lower()):
        tokens = _TOKEN.findall(chunk)
        if tokens:
            out.append(tokens)
    return out


class AttributeLexicon:
    """Item-property surface strings with dense, stable ids.

    Entries may span several tokens; those match as contiguous runs.
    Entries and tokens are case-folded, like the tokenizer's output.
    """

    def __init__(self, surfaces: list[str]):
        self.surfaces: tuple[str, ...] = tuple(s.lower().strip() for s in surfaces)
        seen = set()
        for s in self.surfaces:
            if not s:
                raise CorpusError("attribute lexicon contains an empty entry")
            if s in seen:
                raise CorpusError(f"duplicate attribute surface: {s!r}")
            seen.add(s)
        self._single: dict[str, int] = {}
        self._multi: list[tuple[tuple[str, ...], int]] = []
        for fid, surface in enumerate(self.surfaces):
            parts = tuple(surface.split())
            if len(parts) == 1:
                self._single[parts[0]] = fid
            else:
                self._multi.append((parts, fid))

    def __len__(self) -> int:
        return len(self.surfaces)

    def surface(self, fid: int) -> str:
        return self.surfaces[fid]

    def match(self, tokens) -> frozenset[int]:
        """Ids of every lexicon attribute present in the token list."""
        toks = [t.lower() for t in tokens]
        hits = {self._single[t] for t in toks if t in self._single}
        for parts, fid in self._multi:
            span = len(parts)
            for i in range(len(toks) - span + 1):
                if tuple(toks[i : i + span]) == parts:
                    hits.add(fid)
                    break
        return frozenset(hits)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for fid, surface in enumerate(self.surfaces):
                fh.write(f"{fid}\t{surface}\n")

    @classmethod
    def load_table(cls, path) -> "AttributeLexicon":
        surfaces = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                _, surface = line.rstrip("\n").split("\t", 1)
                surfaces.append(surface)
        return cls(surfaces)


def load_attribute_lexicon(path) -> AttributeLexicon:
    """Read a plain-text lexicon, one attribute per line (may be multiword)."""
    with open(path, encoding="utf-8") as fh:
        surfaces = [line.strip() for line in fh if line.strip()]
    return AttributeLexicon(surfaces)


@dataclass(frozen=True)
class Sentence:
    sentence_id: str
    review_id: str
    words: tuple[str, ...]
    attributes: frozenset[int]


@dataclass(frozen=True)
class Review:
    review_id: str
    user_id: str
    item_id: str
    rating: float
    sentence_ids: tuple[str, ...]


@dataclass
class RawRecord:
    user_id: str
    item_id: str
    rating: float
    text: str
    line_no: int


def _text_field(obj: dict, name: str) -> str:
    """A record field that must be a JSON string or number, as a string."""
    value = obj[name]
    if type(value) is str:
        return value
    if type(value) in (int, float):  # json gives exact types; a bool is not an int here
        return str(value)
    raise ValueError(f"{name} is not a string or number")


def ingest_reviews(path, rating_threshold: float) -> tuple[list[RawRecord], list[str]]:
    """Read JSON-lines reviews, keeping records rated strictly above the
    threshold.  Malformed records are reported (with line numbers), not fatal;
    an unreadable file is.
    """
    records: list[RawRecord] = []
    errors: list[str] = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {line_no}: invalid JSON ({exc.msg})")
                continue
            try:
                user_id = _text_field(obj, "user_id")
                item_id = _text_field(obj, "item_id")
                rating = float(obj["rating"])
                text = _text_field(obj, "text")
                for name, value in (("user_id", user_id), ("item_id", item_id)):
                    if "\t" in value or "\n" in value or "\r" in value:
                        raise ValueError(f"{name} contains a tab or line break")
            except (KeyError, TypeError, ValueError) as exc:
                missing = exc.args[0] if isinstance(exc, KeyError) else exc
                errors.append(f"line {line_no}: bad record ({missing})")
                continue
            if rating > rating_threshold:
                records.append(RawRecord(user_id, item_id, rating, text, line_no))
    for err in errors:
        log.warning("ingest: %s", err)
    return records, errors


def filter_min_activity(reviews, min_count: int):
    """Drop reviews of users/items with fewer than `min_count` reviews,
    iterating to a fixpoint (removals can demote the other side).

    `reviews` is any list of objects with user_id/item_id; order is kept.
    """
    if min_count < 1:
        raise CorpusError("min_count must be >= 1")
    kept = list(reviews)
    while True:
        users = Counter(r.user_id for r in kept)
        items = Counter(r.item_id for r in kept)
        next_kept = [
            r for r in kept if users[r.user_id] >= min_count and items[r.item_id] >= min_count
        ]
        if len(next_kept) == len(kept):
            break
        kept = next_kept
    if not kept and reviews:
        log.warning("activity filter removed every review (min_count=%d)", min_count)
    return kept


@dataclass(frozen=True)
class CorpusSplit:
    train: frozenset[str]
    valid: frozenset[str]
    test: frozenset[str]
    seed: int
    ratios: tuple[float, float, float]

    def of(self, review_id: str) -> str:
        if review_id in self.train:
            return "train"
        if review_id in self.valid:
            return "valid"
        if review_id in self.test:
            return "test"
        raise KeyError(review_id)


def split_corpus(review_ids, ratios, seed: int) -> CorpusSplit:
    """Seeded random partition of review ids.

    Rounding: floor for valid and test, remainder to train.
    """
    ratios = tuple(float(r) for r in ratios)
    if len(ratios) != 3 or abs(sum(ratios) - 1.0) > 1e-9 or any(r < 0 for r in ratios):
        raise CorpusError(f"split ratios must be nonnegative and sum to 1, got {ratios}")
    ids = sorted(review_ids)
    n = len(ids)
    n_valid = int(n * ratios[1])
    n_test = int(n * ratios[2])
    n_train = n - n_valid - n_test
    perm = np.random.default_rng(seed).permutation(n)
    shuffled = [ids[i] for i in perm]
    return CorpusSplit(
        train=frozenset(shuffled[:n_train]),
        valid=frozenset(shuffled[n_train : n_train + n_valid]),
        test=frozenset(shuffled[n_train + n_valid :]),
        seed=seed,
        ratios=ratios,
    )


class Corpus:
    """Processed corpus with split-aware per-user/per-item indexes."""

    def __init__(
        self,
        reviews: dict[str, Review],
        sentences: dict[str, Sentence],
        lexicon: AttributeLexicon,
        split: CorpusSplit,
    ):
        self.reviews = reviews
        self.sentences = sentences
        self.lexicon = lexicon
        self.split = split
        self.users = sorted({r.user_id for r in reviews.values()})
        self.items = sorted({r.item_id for r in reviews.values()})
        self._user_train: dict[str, list[str]] = {u: [] for u in self.users}
        self._item_train: dict[str, list[str]] = {c: [] for c in self.items}
        self._pair_reviews: dict[tuple[str, str], dict[str, list[str]]] = {}
        for rid in sorted(reviews):
            r = reviews[rid]
            part = split.of(rid)
            if part == "train":
                self._user_train[r.user_id].append(rid)
                self._item_train[r.item_id].append(rid)
            bucket = self._pair_reviews.setdefault((r.user_id, r.item_id), {})
            bucket.setdefault(part, []).append(rid)
        self._user_sent_cache: dict[str, tuple[str, ...]] = {}
        self._item_sent_cache: dict[str, tuple[str, ...]] = {}
        self._user_attr_cache: dict[str, frozenset[int]] = {}
        self._item_attr_cache: dict[str, frozenset[int]] = {}

    # -- split-aware views -------------------------------------------------

    def _sentences_of(self, review_ids) -> tuple[str, ...]:
        out = []
        for rid in review_ids:
            out.extend(self.reviews[rid].sentence_ids)
        return tuple(sorted(out))

    def user_train_sentences(self, user_id: str) -> tuple[str, ...]:
        if user_id not in self._user_sent_cache:
            self._user_sent_cache[user_id] = self._sentences_of(self._user_train[user_id])
        return self._user_sent_cache[user_id]

    def item_train_sentences(self, item_id: str) -> tuple[str, ...]:
        if item_id not in self._item_sent_cache:
            self._item_sent_cache[item_id] = self._sentences_of(self._item_train[item_id])
        return self._item_sent_cache[item_id]

    def user_train_attributes(self, user_id: str) -> frozenset[int]:
        if user_id not in self._user_attr_cache:
            attrs: set[int] = set()
            for sid in self.user_train_sentences(user_id):
                attrs |= self.sentences[sid].attributes
            self._user_attr_cache[user_id] = frozenset(attrs)
        return self._user_attr_cache[user_id]

    def item_train_attributes(self, item_id: str) -> frozenset[int]:
        if item_id not in self._item_attr_cache:
            attrs: set[int] = set()
            for sid in self.item_train_sentences(item_id):
                attrs |= self.sentences[sid].attributes
            self._item_attr_cache[item_id] = frozenset(attrs)
        return self._item_attr_cache[item_id]

    def candidate_pool(self, user_id: str, item_id: str, mode: str) -> tuple[str, ...]:
        """Union of the user's and the item's training-split sentences.

        Pools only ever draw on the training split, so in eval mode the
        held-out target review is excluded by construction; in train mode
        the target review's own sentences are members.
        """
        if mode not in ("train", "eval"):
            raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
        if user_id not in self._user_train or item_id not in self._item_train:
            raise CorpusError(f"unknown pair ({user_id!r}, {item_id!r})")
        pool = sorted(set(self.user_train_sentences(user_id)) | set(self.item_train_sentences(item_id)))
        if not pool:
            raise EmptyPoolError(f"empty candidate pool for ({user_id}, {item_id})")
        if mode == "train":
            target = set(self.ground_truth_sentences(user_id, item_id, "train"))
            if not target <= set(pool):
                raise CorpusError(f"train pool for ({user_id}, {item_id}) misses target sentences")
        return tuple(pool)

    def train_words(self) -> list[tuple[str, ...]]:
        """Words of every training-split sentence, in review-id order."""
        return [
            self.sentences[sid].words
            for rid in sorted(self.split.train)
            for sid in self.reviews[rid].sentence_ids
        ]

    def pairs(self, part: str) -> list[tuple[str, str]]:
        """Distinct (user, item) pairs with at least one review in `part`."""
        return sorted(pair for pair, buckets in self._pair_reviews.items() if part in buckets)

    def ground_truth_sentences(self, user_id: str, item_id: str, part: str) -> list[str]:
        """Sentence ids of the pair's reviews in `part`, review order kept."""
        buckets = self._pair_reviews.get((user_id, item_id), {})
        out: list[str] = []
        for rid in buckets.get(part, []):
            out.extend(self.reviews[rid].sentence_ids)
        return out

    def stats(self) -> dict:
        used_attrs: set[int] = set()
        for s in self.sentences.values():
            used_attrs |= s.attributes
        return {
            "users": len(self.users),
            "items": len(self.items),
            "reviews": len(self.reviews),
            "sentences": len(self.sentences),
            "attributes": len(used_attrs),
        }


@dataclass
class _Draft:
    review_id: str
    user_id: str
    item_id: str
    rating: float
    sentences: list[tuple[str, list[str], frozenset[int]]]  # (sid, words, attrs)


def build_corpus(
    records: list[RawRecord],
    lexicon: AttributeLexicon,
    min_activity: int,
    ratios,
    seed: int,
) -> Corpus:
    """Run the full preprocessing pipeline over ingested records.

    Order matters: attribute-free sentences are dropped before the
    activity filter, so activity counts only attribute-bearing reviews.
    """
    drafts: list[_Draft] = []
    for idx, rec in enumerate(records):
        rid = f"r{idx}"
        kept = []
        for k, words in enumerate(segment_and_tokenize(rec.text)):
            attrs = lexicon.match(words)
            if attrs:
                kept.append((f"{rid}.s{k}", words, attrs))
        if kept:
            drafts.append(_Draft(rid, rec.user_id, rec.item_id, rec.rating, kept))
    drafts = filter_min_activity(drafts, min_activity)
    split = split_corpus([d.review_id for d in drafts], ratios, seed)
    reviews: dict[str, Review] = {}
    sentences: dict[str, Sentence] = {}
    for d in drafts:
        sids = []
        for sid, words, attrs in d.sentences:
            sentences[sid] = Sentence(
                sentence_id=sid,
                review_id=d.review_id,
                words=tuple(words),
                attributes=attrs,
            )
            sids.append(sid)
        reviews[d.review_id] = Review(d.review_id, d.user_id, d.item_id, d.rating, tuple(sids))
    return Corpus(reviews, sentences, lexicon, split)


# -- persistence -----------------------------------------------------------

def save_corpus(corpus: Corpus, dirpath, extra_meta: dict | None = None) -> None:
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    corpus.lexicon.save(dirpath / "attributes.tsv")
    with open(dirpath / "sentences.tsv", "w", encoding="utf-8") as fh:
        for sid in sorted(corpus.sentences):
            s = corpus.sentences[sid]
            attrs = ",".join(str(a) for a in sorted(s.attributes))
            fh.write(f"{s.sentence_id}\t{s.review_id}\t{attrs}\t{' '.join(s.words)}\n")
    with open(dirpath / "reviews.tsv", "w", encoding="utf-8") as fh:
        for rid in sorted(corpus.reviews):
            r = corpus.reviews[rid]
            fh.write(
                f"{r.review_id}\t{r.user_id}\t{r.item_id}\t{r.rating!r}\t{' '.join(r.sentence_ids)}\n"
            )
    split_doc = {
        "seed": corpus.split.seed,
        "ratios": list(corpus.split.ratios),
        "train": sorted(corpus.split.train),
        "valid": sorted(corpus.split.valid),
        "test": sorted(corpus.split.test),
    }
    (dirpath / "splits.json").write_text(json.dumps(split_doc, sort_keys=True), encoding="utf-8")
    (dirpath / "stats.json").write_text(json.dumps(corpus.stats(), sort_keys=True), encoding="utf-8")
    if extra_meta is not None:
        (dirpath / "meta.json").write_text(json.dumps(extra_meta, sort_keys=True), encoding="utf-8")


def load_corpus(dirpath) -> Corpus:
    dirpath = Path(dirpath)
    lexicon = AttributeLexicon.load_table(dirpath / "attributes.tsv")
    split_doc = json.loads((dirpath / "splits.json").read_text(encoding="utf-8"))
    split = CorpusSplit(
        train=frozenset(split_doc["train"]),
        valid=frozenset(split_doc["valid"]),
        test=frozenset(split_doc["test"]),
        seed=split_doc["seed"],
        ratios=tuple(split_doc["ratios"]),
    )
    sentences: dict[str, Sentence] = {}
    with open(dirpath / "sentences.tsv", encoding="utf-8") as fh:
        for line in fh:
            sid, rid, attrs, words_str = line.rstrip("\n").split("\t")
            sentences[sid] = Sentence(
                sentence_id=sid,
                review_id=rid,
                words=tuple(words_str.split(" ")),
                attributes=frozenset(int(a) for a in attrs.split(",") if a),
            )
    reviews: dict[str, Review] = {}
    with open(dirpath / "reviews.tsv", encoding="utf-8") as fh:
        for line in fh:
            rid, uid, cid, rating, sids = line.rstrip("\n").split("\t")
            reviews[rid] = Review(rid, uid, cid, float(rating), tuple(sids.split(" ")))
    return Corpus(reviews, sentences, lexicon, split)


def load_meta(dirpath) -> dict:
    path = Path(dirpath) / "meta.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text(encoding="utf-8"))
