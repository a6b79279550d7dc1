"""Review corpus preprocessing and the processed corpus on disk.

Raw reviews (JSON lines with user_id, item_id, rating, text) are filtered
by rating, activity-filtered once as raw records, segmented into
sentences, tokenized, tagged with lexicon attributes, pruned of
attribute-free sentences, activity-filtered to a fixpoint again, split into
train/valid/test, and indexed per user and per item over the training split
(see `Corpus`).  The first activity filter changes no output: it only
spares the text work for reviews the second one would drop (see
`build_corpus`).  Everything is deterministic given (input files, seed).

A processed corpus directory holds two JSON files, written with sorted keys:

- `corpus.json`: `lexicon`, the attribute surfaces (an attribute's id is
  its index); `sentences`, sentence id -> sorted attribute ids and words;
  `reviews`, review id -> user_id, item_id and sentence_ids; and `split`,
  the sorted train, valid and test review ids.
- `meta.json`: the preprocess stage's record: the config hash, the count
  of ingest errors and the `Corpus.stats()` counts.  `save_corpus` removes
  it before writing corpus.json and writes it last, so a preprocess that
  stops in between leaves no stamp, and a later stage asks for a re-run.

`load_corpus` raises a CorpusError naming the file, and the key where
there is one, for a missing corpus.json (re-run preprocess), content that
is not a JSON object, a missing key, a value of the wrong JSON type (types
are exact: a boolean is not an integer), an attribute id outside the
lexicon, a review that names an unknown sentence or one that a review
has named already, a review in no split, and a split that names a review
twice or names one that does not exist.  Keys it does not name are
ignored.  `load_meta` reads a missing meta.json as empty and rejects one
that is not a JSON object.
"""

from __future__ import annotations

import codecs
import json
import logging
import math
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np

log = logging.getLogger(__name__)

UNK_TOKEN = "<unk>"


class CorpusError(Exception):
    pass


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

    Each entry is case-folded and split into tokens (`tokens`) by the
    tokenizer's rule, so `wi-fi` is the run `wi`, `-`, `fi`; entries of
    several tokens match as contiguous runs.  Two entries with the same
    tokens are an error.
    """

    def __init__(self, surfaces: list[str]):
        self.surfaces: tuple[str, ...] = tuple(s.lower().strip() for s in surfaces)
        self.tokens: tuple[tuple[str, ...], ...] = tuple(tuple(_TOKEN.findall(s)) for s in self.surfaces)
        self._single: dict[str, int] = {}
        self._multi: list[tuple[tuple[str, ...], int]] = []
        owner: dict[tuple[str, ...], str] = {}  # token run -> the surface that gave it
        for fid, (surface, parts) in enumerate(zip(self.surfaces, self.tokens)):
            if not surface:
                raise CorpusError("attribute lexicon contains an empty entry")
            if parts in owner:
                if owner[parts] == surface:
                    raise CorpusError(f"duplicate attribute surface: {surface!r}")
                raise CorpusError(f"attribute surfaces {owner[parts]!r} and {surface!r} are the same tokens {list(parts)}")
            owner[parts] = surface
            if len(parts) == 1:
                self._single[parts[0]] = fid
            else:
                self._multi.append((parts, fid))

    def __len__(self) -> int:
        return len(self.surfaces)

    def surface(self, fid: int) -> str:
        return self.surfaces[fid]

    def match(self, tokens: list[str]) -> frozenset[int]:
        """Ids of every lexicon attribute present in the token list.  The
        tokens must be case-folded, as `segment_and_tokenize` gives them."""
        hits = {self._single[t] for t in tokens if t in self._single}
        for parts, fid in self._multi:
            span = len(parts)
            for i in range(len(tokens) - span + 1):
                if tuple(tokens[i : i + span]) == parts:
                    hits.add(fid)
                    break
        return frozenset(hits)


def load_attribute_lexicon(path) -> AttributeLexicon:
    """Read a plain-text lexicon, one attribute per line (may be multiword).
    A UTF-8 byte order mark at the start of the file is skipped."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            surfaces = [line.strip() for line in fh if line.strip()]
    except UnicodeDecodeError as exc:
        raise CorpusError(f"{path}: not UTF-8 ({exc.reason})") from None
    return AttributeLexicon(surfaces)


class Sentence(NamedTuple):
    sentence_id: str
    words: tuple[str, ...]
    attributes: frozenset[int]


class Review(NamedTuple):
    review_id: str
    user_id: str
    item_id: str
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


def _rating(obj: dict) -> float:
    """The record's rating: a JSON number or a numeric string such as "5",
    and finite.  A boolean, NaN or an infinity is not a rating."""
    value = obj["rating"]
    try:
        rating = float(value) if type(value) in (int, float, str) else math.nan  # a bool is not an int here
    except (ValueError, OverflowError):  # not numeric, or an int past the float range
        rating = math.nan
    if not math.isfinite(rating):
        raise ValueError(f"rating {value!r} is not a finite number")
    return rating


def ingest_reviews(path, rating_threshold: float) -> tuple[list[RawRecord], list[str]]:
    """Read JSON-lines reviews, keeping records rated strictly above the
    threshold.  Malformed records, among them a line that is not UTF-8 and
    a rating that is not a finite number (see `_rating`), are reported (with
    line numbers), not fatal; an unreadable file is.  A UTF-8 byte order
    mark at the start of the file is skipped.
    """
    records: list[RawRecord] = []
    errors: list[str] = []
    with open(path, "rb") as fh:  # decoded a line at a time, so a bad byte costs one record
        if fh.read(len(codecs.BOM_UTF8)) != codecs.BOM_UTF8:
            fh.seek(0)
        for line_no, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                errors.append(f"line {line_no}: not UTF-8 ({exc.reason})")
                continue
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
                rating = _rating(obj)
                text = _text_field(obj, "text")
            except (KeyError, TypeError, ValueError) as exc:
                missing = exc.args[0] if isinstance(exc, KeyError) else exc
                errors.append(f"line {line_no}: bad record ({missing})")
                continue
            if rating > rating_threshold:
                records.append(RawRecord(user_id, item_id, rating, text, line_no))
    for err in errors:
        log.warning("ingest: %s", err)
    return records, errors


def _active_rows(pairs: list[tuple[str, str]], min_count: int) -> list[int]:
    """Indices, in order, of the largest subset of the (user_id, item_id)
    `pairs` in which every user and every item occurs at least `min_count`
    times, found by dropping the rows of users/items below the count until
    a pass drops nothing (removals can demote the other side)."""
    if min_count < 1:
        raise CorpusError("min_count must be >= 1")
    kept = list(range(len(pairs)))
    while True:
        users = Counter(pairs[i][0] for i in kept)
        items = Counter(pairs[i][1] for i in kept)
        next_kept = [i for i in kept if users[pairs[i][0]] >= min_count and items[pairs[i][1]] >= min_count]
        if len(next_kept) == len(kept):
            return kept
        kept = next_kept


@dataclass(frozen=True)
class CorpusSplit:
    train: frozenset[str]
    valid: frozenset[str]
    test: frozenset[str]

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
    )


class Corpus:
    """Processed corpus with split-aware per-user/per-item indexes: the
    sentence ids and attribute ids of each user's and item's training
    reviews, and each one's row in the model's embedding tables.  It also
    numbers the training sentences (`sentence_rows`), the rows of the node
    input tables.  It makes no per-pair decision; the pool rule is
    `graphs.build_pair_graph`'s."""

    def __init__(self, reviews: dict[str, Review], sentences: dict[str, Sentence], lexicon: AttributeLexicon, split: CorpusSplit):
        self.reviews = reviews
        self.sentences = sentences
        self.lexicon = lexicon
        self.split = split
        self.users = sorted({r.user_id for r in reviews.values()})
        self.items = sorted({r.item_id for r in reviews.values()})
        self.user_rows = {u: i for i, u in enumerate(self.users)}
        self.item_rows = {c: i for i, c in enumerate(self.items)}
        # each user's and item's training-split sentence ids and attribute ids
        self.user_sentences: dict[str, set[str]] = {u: set() for u in self.users}
        self.item_sentences: dict[str, set[str]] = {c: set() for c in self.items}
        self.user_attributes: dict[str, set[int]] = {u: set() for u in self.users}
        self.item_attributes: dict[str, set[int]] = {c: set() for c in self.items}
        self._pair_reviews: dict[tuple[str, str], dict[str, list[str]]] = {}
        for rid in sorted(reviews):
            r = reviews[rid]
            part = split.of(rid)
            if part == "train":
                attrs = set().union(*(sentences[sid].attributes for sid in r.sentence_ids))
                self.user_sentences[r.user_id].update(r.sentence_ids)
                self.item_sentences[r.item_id].update(r.sentence_ids)
                self.user_attributes[r.user_id] |= attrs
                self.item_attributes[r.item_id] |= attrs
            bucket = self._pair_reviews.setdefault((r.user_id, r.item_id), {})
            bucket.setdefault(part, []).append(rid)

    # -- split-aware views -------------------------------------------------

    @cached_property
    def sentence_rows(self) -> dict[str, int]:
        """Each training sentence's row in the node input tables, in sorted
        id order: only training sentences enter a pool."""
        sids = sorted({sid for rid in self.split.train for sid in self.reviews[rid].sentence_ids})
        return {sid: i for i, sid in enumerate(sids)}

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
        used_attrs = set().union(*(s.attributes for s in self.sentences.values()))
        return {
            "users": len(self.users),
            "items": len(self.items),
            "reviews": len(self.reviews),
            "sentences": len(self.sentences),
            "attributes": len(used_attrs),
        }


def _tagged_sentences(rid: str, text: str, lexicon: AttributeLexicon) -> list[Sentence]:
    """The review's attribute-bearing sentences; the k-th segment of the
    text, counting the dropped ones, is sentence `{rid}.s{k}`."""
    out = []
    for k, words in enumerate(segment_and_tokenize(text)):
        attrs = lexicon.match(words)
        if attrs:
            out.append(Sentence(f"{rid}.s{k}", tuple(words), attrs))
    return out


def build_corpus(records: list[RawRecord], lexicon: AttributeLexicon, min_activity: int, ratios, seed: int) -> Corpus:
    """Run the full preprocessing pipeline over ingested records; record i
    is review `r{i}`.

    Order matters: attribute-free sentences are dropped before the
    activity filter, so activity counts only attribute-bearing reviews.

    Only the records that survive the activity filter as raw records are
    segmented and tagged, which on a corpus with a long tail of rare users
    is a small share.  This changes no output.  The filter returns the
    largest subset in which every user and every item has at least
    `min_activity` reviews (such subsets are closed under union), so it is
    monotone: A ⊆ B gives filter(A) ⊆ filter(B).  Let F = filter(raw) and
    T be the records whose text keeps a sentence, matched by index.
    filter(T) is a subset of raw that meets the count, so it lies in F, the
    largest one; so it lies in T ∩ F and, as its own filter, in
    filter(T ∩ F).  Monotonicity gives the reverse, so filter(T) =
    filter(T ∩ F).  The warning that the filter removed every review is
    decided here, in one test, as if T had been filtered: no review is left
    and T is not empty.  A tagged candidate (T ∩ F) settles that T is not
    empty; without one, the records outside F are tagged until one keeps a
    sentence.
    """
    active = _active_rows([(r.user_id, r.item_id) for r in records], min_activity)
    candidates: list[Review] = []
    tagged: dict[str, Sentence] = {}
    for idx in active:
        rec = records[idx]
        sents = _tagged_sentences(f"r{idx}", rec.text, lexicon)
        if sents:
            candidates.append(Review(f"r{idx}", rec.user_id, rec.item_id, tuple(s.sentence_id for s in sents)))
            tagged.update((s.sentence_id, s) for s in sents)
    reviews = [candidates[i] for i in _active_rows([(r.user_id, r.item_id) for r in candidates], min_activity)]
    kept = set(active)
    if not reviews and (candidates or any(
        _tagged_sentences(f"r{i}", rec.text, lexicon) for i, rec in enumerate(records) if i not in kept
    )):
        log.warning("activity filter removed every review (min_count=%d)", min_activity)
    split = split_corpus([r.review_id for r in reviews], ratios, seed)
    sentences = {sid: tagged[sid] for r in reviews for sid in r.sentence_ids}
    return Corpus({r.review_id: r for r in reviews}, sentences, lexicon, split)


# -- persistence -----------------------------------------------------------

_PARTS = ("train", "valid", "test")

# The shape of corpus.json: a dict gives the kinds of its keys ("*": of
# every key), and [kind] is a list of that kind.
_SCHEMA = {
    "lexicon": [str],
    "sentences": {"*": {"attributes": [int], "words": [str]}},
    "reviews": {"*": {"user_id": str, "item_id": str, "sentence_ids": [str]}},
    "split": dict.fromkeys(_PARTS, [str]),
}


def save_corpus(corpus: Corpus, dirpath, meta: dict) -> None:
    """Write `corpus` as corpus.json and `meta` as meta.json under `dirpath`.
    An old meta.json goes first and the new one is written last, so a stop
    in between leaves the new corpus with no stamp, not the old one."""
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    (dirpath / "meta.json").unlink(missing_ok=True)
    doc = {
        "lexicon": corpus.lexicon.surfaces,
        "sentences": {
            sid: {"attributes": sorted(s.attributes), "words": s.words}
            for sid, s in corpus.sentences.items()
        },
        "reviews": {
            rid: {"user_id": r.user_id, "item_id": r.item_id, "sentence_ids": r.sentence_ids}
            for rid, r in corpus.reviews.items()
        },
        "split": {p: sorted(getattr(corpus.split, p)) for p in _PARTS},
    }
    for name, content in (("corpus.json", doc), ("meta.json", meta)):
        # check_circular=False: both are trees built here, and the check costs a sixth of the encoding
        text = json.dumps(content, sort_keys=True, check_circular=False)
        (dirpath / name).write_text(text, encoding="utf-8")


def _fits(values: list, kind) -> bool:
    """Whether every one of `values` has `kind` (see _SCHEMA), tested a
    column at a time.  Types are exact: a boolean is not an int."""
    if type(kind) is dict:
        if not set(map(type, values)) <= {dict}:
            return False
        if "*" in kind:
            return _fits([x for v in values for x in v.values()], kind["*"])
        return all(_fits([v.get(key) for v in values], sub) for key, sub in kind.items())
    if type(kind) is list:
        return set(map(type, values)) <= {list} and _fits([x for v in values for x in v], kind[0])
    return set(map(type, values)) <= {kind}


def _check(value, kind, path: tuple = ()) -> None:
    """Raise a CorpusError naming the first key, at or under `path`, whose
    value does not fit its kind."""
    if _fits([value], kind):
        return
    if type(kind) is dict and type(value) is dict:
        for key, sub in ({k: kind["*"] for k in value} if "*" in kind else kind).items():
            _check(value.get(key), sub, (*path, key))
    raise CorpusError(f"key {''.join(f'[{k!r}]' for k in path)} is missing or of the wrong type")


def _read_json(path: Path) -> dict:
    """The JSON object in `path`; a CorpusError names the file when it is
    missing, is not JSON or holds something other than an object."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise CorpusError(f"{path}: no such file; re-run preprocess") from None
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CorpusError(f"{path}: not JSON ({exc})") from None
    if type(doc) is not dict:
        raise CorpusError(f"{path}: not a JSON object")
    return doc


def _corpus_from(doc: dict) -> Corpus:
    _check(doc, _SCHEMA)
    lexicon = AttributeLexicon(doc["lexicon"])
    sentences = {
        sid: Sentence(sid, tuple(s["words"]), frozenset(s["attributes"]))
        for sid, s in doc["sentences"].items()
    }
    reviews = {
        rid: Review(rid, r["user_id"], r["item_id"], tuple(r["sentence_ids"]))
        for rid, r in doc["reviews"].items()
    }
    attribute_ids = set(range(len(lexicon)))
    for sid, s in sentences.items():
        if not s.attributes <= attribute_ids:
            raise CorpusError(f"key ['sentences'][{sid!r}]['attributes'] holds an id outside the lexicon")
    owner: dict[str, str] = {}  # sentence id -> the review that names it
    for rid, r in reviews.items():
        if not r.sentence_ids:
            raise CorpusError(f"key ['reviews'][{rid!r}]['sentence_ids'] is empty")
        for sid in r.sentence_ids:
            if sid not in sentences:
                raise CorpusError(f"key ['reviews'][{rid!r}]['sentence_ids'] names unknown sentence {sid!r}")
            if sid in owner:
                raise CorpusError(f"key ['reviews'][{rid!r}]['sentence_ids'] repeats sentence {sid!r} of review {owner[sid]!r}")
            owner[sid] = rid
    split = doc["split"]
    listed = [rid for p in _PARTS for rid in split[p]]
    unlisted = sorted(reviews.keys() - set(listed))
    if unlisted:
        raise CorpusError(f"key ['reviews'][{unlisted[0]!r}] is a review in no split")
    if len(listed) != len(reviews):
        raise CorpusError("key ['split'] names a review twice, or one that is not in ['reviews']")
    return Corpus(reviews, sentences, lexicon, CorpusSplit(**{p: frozenset(split[p]) for p in _PARTS}))


def load_corpus(dirpath) -> Corpus:
    path = Path(dirpath) / "corpus.json"
    doc = _read_json(path)
    try:
        return _corpus_from(doc)
    except CorpusError as exc:
        raise CorpusError(f"{path}: {exc}") from None


def load_meta(dirpath) -> dict:
    path = Path(dirpath) / "meta.json"
    return _read_json(path) if path.exists() else {}
