"""Synthetic planted-signal dataset for end-to-end tests.

16 users x 8 items over 8 template attributes plus a ubiquitous "beer"
attribute.  Item c is about attributes {c, c+1, c+2} (mod 8); user u
cares about {u, u+4} (mod 8), so users u and u + 8 share their tastes.
A user reviews the 6 items that share exactly one attribute f(u, c) with
those tastes, and every item attribute is in 4 reviews, so a pool built
without one held-out review still has >= 3 reviews behind each of the
item's attributes and keeps the planted sentence through the item
restriction.  Each review contains the attribute's fixed template sentence
(the planted relevant sentence), a pair-specific low-content "beer"
sentence, and an attribute-free personal sentence that preprocessing
drops.  Copies of the same template across reviews are textually
identical, which both creates learnable relevance structure and plants
duplicate candidates for redundancy checks.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from recexplain.corpus import (
    UNK_TOKEN,
    build_corpus,
    ingest_reviews,
    load_attribute_lexicon,
    load_corpus,
    save_corpus,
)

N_USERS = 16
N_ITEMS = 8

ATTRS = ["aroma", "hops", "malt", "foam", "amber", "body", "finish", "spice"]

_TEMPLATE_FILL = {
    "aroma": ("floral", "perfumed", "right away"),
    "hops": ("bitter", "piney", "throughout"),
    "malt": ("caramel", "toasty", "underneath"),
    "foam": ("thick", "lasting", "on top"),
    "amber": ("deep", "glowing", "in color"),
    "body": ("full", "round", "overall"),
    "finish": ("crisp", "dry", "at the end"),
    "spice": ("warm", "peppery", "up front"),
}

_COLORS = ["golden", "ruby", "hazy", "ebony"]
_HEADS = ["huge", "thin", "rocky", "creamy"]


def template_text(attr: str) -> str:
    a, b, tail = _TEMPLATE_FILL[attr]
    return f"the {attr} was {a} and {b} {tail}."


def template_words(attr: str) -> tuple[str, ...]:
    a, b, tail = _TEMPLATE_FILL[attr]
    return tuple(f"the {attr} was {a} and {b} {tail} .".split())


def shared_attr(u: int, c: int) -> str | None:
    """The unique attribute shared by user u's tastes and item c, if any."""
    d = (u - c) % 8
    if d in (0, 1, 2):
        return ATTRS[u % 8]
    if d in (4, 5, 6):
        return ATTRS[(u + 4) % 8]
    return None


def reviewed_pairs() -> list[tuple[int, int]]:
    return [
        (u, c) for u in range(N_USERS) for c in range(N_ITEMS) if shared_attr(u, c) is not None
    ]


def write_inputs(out_dir, seed: int = 0) -> dict:
    """Write reviews.jsonl and lexicon.txt; returns the pair manifest."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 77])
    manifest = {}
    with open(out_dir / "reviews.jsonl", "w", encoding="utf-8") as fh:
        for u, c in reviewed_pairs():
            attr = shared_attr(u, c)
            beer = (
                f"this beer pours {_COLORS[rng.integers(4)]} with a "
                f"{_HEADS[rng.integers(4)]} head."
            )
            personal = "i visited on a quiet tuesday with friends."
            sentences = [template_text(attr), beer, personal]
            order = rng.permutation(3)
            text = " ".join(sentences[i] for i in order)
            rec = {
                "user_id": f"u{u}",
                "item_id": f"c{c}",
                "rating": int(rng.integers(11, 21)),
                "text": text,
            }
            fh.write(json.dumps(rec) + "\n")
            manifest[(f"u{u}", f"c{c}")] = attr
    with open(out_dir / "lexicon.txt", "w", encoding="utf-8") as fh:
        for attr in ATTRS + ["beer"]:
            fh.write(attr + "\n")
    return manifest


def _token_rng(seed: int, kind: str, key: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{kind}:{key}".encode()).digest()
    return np.random.default_rng([seed, int.from_bytes(digest[:4], "little")])


def save_vector_file(path, index: dict[str, int], vectors: np.ndarray) -> None:
    """Write `vectors` in the format `features.load_vector_file` reads,
    one row per id in row order; floats are written exactly (repr)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{vectors.shape[0]} {vectors.shape[1]}\n")
        for key, row in sorted(index.items(), key=lambda kv: kv[1]):
            vals = " ".join(repr(float(v)) for v in vectors[row])
            fh.write(f"{key} {vals}\n")


def write_vector_files(corpus_dir, out_dir, hidden: int, sent_dim: int = 16, seed: int = 0):
    """Derive word and sentence vector files from a processed corpus.

    Word vectors are stable pseudo-random draws per token.  Sentence
    vectors are a content encoding: a basis direction per template
    attribute (or per beer-sentence color) plus small noise.
    """
    out_dir = Path(out_dir)
    corpus = load_corpus(corpus_dir)
    tokens = [UNK_TOKEN] + sorted({w for sid in corpus.sentence_rows for w in corpus.sentences[sid].words})
    word_vecs = np.stack(
        [_token_rng(seed, "word", tok).normal(scale=0.5, size=hidden) for tok in tokens]
    )
    save_vector_file(out_dir / "word_vectors.txt", {t: i for i, t in enumerate(tokens)}, word_vecs)

    sids = sorted(corpus.sentences)
    sent_vecs = np.zeros((len(sids), sent_dim))
    for i, sid in enumerate(sids):
        words = set(corpus.sentences[sid].words)
        vec = np.zeros(sent_dim)
        for k, attr in enumerate(ATTRS):
            if attr in words:
                vec[k] = 1.0
        if "beer" in words:
            for k, color in enumerate(_COLORS):
                if color in words:
                    vec[8 + k] = 1.0
        noise = _token_rng(seed, "sent", sid).normal(scale=0.05, size=sent_dim)
        sent_vecs[i] = vec + noise
    save_vector_file(out_dir / "sentence_vectors.txt", {s: i for i, s in enumerate(sids)}, sent_vecs)
    return out_dir / "word_vectors.txt", out_dir / "sentence_vectors.txt"


def planted_corpus(out_dir, hidden: int):
    """The planted corpus as `preprocess` builds it under the end-to-end
    tests' config (rating threshold 10, minimum activity 2, the default
    split ratios, seed 0), saved under `out_dir / "corpus"`, with its
    inputs and vector files written to `out_dir`."""
    out_dir = Path(out_dir)
    write_inputs(out_dir)
    records, _ = ingest_reviews(out_dir / "reviews.jsonl", 10)
    lexicon = load_attribute_lexicon(out_dir / "lexicon.txt")
    save_corpus(build_corpus(records, lexicon, 2, (0.70, 0.15, 0.15), 0), out_dir / "corpus", {})
    write_vector_files(out_dir / "corpus", out_dir, hidden=hidden)
    return load_corpus(out_dir / "corpus")


def planted_words_for_pair(user_id: str, item_id: str) -> tuple[str, ...]:
    attr = shared_attr(int(user_id[1:]), int(item_id[1:]))
    assert attr is not None
    return template_words(attr)
