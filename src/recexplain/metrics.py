"""Text-overlap metrics: sentence/corpus BLEU, ROUGE-1/2/L F1, attribute P/R/F1.

These serve double duty: smoothed sentence BLEU supplies the relevance
supervision for ranking, and the full suite scores final explanations
against held-out reviews.

Every metric scores a candidate against one reference, because every
caller has exactly one.  `overlap` counts the n-grams: a pair's two
lengths and clipped matches of orders 1..max_n, all that BLEU and ROUGE-N
read of it.
- `Trainer.validate` scores the top-K sentences joined against the
  held-out review's sentences joined (`sentence_bleu`);
- `evaluate_pairs` counts one `overlap` per pair, the selected sentences
  joined against the test review's joined, and reads it for BLEU-1/2/4
  (`corpus_bleu`) and ROUGE-1/2 (`rouge_n_f1`);
- `training.relevance_targets` is the one deliberate second counter, kept
  for speed: interned n-gram keys give every candidate's matches against
  every target sentence in one matrix product per problem.  A test pins
  its counts to `overlap`'s; `bleu_from_matches` scores them.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

Tokens = list[str]
Overlap = tuple[int, int, tuple[int, ...]]  # (candidate length, reference length, matches)

MAX_N = 4  # BLEU's highest n-gram order unless a caller asks for fewer


def ngram_profile(tokens, max_n: int = MAX_N) -> tuple[Counter, ...]:
    """A sentence's n-gram counts for orders 1..max_n; `overlap`'s helper."""
    tokens = tuple(tokens)
    return tuple(Counter(tokens[i : i + n] for i in range(len(tokens) - n + 1)) for n in range(1, max_n + 1))


def overlap(candidate: Tokens, reference: Tokens, max_n: int = MAX_N) -> Overlap:
    """(candidate length, reference length, clipped matches of orders
    1..max_n): per order, the sum over the candidate's n-grams of the
    smaller of its two counts.  That is BLEU's clipped match count and
    ROUGE-N's matched count alike."""
    cand, ref = ngram_profile(candidate, max_n), ngram_profile(reference, max_n)
    matches = tuple(sum(min(c[g], r[g]) for g in c.keys() & r.keys()) for c, r in zip(cand, ref))
    return len(candidate), len(reference), matches


def _brevity_penalty(cand_len: int, ref_len: int) -> float:
    if cand_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / cand_len)


def bleu_from_matches(matches, cand_len: int, ref_len: int) -> float:
    """Smoothed sentence-level BLEU in [0, 1] from the clipped n-gram
    matches of orders 1..len(matches) and the two lengths; every smoothed
    sentence BLEU of the program is scored here.

    Geometric mean of modified n-gram precisions, times the brevity
    penalty.  Smoothing: orders >= 2 with a zero match count fall back to
    add-one, 1/(total+1); orders the candidate is too short for count as
    vacuously 1.  A candidate with no unigram overlap scores 0 --
    smoothing never manufactures similarity out of nothing, and neither
    does an empty candidate or reference, which match nothing.
    """
    if not matches[0]:
        return 0.0
    log_sum = 0.0
    for n, m in enumerate(matches, 1):
        total = max(cand_len - n + 1, 0)
        if m > 0:
            p = m / total
        else:
            p = 1.0 / (total + 1)
        log_sum += math.log(p)
    bp = _brevity_penalty(cand_len, ref_len)
    return bp * math.exp(log_sum / len(matches))


def sentence_bleu(candidate: Tokens, reference: Tokens, max_n: int = MAX_N) -> float:
    """Smoothed sentence-level BLEU of a token list against one reference:
    their `overlap` scored by `bleu_from_matches`; `Trainer.validate`
    passes the held-out review's sentences joined."""
    cand_len, ref_len, matches = overlap(candidate, reference, max_n)
    if not cand_len:
        log.warning("sentence_bleu: empty candidate scored 0")
    return bleu_from_matches(matches, cand_len, ref_len)


def corpus_bleu(overlaps: list[Overlap], max_n: int = MAX_N) -> float:
    """Corpus-level BLEU with n-gram statistics pooled over the pairs'
    `overlap`s, each counted to at least max_n; no smoothing.
    `evaluate_pairs` counts each test review's sentences joined as the
    reference.

    Pairs with an empty reference are skipped.  Any order with pooled
    matches == 0 (but a nonzero candidate count) zeroes the score; orders
    no candidate is long enough for are vacuous.  Single-pair input agrees
    with sentence_bleu whenever all raw precisions are positive.
    """
    match_tot = [0] * max_n
    cand_tot = [0] * max_n
    cand_len = 0
    ref_len = 0
    for c_len, r_len, matches in overlaps:
        if not r_len:
            continue
        cand_len += c_len
        ref_len += r_len
        for i in range(max_n):  # order i + 1
            match_tot[i] += matches[i]
            cand_tot[i] += max(c_len - i, 0)
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for m, t in zip(match_tot, cand_tot):
        if t == 0:
            continue
        if m == 0:
            return 0.0
        log_sum += math.log(m / t)
    return _brevity_penalty(cand_len, ref_len) * math.exp(log_sum / max_n)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge_n_f1(pair: Overlap, n: int) -> float:
    """ROUGE-N F1 from a pair's `overlap` (counted to at least order n);
    `evaluate_pairs` counts the test review's sentences joined as the
    reference.  A reference shorter than n scores 0."""
    cand_len, ref_len, matches = pair
    ref_total = ref_len - n + 1
    if ref_total <= 0:
        return 0.0
    cand_total = max(cand_len - n + 1, 0)
    matched = matches[n - 1]
    recall = matched / ref_total
    precision = matched / cand_total if cand_total > 0 else 0.0
    return _f1(precision, recall)


def lcs_length(a, b) -> int:
    """Longest common subsequence length, bit-parallel over b (Allison and
    Dix 1986, in Hyyro's 2004 form).  v starts with one bit per token of b
    set; after each token of a, its zero bits number the LCS of b with the
    prefix of a read so far.  Python ints make any length of b one word.
    """
    masks: dict = {}
    for j, y in enumerate(b):
        masks[y] = masks.get(y, 0) | (1 << j)
    full = (1 << len(b)) - 1
    v = full
    for x in a:
        u = v & masks.get(x, 0)
        if u:
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l_f1(candidate: Tokens, reference: Tokens) -> float:
    """ROUGE-L F1 from the longest common subsequence with one reference,
    which `evaluate_pairs` gives as the test review's sentences joined."""
    if not candidate or not reference:
        return 0.0
    lcs = lcs_length(candidate, reference)
    return _f1(lcs / len(candidate), lcs / len(reference))


def set_prf(predicted: set, truth: set) -> tuple[float, float, float]:
    """Set precision/recall/F1; empty prediction counts as precision 0."""
    hit = len(predicted & truth)
    precision = hit / len(predicted) if predicted else 0.0
    recall = hit / len(truth) if truth else 0.0
    return precision, recall, _f1(precision, recall)


@dataclass
class EvalReport:
    """Explanation-quality summary over a set of evaluated pairs.

    BLEU is corpus-pooled; ROUGE and attribute P/R/F1 are macro averages.
    """

    pairs: int = 0
    excluded: int = 0
    bleu1: float = 0.0
    bleu2: float = 0.0
    bleu4: float = 0.0
    rouge1: float = 0.0
    rouge2: float = 0.0
    rougeL: float = 0.0
    attr_precision: float = 0.0
    attr_recall: float = 0.0
    attr_f1: float = 0.0
    attr_pairs: int = 0
    aggregation: dict = field(
        default_factory=lambda: {"bleu": "corpus-pooled", "rouge": "macro", "attributes": "macro"}
    )

    def format_table(self) -> str:
        rows = [
            ("pairs", f"{self.pairs}"),
            ("BLEU-1 (%)", f"{100 * self.bleu1:.2f}"),
            ("BLEU-2 (%)", f"{100 * self.bleu2:.2f}"),
            ("BLEU-4 (%)", f"{100 * self.bleu4:.2f}"),
            ("ROUGE-1 F1 (%)", f"{100 * self.rouge1:.2f}"),
            ("ROUGE-2 F1 (%)", f"{100 * self.rouge2:.2f}"),
            ("ROUGE-L F1 (%)", f"{100 * self.rougeL:.2f}"),
            ("Attr P (%)", f"{100 * self.attr_precision:.2f}"),
            ("Attr R (%)", f"{100 * self.attr_recall:.2f}"),
            ("Attr F1 (%)", f"{100 * self.attr_f1:.2f}"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v:>8}" for k, v in rows)


def evaluate_pairs(records) -> EvalReport:
    """Aggregate per-pair results into an EvalReport.

    `records` is an iterable of (pred_tokens, truth_tokens, pred_attrs,
    truth_attrs): the selected sentences joined, the test review's
    sentences joined, and the attribute sets of each side.
    """
    overlaps = []
    r1 = r2 = rl = 0.0
    ap = ar = af = 0.0
    n = 0
    attr_n = 0
    for pred, truth, pred_attrs, truth_attrs in records:
        pair = overlap(pred, truth)
        overlaps.append(pair)
        r1 += rouge_n_f1(pair, 1)
        r2 += rouge_n_f1(pair, 2)
        rl += rouge_l_f1(pred, truth)
        n += 1
        if truth_attrs:
            p, r, f = set_prf(pred_attrs, truth_attrs)
            ap += p
            ar += r
            af += f
            attr_n += 1
    report = EvalReport(pairs=n)
    if n == 0:
        return report
    report.bleu1 = corpus_bleu(overlaps, 1)
    report.bleu2 = corpus_bleu(overlaps, 2)
    report.bleu4 = corpus_bleu(overlaps, 4)
    report.rouge1 = r1 / n
    report.rouge2 = r2 / n
    report.rougeL = rl / n
    if attr_n:
        report.attr_precision = ap / attr_n
        report.attr_recall = ar / attr_n
        report.attr_f1 = af / attr_n
    report.attr_pairs = attr_n
    return report
