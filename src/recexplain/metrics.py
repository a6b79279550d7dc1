"""Text-overlap metrics: sentence/corpus BLEU, ROUGE-1/2/L F1, attribute P/R/F1.

These serve double duty: smoothed sentence BLEU supplies the relevance
supervision for ranking, and the full suite scores final explanations
against held-out reviews.

Every metric scores a candidate against one reference, because every
caller has exactly one:
- `training.relevance_targets` counts each candidate's clipped matches
  against each target sentence itself, scores them with
  `bleu_from_matches` and keeps the best;
- `Trainer.validate` scores the top-K sentences joined against the
  held-out review's sentences joined (`sentence_bleu`);
- `evaluate_pairs` scores the selected sentences joined against the
  test review's sentences joined (`corpus_bleu`, `rouge_n_f1`,
  `rouge_l_f1`).
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

Tokens = list[str]
Profile = tuple[int, tuple[Counter, ...]]

MAX_N = 4  # BLEU's highest n-gram order unless a caller asks for fewer


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def ngram_profile(tokens, max_n: int = MAX_N) -> Profile:
    """A sentence's length and its n-gram counts for orders 1..max_n, all
    that BLEU reads of it."""
    tokens = tuple(tokens)
    return len(tokens), tuple(_ngram_counts(tokens, n) for n in range(1, max_n + 1))


def _clipped_matches(candidate: Profile, reference: Profile, n: int) -> tuple[int, int]:
    """Modified n-gram precision counts: (clipped matches, candidate total)."""
    total = max(candidate[0] - n + 1, 0)
    if total == 0:
        return 0, 0
    cand = candidate[1][n - 1]
    ref = reference[1][n - 1]
    matches = 0
    for gram in cand.keys() & ref.keys():
        matches += min(cand[gram], ref[gram])
    return matches, total


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
    """Smoothed sentence-level BLEU of a token list against one reference,
    their clipped n-gram matches scored by `bleu_from_matches`;
    `Trainer.validate` passes the held-out review's sentences joined."""
    candidate, reference = ngram_profile(candidate, max_n), ngram_profile(reference, max_n)
    if not candidate[0]:
        log.warning("sentence_bleu: empty candidate scored 0")
    matches = [_clipped_matches(candidate, reference, n)[0] for n in range(1, max_n + 1)]
    return bleu_from_matches(matches, candidate[0], reference[0])


def corpus_bleu(pairs: list[tuple[Tokens, Tokens]], max_n: int = MAX_N) -> float:
    """Corpus-level BLEU over (candidate, reference) pairs with pooled
    n-gram statistics, no smoothing; `evaluate_pairs` passes each test
    review's sentences joined as the reference.

    Pairs with an empty reference are skipped.  Any order with pooled
    matches == 0 (but a nonzero candidate count) zeroes the score; orders
    no candidate is long enough for are vacuous.  Single-pair input agrees
    with sentence_bleu whenever all raw precisions are positive.
    """
    match_tot = [0] * (max_n + 1)
    cand_tot = [0] * (max_n + 1)
    cand_len = 0
    ref_len = 0
    for candidate, reference in pairs:
        if not reference:
            continue
        candidate = ngram_profile(candidate, max_n)
        reference = ngram_profile(reference, max_n)
        cand_len += candidate[0]
        ref_len += reference[0]
        if not candidate[0]:
            continue
        for n in range(1, max_n + 1):
            m, t = _clipped_matches(candidate, reference, n)
            match_tot[n] += m
            cand_tot[n] += t
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        if cand_tot[n] == 0:
            continue
        if match_tot[n] == 0:
            return 0.0
        log_sum += math.log(match_tot[n] / cand_tot[n])
    return _brevity_penalty(cand_len, ref_len) * math.exp(log_sum / max_n)


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def rouge_n_f1(candidate: Tokens, reference: Tokens, n: int) -> float:
    """ROUGE-N F1 against one reference, which `evaluate_pairs` gives as
    the test review's sentences joined; a reference shorter than n scores 0."""
    ref_total = len(reference) - n + 1
    if ref_total <= 0:
        return 0.0
    cand_total = max(len(candidate) - n + 1, 0)
    cand_counts = _ngram_counts(candidate, n)
    ref_counts = _ngram_counts(reference, n)
    matched = sum(min(cnt, cand_counts[gram]) for gram, cnt in ref_counts.items())
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

    `records` is an iterable of dicts with keys `pred_sentences` (list of
    token lists), `truth_sentences` (list of token lists), and `lexicon`
    lookups already applied as `pred_attrs`/`truth_attrs` sets.
    """
    bleu_pairs = []
    r1 = r2 = rl = 0.0
    ap = ar = af = 0.0
    n = 0
    attr_n = 0
    for rec in records:
        pred_concat = [t for s in rec["pred_sentences"] for t in s]
        truth_concat = [t for s in rec["truth_sentences"] for t in s]
        bleu_pairs.append((pred_concat, truth_concat))
        r1 += rouge_n_f1(pred_concat, truth_concat, 1)
        r2 += rouge_n_f1(pred_concat, truth_concat, 2)
        rl += rouge_l_f1(pred_concat, truth_concat)
        n += 1
        truth_attrs = rec["truth_attrs"]
        if truth_attrs:
            p, r, f = set_prf(rec["pred_attrs"], truth_attrs)
            ap += p
            ar += r
            af += f
            attr_n += 1
    report = EvalReport(pairs=n)
    if n == 0:
        return report
    report.bleu1 = corpus_bleu(bleu_pairs, 1)
    report.bleu2 = corpus_bleu(bleu_pairs, 2)
    report.bleu4 = corpus_bleu(bleu_pairs, 4)
    report.rouge1 = r1 / n
    report.rouge2 = r2 / n
    report.rougeL = rl / n
    if attr_n:
        report.attr_precision = ap / attr_n
        report.attr_recall = ar / attr_n
        report.attr_f1 = af / attr_n
    report.attr_pairs = attr_n
    return report
