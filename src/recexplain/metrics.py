"""Text-overlap metrics: sentence/corpus BLEU, ROUGE-1/2/L F1, attribute P/R/F1.

These serve double duty: smoothed sentence BLEU supplies the relevance
supervision for ranking, and the full suite scores final explanations
against held-out reviews.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field

log = logging.getLogger(__name__)

Tokens = list[str]


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def _clipped_matches(candidate, references, n: int) -> tuple[int, int]:
    """Modified n-gram precision counts: (clipped matches, candidate total)."""
    total = max(len(candidate) - n + 1, 0)
    if total == 0:
        return 0, 0
    cand = _ngram_counts(candidate, n)
    ref_max: Counter = Counter()
    for ref in references:
        for gram, cnt in _ngram_counts(ref, n).items():
            if cnt > ref_max[gram]:
                ref_max[gram] = cnt
    matches = sum(min(cnt, ref_max[gram]) for gram, cnt in cand.items())
    return matches, total


def _closest_ref_len(cand_len: int, references) -> int:
    # standard convention: closest reference length, ties toward the shorter
    return min((len(r) for r in references), key=lambda rl: (abs(rl - cand_len), rl))


def _brevity_penalty(cand_len: int, ref_len: int) -> float:
    if cand_len >= ref_len:
        return 1.0
    return math.exp(1.0 - ref_len / cand_len)


def sentence_bleu(candidate: Tokens, references: list[Tokens], max_n: int = 4) -> float:
    """Smoothed sentence-level BLEU in [0, 1].

    Geometric mean of modified n-gram precisions up to `max_n`, times the
    brevity penalty.  Smoothing: orders >= 2 with a zero match count fall
    back to add-one, 1/(total+1); orders the candidate is too short for
    count as vacuously 1.  A candidate with no unigram overlap scores 0 --
    smoothing never manufactures similarity out of nothing.
    """
    candidate = list(candidate)
    references = [list(r) for r in references if r]
    if not candidate:
        log.warning("sentence_bleu: empty candidate scored 0")
        return 0.0
    if not references:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        matches, total = _clipped_matches(candidate, references, n)
        if n == 1 and matches == 0:
            return 0.0
        if matches > 0:
            p = matches / total
        else:
            p = 1.0 / (total + 1)
        log_sum += math.log(p)
    bp = _brevity_penalty(len(candidate), _closest_ref_len(len(candidate), references))
    return bp * math.exp(log_sum / max_n)


def corpus_bleu(pairs: list[tuple[Tokens, list[Tokens]]], max_n: int = 4) -> float:
    """Corpus-level BLEU with pooled n-gram statistics, no smoothing.

    Any order with pooled matches == 0 (but a nonzero candidate count)
    zeroes the score; orders no candidate is long enough for are vacuous.
    Single-pair input agrees with sentence_bleu whenever all raw
    precisions are positive.
    """
    if not pairs:
        return 0.0
    match_tot = [0] * (max_n + 1)
    cand_tot = [0] * (max_n + 1)
    cand_len = 0
    ref_len = 0
    for candidate, references in pairs:
        candidate = list(candidate)
        references = [list(r) for r in references if r]
        if not references:
            continue
        cand_len += len(candidate)
        ref_len += _closest_ref_len(len(candidate), references)
        if not candidate:
            continue
        for n in range(1, max_n + 1):
            m, t = _clipped_matches(candidate, references, n)
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


def rouge_n_f1(candidate: Tokens, references: list[Tokens], n: int) -> float:
    """ROUGE-N F1; with several references the best per-reference F1 wins.

    References shorter than n are skipped.
    """
    candidate = list(candidate)
    cand_total = max(len(candidate) - n + 1, 0)
    cand_counts = _ngram_counts(candidate, n)
    best = 0.0
    scored_any = False
    for ref in references:
        ref = list(ref)
        ref_total = len(ref) - n + 1
        if ref_total <= 0:
            continue
        scored_any = True
        ref_counts = _ngram_counts(ref, n)
        matched = sum(min(cnt, cand_counts[gram]) for gram, cnt in ref_counts.items())
        recall = matched / ref_total
        precision = matched / cand_total if cand_total > 0 else 0.0
        best = max(best, _f1(precision, recall))
    if not scored_any:
        return 0.0
    return best


def lcs_length(a, b) -> int:
    """Longest common subsequence length, O(len(a)*len(b)) time, O(len(b)) space."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l_f1(candidate: Tokens, references: list[Tokens]) -> float:
    """ROUGE-L F1 from the longest common subsequence; best over references."""
    candidate = list(candidate)
    best = 0.0
    for ref in references:
        ref = list(ref)
        if not candidate or not ref:
            continue
        lcs = lcs_length(candidate, ref)
        precision = lcs / len(candidate)
        recall = lcs / len(ref)
        best = max(best, _f1(precision, recall))
    return best


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

    def to_dict(self) -> dict:
        return {
            "pairs": self.pairs,
            "excluded": self.excluded,
            "bleu1": self.bleu1,
            "bleu2": self.bleu2,
            "bleu4": self.bleu4,
            "rouge1": self.rouge1,
            "rouge2": self.rouge2,
            "rougeL": self.rougeL,
            "attr_precision": self.attr_precision,
            "attr_recall": self.attr_recall,
            "attr_f1": self.attr_f1,
            "attr_pairs": self.attr_pairs,
            "aggregation": self.aggregation,
        }

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
        bleu_pairs.append((pred_concat, [truth_concat]))
        r1 += rouge_n_f1(pred_concat, [truth_concat], 1)
        r2 += rouge_n_f1(pred_concat, [truth_concat], 2)
        rl += rouge_l_f1(pred_concat, [truth_concat])
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
