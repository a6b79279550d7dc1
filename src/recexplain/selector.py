"""Top-K sentence selection balancing relevance against redundancy.

Given model scores for (at most) the 100 best candidates, we maximize

    sum_{i in chosen} g_i  -  alpha * sum_{ordered pairs i != j in chosen} sim(i, j)

over subsets of size K.  The pair sum ranges over ordered pairs, so each
unordered pair is counted twice (sim is symmetric); this matches the
integer-program formulation whose pair-indicator count is K*(K-1).
Solved exactly by branch and bound up to a size cap, greedily beyond it.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

_TIE_EPS = 1e-12


class SelectorError(Exception):
    pass


@dataclass
class SelectionProblem:
    scores: np.ndarray  # (n,)
    sim: np.ndarray  # (n, n) symmetric, zero diagonal, values in [0, 1]
    k: int
    alpha: float

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.sim = np.asarray(self.sim, dtype=float)
        n = self.scores.shape[0]
        if n < 1:
            raise SelectorError("need at least one candidate")
        if self.sim.shape != (n, n):
            raise SelectorError(f"similarity matrix shape {self.sim.shape} != ({n}, {n})")
        if not np.allclose(self.sim, self.sim.T, atol=1e-12):
            raise SelectorError("similarity matrix must be symmetric")
        np.fill_diagonal(self.sim, 0.0)

    @property
    def n(self) -> int:
        return int(self.scores.shape[0])


@dataclass
class Selection:
    indices: tuple[int, ...]  # sorted ascending
    objective: float
    solver: str  # "exact" | "greedy"


def objective(problem: SelectionProblem, chosen) -> float:
    """Objective of a subset; the ordered-pair penalty doubles each pair."""
    chosen = sorted(chosen)
    rel = float(problem.scores[chosen].sum())
    pen = 0.0
    for a in range(len(chosen)):
        for b in range(a + 1, len(chosen)):
            pen += problem.sim[chosen[a], chosen[b]]
    return rel - problem.alpha * 2.0 * pen


def _top_k_by_score(problem: SelectionProblem, k: int) -> tuple[int, ...]:
    order = np.argsort(-problem.scores, kind="stable")
    return tuple(sorted(int(i) for i in order[:k]))


def solve_greedy(problem: SelectionProblem) -> Selection:
    """Iteratively add the candidate with the best marginal gain
    g_i - 2*alpha*sum_{j chosen} sim(i, j); ties break on index.
    """
    k = min(problem.k, problem.n)
    chosen: list[int] = []
    pen_to_chosen = np.zeros(problem.n)
    available = np.ones(problem.n, dtype=bool)
    for _ in range(k):
        marginal = problem.scores - 2.0 * problem.alpha * pen_to_chosen
        marginal = np.where(available, marginal, -np.inf)
        pick = int(np.argmax(marginal))  # argmax returns the first (lowest index) max
        chosen.append(pick)
        available[pick] = False
        pen_to_chosen += problem.sim[pick]
    chosen_t = tuple(sorted(chosen))
    return Selection(chosen_t, objective(problem, chosen_t), "greedy")


def solve_exact(problem: SelectionProblem, cap: int = 100) -> Selection:
    """Optimal subset via depth-first branch and bound.

    Candidates are explored in descending-score order with an upper bound
    of (current value) + (sum of the best K-m remaining marginal gains
    against the current choice); future pair penalties among not-yet-chosen
    items are nonnegative, so the bound is valid.  Ties on the optimum go
    to the lexicographically smallest index set.  Above `cap` candidates
    this falls back to the greedy solver with a logged downgrade.
    """
    n = problem.n
    if n > cap:
        log.warning("exact solver cap %d exceeded (n=%d); falling back to greedy", cap, n)
        return solve_greedy(problem)
    k = min(problem.k, problem.n)
    if k == problem.n:
        chosen = tuple(range(n))
        return Selection(chosen, objective(problem, chosen), "exact")
    if problem.alpha == 0.0 or not problem.sim.any():
        chosen = _top_k_by_score(problem, k)
        return Selection(chosen, objective(problem, chosen), "exact")

    order = [int(i) for i in np.argsort(-problem.scores, kind="stable")]
    scores = problem.scores
    sim = problem.sim
    alpha2 = 2.0 * problem.alpha

    # warm start so the bound prunes from the first branches
    seed = solve_greedy(problem)
    best_obj = seed.objective
    best_set = seed.indices

    chosen: list[int] = []
    pen_to_chosen = np.zeros(n)

    def bound(pos: int, cur: float) -> float:
        slots = k - len(chosen)
        gains = [scores[j] - alpha2 * pen_to_chosen[j] for j in order[pos:]]
        gains.sort(reverse=True)
        return cur + sum(gains[:slots])

    def dfs(pos: int, cur: float):
        nonlocal best_obj, best_set
        if len(chosen) == k:
            cand = tuple(sorted(chosen))
            if cur > best_obj + _TIE_EPS or (
                abs(cur - best_obj) <= _TIE_EPS and cand < best_set
            ):
                best_obj, best_set = cur, cand
            return
        if n - pos < k - len(chosen):
            return
        if bound(pos, cur) < best_obj - _TIE_EPS:
            return
        j = order[pos]
        # include j first: descending-score order finds strong incumbents early
        gain = scores[j] - alpha2 * pen_to_chosen[j]
        chosen.append(j)
        pen_to_chosen[:] += sim[j]
        dfs(pos + 1, cur + gain)
        pen_to_chosen[:] -= sim[j]
        chosen.pop()
        dfs(pos + 1, cur)

    dfs(0, 0.0)
    return Selection(best_set, objective(problem, best_set), "exact")


class TfidfVectorizer:
    """tf-idf over tokenized sentences: raw counts times ln(N / (1 + df)).

    Document frequencies come from the training split.  Tokens unseen in
    training carry no weight, and idf is floored at zero, which keeps all
    components (and hence every cosine) nonnegative.
    """

    def __init__(self, train_sentences: list[list[str]]):
        self.n_docs = len(train_sentences)
        df = Counter()
        for words in train_sentences:
            df.update(set(words))
        self.idf = {
            tok: max(0.0, math.log(self.n_docs / (1.0 + d))) for tok, d in df.items()
        }

    def vector(self, words) -> dict[str, float]:
        vec = {}
        for tok, tf in Counter(words).items():
            idf = self.idf.get(tok, 0.0)
            if idf > 0.0:
                vec[tok] = tf * idf
        norm = math.sqrt(sum(v * v for v in vec.values()))
        if norm == 0.0:
            return {}
        return {tok: v / norm for tok, v in vec.items()}

    def matrix(self, sentences: list[list[str]]) -> np.ndarray:
        """Pairwise cosine similarity with a forced zero diagonal."""
        vecs = [self.vector(words) for words in sentences]
        for i, v in enumerate(vecs):
            if not v:
                log.warning("sentence %d has no tf-idf mass; similarity 0 to everything", i)
        n = len(vecs)
        sim = np.zeros((n, n))
        for i in range(n):
            vi = vecs[i]
            if not vi:
                continue
            for j in range(i + 1, n):
                s = sum(w * vecs[j].get(tok, 0.0) for tok, w in vi.items())
                sim[i, j] = sim[j, i] = s
        return sim


@dataclass
class SelectConfig:
    k: int = 5
    alpha: float = 2.0
    pool: int = 100
    exact_cap: int = 100
    disable_ilp: bool = False


def select_for_pair(
    scores: np.ndarray,
    sentence_words: list[list[str]],
    vectorizer: TfidfVectorizer,
    cfg: SelectConfig,
) -> tuple[Selection, list[int]]:
    """Truncate to the top-`pool` scored candidates, build the similarity
    matrix, and solve.  Returns the selection plus the mapping from
    subproblem indices back to the caller's candidate indices.

    With `disable_ilp` the redundancy term is dropped (alpha treated as 0)
    and selection degenerates to descending-score top-K.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        log.warning("no candidates to select from")
        return Selection((), 0.0, "greedy" if cfg.disable_ilp else "exact"), []
    order = [int(i) for i in np.argsort(-scores, kind="stable")[: cfg.pool]]
    sub_scores = scores[order]
    if cfg.disable_ilp:
        problem = SelectionProblem(sub_scores, np.zeros((len(order), len(order))), cfg.k, 0.0)
        sel = solve_greedy(problem)
    else:
        sim = vectorizer.matrix([sentence_words[i] for i in order])
        problem = SelectionProblem(sub_scores, sim, cfg.k, cfg.alpha)
        sel = solve_exact(problem, cap=cfg.exact_cap)
    return sel, order
