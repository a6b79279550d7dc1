"""Top-K sentence selection balancing relevance against redundancy.

Given model scores for (at most) the 100 best candidates, we maximize

    sum_{i in chosen} g_i  -  alpha * sum_{ordered pairs i != j in chosen} sim(i, j)

over subsets of size K.  The pair sum ranges over ordered pairs, so each
unordered pair is counted twice (sim is symmetric); this matches the
integer-program formulation whose pair-indicator count is K*(K-1).

Solved exactly up to a size cap, greedily beyond it.  The exact solver
picks one of two paths from (n, K) alone:

- C(n, K) <= ENUM_LIMIT: every K-subset is scored at once in numpy, as a
  0/1 member matrix X with objective X @ g - alpha * rowsum((X @ sim) * X).
  The rows are scored in blocks of _ENUM_BLOCK, so the float temporaries
  stay a few hundred kB whatever C(n, K) is.  Scoring all 12,870 rows of
  n = 16, K = 8 in one go makes three 1.6 MB temporaries: on the
  select_heavy benchmark it raised peak RSS from 47.5 to 50.5 MB and
  select time by 60%.
- otherwise, branch and bound: a depth-first search over the candidates in
  descending-score order, run on Python lists.  Its bound charges every
  candidate still open the least pair penalty it can pay among the
  remaining picks: the sum of its slots - 1 smallest similarities to the
  rest of the suffix, precomputed once per problem (see `solve_exact` for
  the proof).  A search that exceeds NODE_BUDGET nodes returns its
  incumbent, the best set found so far, which is never worse than the
  greedy solution.

ENUM_LIMIT is about where enumeration stops beating the search.  Most of
the search's nodes go to proving a set optimal, not to finding it, so on
small problems scoring every subset is cheaper: at n = 16, K = 8 (12,870
subsets) enumeration takes about a fifth of the search's time.  At K = 5
the search is cheaper and the two cross between n = 18 and n = 22
(8,568 to 26,334 subsets).  Both paths break ties on the optimum toward
the lexicographically smallest index set.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

_TIE_EPS = 1e-12
# branch-and-bound nodes before `solve_exact` settles for its incumbent;
# the benchmark's searches need a few thousand at most
NODE_BUDGET = 100_000
# largest C(n, K) that `solve_exact` enumerates instead of searching; set
# from both solvers' per-size times on the benchmark's captured problems
ENUM_LIMIT = 13_000
_ENUM_BLOCK = 1024  # subsets scored per matrix product


class SelectorError(Exception):
    pass


class _OverBudget(Exception):
    pass


@dataclass
class SelectionProblem:
    scores: np.ndarray  # (n,) finite
    sim: np.ndarray  # (n, n) finite and symmetric; a zero-diagonal copy is kept
    k: int
    alpha: float  # finite, >= 0

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=float)
        self.sim = np.array(self.sim, dtype=float)  # a copy: the diagonal is zeroed below
        n = self.scores.shape[0]
        if n < 1:
            raise SelectorError("need at least one candidate")
        if self.sim.shape != (n, n):
            raise SelectorError(f"similarity matrix shape {self.sim.shape} != ({n}, {n})")
        if not np.isfinite(self.scores).all():
            raise SelectorError("scores must be finite")
        if not np.isfinite(self.sim).all():
            raise SelectorError("similarity matrix must be finite")
        if not np.allclose(self.sim, self.sim.T, atol=1e-12):
            raise SelectorError("similarity matrix must be symmetric")
        if not (math.isfinite(self.alpha) and self.alpha >= 0.0):
            raise SelectorError(f"alpha must be finite and >= 0, got {self.alpha}")
        np.fill_diagonal(self.sim, 0.0)

    @property
    def n(self) -> int:
        return int(self.scores.shape[0])


@dataclass
class Selection:
    indices: tuple[int, ...]  # sorted ascending
    objective: float
    solver: str  # "exact": proven optimal; "greedy": not proven optimal


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


def _suffix_floors(sim: np.ndarray, k: int) -> np.ndarray:
    """floors[p, s, t] for s < k: the sum of the s smallest similarities from
    position t to the other positions of the suffix p..n-1 (inf where that
    suffix has fewer than s others).
    """
    n = sim.shape[0]
    pos = np.arange(n)
    # cube[p, t, u] = sim[t, u], masked where u is before the suffix or u == t
    cube = np.where((pos[:, None, None] > pos) | (pos[:, None] == pos), np.inf, sim)
    smallest = np.sort(cube, axis=2)[:, :, : k - 1]
    floors = np.zeros((n, k, n))
    floors[:, 1:, :] = np.cumsum(smallest, axis=2).transpose(0, 2, 1)
    return floors


@functools.lru_cache(maxsize=64)
def _k_subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n) as a read-only (C(n, k), n) bool member
    matrix, rows in lexicographic order of their index tuples.  Cached, so
    the array is shared between calls and must not be written.
    """
    count = math.comb(n, k)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    cols = np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k)
    members = np.zeros((count, n), dtype=bool)
    members[np.arange(count)[:, None], cols] = True
    members.setflags(write=False)
    return members


def _solve_enumerate(problem: SelectionProblem, k: int) -> Selection:
    """Score every k-subset, block by block; the first row within _TIE_EPS
    of the best is the lexicographically smallest optimal set.
    """
    members = _k_subsets(problem.n, k)
    values = np.empty(len(members))
    for start in range(0, len(members), _ENUM_BLOCK):
        x = members[start : start + _ENUM_BLOCK].astype(float)
        pairs = ((x @ problem.sim) * x).sum(axis=1)  # ordered pairs: each counted twice
        values[start : start + len(x)] = x @ problem.scores - problem.alpha * pairs
    row = int(np.argmax(values >= values.max() - _TIE_EPS))
    chosen = tuple(int(i) for i in np.flatnonzero(members[row]))
    return Selection(chosen, objective(problem, chosen), "exact")


def solve_exact(problem: SelectionProblem, cap: int = 100) -> Selection:
    """Optimal subset, by enumeration when C(n, K) <= ENUM_LIMIT and by
    depth-first branch and bound otherwise.

    The search walks candidates in descending-score order (stable on
    index), taking position `pos` into the set before leaving it out, so
    strong incumbents come early; the greedy solution is the warm start.
    Ties on the optimum go to the lexicographically smallest index set.

    The bound: at a node, slots = K - |chosen| picks remain, all from the
    suffix of positions pos..n-1, and a completion P adds
    sum_{j in P} (g_j - 2*alpha*pen_j - alpha * sum_{i in P, i != j} sim(i, j)),
    with pen_j the similarity of j to the chosen set.  Proof in one line:
    j's inner sum has slots - 1 terms drawn from its similarities to the
    rest of the suffix, so it is at least floor(pos, slots, j), the sum of
    the slots - 1 smallest of those; hence the node's best value is at most
    cur + the top `slots` of g_j - 2*alpha*pen_j - alpha*floor(pos, slots, j).
    This holds for any sign of sim as long as alpha >= 0, which
    `SelectionProblem` checks.  The floors for every suffix and slot count
    are computed once per problem.

    Cases in order: K >= n takes every candidate, and alpha = 0 or no
    similarity takes the top K by score; both are "exact" at any n.  Above
    `cap` candidates the greedy solution is returned.  Then, if C(n, K) <=
    ENUM_LIMIT, `_solve_enumerate` scores every K-subset (blocks of
    _ENUM_BLOCK rows, so memory stays flat); below that many subsets
    enumeration beats the search, which spends most of its nodes proving
    optimality.  Otherwise the search runs: a search past NODE_BUDGET nodes
    returns its incumbent, the greedy warm start or a better set found
    since.  The cap and the budget log a warning and are labelled
    "greedy", meaning "not proven optimal".  Both exact paths return the
    lexicographically smallest optimal set.
    """
    n = problem.n
    k = min(problem.k, n)
    if k == n:
        chosen = tuple(range(n))
        return Selection(chosen, objective(problem, chosen), "exact")
    if problem.alpha == 0.0 or not problem.sim.any():
        chosen = _top_k_by_score(problem, k)
        return Selection(chosen, objective(problem, chosen), "exact")
    if n > cap:
        log.warning("exact solver cap %d exceeded (n=%d); falling back to greedy", cap, n)
        return solve_greedy(problem)
    if math.comb(n, k) <= ENUM_LIMIT:
        return _solve_enumerate(problem, k)

    # warm start so the bound prunes from the first branches
    warm = solve_greedy(problem)
    best_obj, best_set = warm.objective, warm.indices

    # the search runs over positions in score order, on Python floats
    order = np.argsort(-problem.scores, kind="stable")
    sim = problem.sim[np.ix_(order, order)]
    g = problem.scores[order]
    alpha2 = 2.0 * problem.alpha
    # heads[pos][slots - 1][t - pos] = g_t - alpha * floor(pos, slots, t)
    heads_arr = g - problem.alpha * _suffix_floors(sim, k)
    heads = [heads_arr[p, :, p:].tolist() for p in range(n)]
    rows = sim.tolist()
    g = g.tolist()
    order = order.tolist()

    chosen: list[int] = []  # positions
    pen = [0.0] * n  # similarity of each position to the chosen set
    nodes = 0

    def dfs(pos: int, cur: float):
        nonlocal best_obj, best_set, nodes
        nodes += 1
        if nodes > NODE_BUDGET:
            raise _OverBudget
        slots = k - len(chosen)
        if slots == 0:
            cand = tuple(sorted(order[p] for p in chosen))
            if cur > best_obj + _TIE_EPS or (
                abs(cur - best_obj) <= _TIE_EPS and cand < best_set
            ):
                best_obj, best_set = cur, cand
            return
        if n - pos < slots:
            return
        terms = [h - alpha2 * q for h, q in zip(heads[pos][slots - 1], pen[pos:])]
        terms.sort(reverse=True)
        if cur + sum(terms[:slots]) < best_obj - _TIE_EPS:
            return
        gain = g[pos] - alpha2 * pen[pos]
        saved = pen[pos + 1 :]
        pen[pos + 1 :] = [q + s for q, s in zip(saved, rows[pos][pos + 1 :])]
        chosen.append(pos)
        dfs(pos + 1, cur + gain)
        chosen.pop()
        pen[pos + 1 :] = saved
        dfs(pos + 1, cur)

    try:
        dfs(0, 0.0)
    except _OverBudget:
        log.warning(
            "exact solver node budget %d exceeded (n=%d, K=%d); returning the best set found",
            NODE_BUDGET, n, k,
        )
        return Selection(best_set, objective(problem, best_set), "greedy")
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
        """Pairwise cosine similarity with a forced zero diagonal.

        Cell (i, j), i < j, is the dot product summed over the tokens of
        row i in their `vector` order, and mirrored below the diagonal.
        The sum runs one token slot at a time across all pairs: slot l adds
        the l-th term of every row's sum, so each cell sees the same
        additions in the same order as a per-pair loop, bit for bit.
        """
        vecs = [self.vector(words) for words in sentences]
        for i, v in enumerate(vecs):
            if not v:
                log.warning("sentence %d has no tf-idf mass; similarity 0 to everything", i)
        n = len(vecs)
        columns: dict[str, int] = {}
        width = max((len(v) for v in vecs), default=0)
        weights = np.zeros((n, width))  # slot l of row i: its l-th token's weight
        slots = np.full((n, width), -1, dtype=np.intp)  # ... and its column; -1 pads
        for i, v in enumerate(vecs):
            for l, (tok, w) in enumerate(v.items()):
                weights[i, l] = w
                slots[i, l] = columns.setdefault(tok, len(columns))
        dense = np.zeros((n, len(columns) + 1))  # the last column stays zero
        dense[np.arange(n)[:, None], slots] = weights
        sim = np.zeros((n, n))
        for l in range(width):
            sim += weights[:, l : l + 1] * dense[:, slots[:, l]].T
        sim = np.triu(sim, k=1)
        return sim + sim.T


@dataclass
class SelectConfig:
    k: int = 5
    alpha: float = 2.0
    pool: int = 100
    exact_cap: int = 100


def select_for_pair(
    scores: np.ndarray,
    sentence_words: list[list[str]],
    vectorizer: TfidfVectorizer,
    cfg: SelectConfig,
) -> tuple[Selection, list[int]]:
    """Truncate to the top-`pool` scored candidates, build the similarity
    matrix, and solve with `solve_exact`.  Returns the selection plus the
    mapping from subproblem indices back to the caller's candidate indices.

    The subproblem is in descending-score order, so with alpha = 0 (the
    --no-ilp ablation) the selection is its first K positions; no term
    reads the similarity matrix then, so it stays all zero instead of being
    built.  No candidates is a `SelectorError`; `build_pair_graph` never
    yields an empty pool.
    """
    scores = np.asarray(scores, dtype=float)
    order = [int(i) for i in np.argsort(-scores, kind="stable")[: cfg.pool]]
    if cfg.alpha == 0.0:
        sim = np.zeros((len(order), len(order)))
    else:
        sim = vectorizer.matrix([sentence_words[i] for i in order])
    problem = SelectionProblem(scores[order], sim, cfg.k, cfg.alpha)
    return solve_exact(problem, cap=cfg.exact_cap), order
