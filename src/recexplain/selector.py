"""Top-K sentence selection balancing relevance against redundancy.

Given model scores for the (at most) `selection.pool` best candidates, maximize

    sum_{i in chosen} g_i  -  alpha * sum_{ordered pairs i != j in chosen} sim(i, j)

over subsets of size K.  The pair sum ranges over ordered pairs, so each
unordered pair is counted twice (sim is symmetric); this matches the
integer-program formulation whose pair-indicator count is K*(K-1).

Solved exactly up to a size cap, greedily beyond it.  The exact solver
picks one of two paths from C(n, K) alone:

- C(n, K) <= ENUM_LIMIT: split enumeration, meet-in-the-middle style
  (Horowitz & Sahni 1974).  The candidates are cut at h = n // 2.  For each
  m, the number of picks from the first half, every pair (A, B) of an
  m-subset A of the first half and a (K - m)-subset B of the second is
  scored in one (C(h, m), C(n - h, K - m)) block,

      v(A)[:, None] + v(B)[None, :] - 2 * alpha * (A @ sim[:h, h:]) @ B.T,

  where v is a half's own score sum minus its redundancy and A, B are 0/1
  member rows.  Every array this builds holds at most ENUM_LIMIT numbers
  (400 KB), beside one (n + 1)^2 scaled copy of sim; `solve_exact` says why.
- otherwise, branch and bound: a depth-first search over the candidates in
  descending-score order, run on Python lists.  Its bound charges every
  candidate still open the least pair penalty it can pay among the
  remaining picks: the sum of its slots - 1 smallest similarities to the
  rest of the suffix, precomputed once per problem (see `solve_exact` for
  the proof).  A search that exceeds NODE_BUDGET nodes returns its
  incumbent, the best set found so far, which is never worse than the
  greedy solution.

ENUM_LIMIT is where the split's memory, not its speed, sets the bound: at
C(n, K) = 50,000 the split is still 3-6x faster than the search at both
K = 5 and K = 8, so one limit on C(n, K) serves every K.  Both paths break
ties on the optimum toward the lexicographically smallest index set.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

_TIE_EPS = 1e-12
# branch-and-bound nodes before `solve_exact` settles for its incumbent;
# with exact_cap 100, 1 of the first 16 seed-7 dense_pools problems exceeds it
NODE_BUDGET = 100_000
# largest C(n, K) that `solve_exact` enumerates instead of searching; it
# bounds the split's arrays (see `solve_exact`), and at it the split is
# still faster than the search for K = 5 and K = 8
ENUM_LIMIT = 50_000


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
        # np.allclose(sim, sim.T, atol=1e-12)'s rule, without its overhead; both are finite
        if not (np.abs(self.sim - self.sim.T) <= 1e-12 + 1e-5 * np.abs(self.sim.T)).all():
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
    """floors[p, s, t] for s < k and t >= p: the sum of the s smallest
    similarities from position t to the other positions of the suffix
    p..n-1 (inf where that suffix has fewer than s others).  Entries with
    t < p are 0.  One suffix is sorted at a time, so the work space is
    O(n^2) beside the (n, k, n) result.
    """
    n = sim.shape[0]
    floors = np.zeros((n, k, n))
    for p in range(n):
        # at least k - 1 columns, so a short suffix sums to inf
        rest = np.full((n - p, max(n - p, k - 1)), np.inf)
        rest[:, : n - p] = sim[p:, p:]
        np.fill_diagonal(rest, np.inf)
        smallest = np.sort(rest, axis=1)[:, : k - 1]
        floors[p, 1:, p:] = np.cumsum(smallest, axis=1).T
    return floors


@functools.lru_cache(maxsize=64)
def _k_subsets(n: int, k: int) -> np.ndarray:
    """Every k-subset of range(n) as a read-only (C(n, k), k) array of
    ascending index rows, in lexicographic order.  Cached, so the array is
    shared between calls and must not be written.
    """
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    rows = np.fromiter(flat, dtype=np.intp, count=math.comb(n, k) * k).reshape(math.comb(n, k), k)
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class _Half:
    """The subsets of one half of the candidates that the blocks use."""

    members: np.ndarray  # (R, w) index rows by size, then lexicographic; padded on the right with n
    rows: dict[int, slice]  # the rows of each size
    cells: np.ndarray  # (R, w(w+1)/2) flat cells of the (n+1)^2 matrix each row's value sums
    dense: np.ndarray  # 0/1 rows over the half's columns of the sizes 1..K-1 only,
    dense_from: int  # starting at this row of `members`


def _half(n: int, lo: int, hi: int, sizes: range, k: int) -> _Half:
    """The subsets of range(lo, hi) of each size in `sizes` (ascending)."""
    s, w = hi - lo, sizes[-1]
    members, rows, start = [], {}, 0
    for j in sizes:
        block = np.full((math.comb(s, j), w), n, dtype=np.intp)
        block[:, :j] = _k_subsets(s, j) + lo
        rows[j] = slice(start, start + len(block))
        members.append(block)
        start += len(block)
    members = np.concatenate(members)
    upper, lower = np.triu_indices(w)  # every pair of slots, diagonal included
    cells = members[:, upper] * (n + 1) + members[:, lower]
    inner = [rows[j] for j in sizes if 0 < j < k]
    first, last = (inner[0].start, inner[-1].stop) if inner else (0, 0)
    dense = np.zeros((last - first, s + 1))  # column s takes the padding
    np.put_along_axis(dense, np.where(members[first:last] == n, s, members[first:last] - lo), 1.0, axis=1)
    dense = np.ascontiguousarray(dense[:, :s])
    for array in (members, cells, dense):
        array.setflags(write=False)
    return _Half(members, rows, cells, dense, first)


@functools.lru_cache(maxsize=64)
def _split_plan(n: int, k: int):
    """What `_solve_split` needs that depends on (n, K) alone, for 1 <= K <=
    n / 2: the two halves; per block m (the picks from the first half) its
    rows of each half and its rows of their 0/1 parts (None when a side is
    empty); and where each block starts in the flat array of all C(n, K)
    values, with C(n, K) last.
    """
    h = n // 2
    sizes = range(max(0, k - (n - h)), min(k, h) + 1)
    first = _half(n, 0, h, sizes, k)
    second = _half(n, h, n, range(k - sizes[-1], k - sizes[0] + 1), k)
    blocks, offsets = [], [0]
    for m in sizes:
        a, b = first.rows[m], second.rows[k - m]
        cross = None
        if 0 < m < k:
            da, db = first.dense_from, second.dense_from
            cross = (slice(a.start - da, a.stop - da), slice(b.start - db, b.stop - db))
        blocks.append((m, a, b, cross))
        offsets.append(offsets[-1] + (a.stop - a.start) * (b.stop - b.start))
    offsets = np.array(offsets)
    offsets.setflags(write=False)
    return first, second, tuple(blocks), offsets


def _solve_split(problem: SelectionProblem, k: int) -> Selection:
    """Score every K-subset as (first-half part, second-half part) blocks
    and return the lexicographically smallest set within _TIE_EPS of the
    best; `solve_exact` explains the layout and the tie rule.
    """
    n, alpha = problem.n, problem.alpha
    g, flip = problem.scores, 2 * k > n
    if flip:  # score the n - K candidates left out instead
        g = 2.0 * alpha * problem.sim.sum(axis=1) - g
        k = n - k
    first, second, blocks, offsets = _split_plan(n, k)
    h = n // 2
    # pad[i, j] = -2 alpha sim(i, j) for i != j and g_i on the diagonal;
    # row and column n are the padding index's, all 0
    pad = np.zeros((n + 1, n + 1))
    np.multiply(problem.sim, -2.0 * alpha, out=pad[:n, :n])
    pad.flat[: n * (n + 2) : n + 2] = g
    value_a = pad.take(first.cells).sum(axis=1)
    value_b = pad.take(second.cells).sum(axis=1)
    cross_a = first.dense @ pad[:h, h:n]
    values = np.empty(offsets[-1])
    for (_, a, b, cross), start, stop in zip(blocks, offsets, offsets[1:]):
        block = values[start:stop].reshape(a.stop - a.start, b.stop - b.start)
        np.add(value_a[a, None], value_b[b], out=block)
        if cross is not None:
            block += cross_a[cross[0]] @ second.dense[cross[1]].T
    hits = np.flatnonzero(values >= values.max() - _TIE_EPS)
    # a block's rows are in lexicographic order, so its first hit is its
    # smallest near-optimal set; flipped, its last is the largest
    if flip:
        at = np.searchsorted(hits, offsets[1:]) - 1
    else:
        at = np.minimum(np.searchsorted(hits, offsets[:-1]), len(hits) - 1)
    found = []
    for (m, a, b, _), start, stop, pos in zip(blocks, offsets, offsets[1:], hits[at].tolist()):
        if start <= pos < stop:
            r, c = divmod(pos - start, b.stop - b.start)
            chosen = first.members[a.start + r, :m].tolist() + second.members[b.start + c, : k - m].tolist()
            found.append(tuple(chosen))
    if flip:
        left_out = set(max(found))
        chosen = tuple(i for i in range(n) if i not in left_out)
    else:
        chosen = min(found)
    return Selection(chosen, objective(problem, chosen), "exact")


def solve_exact(problem: SelectionProblem, cap: int) -> Selection:
    """Optimal subset, by split enumeration when C(n, K) <= ENUM_LIMIT and
    by depth-first branch and bound otherwise.  Both return the
    lexicographically smallest optimal set.

    Cases in order: K >= n takes every candidate, and alpha = 0 or no
    similarity takes the top K by score; both are "exact" at any n.  Above
    `cap` candidates the greedy solution is returned.  Then C(n, K) alone
    picks the path.  The cap and the search's budget log a warning and are
    labelled "greedy", meaning "not proven optimal".

    The split (`_solve_split`).  Each block's rows are the first half's
    m-subsets in lexicographic order and its columns the second half's
    (K - m)-subsets, likewise.  Every element of A is below every element
    of B, so the row-major order of a block is the lexicographic order of
    the sets A | B, and the block's first cell within _TIE_EPS of the
    global maximum is its smallest near-optimal set.  The smallest of
    those per-block sets (at most K + 1) is the answer.  The tie rule is
    lexicographic so that the chosen set does not depend on which path
    solved the problem: the block layout gives that order for free, and
    the search, which meets sets in score order, can still compare index
    tuples.

    When 2K > n the split scores the n - K candidates T left out instead:
    with r_i the row sums of sim, the objective of the complement of T is
    a constant plus sum_{i in T} (2*alpha*r_i - g_i) - alpha * (ordered
    pair sum over T), the same form with n - K picks.  The smallest chosen
    set is the complement of the largest T, so each block gives its last
    near-optimal cell and the largest of those wins.

    The memory bound.  With K' = min(K, n - K) picks, every block, every
    member-row and gather array of a half, the 0/1 rows of the sizes that
    meet a cross term (1..K' - 1) and their product with sim[:h, h:] hold
    at most ENUM_LIMIT numbers each, beside one (n + 1)^2 scaled copy of
    sim (checked for every shape in the tests).  The blocks are
    C(n, K) <= ENUM_LIMIT numbers together.  Only the sizes that meet a
    cross term are kept as 0/1 rows: a pure block (m = 0 or m = K') is a
    half's K'-subsets alone, and as 0/1 rows those would hold about four
    times ENUM_LIMIT (n = 67, K = 3), so a half's own values are summed
    from gathered pairs instead.

    The search.  It walks candidates in descending-score order (stable on
    index), taking position `pos` into the set before leaving it out, so
    strong incumbents come early; the greedy solution is the warm start.
    At a node, slots = K - |chosen| picks remain, all from the suffix of
    positions pos..n-1, and a completion P adds
    sum_{j in P} (g_j - 2*alpha*pen_j - alpha * sum_{i in P, i != j} sim(i, j)),
    with pen_j the similarity of j to the chosen set.  Proof in one line:
    j's inner sum has slots - 1 terms drawn from its similarities to the
    rest of the suffix, so it is at least floor(pos, slots, j), the sum of
    the slots - 1 smallest of those; hence the node's best value is at most
    cur + the top `slots` of g_j - 2*alpha*pen_j - alpha*floor(pos, slots, j).
    This holds for any sign of sim as long as alpha >= 0, which
    `SelectionProblem` checks.  The floors for every suffix and slot count
    are computed once per problem.  Most of the search's nodes go to
    proving a set optimal, which is why the split wins below ENUM_LIMIT.
    A search past NODE_BUDGET nodes returns its incumbent, the greedy warm
    start or a better set found since.
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
        return _solve_split(problem, k)

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

    Every token with idf > 0 gets a column at fit time, in sorted token
    order.  Each distinct sentence's normalised row is computed once and
    kept, as (ascending column ids, weights), for as long as the
    vectorizer lives, so a pool's matrix depends only on its words and the
    fit, never on the pools built before it.
    """

    def __init__(self, train_sentences: list[list[str]]):
        self.n_docs = len(train_sentences)
        df = Counter()
        for words in train_sentences:
            df.update(set(words))
        self.idf = {
            tok: max(0.0, math.log(self.n_docs / (1.0 + d))) for tok, d in df.items()
        }
        weighted = sorted(tok for tok, idf in self.idf.items() if idf > 0.0)
        self.columns = {tok: c for c, tok in enumerate(weighted)}
        self._rows: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}

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

    def _row(self, words) -> tuple[np.ndarray, np.ndarray]:
        key = tuple(words)
        row = self._rows.get(key)
        if row is None:
            items = sorted(self.vector(key).items())  # token order is column order
            cols = np.array([self.columns[tok] for tok, _ in items], dtype=np.intp)
            row = self._rows[key] = (cols, np.array([w for _, w in items]))
        return row

    def matrix(self, sentences: list[list[str]]) -> np.ndarray:
        """Pairwise cosine similarity with a forced zero diagonal.

        The pool's rows fill a dense (n x pool-vocabulary) matrix D, its
        columns the union of the rows' columns in ascending order, and the
        cosines are one product D @ D.T.  Each cell is within 1e-14 of the
        per-pair sum (the summation order is BLAS's).  BLAS does not promise
        that cells (i, j) and (j, i) are bit-equal, so the upper triangle is
        mirrored: the matrix is exactly symmetric, and a sentence without
        tf-idf mass has an exactly zero row.
        """
        rows = [self._row(words) for words in sentences]
        for i, (cols, _) in enumerate(rows):
            if not len(cols):
                log.warning("sentence %d has no tf-idf mass; similarity 0 to everything", i)
        n = len(rows)
        if n == 0:
            return np.zeros((0, 0))
        vocab, slots = np.unique(np.concatenate([cols for cols, _ in rows]), return_inverse=True)
        dense = np.zeros((n, len(vocab)))
        owner = np.repeat(np.arange(n), [len(cols) for cols, _ in rows])
        dense[owner, slots] = np.concatenate([w for _, w in rows])
        sim = np.triu(dense @ dense.T, k=1)
        return sim + sim.T


@dataclass
class SelectConfig:
    k: int = 5
    alpha: float = 2.0
    pool: int = 100
    exact_cap: int = 100


def select_for_pair(
    scores: np.ndarray,
    sentence_words: Sequence[Sequence[str]],
    vectorizer: TfidfVectorizer,
    cfg: SelectConfig,
) -> tuple[Selection, list[int]]:
    """Truncate to the top-`pool` scored candidates, build the similarity
    matrix, and solve with `solve_exact`.  Returns the selection and
    `chosen`, the caller's indices of the selected candidates in
    descending-score order, ties by index.

    The subproblem is in descending-score order, so with alpha = 0 (the
    --no-ilp ablation) the selection is its first K positions; no term
    reads the similarity matrix then, so it stays all zero instead of being
    built.  No candidates is a `SelectorError`; `build_pair_graph` never
    yields an empty pool.  The vectorizer keeps each sentence's tf-idf row
    for as long as it lives, which in `cmd_select` is one select run.
    """
    scores = np.asarray(scores, dtype=float)
    order = [int(i) for i in np.argsort(-scores, kind="stable")[: cfg.pool]]
    if cfg.alpha == 0.0:
        sim = np.zeros((len(order), len(order)))
    else:
        sim = vectorizer.matrix([sentence_words[i] for i in order])
    selection = solve_exact(SelectionProblem(scores[order], sim, cfg.k, cfg.alpha), cap=cfg.exact_cap)
    return selection, [order[i] for i in selection.indices]
