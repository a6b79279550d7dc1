import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recexplain import selector as sel

from oracles import (
    enumerate_best_subset,
    ilp_best_subset,
    k_subsets_oracle,
    suffix_floors_cube,
    tfidf_cosine_oracle,
    tfidf_pair_loop,
)

# absolute per-cell bound on the tf-idf matrix against the per-pair sums:
# one BLAS product reorders each cell's sum, a few ulp of a cosine <= 1
TFIDF_TOL = 1e-14


def spec_instance():
    """Three candidates, K=2, alpha=0.5; optimum is {0, 2} (0-based)."""
    scores = np.array([0.9, 0.8, 0.5])
    sim = np.array([[0.0, 0.9, 0.0], [0.9, 0.0, 0.1], [0.0, 0.1, 0.0]])
    return sel.SelectionProblem(scores, sim, k=2, alpha=0.5)


def solve_each_path(problem, cap=100):
    """`solve_exact` once per exact path: ENUM_LIMIT 0 forces the branch and
    bound, a limit above every C(n, K) forces the split enumeration."""
    out = {}
    for path, limit in (("search", 0), ("split", 10**12)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sel, "ENUM_LIMIT", limit)
            out[path] = sel.solve_exact(problem, cap)
    return out


def random_problem(rng, n=None, k=None, alpha=None):
    n = n or int(rng.integers(1, 13))
    k = k or int(rng.integers(1, 5))
    alpha = alpha if alpha is not None else float(rng.choice([0.0, 0.5, 2.0]))
    scores = rng.uniform(0, 1, size=n)
    raw = rng.uniform(0, 1, size=(n, n))
    sim = (raw + raw.T) / 2
    np.fill_diagonal(sim, 0.0)
    return sel.SelectionProblem(scores, sim, k=k, alpha=alpha)


class TestObjective:
    def test_k1_no_pair_term(self):
        p = spec_instance()
        assert sel.objective(p, [0]) == pytest.approx(0.9)

    def test_ordered_pair_sum_counts_twice(self):
        p = spec_instance()
        assert sel.objective(p, [0, 1]) == pytest.approx(1.7 - 0.5 * 2 * 0.9)

    def test_alpha_zero_is_score_sum(self):
        p = spec_instance()
        q = sel.SelectionProblem(p.scores, p.sim, k=2, alpha=0.0)
        assert sel.objective(q, [0, 1]) == pytest.approx(1.7)


class TestProblem:
    def test_callers_matrix_is_not_modified(self):
        sim = np.array([[1.0, 0.5], [0.5, 1.0]])
        p = sel.SelectionProblem(np.array([0.2, 0.1]), sim, k=1, alpha=0.5)
        assert np.array_equal(sim, [[1.0, 0.5], [0.5, 1.0]])
        assert np.array_equal(p.sim, [[0.0, 0.5], [0.5, 0.0]])

    @pytest.mark.parametrize(
        "scores, sim, alpha, message",
        [
            ([0.2, np.nan], [[0.0, 0.5], [0.5, 0.0]], 0.5, "scores must be finite"),
            ([0.2, 0.1], [[0.0, np.inf], [np.inf, 0.0]], 0.5, "similarity matrix must be finite"),
            ([0.2, 0.1], [[0.0, 0.5], [0.5, 0.0]], -0.5, "alpha must be finite and >= 0"),
        ],
        ids=["nan-score", "inf-similarity", "negative-alpha"],
    )
    def test_invalid_input_rejected(self, scores, sim, alpha, message):
        with pytest.raises(sel.SelectorError, match=message):
            sel.SelectionProblem(np.array(scores), np.array(sim), k=1, alpha=alpha)

    @pytest.mark.parametrize(
        "a, b, symmetric",
        [
            (0.0, 1e-12, True),
            (0.0, np.nextafter(1e-12, 1.0), False),
            (1.0, 1.000010000001, True),
            (1.0, np.nextafter(1.000010000001, 2.0), False),
            (-1.0, -1.000010000001, True),
            (-1.0, np.nextafter(-1.000010000001, -2.0), False),
        ],
        ids=["absolute-inside", "absolute-outside", "relative-inside", "relative-outside",
             "negative-inside", "negative-outside"],
    )
    def test_symmetry_tolerance_is_allclose_rule(self, a, b, symmetric):
        # |s - s^T| <= 1e-12 + 1e-5 |s^T|: each pair sits one ulp inside or
        # outside the absolute or the relative term, as np.allclose decides
        sim = np.array([[0.0, a], [b, 0.0]])
        assert np.allclose(sim, sim.T, atol=1e-12) == symmetric
        if symmetric:
            sel.SelectionProblem(np.zeros(2), sim, k=1, alpha=0.5)
        else:
            with pytest.raises(sel.SelectorError, match="similarity matrix must be symmetric"):
                sel.SelectionProblem(np.zeros(2), sim, k=1, alpha=0.5)


class TestExactSolver:
    def test_spec_instance(self):
        p = spec_instance()
        out = sel.solve_exact(p)
        assert out.indices == (0, 2)
        assert out.objective == pytest.approx(1.4)
        assert out.solver == "exact"
        # frozen hand enumeration: {0,1} -> 0.8, {0,2} -> 1.4, {1,2} -> 1.2
        assert sel.objective(p, [0, 1]) == pytest.approx(0.8)
        assert sel.objective(p, [1, 2]) == pytest.approx(1.2)

    def test_k1_argmax(self):
        p = spec_instance()
        q = sel.SelectionProblem(p.scores, p.sim, k=1, alpha=0.5)
        assert sel.solve_exact(q).indices == (0,)

    def test_k_equals_n(self):
        p = spec_instance()
        q = sel.SelectionProblem(p.scores, p.sim, k=3, alpha=0.5)
        assert sel.solve_exact(q).indices == (0, 1, 2)

    def test_n_below_k_selects_all(self):
        q = sel.SelectionProblem(np.array([0.3]), np.zeros((1, 1)), k=5, alpha=2.0)
        assert sel.solve_exact(q).indices == (0,)

    def test_alpha_zero_is_topk_ties_by_index(self):
        scores = np.array([0.5, 0.9, 0.5, 0.9, 0.1])
        sim = np.zeros((5, 5))
        q = sel.SelectionProblem(scores, sim, k=3, alpha=0.0)
        assert sel.solve_exact(q).indices == (0, 1, 3)

    def test_matches_enumeration_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            p = random_problem(rng)
            want_obj, _ = enumerate_best_subset(
                list(p.scores), [list(row) for row in p.sim], p.k, p.alpha
            )
            for got in solve_each_path(p).values():
                assert abs(got.objective - want_obj) < 1e-9
                assert got.objective == pytest.approx(sel.objective(p, got.indices))

    def test_cap_falls_back_to_greedy(self):
        rng = np.random.default_rng(0)
        p = random_problem(rng, n=12, k=3, alpha=0.5)
        out = sel.solve_exact(p, cap=5)
        assert out.solver == "greedy"

    def test_node_budget_falls_back_to_greedy(self, monkeypatch, caplog):
        # the cut returns the search's incumbent, labelled "greedy" as not
        # proven optimal; 5 nodes find nothing better than the warm start
        monkeypatch.setattr(sel, "ENUM_LIMIT", 0)  # C(12, 4) = 495 would enumerate
        rng = np.random.default_rng(0)
        p = random_problem(rng, n=12, k=4, alpha=0.5)
        assert sel.solve_exact(p).solver == "exact"
        monkeypatch.setattr(sel, "NODE_BUDGET", 5)
        out = sel.solve_exact(p)
        assert out == sel.Selection(sel.solve_greedy(p).indices, sel.objective(p, out.indices), "greedy")
        assert "node budget 5 exceeded (n=12, K=4)" in caplog.text

    def test_node_budget_returns_an_incumbent_better_than_greedy(self, monkeypatch):
        monkeypatch.setattr(sel, "ENUM_LIMIT", 0)
        rng = np.random.default_rng(0)
        p = random_problem(rng, n=12, k=4, alpha=0.5)
        exact, greedy = sel.solve_exact(p), sel.solve_greedy(p)
        monkeypatch.setattr(sel, "NODE_BUDGET", 13)
        out = sel.solve_exact(p)
        assert out.solver == "greedy"
        assert out.objective == sel.objective(p, out.indices)
        assert greedy.objective + 0.1 < out.objective < exact.objective
        assert (greedy.indices, out.indices, exact.indices) == ((0, 4, 8, 9), (0, 5, 8, 9), (0, 7, 8, 9))

    def test_trivial_cases_are_exact_past_the_cap(self, caplog):
        rng = np.random.default_rng(0)
        p = random_problem(rng, n=12, k=4, alpha=0.5)
        top = sel.SelectionProblem(p.scores, p.sim, k=4, alpha=0.0)
        flat = sel.SelectionProblem(p.scores, np.zeros((12, 12)), k=4, alpha=0.5)
        every = sel.SelectionProblem(p.scores, p.sim, k=12, alpha=0.5)
        for q in (top, flat, every):
            assert sel.solve_exact(q, cap=5).solver == "exact"
        assert sel.solve_exact(top, cap=5).indices == sel.solve_greedy(top).indices
        assert "cap" not in caplog.text

    def test_monotone_shift_invariance(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            p = random_problem(rng, n=8, k=3)
            base = sel.solve_exact(p)
            shifted = sel.SelectionProblem(p.scores + 2.5, p.sim, k=p.k, alpha=p.alpha)
            out = sel.solve_exact(shifted)
            assert out.indices == base.indices
            assert out.objective == pytest.approx(base.objective + 3 * 2.5, abs=1e-9)


class TestSolverPaths:
    def test_k_subsets_lexicographic_and_read_only(self):
        rows = sel._k_subsets(6, 3)
        assert rows.shape == (20, 3) and rows.dtype == np.intp
        tuples = [tuple(r) for r in rows.tolist()]
        assert all(list(t) == sorted(set(t)) for t in tuples)  # ascending, no repeats
        assert tuples == sorted(set(tuples))  # 20 distinct 3-subsets of 6 are all of them
        assert not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[0, 0] = 1

    def test_k_subsets_match_itertools(self):
        for n in range(21):
            for k in range(n + 1):
                if math.comb(n, k) <= sel.ENUM_LIMIT:
                    members = k_subsets_oracle(n, k)
                    want = np.nonzero(members)[1].reshape(len(members), k)
                    assert np.array_equal(sel._k_subsets(n, k), want), (n, k)

    def test_exact_ties_go_to_the_smallest_set_on_both_paths(self):
        # values in eighths, so the float sums are exact; four sets tie at
        # 2.0, and the top scorers 3 and 6 are in all but the smallest
        scores = np.array([6, 5, 5, 8, 6, 1, 8]) / 8
        sim = np.array([
            [0, 4, 0, 4, 0, 4, 2],
            [4, 0, 0, 4, 1, 0, 2],
            [0, 0, 0, 0, 1, 1, 1],
            [4, 4, 0, 0, 2, 4, 4],
            [0, 1, 1, 2, 0, 3, 3],
            [4, 0, 1, 4, 3, 0, 4],
            [2, 2, 1, 4, 3, 4, 0],
        ]) / 8
        p = sel.SelectionProblem(scores, sim, k=3, alpha=0.5)
        for c in [(0, 2, 4), (0, 2, 6), (2, 3, 4), (2, 3, 6)]:
            assert sel.objective(p, c) == 2.0
        assert enumerate_best_subset(list(scores), sim.tolist(), 3, 0.5) == (2.0, (0, 2, 4))
        for got in solve_each_path(p).values():
            assert got == sel.Selection((0, 2, 4), 2.0, "exact")

    def test_tie_across_blocks_goes_to_the_smallest_set(self):
        # n = 4 is cut at h = 2.  Three sets tie at 1.0, one from each block:
        # {2, 3} (m = 0) is the first cell of the flat value array, {0, 2}
        # (m = 1) the first of its block, and the smallest, {0, 1}, is in
        # the last block (m = 2)
        scores = np.full(4, 0.5)
        sim = np.array([
            [0, 0, 0, 1],
            [0, 0, 2, 2],
            [0, 2, 0, 0],
            [1, 2, 0, 0],
        ]) / 8
        p = sel.SelectionProblem(scores, sim, k=2, alpha=0.5)
        for c in [(0, 1), (0, 2), (2, 3)]:
            assert sel.objective(p, c) == 1.0
        assert enumerate_best_subset(list(scores), sim.tolist(), 2, 0.5) == (1.0, (0, 1))
        for got in solve_each_path(p).values():
            assert got == sel.Selection((0, 1), 1.0, "exact")

    @pytest.mark.parametrize(
        "n, k",
        [(7, 1), (7, 3), (7, 4), (7, 6), (9, 5), (9, 8), (8, 1), (8, 7), (11, 6), (2, 1)],
        ids=lambda v: str(v),
    )
    def test_both_paths_match_ilp_and_brute_force_at_edge_shapes(self, n, k):
        # odd n, K above h = n // 2 (the split then scores the n - K left
        # out), K = 1 and K = n - 1; values in eighths, so ties are real
        rng = np.random.default_rng(n * 100 + k)
        for _ in range(4):
            scores = (rng.integers(0, 9, size=n) / 8).tolist()
            raw = rng.integers(0, 5, size=(n, n)) / 8
            sim = np.triu(raw, 1)
            sim = (sim + sim.T).tolist()
            for alpha in (0.5, 2.0):
                ilp_obj, _ = ilp_best_subset(scores, sim, k, alpha)
                brute_obj, brute_set = enumerate_best_subset(scores, sim, k, alpha)
                problem = sel.SelectionProblem(np.array(scores), np.array(sim), k, alpha)
                paths = solve_each_path(problem)
                assert set(paths) == {"search", "split"}
                for got in paths.values():
                    assert got.solver == "exact"
                    assert abs(got.objective - ilp_obj) <= 1e-9
                    assert got.indices == brute_set
                    assert got.objective == sel.objective(problem, got.indices)

    def test_path_follows_the_subset_count(self, monkeypatch):
        # one shape on each side of ENUM_LIMIT = 50,000, for K = 5 and K = 8
        assert sel.ENUM_LIMIT == 50_000
        rng = np.random.default_rng(1)
        paths = []
        real_split, real_floors = sel._solve_split, sel._suffix_floors
        monkeypatch.setattr(sel, "_solve_split", lambda p, k: paths.append("split") or real_split(p, k))
        monkeypatch.setattr(sel, "_suffix_floors", lambda sim, k: paths.append("search") or real_floors(sim, k))
        for n, k, want in [(24, 5, "split"), (25, 5, "search"), (18, 8, "split"), (19, 8, "search")]:
            assert (math.comb(n, k) <= sel.ENUM_LIMIT) == (want == "split")
            paths.clear()
            assert sel.solve_exact(random_problem(rng, n=n, k=k, alpha=0.5)).solver == "exact"
            assert paths == [want], (n, k)

    def test_split_arrays_stay_within_the_limit(self):
        # every shape the dispatch sends to the split up to n = 120, the
        # K = 2 and K = n - 2 shapes up to C(n, 2) = ENUM_LIMIT, and K = 1
        # at large n: every block, member-row, gather and 0/1 array, and
        # the cross product, holds at most ENUM_LIMIT numbers
        limit = sel.ENUM_LIMIT
        shapes = [(n, k) for n in range(2, 121) for k in range(1, n) if math.comb(n, k) <= limit]
        shapes += [(n, k) for n in range(121, 400) for k in (2, n - 2) if math.comb(n, k) <= limit]
        shapes += [(1000, 1), (50_000, 1)]
        largest = 0
        for n, k in shapes:
            first, second, blocks, offsets = sel._split_plan(n, min(k, n - k))
            assert offsets[-1] == math.comb(n, k)
            sizes = [half.members.size for half in (first, second)]
            sizes += [half.cells.size for half in (first, second)]
            sizes += [half.dense.size for half in (first, second)]
            sizes.append(len(first.dense) * (n - n // 2))  # first.dense @ sim[:h, h:]
            sizes += np.diff(offsets).tolist()  # the blocks
            assert max(sizes) <= limit, (n, k, sizes)
            largest = max(largest, *sizes)
        assert largest > limit // 2  # the shapes reach toward the bound
        # the worst shape for 0/1 rows of every size solves, agrees with
        # the search, and K = 64 of 67 is planned as the 3 left out
        rng = np.random.default_rng(67)
        planned = []
        real_plan = sel._split_plan
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sel, "_split_plan", lambda n, k: planned.append((n, k)) or real_plan(n, k))
            for k in (3, 64):
                p = random_problem(rng, n=67, k=k, alpha=0.5)
                paths = solve_each_path(p)
                assert paths["split"] == paths["search"]
        assert planned == [(67, 3), (67, 3)]

    def test_suffix_floors_match_the_cube(self):
        rng = np.random.default_rng(5)
        for n, k in [(1, 1), (2, 2), (5, 3), (9, 8), (12, 4), (16, 8), (20, 5), (6, 6)]:
            sim = random_problem(rng, n=n, k=1).sim
            got, want = sel._suffix_floors(sim, k), suffix_floors_cube(sim, k)
            assert got.shape == want.shape == (n, k, n)
            for p in range(n):
                assert got[p, :, p:].tobytes() == want[p, :, p:].tobytes(), (n, k, p)

    def test_suffix_floors_memory_is_quadratic(self):
        # the default exact_cap of 100 at K = 5: the (n, n, n) cube took a
        # 16.7 MB peak; the floors themselves are n * K * n * 8 = 400 kB
        sim = random_problem(np.random.default_rng(6), n=100, k=1).sim
        tracemalloc.start()
        try:
            sel._suffix_floors(sim, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


@st.composite
def grid_instances(draw, sizes=(2, 12), ks=(1, 5)):
    """(scores, sim, k, alpha) with n and K drawn from the closed ranges
    `sizes` and `ks`, K <= n.  Every
    value is a multiple of `unit`, 1/8 or 1/1024, so the objective's float
    sums are exact: ties are real, and distinct objectives differ by at
    least unit/2, far above HiGHS' 1e-6 absolute gap.  Scores are flat
    (within 4 units of 0.5) or spread over [0, 1]; candidates fall into up
    to three groups of near-duplicates, similar by at least 0.75 within a
    group and at most 0.25 across groups.
    """
    unit = draw(st.sampled_from([1 / 8, 1 / 1024]))
    steps = round(0.25 / unit)
    n = draw(st.integers(*sizes))
    k = draw(st.integers(ks[0], min(ks[1], n)))
    alpha = draw(st.sampled_from([0.5, 2.0]))
    if draw(st.booleans()):
        scores = [0.5 + unit * draw(st.integers(0, 4)) for _ in range(n)]
    else:
        scores = [unit * draw(st.integers(0, round(1 / unit))) for _ in range(n)]
    group = [draw(st.integers(0, 2)) for _ in range(n)]
    sim = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            base = 0.75 if group[i] == group[j] else 0.0
            sim[i][j] = sim[j][i] = base + unit * draw(st.integers(0, steps))
    return scores, sim, k, alpha


class TestAgainstIlp:
    """Both exact paths against the paper's integer program and brute
    force: the same optimum, and the lexicographically smallest optimal set."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(grid_instances())
    def test_same_optimum_as_ilp_and_enumeration(self, instance):
        scores, sim, k, alpha = instance
        ilp_obj, _ = ilp_best_subset(scores, sim, k, alpha)
        brute_obj, brute_set = enumerate_best_subset(scores, sim, k, alpha)
        for got in solve_each_path(sel.SelectionProblem(np.array(scores), np.array(sim), k, alpha)).values():
            assert got.solver == "exact"
            assert abs(got.objective - ilp_obj) <= 1e-9
            assert abs(got.objective - brute_obj) <= 1e-9
            assert got.indices == brute_set

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(grid_instances(sizes=(12, 16), ks=(4, 8)))
    def test_same_set_as_enumeration_at_serving_shape(self, instance):
        # pools of up to 16 with K up to 8, where the suffix pair floors
        # cut the search the most
        scores, sim, k, alpha = instance
        brute_obj, brute_set = enumerate_best_subset(scores, sim, k, alpha)
        for got in solve_each_path(sel.SelectionProblem(np.array(scores), np.array(sim), k, alpha)).values():
            assert got.solver == "exact"
            assert abs(got.objective - brute_obj) <= 1e-9
            assert got.indices == brute_set


class TestGreedy:
    def test_never_beats_exact(self):
        rng = np.random.default_rng(77)
        for _ in range(200):
            p = random_problem(rng)
            exact = sel.solve_exact(p)
            greedy = sel.solve_greedy(p)
            assert greedy.objective <= exact.objective + 1e-9

    def test_alpha_zero_is_descending_topk(self):
        scores = np.array([0.1, 0.8, 0.3, 0.8])
        q = sel.SelectionProblem(scores, np.zeros((4, 4)), k=2, alpha=0.0)
        assert sel.solve_greedy(q).indices == (1, 3)

    def test_spec_instance_greedy_traces_to_same_set(self):
        # step 1 picks 0 (best score); step 2 marginals: 1 -> 0.8-0.9=-0.1,
        # 2 -> 0.5-0.0=0.5, so greedy also lands on {0, 2}
        out = sel.solve_greedy(spec_instance())
        assert out.indices == (0, 2)

    def test_k1_matches_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            p = random_problem(rng, k=1)
            assert sel.solve_greedy(p).indices == sel.solve_exact(p).indices


class TestDuplicateSuppression:
    def test_duplicate_high_scorer_selected_once(self):
        # two identical sentences (sim 1.0) at score 0.9; picking both costs
        # 2 * alpha * 1.0 = 1.0 > 0.9, so the optimum takes one + the weak third
        scores = np.array([0.9, 0.9, 0.1])
        sim = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        p = sel.SelectionProblem(scores, sim, k=2, alpha=0.5)
        out = sel.solve_exact(p)
        assert out.indices == (0, 2)
        want_obj, want_set = enumerate_best_subset(list(scores), [list(r) for r in sim], 2, 0.5)
        assert out.indices == want_set


class TestTfidf:
    def test_identical_sentences(self):
        train = [["a", "b"], ["c", "d"], ["e", "f"]]
        v = sel.TfidfVectorizer(train)
        m = v.matrix([["a", "b"], ["a", "b"]])
        assert m[0, 1] == pytest.approx(1.0)
        assert m[0, 0] == 0.0

    def test_disjoint_sentences(self):
        v = sel.TfidfVectorizer([["a"], ["b"], ["c"]])
        m = v.matrix([["a"], ["b"]])
        assert m[0, 1] == 0.0

    def test_hand_instance_matches_oracle(self):
        train = [["red", "wine"], ["white", "wine"], ["red", "beer"], ["dark", "beer"]]
        sents = [["red", "wine"], ["red", "beer"], ["white", "wine", "wine"]]
        v = sel.TfidfVectorizer(train)
        got = v.matrix(sents)
        want = tfidf_cosine_oracle(sents, train)
        assert np.allclose(got, np.array(want), atol=1e-12)
        # cross-check one cell by hand: idf(red) = ln(4/3), wine/beer idf
        # ln(4/3), white/dark idf ln(4/2); sim(s0, s1) shares only "red"
        import math

        w = math.log(4 / 3)
        expected = (w * w) / (math.sqrt(2 * w * w) * math.sqrt(2 * w * w))
        assert got[0, 1] == pytest.approx(expected, abs=1e-12)

    def test_unseen_tokens_zero_vector(self):
        v = sel.TfidfVectorizer([["a", "b"]])
        m = v.matrix([["zz", "qq"], ["a"]])
        assert np.all(m[0] == 0.0)

    def test_symmetric_zero_diag_in_unit_range(self):
        rng = np.random.default_rng(9)
        train = [[f"t{rng.integers(6)}" for _ in range(5)] for _ in range(20)]
        sents = [[f"t{rng.integers(6)}" for _ in range(4)] for _ in range(6)]
        m = sel.TfidfVectorizer(train).matrix(sents)
        assert np.allclose(m, m.T)
        assert np.all(np.diag(m) == 0.0)
        assert np.all(m >= 0.0) and np.all(m <= 1.0 + 1e-12)

    @staticmethod
    def random_pool(rng, n, vocab=10, lo=5, hi=15):
        return [[f"t{rng.integers(vocab)}" for _ in range(rng.integers(lo, hi))] for _ in range(n)]

    @staticmethod
    def assert_within_tolerance(got, v, sents, train):
        """Every cell within TFIDF_TOL of both per-pair oracles; symmetry,
        the zero diagonal and the zero rows of massless sentences exact."""
        for want in (tfidf_pair_loop(v, sents), tfidf_cosine_oracle(sents, train)):
            want = np.array(want).reshape(got.shape)
            assert np.all(np.abs(got - want) <= TFIDF_TOL)
        assert np.array_equal(got, got.T)
        assert np.all(np.diag(got) == 0.0)
        massless = [i for i, words in enumerate(sents) if not v.vector(words)]
        assert np.all(got[massless] == 0.0)

    def test_within_tolerance_of_pair_loop(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            train = self.random_pool(rng, 60, lo=3, hi=8)
            v = sel.TfidfVectorizer(train)
            sents = self.random_pool(rng, int(rng.integers(2, 40)))
            self.assert_within_tolerance(v.matrix(sents), v, sents, train)

    def test_edge_pools_within_tolerance(self):
        train = [["a", "b"], ["c", "d"], ["e", "f"], ["a", "c"]]
        v = sel.TfidfVectorizer(train)
        pools = [
            [["a", "b", "c"]],  # one sentence
            [["zz", "qq"], ["a", "c"], ["zz"], ["a", "b", "a"]],  # rows with no tf-idf mass
            [["a", "c", "d"], ["a", "c", "d"], ["d", "c", "a"]],  # identical sentences
            [],
        ]
        for sents in pools:
            got = v.matrix(sents)
            assert got.shape == (len(sents), len(sents))
            self.assert_within_tolerance(got, v, sents, train)
        same = v.matrix(pools[2])
        assert same[0, 1] == same[1, 0] and same[0, 1] == pytest.approx(1.0)
        assert np.all(v.matrix(pools[1])[[0, 2]] == 0.0)

    def test_no_mass_warning(self, caplog):
        v = sel.TfidfVectorizer([["a", "b"], ["c", "d"], ["e", "f"]])
        v.matrix([["zz"], ["a"]])
        assert "sentence 0 has no tf-idf mass" in caplog.text
        # a remembered row still warns, under its index in the new pool
        caplog.clear()
        v.matrix([["a"], ["b"], ["zz"]])
        assert "sentence 2 has no tf-idf mass" in caplog.text
        assert "sentence 0" not in caplog.text

    def test_matrix_independent_of_earlier_pools(self):
        # pools wide enough that padding D with other pools' columns would
        # regroup BLAS's sums and change bits
        rng = np.random.default_rng(12)
        train = self.random_pool(rng, 400, vocab=200, lo=3, hi=30)
        bank = self.random_pool(rng, 60, vocab=200, lo=5, hi=30) + [["zz"]]
        pools = [[bank[i] for i in rng.choice(len(bank), size=int(rng.integers(2, 40)))] for _ in range(6)]
        fresh = [sel.TfidfVectorizer(train).matrix(sents) for sents in pools]
        for order in (range(6), reversed(range(6))):
            v = sel.TfidfVectorizer(train)
            for i in order:
                assert np.array_equal(v.matrix(pools[i]), fresh[i])


class TestSelectForPair:
    @staticmethod
    def solved(monkeypatch):
        """The subproblems `select_for_pair` hands to `solve_exact`."""
        problems = []
        solve = sel.solve_exact
        monkeypatch.setattr(sel, "solve_exact", lambda problem, cap: problems.append(problem) or solve(problem, cap=cap))
        return problems

    def test_no_truncation_below_pool(self, monkeypatch):
        problems = self.solved(monkeypatch)
        v = sel.TfidfVectorizer([["a"], ["b"], ["c"]])
        cfg = sel.SelectConfig(k=2, alpha=0.5, pool=100)
        out, chosen = sel.select_for_pair(
            np.array([0.3, 0.9, 0.5]), [["a"], ["b"], ["c"]], v, cfg
        )
        [problem] = problems
        assert problem.scores.tolist() == [0.9, 0.5, 0.3]
        assert chosen == [1, 2]

    def test_truncation_to_pool(self, monkeypatch):
        problems = self.solved(monkeypatch)
        v = sel.TfidfVectorizer([["a"]])
        cfg = sel.SelectConfig(k=1, alpha=0.0, pool=2)
        scores = np.array([0.1, 0.9, 0.5, 0.7])
        out, chosen = sel.select_for_pair(scores, [["a"]] * 4, v, cfg)
        [problem] = problems
        assert problem.scores.tolist() == [0.9, 0.7]
        assert chosen == [1]

    def test_alpha_zero_descending_topk(self, monkeypatch):
        # the --no-ilp ablation: no similarity matrix is built, and the top K
        # by score is the exact optimum, past the cap too
        problems = self.solved(monkeypatch)
        v = sel.TfidfVectorizer([["a"]])
        monkeypatch.setattr(v, "matrix", None)
        cfg = sel.SelectConfig(k=2, alpha=0.0, pool=100, exact_cap=1)
        scores = np.array([0.2, 0.9, 0.5])
        out, chosen = sel.select_for_pair(scores, [["a"]] * 3, v, cfg)
        [problem] = problems
        assert problem.scores.tolist() == [0.9, 0.5, 0.2]
        assert chosen == [1, 2]
        assert out == sel.Selection((0, 1), 0.9 + 0.5, "exact")

    def test_chosen_in_descending_score_order(self, monkeypatch):
        # ties by index: the subproblem's ascending indices map to the
        # caller's candidates best first
        v = sel.TfidfVectorizer([["a"]])
        cfg = sel.SelectConfig(k=3, alpha=0.0, pool=4)
        scores = np.array([0.4, 0.1, 0.8, 0.4, 0.6])
        out, chosen = sel.select_for_pair(scores, [["a"]] * 5, v, cfg)
        assert out.indices == (0, 1, 2)
        assert chosen == [2, 4, 0]

    def test_empty_candidates(self):
        v = sel.TfidfVectorizer([["a"]])
        for alpha in (2.0, 0.0):
            with pytest.raises(sel.SelectorError, match="at least one candidate"):
                sel.select_for_pair(np.array([]), [], v, sel.SelectConfig(alpha=alpha))
