"""Independent straight-line reference implementations used only by tests.

Deliberately written in a different style from the package (explicit
loops, dict counting, recursion) so agreement is evidence of correctness
rather than shared structure.
"""

import itertools
import math
from functools import lru_cache

import numpy as np


def bleu_oracle(candidate, references, max_n=4):
    if len(candidate) == 0:
        return 0.0
    refs = [list(r) for r in references if len(r) > 0]
    if not refs:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        cand_grams = {}
        for i in range(len(candidate) - n + 1):
            g = tuple(candidate[i : i + n])
            cand_grams[g] = cand_grams.get(g, 0) + 1
        total = 0
        for v in cand_grams.values():
            total += v
        matches = 0
        for g, c in cand_grams.items():
            best = 0
            for r in refs:
                cnt = 0
                for i in range(len(r) - n + 1):
                    if tuple(r[i : i + n]) == g:
                        cnt += 1
                if cnt > best:
                    best = cnt
            matches += min(c, best)
        if n == 1 and matches == 0:
            return 0.0
        if matches > 0:
            p = matches / total
        else:
            p = 1.0 / (total + 1)
        log_sum += math.log(p)
    c_len = len(candidate)
    best_r = None
    for r in refs:
        if (
            best_r is None
            or abs(len(r) - c_len) < abs(best_r - c_len)
            or (abs(len(r) - c_len) == abs(best_r - c_len) and len(r) < best_r)
        ):
            best_r = len(r)
    bp = 1.0 if c_len >= best_r else math.exp(1.0 - best_r / c_len)
    return bp * math.exp(log_sum / max_n)


def rouge_n_oracle(candidate, references, n):
    best = None
    for ref in references:
        if len(ref) - n + 1 <= 0:
            continue
        ref_grams = {}
        for i in range(len(ref) - n + 1):
            g = tuple(ref[i : i + n])
            ref_grams[g] = ref_grams.get(g, 0) + 1
        cand_grams = {}
        for i in range(len(candidate) - n + 1):
            g = tuple(candidate[i : i + n])
            cand_grams[g] = cand_grams.get(g, 0) + 1
        matched = 0
        for g, rc in ref_grams.items():
            cc = cand_grams.get(g, 0)
            matched += rc if rc < cc else cc
        recall = matched / (len(ref) - n + 1)
        cand_total = len(candidate) - n + 1
        precision = matched / cand_total if cand_total > 0 else 0.0
        if precision + recall == 0.0:
            f1 = 0.0
        else:
            f1 = 2 * precision * recall / (precision + recall)
        if best is None or f1 > best:
            best = f1
    return 0.0 if best is None else best


def lcs_oracle(a, b):
    a = tuple(a)
    b = tuple(b)

    @lru_cache(maxsize=None)
    def rec(i, j):
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def rouge_l_oracle(candidate, references):
    best = 0.0
    for ref in references:
        if len(candidate) == 0 or len(ref) == 0:
            continue
        lcs = lcs_oracle(candidate, ref)
        p = lcs / len(candidate)
        r = lcs / len(ref)
        f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        if f1 > best:
            best = f1
    return best


def tfidf_cosine_oracle(sentences, train_sentences):
    """Pairwise cosine of tf-idf vectors; idf = max(0, ln(N/(1+df)))."""
    n_docs = len(train_sentences)
    df = {}
    for words in train_sentences:
        for tok in set(words):
            df[tok] = df.get(tok, 0) + 1
    vectors = []
    for words in sentences:
        tf = {}
        for tok in words:
            tf[tok] = tf.get(tok, 0) + 1
        vec = {}
        for tok, cnt in tf.items():
            if tok not in df:
                continue
            idf = math.log(n_docs / (1.0 + df[tok]))
            if idf > 0:
                vec[tok] = cnt * idf
        vectors.append(vec)
    out = [[0.0] * len(sentences) for _ in sentences]
    for i in range(len(sentences)):
        for j in range(len(sentences)):
            if i == j:
                continue
            dot = 0.0
            for tok, w in vectors[i].items():
                dot += w * vectors[j].get(tok, 0.0)
            ni = math.sqrt(sum(w * w for w in vectors[i].values()))
            nj = math.sqrt(sum(w * w for w in vectors[j].values()))
            if ni > 0 and nj > 0:
                out[i][j] = dot / (ni * nj)
    return out


def tfidf_pair_loop(vectorizer, sentences):
    """The per-pair similarity loop over `vectorizer.vector` rows: cell
    (i, j), i < j, sums w * v_j[tok] over row i's tokens in their order,
    and (j, i) copies it.  The reference the tf-idf matrix is held to
    within a stated per-cell tolerance.
    """
    vecs = [vectorizer.vector(words) for words in sentences]
    out = [[0.0] * len(vecs) for _ in vecs]
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            dot = 0.0
            for tok, w in vecs[i].items():
                dot += w * vecs[j].get(tok, 0.0)
            out[i][j] = dot
            out[j][i] = dot
    return out


def k_subsets_oracle(n, k):
    """Every k-subset of range(n) as a (C(n, k), n) bool member matrix, one
    row per `itertools.combinations` tuple, in its order."""
    rows = list(itertools.combinations(range(n), k))
    members = np.zeros((len(rows), n), dtype=bool)
    for r, combo in enumerate(rows):
        members[r, list(combo)] = True
    return members


def enumerate_best_subset(scores, sim, k, alpha):
    """Exhaustive subset search; ties go to the lexicographically smallest
    index tuple.  Returns (best objective, best tuple).
    """
    n = len(scores)
    k = min(k, n)
    best_obj = None
    best_set = None
    for combo in itertools.combinations(range(n), k):
        rel = sum(scores[i] for i in combo)
        pen = 0.0
        for a in range(len(combo)):
            for b in range(len(combo)):
                if a != b:
                    pen += sim[combo[a]][combo[b]]
        obj = rel - alpha * pen
        if best_obj is None or obj > best_obj + 1e-12:
            best_obj, best_set = obj, combo
    return best_obj, best_set


def ilp_best_subset(scores, sim, k, alpha):
    """The selection integer program, solved by HiGHS through
    `scipy.optimize.milp`.  Returns (objective, index tuple); the objective
    is recomputed from the chosen set, so it carries no solver tolerance.

    Binary x_i picks candidate i.  Each ordered pair i != j has an indicator
    y_ij >= x_i + x_j - 1, y_ij >= 0, which is 1 exactly when both are
    picked as long as alpha * sim_ij >= 0.  Subject to sum x = k, maximise
    sum_i g_i x_i - alpha * sum_{i != j} sim_ij y_ij.  HiGHS stops within
    an absolute gap of 1e-6, so a suboptimal set can come back when two
    objectives differ by less than that.
    """
    # scipy is a dev-only dependency, and only this oracle needs it
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = len(scores)
    k = min(k, n)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    cost = np.array([-float(g) for g in scores] + [alpha * sim[i][j] for i, j in pairs])
    rows = np.zeros((1 + len(pairs), n + len(pairs)))
    rows[0, :n] = 1.0
    for p, (i, j) in enumerate(pairs):
        rows[1 + p, i] = rows[1 + p, j] = 1.0
        rows[1 + p, n + p] = -1.0
    low = np.array([k] + [-np.inf] * len(pairs))
    high = np.array([k] + [1.0] * len(pairs))
    result = milp(
        cost,
        constraints=LinearConstraint(rows, low, high),
        integrality=np.array([1] * n + [0] * len(pairs)),
        bounds=Bounds(0.0, 1.0),
        options={"mip_rel_gap": 0.0},
    )
    if not result.success:
        raise RuntimeError(f"milp failed: {result.message}")
    chosen = tuple(i for i in range(n) if result.x[i] > 0.5)
    rel = sum(scores[i] for i in chosen)
    pen = sum(sim[i][j] for i in chosen for j in chosen if i != j)
    return rel - alpha * pen, chosen


def gat_scalar_oracle(node_states, neighbor_lists, heads, leaky_slope):
    """One attention layer with an ELU output, evaluated with plain Python
    floats.

    `node_states`: list of lists; `neighbor_lists[i]`: neighbor ids of i,
    self already included if wanted; `heads`: list of (wq, wk, wa) with wq
    and wk as lists of rows and wa a flat list.  Returns new states with
    heads concatenated, plus per-head attention dicts {(i, j): alpha}.
    """

    def matvec(m, x):
        return [sum(m[r][c] * x[c] for c in range(len(x))) for r in range(len(m))]

    def elu(v):
        return [x if x > 0 else math.exp(x) - 1.0 for x in v]

    n = len(node_states)
    all_out = []
    all_alpha = []
    for wq, wk, wa in heads:
        a_dim = len(wq)
        alphas = {}
        head_out = []
        for i in range(n):
            zs = []
            for j in neighbor_lists[i]:
                qi = matvec(wq, node_states[i])
                kj = matvec(wk, node_states[j])
                cat = qi + kj
                z = sum(wa[t] * cat[t] for t in range(2 * a_dim))
                z = z if z > 0 else leaky_slope * z
                zs.append(z)
            mx = max(zs)
            exps = [math.exp(z - mx) for z in zs]
            den = sum(exps)
            agg = [0.0] * len(node_states[i])
            for idx, j in enumerate(neighbor_lists[i]):
                alpha = exps[idx] / den
                alphas[(i, j)] = alpha
                for d in range(len(agg)):
                    agg[d] += alpha * node_states[j][d]
            head_out.append(elu(agg))
        all_out.append(head_out)
        all_alpha.append(alphas)
    merged = [[x for head_out in all_out for x in head_out[i]] for i in range(n)]
    return merged, all_alpha


def dense_gat_layer(H, mask, head_params, leaky_slope=0.2):
    """One attention layer computed densely over the (n, n) boolean `mask`
    of attention edges (self loops included): every logit is formed, the
    ones off the mask set to -inf before the row softmax.  Returns
    (H_next, trace) with trace = (H, [(u, v, alpha, agg) per head]).
    `head_params` is a list of folded (q, k) per head.
    """
    outs = []
    heads = []
    for q, k in head_params:
        u = H @ q
        v = H @ k
        pre = u[:, None] + v[None, :]
        z = np.where(mask, np.where(pre > 0, pre, leaky_slope * pre), -np.inf)
        ex = np.exp(z - z.max(axis=1, keepdims=True))
        alpha = ex / ex.sum(axis=1, keepdims=True)
        agg = alpha @ H
        outs.append(np.where(agg > 0, agg, np.expm1(np.minimum(agg, 0.0))))
        heads.append((u, v, alpha, agg))
    return np.concatenate(outs, axis=1), (H, heads)


def dense_gat_layer_backward(dH_out, head_params, trace, leaky_slope=0.2):
    """Gradients of `dense_gat_layer`: (dH_in, per-head [(dq, dk)]).  Cells
    off the mask have alpha 0, so their logits get no gradient."""
    H, heads = trace
    din = H.shape[1]
    dH = np.zeros_like(H)
    grads = []
    for head, (q, k) in enumerate(head_params):
        u, v, alpha, agg = heads[head]
        dagg = dH_out[:, head * din : (head + 1) * din] * np.where(agg > 0, 1.0, np.exp(np.minimum(agg, 0.0)))
        dalpha = dagg @ H.T
        dH += alpha.T @ dagg
        dz = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
        dpre = np.where(u[:, None] + v[None, :] > 0, dz, leaky_slope * dz)
        du = dpre.sum(axis=1)
        dv = dpre.sum(axis=0)
        dH += np.outer(du, q) + np.outer(dv, k)
        grads.append((H.T @ du, H.T @ dv))
    return dH, grads


def dense_dcn_forward(x0, cross_params, deep_params):
    """Cross network and deep network over row-batched inputs x0 (S, d0),
    with every row's full x0 formed.

    Cross layer: x_{l+1} = x0 * (x_l . w_l) + b_l + x_l.
    Deep layer:  x_{l+1} = relu(W_l x_l + b_l).
    Returns (concat of final cross and deep states, trace dict).
    """
    xs = [x0]
    ts = []
    for w, b in cross_params:
        t = xs[-1] @ w
        xs.append(x0 * t[:, None] + b[None, :] + xs[-1])
        ts.append(t)
    deep_outs = [x0]
    for w, b in deep_params:
        z = deep_outs[-1] @ w.T + b[None, :]
        deep_outs.append(np.maximum(z, 0.0))
    out = np.concatenate([xs[-1], deep_outs[-1]], axis=1)
    return out, {"xs": xs, "ts": ts, "deep": deep_outs}


def dense_dcn_backward(dout, cross_params, deep_params, trace):
    """Gradients of `dense_dcn_forward` for upstream d(out):
    (dx0, per-layer cross [(dw, db)], per-layer deep [(dW, db)])."""
    xs, ts, deep_outs = trace["xs"], trace["ts"], trace["deep"]
    d0 = xs[0].shape[1]
    dcross = dout[:, :d0]
    ddeep = dout[:, d0:]
    x0 = xs[0]

    dx0 = np.zeros_like(x0)
    dx = dcross
    cross_grads = []
    for l in range(len(cross_params) - 1, -1, -1):
        w, _ = cross_params[l]
        t = ts[l]
        dx0 += dx * t[:, None]
        dt = np.einsum("sd,sd->s", dx, x0)
        dw = xs[l].T @ dt
        db = dx.sum(axis=0)
        dx = dx + dt[:, None] * w[None, :]
        cross_grads.append((dw, db))
    cross_grads.reverse()
    dx0 += dx

    dd = ddeep
    deep_grads = []
    for l in range(len(deep_params) - 1, -1, -1):
        w, _ = deep_params[l]
        out = deep_outs[l + 1]
        dz = dd * (out > 0)
        dw = dz.T @ deep_outs[l]
        db = dz.sum(axis=0)
        dd = dz @ w
        deep_grads.append((dw, db))
    deep_grads.reverse()
    dx0 += dd
    return dx0, cross_grads, deep_grads
