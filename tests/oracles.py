"""Independent straight-line reference implementations used only by tests.

Deliberately written in a different style from the package (explicit
loops, dict counting, recursion) so agreement is evidence of correctness
rather than shared structure.
"""

import itertools
import math
from functools import lru_cache

import numpy as np

from recexplain.corpus import segment_and_tokenize


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


def corpus_bleu_oracle(pairs, max_n=4):
    """Unsmoothed BLEU pooled over (candidate, reference) pairs; a pair
    with an empty reference is skipped, an order no candidate is long
    enough for is vacuous, and any other order without a match scores 0."""
    matches = [0] * (max_n + 1)
    totals = [0] * (max_n + 1)
    c_len = 0
    r_len = 0
    for candidate, reference in pairs:
        if len(reference) == 0:
            continue
        c_len += len(candidate)
        r_len += len(reference)
        for n in range(1, max_n + 1):
            for i in range(len(candidate) - n + 1):
                totals[n] += 1
            ref_grams = {}
            for i in range(len(reference) - n + 1):
                g = tuple(reference[i : i + n])
                ref_grams[g] = ref_grams.get(g, 0) + 1
            for i in range(len(candidate) - n + 1):
                g = tuple(candidate[i : i + n])
                if ref_grams.get(g, 0) > 0:
                    ref_grams[g] -= 1
                    matches[n] += 1
    if c_len == 0:
        return 0.0
    log_sum = 0.0
    for n in range(1, max_n + 1):
        if totals[n] == 0:
            continue
        if matches[n] == 0:
            return 0.0
        log_sum += math.log(matches[n] / totals[n])
    bp = 1.0 if c_len >= r_len else math.exp(1.0 - r_len / c_len)
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


def suffix_floors_cube(sim, k):
    """floors[p, s, t] for s < k: the sum of the s smallest similarities
    from position t to the other positions of the suffix p..n-1 (inf where
    that suffix has fewer than s others), from one masked (n, n, n) cube
    sorted at once.  Only t >= p is meaningful."""
    n = sim.shape[0]
    pos = np.arange(n)
    # cube[p, t, u] = sim[t, u], masked where u is before the suffix or u == t
    cube = np.where((pos[:, None, None] > pos) | (pos[:, None] == pos), np.inf, sim)
    smallest = np.sort(cube, axis=2)[:, :, : k - 1]
    floors = np.zeros((n, k, n))
    floors[:, 1:, :] = np.cumsum(smallest, axis=2).transpose(0, 2, 1)
    return floors


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


def _layers(params, kind):
    return sum(1 for name in params if name.startswith(f"{kind}.") and name.endswith(".w"))


def graph_dcn_forward(g, R, params):
    """The closed-form DCN of one graph: scores of x0 = [g | R[s]] for
    every sentence row s, with g (ds,) the graph's shared block, as the
    model computed them one graph at a time.  The last cross layer has no
    bias.  Returns (scores (S,), trace (V, a, c, B, deep))."""
    n_cross = _layers(params, "cross")
    ds = g.size
    head = params["head.score"]
    d0 = ds + R.shape[1]
    V = np.column_stack([params[f"cross.{l}.w"] for l in range(n_cross)] + [head[:d0]])
    a = R @ V[ds:] + g @ V[:ds]
    c = [np.ones(len(R))]
    B = [np.zeros(d0)]
    for l in range(n_cross):
        c.append(c[l] + c[l] * a[:, l] + B[l] @ V[:, l])
        B.append(B[l] + params[f"cross.{l}.b"] if l < n_cross - 1 else B[l])
    W0 = params["deep.0.w"]
    deep = [np.maximum(R @ W0[:, ds:].T + (W0[:, :ds] @ g + params["deep.0.b"]), 0.0)]
    for l in range(1, _layers(params, "deep")):
        deep.append(np.maximum(deep[-1] @ params[f"deep.{l}.w"].T + params[f"deep.{l}.b"], 0.0))
    scores = c[-1] * a[:, -1] + B[-1] @ V[:, -1] + deep[-1] @ head[d0:]
    return scores, (V, a, c, B, deep)


def graph_dcn_backward(d_scores, g, R, params, trace, grads):
    """Gradients of `graph_dcn_forward`, added into `grads`; returns
    (dg (ds,), dR (S, dr))."""
    V, a, c, B, deep = trace
    ds = g.size
    d0 = V.shape[0]
    L = V.shape[1] - 1
    dA = np.empty_like(a)
    dA[:, L] = d_scores * c[L]
    dc = d_scores * a[:, L]
    shift = np.empty(L + 1)
    shift[L] = d_scores.sum()
    dB = shift[L] * V[:, L]
    for l in range(L - 1, -1, -1):
        dA[:, l] = dc * c[l]
        shift[l] = dc.sum()
        if l < L - 1:
            grads[f"cross.{l}.b"] += dB
        dB = dB + shift[l] * V[:, l]
        dc = dc + dc * a[:, l]
    total = dA.sum(axis=0)
    dV = np.concatenate([np.outer(g, total), R.T @ dA]) + np.column_stack(B) * shift
    for l in range(L):
        grads[f"cross.{l}.w"] += dV[:, l]
    grads["head.score"][:d0] += dV[:, L]
    dg = V[:ds] @ total
    dR = dA @ V[ds:].T

    grads["head.score"][d0:] += deep[-1].T @ d_scores
    dd = np.outer(d_scores, params["head.score"][d0:])
    for l in range(len(deep) - 1, 0, -1):
        dz = dd * (deep[l] > 0)
        grads[f"deep.{l}.w"] += dz.T @ deep[l - 1]
        grads[f"deep.{l}.b"] += dz.sum(axis=0)
        dd = dz @ params[f"deep.{l}.w"]
    dz = dd * (deep[0] > 0)
    dz_total = dz.sum(axis=0)
    W0 = params["deep.0.w"]
    grads["deep.0.w"][:, :ds] += np.outer(dz_total, g)
    grads["deep.0.w"][:, ds:] += dz.T @ R
    grads["deep.0.b"] += dz_total
    dg += dz_total @ W0[:, :ds]
    dR += dz @ W0[:, ds:]
    return dg, dR


def pair_graph_oracle(corpus, user_id, item_id):
    """The (user, item) graph's attention edges, built from one set of
    neighbors per node.

    Node 0 is the user, 1 the item, then the pool's attributes by id, then
    its sentences by id.  The pool is the user's and the item's training
    sentences that share an attribute with the item's training reviews.
    The user and the item link to the attributes they have in training, and
    each sentence links to its attributes; every link is both ways.  Row i
    lists i's neighbors and i itself in increasing order.  Returns (dst,
    src, starts, flat) as int64 arrays, flat being dst * n + src.
    """
    item_attrs = corpus.item_attributes[item_id]
    pool = []
    for sid in sorted(corpus.user_sentences[user_id] | corpus.item_sentences[item_id]):
        if corpus.sentences[sid].attributes & item_attrs:
            pool.append(sid)
    attrs = set()
    for sid in pool:
        attrs |= corpus.sentences[sid].attributes
    attrs = sorted(attrs)
    n = 2 + len(attrs) + len(pool)
    adj = [set() for _ in range(n)]

    def link(i, j):
        adj[i].add(j)
        adj[j].add(i)

    for k, a in enumerate(attrs):
        if a in corpus.user_attributes[user_id]:
            link(0, 2 + k)
        if a in item_attrs:
            link(1, 2 + k)
    for k, sid in enumerate(pool):
        for a in corpus.sentences[sid].attributes:
            link(2 + len(attrs) + k, 2 + attrs.index(a))
    dst, src, starts = [], [], []
    for i in range(n):
        starts.append(len(dst))
        for j in sorted(adj[i] | {i}):
            dst.append(i)
            src.append(j)
    dst = np.array(dst, dtype=np.int64)
    src = np.array(src, dtype=np.int64)
    return dst, src, np.array(starts, dtype=np.int64), dst * n + src


def surface_tokens(surface):
    """A lexicon surface's tokens, read one character at a time."""
    tokens = []
    word = ""
    for ch in surface:
        if ch in "abcdefghijklmnopqrstuvwxyz0123456789'":
            word += ch
            continue
        if word:
            tokens.append(word)
            word = ""
        if not ch.isspace():
            tokens.append(ch)
    if word:
        tokens.append(word)
    return tokens


def graph_inputs_oracle(graph, corpus, word_table, sentence_table=None):
    """One graph's (attr_X, sent_X), assembled per graph, node by node.

    An attribute node's row is the mean of the word vectors of its
    surface's tokens that have one, or zeros when none has.  A surface's
    tokens are its runs of letters a-z, digits and apostrophes, and each
    other character that is not white space on its own.  A sentence
    node's row is its `sentence_table` row or, without a table, the mean
    of its words' vectors, a word without one taking the unknown token's
    vector, or zeros when that has none too.
    """
    attr_rows = []
    for a in graph.attribute_ids:
        found = []
        for part in surface_tokens(corpus.lexicon.surfaces[a]):
            if part in word_table.index:
                found.append(word_table.vectors[word_table.index[part]])
        attr_rows.append(np.mean(found, axis=0) if found else np.zeros(word_table.dim))
    unk = np.zeros(word_table.dim)
    if "<unk>" in word_table.index:
        unk = word_table.vectors[word_table.index["<unk>"]]
    sent_rows = []
    for sid in graph.sentence_ids:
        if sentence_table is not None:
            sent_rows.append(sentence_table.vectors[sentence_table.index[sid]])
            continue
        words = []
        for w in corpus.sentences[sid].words:
            words.append(word_table.vectors[word_table.index[w]] if w in word_table.index else unk)
        sent_rows.append(np.mean(words, axis=0))
    return np.stack(attr_rows), np.stack(sent_rows)


def build_corpus_oracle(records, lexicon, min_activity):
    """Preprocessing's reviews, sentences and stats, found by tagging every
    record and only then filtering by activity.

    Review i is `r{i}`, and the k-th sentence of its text, counting the
    attribute-free ones it drops, is `r{i}.s{k}`.  A review keeps its
    attribute-bearing sentences, and one with none is dropped.  Then every
    review of a user or item with fewer than `min_activity` reviews left is
    dropped, pass after pass, until a pass drops none.  Returns reviews
    (id -> (user_id, item_id, sentence ids)), sentences (id -> (words,
    attribute ids)), the `Corpus.stats()` counts, and whether the filter
    removed every review (some review was tagged and none is left).
    """
    reviews = {}
    sentences = {}
    for i in range(len(records)):
        rid = "r" + str(i)
        sids = []
        k = 0
        for words in segment_and_tokenize(records[i].text):
            attrs = lexicon.match(words)
            if len(attrs) > 0:
                sid = rid + ".s" + str(k)
                sentences[sid] = (tuple(words), frozenset(attrs))
                sids.append(sid)
            k += 1
        if sids:
            reviews[rid] = (records[i].user_id, records[i].item_id, tuple(sids))
    tagged_any = len(reviews) > 0
    while True:
        user_count = {}
        item_count = {}
        for user, item, _ in reviews.values():
            user_count[user] = user_count.get(user, 0) + 1
            item_count[item] = item_count.get(item, 0) + 1
        dropped = []
        for rid, (user, item, _) in reviews.items():
            if user_count[user] < min_activity or item_count[item] < min_activity:
                dropped.append(rid)
        if not dropped:
            break
        for rid in dropped:
            del reviews[rid]
    kept_sentences = {}
    for rid in reviews:
        for sid in reviews[rid][2]:
            kept_sentences[sid] = sentences[sid]
    attributes = set()
    for _, attrs in kept_sentences.values():
        for a in attrs:
            attributes.add(a)
    stats = {
        "users": len({user for user, _, _ in reviews.values()}),
        "items": len({item for _, item, _ in reviews.values()}),
        "reviews": len(reviews),
        "sentences": len(kept_sentences),
        "attributes": len(attributes),
    }
    return reviews, kept_sentences, stats, tagged_any and len(reviews) == 0
