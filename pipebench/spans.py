"""Spans recorded around calls into the program's modules, and the
per-module metrics computed from them.

A span is (name, start, end, parent index).  Spans stay in memory and are
written out when the run ends.  A span's self time is its duration minus the
part of it that its child spans cover.  Hooks wrap each name where the
program looks it up: a function imported by name into two modules is
wrapped in both, and a method is wrapped on its class.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import time
from collections import Counter, defaultdict

STAGES = ("preprocess", "train", "select", "evaluate")


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._seen: dict[str, set[int]] = defaultdict(set)

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def call(self, name: str, fn, *args, **kwargs):
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = self.clock()
            self.stack.pop()

    def wrap(self, fn, name: str, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def seen_before(self, kind: str, key) -> bool:
        """Count a keyed event; True when the same key occurred earlier."""
        seen = self._seen[kind]
        h = hash(key)
        if h in seen:
            return True
        seen.add(h)
        return False

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "samples": dict(self.samples)}


# -- observers: counts taken at the span boundaries ---------------------------

def _graph_size(tr: Tracer, args, graph) -> None:
    tr.samples["graphs.nodes"].append(graph.n_nodes)
    tr.samples["graphs.edges"].append(sum(len(n) for n in graph.neighbors) // 2)


def _records_kept(tr: Tracer, args, corpus) -> None:
    tr.counts["corpus.records_kept"] = len(corpus.reviews)


def _grad_bytes(tr: Tracer, args, grads) -> None:
    tr.counts["model.zero_grads_bytes"] += sum(g.nbytes for g in grads.values())


def _bytes_written(tr: Tracer, args, _result) -> None:
    tr.counts["archive.bytes_written"] += os.path.getsize(args[0])


def _solver_used(tr: Tracer, args, selection) -> None:
    if selection.solver == "greedy":
        tr.counts["selector.greedy_fallbacks"] += 1


def _pool_size(tr: Tracer, args, _result) -> None:
    tr.samples["selector.pool_n"].append(len(args[0]))


def _count_bleu(tr: Tracer, fn):
    """Counts the smoothed-BLEU calls made for relevance targets."""

    @functools.wraps(fn)
    def wrapper(candidate, references, *args, **kwargs):
        result = fn(candidate, references, *args, **kwargs)
        if tr.current() == "training.relevance_targets":
            tr.counts["training.bleu_calls"] += 1
            tr.counts["training.bleu_zero"] += result == 0.0
            key = (tuple(candidate), tuple(tuple(r) for r in references))
            tr.counts["training.bleu_repeat"] += tr.seen_before("bleu", key)
        return result

    return wrapper


def _count_tfidf_vector(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, words, *args, **kwargs):
        tr.counts["selector.tfidf_vector_calls"] += 1
        tr.counts["selector.tfidf_vector_repeat"] += tr.seen_before("tfidf", tuple(words))
        return fn(self, words, *args, **kwargs)

    return wrapper


# (module, attribute path where the program looks the name up, span name, observer)
HOOKS = [
    ("cli", "ingest_reviews", "corpus.ingest", None),
    ("cli", "load_attribute_lexicon", "corpus.load_lexicon", None),
    ("cli", "build_corpus", "corpus.build", _records_kept),
    ("cli", "save_corpus", "corpus.save", None),
    ("cli", "load_corpus", "corpus.load", None),
    ("cli", "load_vector_file", "features.load_vectors", None),
    ("cli", "graph_inputs", "features.graph_inputs", None),
    ("training", "graph_inputs", "features.graph_inputs", None),
    ("cli", "build_pair_graph", "graphs.build", _graph_size),
    ("training", "build_pair_graph", "graphs.build", _graph_size),
    ("graphs", "PairGraph.edge_arrays", "graphs.edge_arrays", None),
    ("model", "Model.forward", "model.forward", None),
    ("model", "Model.backward", "model.backward", None),
    ("model", "Model.zero_grads", "model.zero_grads", _grad_bytes),
    ("model", "gat_layer", "model.gat_layer", None),
    ("model", "dcn_forward", "model.dcn_forward", None),
    ("training", "Trainer.__init__", "training.setup", None),
    ("training", "Trainer.run", "training.run", None),
    ("training", "Trainer.validate", "training.validate", None),
    ("training", "relevance_targets", "training.relevance_targets", None),
    ("training", "sample_rank_pairs", "training.rank_pairs", None),
    ("training", "pairwise_rank_loss", "training.loss", None),
    ("training", "attribute_loss", "training.loss", None),
    ("training", "adam_step", "training.adam_step", None),
    ("training", "save_tensors", "archive.save", _bytes_written),
    ("training", "load_tensors", "archive.load", None),
    ("cli", "load_tensors", "archive.load", None),
    ("selector", "TfidfVectorizer.__init__", "selector.tfidf_fit", None),
    ("selector", "TfidfVectorizer.matrix", "selector.tfidf_matrix", None),
    ("selector", "solve_exact", "selector.solve_exact", _solver_used),
    ("cli", "select_for_pair", "selector.select", _pool_size),
    ("metrics", "evaluate_pairs", "metrics.evaluate_pairs", None),
]

COUNTERS = [
    ("metrics", "sentence_bleu", _count_bleu),
    ("selector", "TfidfVectorizer.vector", _count_tfidf_vector),
]


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"recexplain.{module}")
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> list[str]:
    """Wrap every hooked name; returns the hooks whose name no longer exists."""
    patches = [(m, p, lambda fn, n=name, o=obs: tracer.wrap(fn, n, o)) for m, p, name, obs in HOOKS]
    patches += [(m, p, lambda fn, make=make: make(tracer, fn)) for m, p, make in COUNTERS]
    missing = []
    for module, path, patch in patches:
        try:
            owner, attr = _resolve(module, path)
            fn = getattr(owner, attr)
        except AttributeError:
            missing.append(f"{module}.{path}")
            continue
        setattr(owner, attr, patch(fn))
    return missing


# -- aggregation ---------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Per span, its duration minus the union of its children's intervals
    (clipped to the span)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out.append((end - start) - covered)
    return out


def _stage_of(spans, i: int) -> str | None:
    while i >= 0:
        name = spans[i][0]
        if name.startswith("cli.") and name[4:] in STAGES:
            return name[4:]
        i = spans[i][3]
    return None


def _forward_context(spans, i: int) -> str:
    """'validate', 'select' or 'train': who asked for a forward pass."""
    i = spans[i][3]
    while i >= 0:
        name = spans[i][0]
        if name == "training.validate":
            return "validate"
        if name == "cli.select":
            return "select"
        i = spans[i][3]
    return "train"


def _p50(values) -> float:
    return float(statistics.median(values)) if values else 0.0


# per-layer metrics reported by a traced run: (name, unit, better)
TIMED = [
    "corpus.ingest", "corpus.load_lexicon", "corpus.build", "corpus.save", "corpus.load",
    "features.load_vectors", "features.graph_inputs",
    "graphs.build", "graphs.edge_arrays",
    "model.forward", "model.backward", "model.gat_layer", "model.dcn_forward", "model.zero_grads",
    "training.setup", "training.run", "training.relevance_targets", "training.rank_pairs",
    "training.loss", "training.adam_step", "training.validate",
    "archive.save", "archive.load",
    "selector.tfidf_fit", "selector.tfidf_matrix", "selector.solve_exact", "selector.select",
    "metrics.evaluate_pairs",
]
# Shares of a stage's time by module (self time), for the modules each stage
# calls, plus the hot spans the workloads were built around.
_SHARED = ("cli", "corpus", "features", "graphs", "model", "archive")
SHARES = [("train", m) for m in _SHARED + ("training", "training.relevance_targets")] + [
    ("select", m) for m in _SHARED + ("selector", "selector.tfidf_matrix", "selector.solve_exact")
]
PER_LAYER = (
    [(f"{n}_s", "s", "lower") for n in TIMED]
    + [(f"{n}_calls", "count", "lower") for n in TIMED]
    + [
        ("model.forward.train_s", "s", "lower"),
        ("model.forward.validate_s", "s", "lower"),
        ("model.forward.select_s", "s", "lower"),
        ("model.zero_grads_bytes", "bytes", "lower"),
        ("corpus.records_kept", "count", "higher"),
        ("graphs.nodes_p50", "count", "lower"),
        ("graphs.nodes_max", "count", "lower"),
        ("graphs.edges_p50", "count", "lower"),
        ("training.bleu_calls", "count", "lower"),
        ("training.bleu_zero_share", "ratio", "lower"),
        ("training.bleu_repeat_share", "ratio", "lower"),
        ("training.val_bleu4", "ratio", "higher"),
        ("archive.bytes_written", "bytes", "lower"),
        ("selector.tfidf_vector_repeat_share", "ratio", "lower"),
        ("selector.solve_exact_max_ms", "ms", "lower"),
        ("selector.greedy_fallbacks", "count", "lower"),
        ("selector.pool_n_p50", "count", "lower"),
    ]
    + [(f"cli.{s}_self_s", "s", "lower") for s in STAGES]
    + [(f"share.{s}.{m}", "ratio", "lower") for s, m in SHARES]
    + [
        ("trace.total_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def layer_metrics(trace: dict, untraced_total_s: float, val_bleu4: float, scale: float = 1.0) -> dict[str, float]:
    """Every PER_LAYER metric from a traced run's spans and counts, the
    untraced runs' median total_s, and the validation BLEU-4 training returned.
    Span durations are multiplied by `scale`, the traced run's reference
    seconds per wall second."""
    spans = [[name, start * scale, end * scale, parent] for name, start, end, parent in trace["spans"]]
    counts = Counter(trace["counts"])
    samples = trace["samples"]
    selfs = self_times(spans)
    out: dict[str, float] = {}
    busy: Counter = Counter()
    calls: Counter = Counter()
    forward: Counter = Counter()
    stage_total: Counter = Counter()
    stage_self: Counter = Counter()  # (stage, module) and (stage, span name)
    exact_max = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        busy[name] += dur
        calls[name] += 1
        if name == "model.forward":
            forward[_forward_context(spans, i)] += dur
        if name == "selector.solve_exact":
            exact_max = max(exact_max, dur)
        stage = _stage_of(spans, i)
        if name.startswith("cli.") and parent < 0:
            stage_total[stage] += dur
        stage_self[(stage, name.split(".")[0])] += selfs[i]
        stage_self[(stage, name)] += selfs[i]
    for n in TIMED:
        out[f"{n}_s"] = busy[n]
        out[f"{n}_calls"] = calls[n]
    for ctx in ("train", "validate", "select"):
        out[f"model.forward.{ctx}_s"] = forward[ctx]
    out["model.zero_grads_bytes"] = counts["model.zero_grads_bytes"]
    out["corpus.records_kept"] = counts["corpus.records_kept"]
    out["graphs.nodes_p50"] = _p50(samples.get("graphs.nodes", []))
    out["graphs.nodes_max"] = max(samples.get("graphs.nodes", []), default=0)
    out["graphs.edges_p50"] = _p50(samples.get("graphs.edges", []))
    bleu = counts["training.bleu_calls"]
    out["training.bleu_calls"] = bleu
    out["training.bleu_zero_share"] = counts["training.bleu_zero"] / bleu if bleu else 0.0
    out["training.bleu_repeat_share"] = counts["training.bleu_repeat"] / bleu if bleu else 0.0
    out["training.val_bleu4"] = val_bleu4
    out["archive.bytes_written"] = counts["archive.bytes_written"]
    vec = counts["selector.tfidf_vector_calls"]
    out["selector.tfidf_vector_repeat_share"] = counts["selector.tfidf_vector_repeat"] / vec if vec else 0.0
    out["selector.solve_exact_max_ms"] = 1000.0 * exact_max
    out["selector.greedy_fallbacks"] = counts["selector.greedy_fallbacks"]
    out["selector.pool_n_p50"] = _p50(samples.get("selector.pool_n", []))
    for s in STAGES:
        out[f"cli.{s}_self_s"] = stage_self[(s, f"cli.{s}")]
    for s, m in SHARES:
        out[f"share.{s}.{m}"] = stage_self[(s, m)] / stage_total[s] if stage_total[s] else 0.0
    traced_total = sum(stage_total.values())
    out["trace.total_s"] = traced_total
    out["trace.overhead_s"] = traced_total - untraced_total_s
    return out
