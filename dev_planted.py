"""Dev harness: does the planted-signal corpus train to >= 90% top-1?"""
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np

from recexplain.cli import cmd_preprocess, cmd_train, _load_processed, _build_provider
from recexplain.config import PipelineConfig
from recexplain.graphs import build_pair_graph
from recexplain.features import graph_inputs
from recexplain.model import Model
from recexplain.archive import load_tensors
from recexplain.training import checkpoint_params
import synthetic_corpus as sc


def make_config(data_dir, workdir, seed=0, epochs=50, hidden=32):
    cfg = PipelineConfig()
    cfg.paths.reviews = str(data_dir / "reviews.jsonl")
    cfg.paths.lexicon = str(data_dir / "lexicon.txt")
    cfg.paths.attribute_vectors = str(data_dir / "word_vectors.txt")
    cfg.paths.sentence_vectors = str(data_dir / "sentence_vectors.txt")
    cfg.paths.workdir = str(workdir)
    cfg.corpus.rating_threshold = 10
    cfg.corpus.min_activity = 2
    cfg.seed = seed
    cfg.model.hidden = hidden
    cfg.training.epochs = epochs
    cfg.training.patience = 50
    return cfg


def top1_accuracy(cfg):
    corpus = _load_processed(cfg)
    provider = _build_provider(cfg)
    model = Model(cfg.model, len(corpus.users), len(corpus.items), provider.sentence_dim)
    import json
    best = json.loads((Path(cfg.paths.workdir) / "checkpoints" / "best.json").read_text())
    tensors, meta = load_tensors(Path(cfg.paths.workdir) / "checkpoints" / best["checkpoint"])
    params = checkpoint_params(tensors, model.init_params(cfg.seed))
    user_rows = {u: i for i, u in enumerate(corpus.users)}
    item_rows = {c: i for i, c in enumerate(corpus.items)}
    hits, total, covered = 0, 0, 0
    for user_id, item_id in corpus.pairs("test"):
        g = build_pair_graph(corpus, user_id, item_id, "eval")
        inputs = graph_inputs(g, corpus, provider, user_rows[user_id], item_rows[item_id])
        trace = model.forward(g, inputs, params)
        planted = sc.planted_words_for_pair(user_id, item_id)
        pool_words = [corpus.sentences[s].words for s in g.sentence_ids]
        has_copy = planted in pool_words
        covered += has_copy
        top1 = int(np.argmax(trace.scores))
        hits += pool_words[top1] == planted
        total += 1
    return hits, total, covered


def main(seed=0, epochs=50, hidden=32):
    root = Path(tempfile.mkdtemp(prefix="planted_"))
    print("writing into", root)
    data_dir, workdir = root / "data", root / "work"
    data_dir.mkdir()
    sc.write_inputs(data_dir, seed=seed)
    cfg = make_config(data_dir, workdir, seed=seed, epochs=epochs, hidden=hidden)
    t0 = time.time()
    stats = cmd_preprocess(cfg)
    print("stats:", stats)
    sc.write_vector_files(workdir / "corpus", data_dir, hidden=hidden, seed=seed)
    best = cmd_train(cfg)
    t1 = time.time()
    print(f"train time: {t1 - t0:.1f}s, best epoch {best.epoch} val4={best.val_bleu4:.4f}")
    hits, total, covered = top1_accuracy(cfg)
    print(f"top1: {hits}/{total} ({100 * hits / total:.0f}%), pools with a planted copy: {covered}/{total}")
    log = (workdir / "train_log.txt").read_text().splitlines()
    for line in log[:12]:
        print(line)


if __name__ == "__main__":
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    epochs = int(sys.argv[2]) if len(sys.argv) > 2 else 50
    main(seed=seed, epochs=epochs)
