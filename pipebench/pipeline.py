"""Runs the program's stages in this (fresh) process and writes a JSON record.

    python3 pipebench/pipeline.py prepare CONFIG WORKLOAD SEED OUT
    python3 pipebench/pipeline.py measure CONFIG SETUP_REPS TRACE OUT
    python3 pipebench/pipeline.py select CONFIG OUT

`prepare` preprocesses once and derives the vector files from the processed
corpus.  `measure` runs preprocess SETUP_REPS times, then train, select and
evaluate, timing each stage and the reference loop of `calibrate` before
the first stage and after each one; checks the outputs; and records stage
results, skips, peak memory, output digests and, with TRACE=1, the spans.
`select` times one more cmd_select over the outputs `measure` left, between
two reference loops, and records the digest of its selections.  The program
is imported from `src/` of the checkout this file sits in.
"""

from __future__ import annotations

import ctypes
import glob
import json
import logging
import re
import resource
import sys
import time
from pathlib import Path

import calibrate
import checks
import spans

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    import recexplain

    src = (ROOT / "src").resolve()
    if src not in Path(recexplain.__file__).resolve().parents:
        raise SystemExit(f"recexplain imported from {recexplain.__file__}, not from {src}")
    from recexplain import cli
    from recexplain.config import PipelineConfig

    return cli, PipelineConfig


class _Records(logging.Handler):
    def __init__(self):
        super().__init__(logging.INFO)
        self.messages: list[str] = []

    def emit(self, record):
        self.messages.append(f"{record.levelname} {record.name}: {record.getMessage()}")


def blas_threads() -> int | None:
    """Threads of the OpenBLAS bundled with numpy, when it can be asked."""
    import numpy

    for lib in glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def prepare(config_path: str, workload: str, seed: int) -> dict:
    import corpus_gen
    from workloads import WORKLOADS

    cli, PipelineConfig = _import_program()
    from recexplain.corpus import load_corpus

    cfg = PipelineConfig.load(config_path)
    stats = cli.cmd_preprocess(cfg)
    corpus = load_corpus(Path(cfg.paths.workdir) / "corpus")
    sentences = {sid: s.words for sid, s in corpus.sentences.items()}
    lexicon = [corpus.lexicon.surface(a) for a in range(len(corpus.lexicon))]
    wl = WORKLOADS[workload]
    corpus_gen.write_vectors(
        sentences, lexicon, wl.hidden, wl.sentence_dim, seed,
        Path(cfg.paths.reviews).parent,
    )
    return {"stats": stats}


_SKIPPED = re.compile(r"(\w+): skipped (\d+) pairs")


def measure(config_path: str, setup_reps: int, trace: bool) -> dict:
    cli, PipelineConfig = _import_program()
    from recexplain.corpus import load_corpus

    tracer = spans.Tracer() if trace else None
    missing_hooks = spans.install(tracer) if tracer else []
    records = _Records()
    logging.getLogger().addHandler(records)
    logging.getLogger().setLevel(logging.INFO)

    # reference-loop times between the stages: stage i runs between
    # refs[i] and refs[i + 1]
    refs = [calibrate.reference()]

    def stage(name, fn, *args):
        t0 = time.perf_counter()
        result = tracer.call(f"cli.{name}", fn, *args) if tracer else fn(*args)
        wall = time.perf_counter() - t0
        refs.append(calibrate.reference())
        return result, wall

    cfg = PipelineConfig.load(config_path)
    setup_s = []
    for _ in range(setup_reps):
        stats, seconds = stage("preprocess", cli.cmd_preprocess, PipelineConfig.load(config_path))
        setup_s.append(seconds)
    best, train_s = stage("train", cli.cmd_train, PipelineConfig.load(config_path))
    info, select_s = stage("select", cli.cmd_select, PipelineConfig.load(config_path))
    report, evaluate_s = stage("evaluate", cli.cmd_evaluate, PipelineConfig.load(config_path))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- outside the timed stages: operation counts and output checks --------
    workdir = Path(cfg.paths.workdir)
    corpus = load_corpus(workdir / "corpus")
    by_user: dict[str, set] = {}
    by_item: dict[str, set] = {}
    for rid in corpus.split.train:
        review = corpus.reviews[rid]
        by_user.setdefault(review.user_id, set()).update(review.sentence_ids)
        by_item.setdefault(review.item_id, set()).update(review.sentence_ids)
    errors, selected = checks.check_selections(workdir / "selections.jsonl", cfg.selection.k, by_user, by_item)
    test_pairs = set(corpus.pairs("test"))
    if not set(selected) <= test_pairs:
        errors.append("selections hold pairs that are not test pairs")
    if len(selected) != info["pairs"] or info["pairs"] + info["skipped"] != len(test_pairs):
        errors.append(f"select reported {info} for {len(test_pairs)} test pairs, wrote {len(selected)}")
    errors += checks.check_evaluation(workdir / "evaluation.json", len(selected))
    errors += checks.check_train_log(workdir / "train_log.txt", cfg.training.epochs)

    skipped = {"train": 0, "valid": 0}
    for message in records.messages:
        m = _SKIPPED.search(message)
        if m and m.group(1) in skipped:
            skipped[m.group(1)] += int(m.group(2))
    evaluation = json.loads((workdir / "evaluation.json").read_text(encoding="utf-8"))
    operations = {
        "train": [len(corpus.pairs("train")), skipped["train"]],
        "valid": [len(corpus.pairs("valid")), skipped["valid"]],
        "select": [info["pairs"] + info["skipped"], info["skipped"]],
        "evaluate": [evaluation["pairs"] + evaluation["excluded"], evaluation["excluded"]],
    }
    greedy = sum(
        json.loads(line).get("solver") == "greedy"
        for line in (workdir / "selections.jsonl").read_text(encoding="utf-8").splitlines()
    )
    return {
        "stage_s": {
            "setup": setup_s, "train": train_s, "select": select_s, "evaluate": evaluate_s,
        },
        "reference_s": refs,
        "peak_rss_mb": peak_rss_mb,
        "quality": {
            "val_bleu4": best.val_bleu4,
            "test_bleu4": evaluation["bleu4"],
            "test_rougeL": evaluation["rougeL"],
            "test_attr_f1": evaluation["attr_f1"],
        },
        "operations": operations,
        "greedy_selections": greedy,
        "corpus": stats,
        "digests": {
            name: checks.digest(workdir / name) for name in ("selections.jsonl", "train_log.txt", "evaluation.json")
        },
        "errors": errors,
        "warnings": len([m for m in records.messages if m.startswith("WARNING")]),
        "blas_threads": blas_threads(),
        "missing_hooks": missing_hooks,
        "trace": tracer.to_dict() if tracer else None,
    }


def select_only(config_path: str) -> dict:
    """One more timed cmd_select over the outputs `measure` left, in a fresh
    process; its selections must be byte-identical to the checked ones."""
    cli, PipelineConfig = _import_program()
    logging.disable(logging.WARNING)
    cfg = PipelineConfig.load(config_path)
    refs = [calibrate.reference()]
    t0 = time.perf_counter()
    cli.cmd_select(PipelineConfig.load(config_path))
    select_s = time.perf_counter() - t0
    refs.append(calibrate.reference())
    return {
        "select_s": select_s,
        "reference_s": refs,
        "digest": checks.digest(Path(cfg.paths.workdir) / "selections.jsonl"),
    }


def main(argv: list[str]) -> int:
    mode, config_path = argv[0], argv[1]
    if mode == "prepare":
        result = prepare(config_path, argv[2], int(argv[3]))
    elif mode == "measure":
        result = measure(config_path, int(argv[2]), argv[3] == "1")
    elif mode == "select":
        result = select_only(config_path)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    Path(argv[-1]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
