"""Command-line pipeline: preprocess -> train -> select -> evaluate.

Each stage reads the same JSON config, writes its outputs under the
workdir, and stamps them with a hash of the config sections it depends
on; a later stage refuses artifacts whose stamp disagrees with the
current config.

train keeps `checkpoints/last.ntar`, the latest epoch, for `--resume`, and
`checkpoints/best.ntar`, which select reads (and hash-checks) unless
`--checkpoint` names another; each is replaced atomically.  The vector
files feed train and the train hash: train builds the attribute and
sentence node inputs from them and stores them in every checkpoint, and
select reads them from the checkpoint, so it parses neither file.

Ablations: --no-gat sets `model.disable_gat` (no attention layers; each
sentence's row also carries its attributes' mean input), --no-dcn sets
`model.disable_dcn` (a linear score head on that row, no feature
crossing), and --no-ilp sets `selection.alpha` to 0, the same fields a
config file may set.  A config without `paths.sentence_vectors` averages
word vectors into sentence vectors.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict
from pathlib import Path

from . import metrics
from .archive import ArchiveError, load_tensors
from .config import ConfigError, PipelineConfig
from .corpus import (
    Corpus,
    CorpusError,
    build_corpus,
    ingest_reviews,
    load_attribute_lexicon,
    load_corpus,
    load_meta,
    save_corpus,
)
from .features import NodeFeatureProvider, VectorFileError, graph_inputs, load_vector_file
from .graphs import EmptyPoolError, build_pair_graph
from .model import Model
from .selector import TfidfVectorizer, select_for_pair
from .training import BEST_CHECKPOINT, Trainer, TrainingError, checkpoint_params, checkpoint_provider

log = logging.getLogger(__name__)


class StalenessError(Exception):
    pass


def _corpus_dir(cfg: PipelineConfig) -> Path:
    return Path(cfg.paths.workdir) / "corpus"


def _check_hash(found: str | None, expected: str, producer: str) -> None:
    if found != expected:
        raise StalenessError(
            f"config hash mismatch: {producer} outputs were built with {found}, "
            f"current config gives {expected}; re-run {producer}"
        )


def cmd_preprocess(cfg: PipelineConfig) -> dict:
    cfg.validate_stage("preprocess")
    records, errors = ingest_reviews(cfg.paths.reviews, cfg.corpus.rating_threshold)
    lexicon = load_attribute_lexicon(cfg.paths.lexicon)
    corpus = build_corpus(
        records,
        lexicon,
        min_activity=cfg.corpus.min_activity,
        ratios=cfg.corpus.ratios,
        seed=cfg.seed,
    )
    stats = {**corpus.stats(), "ingest_errors": len(errors)}
    save_corpus(corpus, _corpus_dir(cfg), meta={"config_hash": cfg.preprocess_hash(), **stats})
    return stats


def _load_processed(cfg: PipelineConfig) -> Corpus:
    out = _corpus_dir(cfg)
    if not out.exists():
        raise StalenessError(f"no processed corpus at {out}; run preprocess first")
    _check_hash(load_meta(out).get("config_hash"), cfg.preprocess_hash(), "preprocess")
    return load_corpus(out)


def _build_provider(cfg: PipelineConfig, corpus: Corpus) -> NodeFeatureProvider:
    word_table = load_vector_file(cfg.paths.attribute_vectors)
    sentence_table = load_vector_file(cfg.paths.sentence_vectors) if cfg.paths.sentence_vectors else None
    return NodeFeatureProvider(corpus, cfg.model.hidden, word_table, sentence_table)


def cmd_train(cfg: PipelineConfig, resume: str | None = None):
    cfg.validate_stage("train")
    corpus = _load_processed(cfg)
    provider = _build_provider(cfg, corpus)
    trainer = Trainer(
        corpus,
        provider,
        cfg.model,
        cfg.training,
        workdir=cfg.paths.workdir,
        seed=cfg.seed,
        config_hash=cfg.train_hash(),
        k=cfg.selection.k,
    )
    if resume:
        trainer.load_checkpoint(resume)
    return trainer.run()


def cmd_select(cfg: PipelineConfig, checkpoint: str | None = None) -> dict:
    cfg.validate_stage("select")
    corpus = _load_processed(cfg)
    ckpt_path = Path(checkpoint or Path(cfg.paths.workdir) / BEST_CHECKPOINT)
    if not checkpoint and not ckpt_path.exists():
        raise StalenessError(f"no checkpoint at {ckpt_path}; run train first")
    tensors, meta = load_tensors(ckpt_path)
    if not checkpoint:
        _check_hash(meta.get("config_hash"), cfg.train_hash(), "train")
    provider = checkpoint_provider(tensors, corpus, cfg.model.hidden)
    model = Model(cfg.model, len(corpus.users), len(corpus.items), provider.sentence_dim)
    params = checkpoint_params(tensors, model.init_params(cfg.seed), "param")
    vectorizer = TfidfVectorizer(corpus.train_words())

    pairs = corpus.pairs("test")

    def graphs():
        for user_id, item_id in pairs:
            try:
                graph = build_pair_graph(corpus, user_id, item_id)
            except EmptyPoolError:
                log.warning("select: skipping (%s, %s): empty pool", user_id, item_id)
                continue
            yield graph, graph_inputs(graph, corpus, provider)

    results = []
    for graph, scores in model.scores(graphs(), params):
        words = [corpus.sentences[s].words for s in graph.sentence_ids]
        sel, chosen = select_for_pair(scores, words, vectorizer, cfg.selection)
        results.append(
            {
                "user_id": graph.user_id,
                "item_id": graph.item_id,
                "sentence_ids": [graph.sentence_ids[i] for i in chosen],
                "objective": sel.objective,
                "solver": sel.solver,
            }
        )
    out = Path(cfg.paths.workdir) / "selections.jsonl"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"config_hash": cfg.select_hash()}, sort_keys=True) + "\n")
        for rec in results:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    return {"pairs": len(results), "skipped": len(pairs) - len(results), "path": str(out)}


def _read_selections(path: Path, corpus: Corpus) -> tuple[dict, list[dict]]:
    """The hash header (empty when absent) and the records of a selections
    file; a line that is not UTF-8 or not JSON, a record without a pair or
    sentence ids, a sentence id the corpus lacks, or a pair an earlier line
    holds is an error naming its line.
    """
    header: dict = {}
    entries: list[dict] = []
    first_line: dict[tuple[str, str], int] = {}
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, 1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise StalenessError(f"{path} line {n}: not UTF-8 ({exc.reason})") from None
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise StalenessError(f"{path} line {n}: not JSON ({exc.msg})") from exc
            # the first line is a hash header, not a record, when it names no pair
            if not header and not entries and isinstance(rec, dict) and "config_hash" in rec and "user_id" not in rec:
                header = rec
                continue
            if not isinstance(rec, dict):
                raise StalenessError(f"{path} line {n}: not a JSON object")
            for key, kind, noun in (("user_id", str, "string"), ("item_id", str, "string"), ("sentence_ids", list, "list")):
                if not isinstance(rec.get(key), kind):
                    raise StalenessError(f"{path} line {n}: record has no {key} {noun}")
            for sid in rec["sentence_ids"]:
                if not isinstance(sid, str) or sid not in corpus.sentences:
                    raise StalenessError(f"{path} line {n}: sentence id {sid!r} is not in the corpus")
            pair = rec["user_id"], rec["item_id"]
            if pair in first_line:
                raise StalenessError(f"{path} line {n}: repeats the pair {pair} of line {first_line[pair]}")
            first_line[pair] = n
            entries.append(rec)
    return header, entries


def cmd_evaluate(cfg: PipelineConfig, selections: str | None = None) -> metrics.EvalReport:
    cfg.validate_stage("evaluate")
    corpus = _load_processed(cfg)
    path = Path(selections) if selections else Path(cfg.paths.workdir) / "selections.jsonl"
    if not path.exists():
        raise StalenessError(f"no selections at {path}; run select first")
    header, entries = _read_selections(path, corpus)
    if not selections:
        _check_hash(header.get("config_hash"), cfg.select_hash(), "select")
    records = []
    missing = 0
    for rec in entries:
        truth_ids = corpus.ground_truth_sentences(rec["user_id"], rec["item_id"], "test")
        if not truth_ids:
            missing += 1
            continue
        pred = [corpus.sentences[s] for s in rec["sentence_ids"]]
        truth = [corpus.sentences[s] for s in truth_ids]
        records.append(
            (
                [w for s in pred for w in s.words],
                [w for s in truth for w in s.words],
                set().union(*(s.attributes for s in pred)),
                set().union(*(s.attributes for s in truth)),
            )
        )
    report = metrics.evaluate_pairs(records)
    report.excluded = missing
    out = Path(cfg.paths.workdir) / "evaluation.json"
    out.write_text(json.dumps(asdict(report), sort_keys=True), encoding="utf-8")
    return report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recexplain",
        description="Extractive review-sentence explanations for recommended items.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in [
        ("preprocess", "ingest and preprocess the review corpus"),
        ("train", "train the sentence scoring model"),
        ("select", "pick top-K explanation sentences per test pair"),
        ("evaluate", "score selections against held-out reviews"),
    ]:
        sp = sub.add_parser(
            name, help=desc,
            epilog="The average-word-embedding ablation has no flag: leave paths.sentence_vectors empty.",
        )
        sp.add_argument("--config", required=True, help="path to the JSON pipeline config")
        sp.add_argument("--workdir", help="override paths.workdir")
        sp.add_argument("--seed", type=int, help="override the pipeline seed")
        sp.add_argument("--no-gat", action="store_true", help="set model.disable_gat: drop the graph attention stack")
        sp.add_argument("--no-dcn", action="store_true", help="set model.disable_dcn: score sentences with a linear head, no feature crossing")
        sp.add_argument("--no-ilp", action="store_true", help="set selection.alpha to 0: select the top K by score")
        if name == "train":
            sp.add_argument("--resume", help="checkpoint to resume from")
        if name == "select":
            sp.add_argument("--checkpoint", help="explicit checkpoint (default: best)")
        if name == "evaluate":
            sp.add_argument("--selections", help="explicit selections file")
    return parser


def _load_config(args) -> PipelineConfig:
    cfg = PipelineConfig.load(args.config)
    if args.workdir:
        cfg.paths.workdir = args.workdir
    if args.seed is not None:
        cfg.seed = args.seed
    if args.no_gat:
        cfg.model.disable_gat = True
    if args.no_dcn:
        cfg.model.disable_dcn = True
    if args.no_ilp:
        cfg.selection.alpha = 0.0
    return cfg


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "preprocess":
            stats = cmd_preprocess(cfg)
            print(json.dumps(stats, sort_keys=True))
        elif args.command == "train":
            best = cmd_train(cfg, resume=getattr(args, "resume", None))
            print(
                f"best epoch {best.epoch}: val BLEU-4 {best.val_bleu4:.4f} "
                f"(BLEU-1 {best.val_bleu1:.4f}, BLEU-2 {best.val_bleu2:.4f})"
            )
        elif args.command == "select":
            info = cmd_select(cfg, checkpoint=getattr(args, "checkpoint", None))
            print(json.dumps(info, sort_keys=True))
        elif args.command == "evaluate":
            report = cmd_evaluate(cfg, selections=getattr(args, "selections", None))
            print(report.format_table())
    except (
        ArchiveError, ConfigError, CorpusError, StalenessError, TrainingError, VectorFileError, OSError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
