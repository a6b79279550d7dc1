"""Checks on the pipeline's outputs, and digests that show two runs agree.

The checks take plain data (paths, sets of sentence ids) so they can be
tested without running the pipeline.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

SOLVERS = ("exact", "greedy")


def digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def check_selections(path, k: int, allowed_by_user: dict, allowed_by_item: dict):
    """Errors in selections.jsonl and the (user, item) pairs it selected for.

    Every record has 1..k distinct sentence ids, each a training-split
    sentence of that user or item, a finite objective and a known solver;
    no pair appears twice.  A line holding only a config hash is a header.
    """
    errors: list[str] = []
    pairs: list[tuple[str, str]] = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for line_no, line in enumerate(lines, start=1):
        where = f"selections line {line_no}"
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"{where}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(rec, dict):
            errors.append(f"{where}: not an object")
            continue
        if "user_id" not in rec and "config_hash" in rec:
            continue
        missing = [key for key in ("user_id", "item_id", "sentence_ids", "objective", "solver") if key not in rec]
        if missing:
            errors.append(f"{where}: missing {', '.join(missing)}")
            continue
        pair = (rec["user_id"], rec["item_id"])
        if pair in pairs:
            errors.append(f"{where}: pair {pair} selected twice")
        pairs.append(pair)
        sids = rec["sentence_ids"]
        if not isinstance(sids, list) or not 1 <= len(sids) <= k or len(set(sids)) != len(sids):
            errors.append(f"{where}: expected 1..{k} distinct sentence ids, got {sids!r}")
            continue
        allowed = allowed_by_user.get(pair[0], set()) | allowed_by_item.get(pair[1], set())
        foreign = [s for s in sids if s not in allowed]
        if foreign:
            errors.append(f"{where}: {foreign} are not training sentences of {pair}")
        if not _finite_number(rec["objective"]):
            errors.append(f"{where}: objective {rec['objective']!r} is not finite")
        if rec["solver"] not in SOLVERS:
            errors.append(f"{where}: unknown solver {rec['solver']!r}")
    if not pairs:
        errors.append("selections: no records")
    return errors, pairs


def check_evaluation(path, selected: int) -> list[str]:
    """evaluation.json covers exactly the selected pairs, with finite scores in [0, 1]."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    errors = []
    if doc.get("pairs", 0) < 1 or doc.get("pairs", 0) + doc.get("excluded", 0) != selected:
        errors.append(
            f"evaluation covers {doc.get('pairs')} pairs + {doc.get('excluded')} excluded, "
            f"but {selected} pairs were selected"
        )
    for key in ("bleu1", "bleu2", "bleu4", "rouge1", "rouge2", "rougeL", "attr_precision", "attr_recall", "attr_f1"):
        value = doc.get(key)
        if not _finite_number(value) or not 0.0 <= value <= 1.0:
            errors.append(f"evaluation {key} = {value!r} is not a finite score in [0, 1]")
    return errors


def check_train_log(path, epochs: int) -> list[str]:
    """One line per epoch, numbered 0..epochs-1, every field finite."""
    errors = []
    rows = [line.split() for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip() and not line.startswith("#")]
    if len(rows) != epochs:
        errors.append(f"train log has {len(rows)} epoch lines, expected {epochs}")
    for n, row in enumerate(rows):
        try:
            values = [float(v) for v in row]
        except ValueError:
            errors.append(f"train log line {n}: non-numeric field in {row}")
            continue
        if not values or values[0] != n or not all(math.isfinite(v) for v in values):
            errors.append(f"train log line {n}: {row} is not epoch {n} with finite values")
    return errors
