"""Pipeline configuration: one JSON file drives every stage.

Defaults follow the published hyperparameters (two attention layers with
4+1 heads, hidden 256, 2-layer cross + 2x128 deep network, lambda 0.5,
Adam at 2e-4 with batch 16, K=5, alpha=2.0, candidate pool 100), so a
config that only fills in paths runs the reference pipeline.  Stage
outputs carry a hash of the config sections they depend on and of the
bytes of the input files they read; downstream stages refuse to consume
artifacts whose hash disagrees, so an input edited in place is stale.

The 24 settable values are `seed` and the fields of five sections: paths
(reviews, lexicon, attribute_vectors, sentence_vectors, workdir), corpus
(rating_threshold, min_activity, ratios), model (hidden, gat_heads,
deep_hidden, disable_gat, disable_dcn), training (lambda, batch_size,
learning_rate, epochs, pair_budget, patience) and selection (k, alpha,
pool, exact_cap).  Any other key, or a value whose JSON type
does not fit its field, is rejected by name, and so is a float field's
NaN or infinity (Python's json reads `NaN`, `Infinity` and `-Infinity`).
So is a value outside its range, which every stage checks after the CLI
overrides:
- `seed`, `training.patience` and `selection.exact_cap` >= 0;
- `corpus.min_activity`, `model.hidden`, `model.deep_hidden`,
  `training.batch_size`, `training.epochs`, `training.pair_budget`,
  `selection.k` and `selection.pool` >= 1;
- `model.gat_heads` non-empty, every entry >= 1;
- every entry of `corpus.ratios` >= 0 (preprocess also checks that they
  sum to 1);
- `training.lambda` in [0, 1], `training.learning_rate` > 0;
- `selection.alpha` >= 0, which the exact selector's bound assumes.

The fixed parts of the design are constants where they are used: ELU, the
0.2 LeakyReLU slope, the embedding init scale and the 2 cross + 2 deep
layers in `model.py`; Adam's beta1, beta2 and eps and the balanced
attribute loss in `training.py`; the restriction of each pair's pool to
the item's attributes in `graphs.py`.

Each of the paper's ablation settings lives in one field, which a CLI flag
also sets: `model.disable_gat` (--no-gat: no attention layers, and each
sentence's DCN input also carries its attributes' mean input),
`model.disable_dcn` (--no-dcn: a linear score head on the DCN input, no
feature crossing) and `selection.alpha` = 0 (--no-ilp: no redundancy
term, so the selection is the top K by score).  Leaving
`paths.sentence_vectors` empty selects the fourth ablation, sentence
vectors averaged from the word vectors in `paths.attribute_vectors`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .model import ModelConfig
from .selector import SelectConfig
from .training import TrainConfig


class ConfigError(Exception):
    pass


@dataclass
class PathsConfig:
    reviews: str = ""
    lexicon: str = ""
    attribute_vectors: str = ""
    sentence_vectors: str = ""
    workdir: str = "work"


@dataclass
class CorpusConfig:
    rating_threshold: float | None = None
    min_activity: int = 15
    ratios: tuple[float, float, float] = (0.70, 0.15, 0.15)


_JSON_KEYS = {"lam": "lambda"}
_FIELD_KEYS = {"lambda": "lam"}
_SCALARS = {"int": int, "float": (int, float), "bool": bool, "str": str}


def _fits(value, annotation: str) -> bool:
    """Whether a JSON value fits a field's annotation: an int passes for a
    float and a list for a tuple, a bool passes only for a bool."""
    if annotation.endswith(" | None"):
        return value is None or _fits(value, annotation.removesuffix(" | None"))
    if annotation.startswith("tuple[") and isinstance(value, list):
        items = annotation[len("tuple[") : -1].split(", ")
        items = items[:1] * len(value) if items[-1] == "..." else items
        return len(items) == len(value) and all(_fits(v, a) for v, a in zip(value, items))
    if isinstance(value, bool):
        return annotation == "bool"
    return isinstance(value, _SCALARS.get(annotation, ()))


def _check_type(dotted: str, value, annotation: str) -> None:
    if not _fits(value, annotation):
        raise ConfigError(f"config key {dotted} must be {annotation}, got {json.dumps(value)}")


def _from_dict(cls, data, section: str):
    if not isinstance(data, dict):
        raise ConfigError(f"config section {section} must be a JSON object, got {json.dumps(data)}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        name = _FIELD_KEYS.get(key, key)
        if name not in fields:
            raise ConfigError(f"unknown key {section}.{key}")
        _check_type(f"{section}.{key}", value, fields[name].type)
        if "float" in fields[name].type and value is not None:  # so 2 and 2.0 hash alike
            value = [float(v) for v in value] if isinstance(value, list) else float(value)
            if not all(map(math.isfinite, value if isinstance(value, list) else [value])):
                raise ConfigError(f"config key {section}.{key} must be finite, got {json.dumps(value)}")
        kwargs[name] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def _at_least(low):
    return lambda v: v >= low, f">= {low}"


# key -> (test of the value, the range it states)
_RANGES = {
    "seed": _at_least(0),
    "corpus.min_activity": _at_least(1),
    "corpus.ratios": (lambda v: min(v) >= 0, "a list of shares >= 0"),
    "model.hidden": _at_least(1),
    "model.gat_heads": (lambda v: len(v) > 0 and min(v) >= 1, "a non-empty list of head counts >= 1"),
    "model.deep_hidden": _at_least(1),
    "training.lambda": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "training.batch_size": _at_least(1),
    "training.learning_rate": (lambda v: v > 0, "> 0"),
    "training.epochs": _at_least(1),
    "training.pair_budget": _at_least(1),
    "training.patience": _at_least(0),
    "selection.k": _at_least(1),
    "selection.alpha": _at_least(0),
    "selection.pool": _at_least(1),
    "selection.exact_cap": _at_least(0),
}


def _file_digest(path: str) -> str | None:
    """sha256 of a file's bytes, read in blocks; None when there is no such
    file, so outputs built from it count as stale."""
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 16), b""):
                digest.update(block)
    except FileNotFoundError:
        return None
    return digest.hexdigest()


def _to_dict(obj) -> dict:
    values = {_JSON_KEYS.get(f.name, f.name): getattr(obj, f.name) for f in dataclasses.fields(obj)}
    return {key: list(value) if isinstance(value, tuple) else value for key, value in values.items()}


@dataclass
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    selection: SelectConfig = field(default_factory=SelectConfig)
    seed: int = 0
    # input path -> content digest, filled by `_digest`
    _digests: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_dict(cls, data) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {json.dumps(data)}")
        # a section field's default_factory is its class
        fields = dataclasses.fields(cls)
        sections = {f.name: f.default_factory for f in fields if f.init and f.default_factory is not dataclasses.MISSING}
        kwargs = {}
        for key, value in data.items():
            if key in sections:
                kwargs[key] = _from_dict(sections[key], value, key)
            elif key == "seed":
                _check_type("seed", value, "int")
                kwargs[key] = value
            else:
                keys = ", ".join(f"{key}.{k}" for k in value) if isinstance(value, dict) else ""
                raise ConfigError(f"unknown config section {key!r}" + (f" ({keys})" if keys else ""))
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 ({exc.reason})") from None
        return cls.from_dict(data)

    # -- validation ----------------------------------------------------------

    def validate_stage(self, stage: str) -> None:
        """Fail fast with the offending field's name."""
        for dotted, (ok, wanted) in _RANGES.items():
            section, _, key = dotted.rpartition(".")
            value = getattr(getattr(self, section) if section else self, _FIELD_KEYS.get(key, key))
            if not ok(value):
                raise ConfigError(f"config key {dotted} must be {wanted}, got {json.dumps(value)}")
        # every path a stage's stamp digests (the later stamps chain the
        # earlier ones), except the optional paths.sentence_vectors
        need = ["paths.reviews", "paths.lexicon", "paths.workdir"]
        if stage != "preprocess":
            need.append("paths.attribute_vectors")
        for dotted in need:
            section, name = dotted.split(".")
            if not getattr(getattr(self, section), name):
                raise ConfigError(f"missing required config field {dotted}")
        if stage == "preprocess":
            if self.corpus.rating_threshold is None:
                raise ConfigError("missing required config field corpus.rating_threshold")
            if abs(sum(self.corpus.ratios) - 1.0) > 1e-9:
                raise ConfigError(f"corpus.ratios must sum to 1, got {self.corpus.ratios}")
            for name in ("reviews", "lexicon"):
                if not Path(getattr(self.paths, name)).exists():
                    raise ConfigError(f"paths.{name} does not exist: {getattr(self.paths, name)}")

    # -- staleness hashes ----------------------------------------------------

    def _hash(self, payload: dict) -> str:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def _digest(self, path: str) -> str | None:
        """An input file's content digest, read once per config instance;
        "" for an unset path."""
        if path not in self._digests:
            self._digests[path] = _file_digest(path) if path else ""
        return self._digests[path]

    def preprocess_hash(self) -> str:
        return self._hash(
            {
                "corpus": _to_dict(self.corpus),
                "reviews": self._digest(self.paths.reviews),
                "lexicon": self._digest(self.paths.lexicon),
                "seed": self.seed,
            }
        )

    def train_hash(self) -> str:
        return self._hash(
            {
                "preprocess": self.preprocess_hash(),
                "model": _to_dict(self.model),
                "training": _to_dict(self.training),
                # validation's top-K picks the best epoch
                "k": self.selection.k,
                "vectors": [self._digest(self.paths.attribute_vectors), self._digest(self.paths.sentence_vectors)],
                "seed": self.seed,
            }
        )

    def select_hash(self) -> str:
        return self._hash(
            {
                "train": self.train_hash(),
                "selection": _to_dict(self.selection),
            }
        )
