"""Pipeline configuration: one JSON file drives every stage.

Defaults follow the published hyperparameters (two attention layers with
4+1 heads, hidden 256, 2-layer cross + 2x128 deep network, lambda 0.5,
Adam at 2e-4 with batch 16, K=5, alpha=2.0, candidate pool 100), so a
config that only fills in paths runs the reference pipeline.  Stage
outputs carry a hash of the config sections they depend on; downstream
stages refuse to consume artifacts whose hash disagrees.

Each of the paper's ablation settings lives in one field, which a CLI flag
also sets: `model.disable_gat` (--no-gat), `model.disable_dcn` (--no-dcn)
and `selection.disable_ilp` (--no-ilp).  Leaving
`paths.sentence_vectors` empty selects the fourth ablation, sentence
vectors averaged from the word vectors in `paths.attribute_vectors`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
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


@dataclass
class GraphConfig:
    restrict_to_item_attributes: bool = True


_JSON_KEYS = {"lam": "lambda"}
_FIELD_KEYS = {"lambda": "lam"}


def _from_dict(cls, data: dict, section: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        name = _FIELD_KEYS.get(key, key)
        if name not in fields:
            raise ConfigError(f"unknown key {section}.{key}")
        if fields[name].type in ("tuple[float, float, float]", "tuple[int, ...]"):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)


def _to_dict(obj) -> dict:
    out = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[_JSON_KEYS.get(f.name, f.name)] = value
    return out


@dataclass
class PipelineConfig:
    paths: PathsConfig = field(default_factory=PathsConfig)
    corpus: CorpusConfig = field(default_factory=CorpusConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    training: TrainConfig = field(default_factory=TrainConfig)
    selection: SelectConfig = field(default_factory=SelectConfig)
    seed: int = 0

    _SECTIONS = {
        "paths": PathsConfig,
        "corpus": CorpusConfig,
        "graph": GraphConfig,
        "model": ModelConfig,
        "training": TrainConfig,
        "selection": SelectConfig,
    }

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        kwargs = {}
        for key, value in data.items():
            if key in cls._SECTIONS:
                kwargs[key] = _from_dict(cls._SECTIONS[key], value, key)
            elif key == "seed":
                kwargs[key] = int(value)
            else:
                raise ConfigError(f"unknown config section {key!r}")
        return cls(**kwargs)

    @classmethod
    def load(cls, path) -> "PipelineConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from exc
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        out = {name: _to_dict(getattr(self, name)) for name in self._SECTIONS}
        out["seed"] = self.seed
        return out

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True), encoding="utf-8")

    # -- validation ----------------------------------------------------------

    def validate_stage(self, stage: str) -> None:
        """Fail fast with the offending field's name."""
        need = {
            "preprocess": ["paths.reviews", "paths.lexicon", "paths.workdir"],
            "train": ["paths.workdir", "paths.attribute_vectors"],
            "select": ["paths.workdir"],
            "evaluate": ["paths.workdir"],
        }[stage]
        for dotted in need:
            section, name = dotted.split(".")
            if not getattr(getattr(self, section), name):
                raise ConfigError(f"missing required config field {dotted}")
        if stage == "preprocess":
            if self.corpus.rating_threshold is None:
                raise ConfigError("missing required config field corpus.rating_threshold")
            if abs(sum(self.corpus.ratios) - 1.0) > 1e-9:
                raise ConfigError(f"corpus.ratios must sum to 1, got {self.corpus.ratios}")
            for dotted in ("paths.reviews", "paths.lexicon"):
                section, name = dotted.split(".")
                if not Path(getattr(getattr(self, section), name)).exists():
                    raise ConfigError(f"{dotted} does not exist: {getattr(getattr(self, section), name)}")
        if stage == "train":
            self.training.validate()

    # -- staleness hashes ----------------------------------------------------

    def _hash(self, payload: dict) -> str:
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def preprocess_hash(self) -> str:
        return self._hash(
            {
                "corpus": _to_dict(self.corpus),
                "reviews": self.paths.reviews,
                "lexicon": self.paths.lexicon,
                "seed": self.seed,
            }
        )

    def train_hash(self) -> str:
        return self._hash(
            {
                "preprocess": self.preprocess_hash(),
                "graph": _to_dict(self.graph),
                "model": _to_dict(self.model),
                "training": _to_dict(self.training),
                "vectors": [self.paths.attribute_vectors, self.paths.sentence_vectors],
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
