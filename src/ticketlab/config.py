"""File-backed run configuration.

Configs are JSON. Unknown keys are rejected at every nesting level, and
saving always materializes every default, so the config written into a run
directory fully describes the run.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

from .data import DataConfig
from .models import ModelConfig
from .search import RoundConfig


@dataclass
class EvalConfig:
    evaluate: str = "final"  # "none" | "final" | "rounds"
    mode: str = "retrain-from-k"  # or "fine-tune"
    budget_iters: int | None = None
    finetune_lr: float = 0.001


@dataclass
class SweepConfig:
    grid: dict = field(default_factory=dict)
    max_workers: int = 1


@dataclass
class RunConfig:
    algorithm: str = "cs"
    seed: int = 1
    seeds: tuple | None = None  # sweep only; falls back to (seed,)
    precision: str = "float64"
    out_dir: str = "runs/out"
    scope: str = "global"  # magnitude-pruning ranking scope
    supermask_variant: str = "soft"
    dataset: DataConfig = field(default_factory=DataConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    round: RoundConfig = field(default_factory=RoundConfig)
    evaluation: EvalConfig = field(default_factory=EvalConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def seed_list(self) -> tuple:
        return tuple(self.seeds) if self.seeds else (self.seed,)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)
            f.write("\n")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        return _build(cls, d, "")

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path, "r", encoding="utf-8") as f:
            return cls.from_dict(json.load(f))


def _build(cls, d: dict, where: str):
    """``cls`` from ``d``; a field whose default is a dataclass is built
    from its own object, down to any depth."""
    if not isinstance(d, dict):
        raise ValueError(f"expected an object at {where or 'top level'}")
    unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ValueError(f"unknown config keys at {where or 'top level'}: "
                         f"{sorted(unknown)}")
    defaults = cls()
    kwargs = {}
    for name, value in d.items():
        default = getattr(defaults, name)
        if dataclasses.is_dataclass(default) and isinstance(value, dict):
            value = _build(type(default), value, f"{where}{name}.")
        elif isinstance(default, tuple) and isinstance(value, list):
            value = tuple(value)
        kwargs[name] = value
    return cls(**kwargs)
