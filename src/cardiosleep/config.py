"""Pipeline configuration: a single key-value tree with validated defaults.

Every default that the source publication fixes and a run may change is kept
here: the 70/30 subject split and the 2x16-unit bidirectional model with 4
output classes. The 30-s scoring epoch is fixed in ``epoching.EPOCH_S``, the
AHI < 5 cohort gate in ``cohort.classify_ahi``, the 5% deep / 15% REM
regular-sleep thresholds in ``cohort.DEEP_MIN_FRAC`` and
``cohort.REM_MIN_FRAC``, and the 119- and 9-epoch feature windows in the
feature manifest (``registry.F1_WINDOW``, ``registry.MULTI_WINDOW``).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

import yaml

from .blstm import TrainConfig
from .errors import ConfigError


@dataclass
class PipelineConfig:
    profile: str = "single"          # "single" | "two-channel"
    split_ratio: float = 0.7
    seed: int = 0
    workers: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> "PipelineConfig":
        if self.profile not in ("single", "two-channel"):
            raise ConfigError(f"unknown profile {self.profile!r}")
        if not 0 < self.split_ratio < 1:
            raise ConfigError(f"split_ratio must be in (0,1), got {self.split_ratio}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Hash of the settings that can change an output. ``workers`` sets
        only the parallelism, so runs differing in it share one hash."""
        settings = self.to_dict()
        del settings["workers"]
        return hashlib.sha256(
            json.dumps(settings, sort_keys=True, default=str).encode()
        ).hexdigest()


def load_config(path: Optional[Union[str, Path]] = None, **overrides) -> PipelineConfig:
    """Config from a YAML file (all keys optional) plus keyword overrides."""
    data: dict = {}
    if path is not None:
        try:
            with open(path) as f:
                data = yaml.safe_load(f) or {}
        except (OSError, yaml.YAMLError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    data.update(overrides)
    train_data = data.pop("train", {}) or {}
    try:
        train = TrainConfig(**train_data)
        cfg = PipelineConfig(train=train, **data)
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
    return cfg.validate()
