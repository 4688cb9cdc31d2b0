"""Pipeline configuration: a single key-value tree with validated defaults.

A run may set the breathing-channel profile, the seed (one seed drives every
stage, training included), the worker count and the training settings in
``blstm.TrainConfig`` but its seed; everything else the source publication
fixes is a constant. The 70/30 subject split is
``cohort.split_subjects``' default, the 2x16-unit bidirectional model with 4
output classes is ``blstm.init_params``' defaults, the 30-s scoring epoch is
``epoching.EPOCH_S``, the AHI < 5 cohort gate is ``cohort.classify_ahi``'s,
the 5% deep / 15% REM regular-sleep thresholds are ``cohort.DEEP_MIN_FRAC``
and ``cohort.REM_MIN_FRAC``, and the 119- and 9-epoch feature windows are in
the feature manifest (``registry.F1_WINDOW``, ``registry.MULTI_WINDOW``).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Union

import yaml

from .blstm import TrainConfig, require_int
from .errors import ConfigError
from .registry import PROFILES


@dataclass
class PipelineConfig:
    profile: str = "single"          # one of registry.PROFILES
    seed: int = 0
    workers: int = 1
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self) -> "PipelineConfig":
        """Check the profile and worker count (``TrainConfig`` checks the seed);
        ``load_config`` reports a failure as a ``ConfigError``."""
        if self.profile not in PROFILES:
            raise ConfigError(f"unknown profile {self.profile!r}")
        require_int("workers", self.workers)
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
            # decoded in one piece, so a bad byte's position counts from the start
            data = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
        except (OSError, UnicodeError, yaml.YAMLError) as e:
            raise ConfigError(f"cannot read config {path}: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    data.update(overrides)
    train_data = data.pop("train", {}) or {}
    try:
        if isinstance(train_data, dict) and "seed" in train_data:
            raise ConfigError("train.seed is not a setting; set the top-level seed")
        train = TrainConfig(seed=data.get("seed", PipelineConfig.seed),
                            **train_data)
        return PipelineConfig(train=train, **data).validate()
    except (TypeError, ValueError) as e:
        raise ConfigError(str(e)) from e
