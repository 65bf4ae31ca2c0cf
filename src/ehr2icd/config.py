"""Flat key=value pipeline configuration with CLI flag overrides."""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import ConfigError, MalformedFile
from .textio import read_text

DEFAULT_SEED = 13
# Vague terms whose overlap with a gold span does not make a text Partial.
DEFAULT_STOPLIST = frozenset({"disease", "pain", "condition", "problem"})


class PipelineConfig(NamedTuple):
    kb_path: str | None = None
    model_path: str | None = None
    train_fraction: float = 0.7
    epochs: int = 10
    seed: int = DEFAULT_SEED
    stoplist: frozenset[str] = DEFAULT_STOPLIST  # lowercased terms
    score_threshold: float = 0.0
    extra_terms_path: str | None = None

    def validate(self) -> "PipelineConfig":
        if not 0 < self.train_fraction < 1:
            raise ConfigError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        # NaN compares false with every score, so it would leave every row NA.
        if math.isnan(self.score_threshold):
            raise ConfigError("score_threshold must be a number, got nan")
        return self


_PARSERS = {
    "kb_path": str,
    "model_path": str,
    "train_fraction": float,
    "epochs": int,
    "seed": int,
    "stoplist": lambda v: frozenset(s.strip().lower() for s in v.split(",") if s.strip()),
    "score_threshold": float,
    "extra_terms_path": str,
}


def load_config(path) -> PipelineConfig:
    """Parse a key=value file; blank lines and '#' comments are ignored, and
    each key may be set at most once."""
    values = {}
    line_of = {}  # key -> the line that set it
    try:
        text = read_text(path)
    except (OSError, MalformedFile) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in line_of:
            raise ConfigError(f"{path}: line {lineno}: {key} repeats line {line_of[key]}")
        line_of[key] = lineno
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: bad value for {key}: {exc}") from exc
    return PipelineConfig(**values).validate()


def apply_overrides(config: PipelineConfig, **overrides) -> PipelineConfig:
    """Return a copy with any non-None overrides applied, then re-validated."""
    changes = {key: value for key, value in overrides.items() if value is not None}
    return config._replace(**changes).validate()
