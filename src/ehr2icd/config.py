"""Flat key=value pipeline configuration with CLI flag overrides."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError, MalformedFile
from .evaluation import DEFAULT_STOPLIST
from .textio import read_text

DEFAULT_SEED = 13


@dataclass(frozen=True)
class PipelineConfig:
    kb_path: str | None = None
    model_path: str | None = None
    train_fraction: float = 0.7
    epochs: int = 10
    seed: int = DEFAULT_SEED
    stoplist: frozenset[str] = DEFAULT_STOPLIST  # lowercased terms
    lookup_k: int = 4
    score_threshold: float = 0.0
    extra_terms_path: str | None = None

    def validate(self) -> "PipelineConfig":
        if not 0 < self.train_fraction < 1:
            raise ConfigError(
                f"train_fraction must be in (0, 1), got {self.train_fraction}"
            )
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.lookup_k < 1:
            raise ConfigError(f"lookup_k must be >= 1, got {self.lookup_k}")
        return self


_PARSERS = {
    "kb_path": str,
    "model_path": str,
    "train_fraction": float,
    "epochs": int,
    "seed": int,
    "stoplist": lambda v: frozenset(s.strip().lower() for s in v.split(",") if s.strip()),
    "lookup_k": int,
    "score_threshold": float,
    "extra_terms_path": str,
}


def load_config(path) -> PipelineConfig:
    """Parse a key=value file; blank lines and '#' comments are ignored."""
    values = {}
    try:
        text = read_text(path)
    except (OSError, MalformedFile) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
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
        try:
            values[key] = _PARSERS[key](raw)
        except ValueError as exc:
            raise ConfigError(f"{path}: line {lineno}: bad value for {key}: {exc}") from exc
    return PipelineConfig(**values).validate()


def apply_overrides(config: PipelineConfig, **overrides) -> PipelineConfig:
    """Return a copy with any non-None overrides applied, then re-validated."""
    changes = {key: value for key, value in overrides.items() if value is not None}
    return replace(config, **changes).validate()
