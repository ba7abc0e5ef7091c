"""Run configuration loaded from JSON or YAML.

Keys are validated strictly: anything unrecognized is an error, so a
typo cannot silently fall back to a default. Relative paths inside the
file resolve against the file's own directory. Credentials never appear
in the file; the http backend names an environment variable instead.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from .datamodel import MARGIN_EPSILON
from .gateway import (
    Aggregation,
    GatewayMode,
    HttpBackend,
    LlmGateway,
    RetryPolicy,
)
from .scoring import PolarityMode

BACKEND_KINDS = ("mock", "http")


def _require_keys(data: Mapping[str, Any], allowed: set[str], where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"{where}: unknown keys {sorted(unknown)} (allowed: {sorted(allowed)})")


@dataclass(frozen=True)
class ModelsConfig:
    summary: str
    metric: str
    margin: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.summary:
            raise ValueError("models.summary must be non-empty")
        if not self.metric:
            raise ValueError("models.metric must be non-empty")
        if self.margin is not None and not self.margin:
            raise ValueError("models.margin must be non-empty when present")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ModelsConfig":
        _require_keys(data, {"summary", "metric", "margin"}, "models")
        if "summary" not in data or "metric" not in data:
            raise ValueError("models requires both summary and metric")
        return cls(
            summary=data["summary"], metric=data["metric"], margin=data.get("margin")
        )


@dataclass(frozen=True)
class BackendConfig:
    kind: str
    path: Optional[Path] = None
    base_url: str = ""
    api_key_env: str = ""
    timeout: float = 120.0

    def __post_init__(self) -> None:
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"backend.kind must be one of {BACKEND_KINDS}, got {self.kind!r}")
        if self.kind == "mock" and self.path is None:
            raise ValueError("backend.kind mock requires backend.path")
        if self.kind == "http" and not self.base_url:
            raise ValueError("backend.kind http requires backend.base_url")
        if self.timeout <= 0:
            raise ValueError(f"backend.timeout must be positive, got {self.timeout}")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any], base_dir: Path) -> "BackendConfig":
        _require_keys(
            data, {"kind", "path", "base_url", "api_key_env", "timeout"}, "backend"
        )
        path = data.get("path")
        return cls(
            kind=data.get("kind", ""),
            path=_resolve(base_dir, path) if path else None,
            base_url=data.get("base_url", ""),
            api_key_env=data.get("api_key_env", ""),
            timeout=float(data.get("timeout", 120.0)),
        )


@dataclass(frozen=True)
class ThresholdsConfig:
    min_truncated_turns: int = 6
    repair_budget: int = 1
    margin_epsilon: float = MARGIN_EPSILON

    def __post_init__(self) -> None:
        if self.min_truncated_turns < 1:
            raise ValueError("thresholds.min_truncated_turns must be at least 1")
        if self.repair_budget < 0:
            raise ValueError("thresholds.repair_budget must be non-negative")
        if self.margin_epsilon <= 0:
            raise ValueError("thresholds.margin_epsilon must be positive")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ThresholdsConfig":
        _require_keys(
            data, {"min_truncated_turns", "repair_budget", "margin_epsilon"}, "thresholds"
        )
        kwargs: dict[str, Any] = {}
        if "min_truncated_turns" in data:
            kwargs["min_truncated_turns"] = int(data["min_truncated_turns"])
        if "repair_budget" in data:
            kwargs["repair_budget"] = int(data["repair_budget"])
        if "margin_epsilon" in data:
            kwargs["margin_epsilon"] = float(data["margin_epsilon"])
        return cls(**kwargs)


@dataclass(frozen=True)
class RunConfig:
    models: ModelsConfig
    backend: BackendConfig
    cassette: Optional[Path] = None
    mode: GatewayMode = GatewayMode.REPLAY
    thresholds: ThresholdsConfig = field(default_factory=ThresholdsConfig)
    uniqueness_polarity: PolarityMode = PolarityMode.BOTH
    aggregation: Aggregation = Aggregation.MEAN
    max_gen_tokens: int = 1024

    def __post_init__(self) -> None:
        if not isinstance(self.mode, GatewayMode):
            object.__setattr__(self, "mode", GatewayMode(self.mode))
        if not isinstance(self.uniqueness_polarity, PolarityMode):
            object.__setattr__(self, "uniqueness_polarity", PolarityMode(self.uniqueness_polarity))
        if not isinstance(self.aggregation, Aggregation):
            object.__setattr__(self, "aggregation", Aggregation(self.aggregation))
        if self.max_gen_tokens < 1:
            raise ValueError("max_gen_tokens must be positive")
        if self.mode is not GatewayMode.LIVE and self.cassette is None:
            raise ValueError(f"mode {self.mode.value} requires a cassette path")

    def with_mode(self, mode: GatewayMode | str) -> "RunConfig":
        return RunConfig(
            models=self.models,
            backend=self.backend,
            cassette=self.cassette,
            mode=GatewayMode(mode),
            thresholds=self.thresholds,
            uniqueness_polarity=self.uniqueness_polarity,
            aggregation=self.aggregation,
            max_gen_tokens=self.max_gen_tokens,
        )


def _resolve(base_dir: Path, raw: str) -> Path:
    path = Path(raw)
    return path if path.is_absolute() else (base_dir / path).resolve()


def load_config(path: Path | str) -> RunConfig:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    suffix = path.suffix.lower()
    if suffix == ".json":
        data = json.loads(text)
    elif suffix in (".yaml", ".yml"):
        import yaml

        data = yaml.safe_load(text)
    else:
        raise ValueError(f"{path}: unsupported config extension {suffix!r} (use .json or .yaml)")
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config root must be a mapping")
    base_dir = path.parent.resolve()
    _require_keys(
        data,
        {
            "models",
            "backend",
            "cassette",
            "mode",
            "thresholds",
            "uniqueness_polarity",
            "aggregation",
            "max_gen_tokens",
        },
        str(path),
    )
    if "models" not in data:
        raise ValueError(f"{path}: missing required key models")
    if "backend" not in data:
        raise ValueError(f"{path}: missing required key backend")
    cassette = data.get("cassette")
    return RunConfig(
        models=ModelsConfig.from_dict(data["models"]),
        backend=BackendConfig.from_dict(data["backend"], base_dir),
        cassette=_resolve(base_dir, cassette) if cassette else None,
        mode=data.get("mode", "replay"),
        thresholds=ThresholdsConfig.from_dict(data.get("thresholds", {})),
        uniqueness_polarity=data.get("uniqueness_polarity", "both"),
        aggregation=data.get("aggregation", "mean"),
        max_gen_tokens=int(data.get("max_gen_tokens", 1024)),
    )


def build_backend(config: RunConfig, max_in_flight: int = 4) -> Any:
    if config.backend.kind == "mock":
        raise ValueError(
            "backend.kind mock has no backend to build; use replay mode, which serves the cassette"
        )
    api_key = ""
    if config.backend.api_key_env:
        api_key = os.environ.get(config.backend.api_key_env, "")
        if not api_key:
            raise ValueError(
                f"environment variable {config.backend.api_key_env} is not set"
            )
    return HttpBackend(
        base_url=config.backend.base_url,
        api_key=api_key,
        timeout=config.backend.timeout,
        pool_maxsize=max_in_flight,
    )


def build_gateway(config: RunConfig, max_in_flight: int = 4) -> LlmGateway:
    backend = None
    if config.mode is not GatewayMode.REPLAY:
        backend = build_backend(config, max_in_flight)
    return LlmGateway(
        backend=backend,
        mode=config.mode,
        cassette_path=config.cassette,
        retry=RetryPolicy(),
        max_in_flight=max_in_flight,
    )
