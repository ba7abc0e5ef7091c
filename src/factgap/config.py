"""Run configuration loaded from JSON or YAML.

The config types decode through the strict :class:`JsonRecord` codec:
an unrecognized key is an error, so a typo cannot silently fall back to
a default. Relative paths inside the file resolve against the file's own
directory. Credentials never appear in the file; the http backend names
an environment variable instead. Only live and record runs need a backend.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Optional

from .datamodel import MARGIN_EPSILON, JsonRecord, replace
from .gateway import Aggregation, GatewayMode, HttpBackend, LlmGateway
from .scoring import PolarityMode

BACKEND_KINDS = ("mock", "http")


class ModelsConfig(JsonRecord):
    versioned = False

    summary: str
    metric: str
    margin: Optional[str] = None

    def check(self) -> None:
        if not self.summary:
            raise ValueError("models.summary must be non-empty")
        if not self.metric:
            raise ValueError("models.metric must be non-empty")
        if self.margin is not None and not self.margin:
            raise ValueError("models.margin must be non-empty when present")


class BackendConfig(JsonRecord):
    versioned = False

    kind: str
    path: Optional[Path] = None
    base_url: str = ""
    api_key_env: str = ""
    timeout: float = 120.0

    def check(self) -> None:
        object.__setattr__(self, "timeout", float(self.timeout))  # YAML reads 1e2 as a str
        if self.kind not in BACKEND_KINDS:
            raise ValueError(f"backend.kind must be one of {BACKEND_KINDS}, got {self.kind!r}")
        if self.kind == "mock" and self.path is None:
            raise ValueError("backend.kind mock requires backend.path")
        if self.kind == "http" and not self.base_url:
            raise ValueError("backend.kind http requires backend.base_url")
        if not 0 < self.timeout < math.inf:
            raise ValueError(f"backend.timeout must be positive and finite, got {self.timeout}")


class ThresholdsConfig(JsonRecord):
    versioned = False

    min_truncated_turns: int = 6
    repair_budget: int = 1
    margin_epsilon: float = MARGIN_EPSILON

    def check(self) -> None:
        # YAML reads an exponent without a dot, such as 1e-9, as a string.
        object.__setattr__(self, "margin_epsilon", float(self.margin_epsilon))
        if self.min_truncated_turns < 1:
            raise ValueError("thresholds.min_truncated_turns must be at least 1")
        if self.repair_budget < 0:
            raise ValueError("thresholds.repair_budget must be non-negative")
        if not 0 < self.margin_epsilon < math.inf:
            raise ValueError("thresholds.margin_epsilon must be positive and finite")


class RunConfig(JsonRecord):
    versioned = False

    models: ModelsConfig
    backend: Optional[BackendConfig] = None
    cassette: Optional[Path] = None
    mode: GatewayMode = GatewayMode.REPLAY
    thresholds: ThresholdsConfig = ThresholdsConfig()
    uniqueness_polarity: PolarityMode = PolarityMode.BOTH
    aggregation: Aggregation = Aggregation.MEAN
    max_gen_tokens: int = 1024

    def check(self) -> None:
        if self.max_gen_tokens < 1:
            raise ValueError("max_gen_tokens must be positive")
        if self.mode is not GatewayMode.LIVE and self.cassette is None:
            raise ValueError(f"mode {self.mode.value} requires a cassette path")

    def with_mode(self, mode: GatewayMode | str) -> "RunConfig":
        return replace(self, mode=mode)


def load_config(path: Path | str) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    suffix = path.suffix.lower()
    if suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    elif suffix in (".yaml", ".yml"):
        import yaml

        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    else:
        raise ValueError(f"{path}: unsupported config extension {suffix!r} (use .json or .yaml)")
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config root must be a mapping")
    base_dir = path.parent.resolve()
    for section, key in ((data, "cassette"), (data.get("backend"), "path")):
        if isinstance(section, dict) and isinstance(section.get(key), str):
            section[key] = (base_dir / section[key]).resolve() if section[key] else None
    try:
        return RunConfig.from_json_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def build_backend(config: RunConfig) -> HttpBackend:
    if config.backend is None:
        raise ValueError(f"mode {config.mode.value} requires a backend")
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
    )


def build_gateway(config: RunConfig) -> LlmGateway:
    """Live mode reads no cassette and replay mode builds no backend;
    record mode has both, so the cassette records every backend reply."""
    return LlmGateway(
        backend=None if config.mode is GatewayMode.REPLAY else build_backend(config),
        cassette_path=None if config.mode is GatewayMode.LIVE else config.cassette,
    )
