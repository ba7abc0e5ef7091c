"""A backend that replays caller-provided replies in order, for the tests
and the fixture recording script."""

from __future__ import annotations

import threading
from typing import Any, Sequence

from factgap.gateway import GatewayError, GenerationRequest, ScoreRequest


class BackendExhausted(GatewayError):
    """A scripted backend ran out of queued responses."""


class ScriptedBackend:
    """Replays caller-provided responses in order; the recording tool
    and most tests drive the pipeline through this."""

    def __init__(
        self,
        generate_responses: Sequence[Any] = (),
        score_responses: Sequence[Any] = (),
    ):
        self._generate = list(generate_responses)
        self._score = list(score_responses)
        self._lock = threading.Lock()

    def complete(self, request: GenerationRequest) -> str:
        with self._lock:
            if not self._generate:
                raise BackendExhausted(
                    f"scripted backend has no response left for fingerprint "
                    f"{request.fingerprint}"
                )
            item = self._generate.pop(0)
        if isinstance(item, str):
            return item
        return item["text"]

    def score(self, request: ScoreRequest) -> tuple[float, ...]:
        with self._lock:
            if not self._score:
                raise BackendExhausted(
                    f"scripted backend has no score left for fingerprint "
                    f"{request.fingerprint}"
                )
            item = self._score.pop(0)
        if isinstance(item, dict):
            item = item["logprobs"]
        return tuple(float(x) for x in item)
