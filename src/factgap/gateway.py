"""Language-model access with record/replay cassettes.

A request is a record: its payload is the codec's encoding of it plus
its ``kind``, and its fingerprint the sha256 of the payload's canonical
JSON. One cassette lookup under one lock decides each call: a hit is
answered from the cassette; a miss raises ``CassetteMiss`` with no
backend, waits for a concurrent call with the same fingerprint, or leads
one backend call, whose reply the cassette records. Cassettes are
append-only JSONL and safe to share between worker threads; an append
that fails partway is cut off by the next one.

Each kind of reply has one check, run on a cassette hit and on a backend
reply before the cassette records it: a generation is text that UTF-8
can encode (JSON's ``\\ud83d`` escape gives a lone surrogate), a score a
non-empty list of finite numbers. A reply that fails it is a
``GatewayError`` in every mode and is never recorded, so it fails its
encounter at the stage that asked for it.

Transport failures retry with exponential backoff, waiting at least as
long as a server's numeric ``Retry-After`` asks; a call whose server asks
for more than ``MAX_RETRY_AFTER_S`` fails at once instead. Contract
failures (truncated output, missing logprobs, malformed payloads) never
retry.
"""

from __future__ import annotations

import functools
import hashlib
import logging
import math
import os
import threading
import time
from concurrent.futures import Future
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

import json

from .datamodel import JsonRecord, replace
from .jsonutil import canonical_dumps

if TYPE_CHECKING:
    import http.client

log = logging.getLogger(__name__)

# The longest ``Retry-After`` wait, in seconds, a retry honours.
MAX_RETRY_AFTER_S = 120.0
# Transport retries: at most this many attempts per call, the k-th retry
# after RETRY_BASE_DELAY_S * RETRY_FACTOR**k seconds.
RETRY_ATTEMPTS = 3
RETRY_BASE_DELAY_S = 0.5
RETRY_FACTOR = 2.0
# Every request is greedy: cassette identity depends on the full payload,
# so sampling is never exposed.
TEMPERATURE = 0.0
# What a cassette lookup returns for a fingerprint it has no record of.
_ABSENT = object()


class GatewayError(Exception):
    """Base for every failure raised by this module."""


class TransportError(GatewayError):
    """Network-level failure or retryable HTTP status; safe to retry.

    ``retry_after`` is the wait in seconds the server asked for, if any.
    """

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class ResponseTruncated(GatewayError):
    """The model stopped for a reason other than finishing."""


class LogprobsUnsupported(GatewayError):
    """The backend cannot return token log-probabilities."""


class CassetteMiss(GatewayError):
    """A gateway with no backend was asked for a request its cassette lacks."""

    def __init__(self, fingerprint: str):
        super().__init__(f"no cassette record for fingerprint {fingerprint}")
        self.fingerprint = fingerprint


# A run's mode; config.build_gateway turns it into what a gateway is given.
class GatewayMode(str, Enum):
    LIVE = "live"
    RECORD = "record"
    REPLAY = "replay"


class Aggregation(str, Enum):
    MEAN = "mean"
    SUM = "sum"


class ChatMessage(JsonRecord):
    versioned = False

    role: str
    content: str

    def check(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"unknown chat role {self.role!r}")


def _fingerprint(payload: Mapping[str, Any]) -> str:
    """A request's ``fingerprint``, which its check sets from its payload."""
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()


class GenerationRequest(JsonRecord):
    """A deterministic chat completion request, sent at ``TEMPERATURE``."""

    versioned = False

    model_id: str
    messages: tuple[ChatMessage, ...]
    max_tokens: int = 1024

    def check(self) -> None:
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        if not self.messages:
            raise ValueError("request has no messages")
        if self.max_tokens < 1:
            raise ValueError(f"max_tokens must be positive, got {self.max_tokens}")
        object.__setattr__(self, "fingerprint", _fingerprint(self.payload()))

    def payload(self) -> dict[str, Any]:
        return {**self.to_json_dict(), "kind": "generate", "temperature": TEMPERATURE}

    def extended(self, assistant_text: str, user_text: str) -> "GenerationRequest":
        """The follow-up request for a repair round."""
        return replace(
            self,
            messages=self.messages
            + (
                ChatMessage(role="assistant", content=assistant_text),
                ChatMessage(role="user", content=user_text),
            ),
        )


class ScoreRequest(JsonRecord):
    """Token-level log-probabilities of continuation given prefix."""

    versioned = False

    model_id: str
    prefix: str
    continuation: str

    def check(self) -> None:
        if not self.model_id:
            raise ValueError("model_id must be non-empty")
        if not self.prefix:
            raise ValueError("prefix must be non-empty")
        if not self.continuation:
            raise ValueError("continuation must be non-empty")
        object.__setattr__(self, "fingerprint", _fingerprint(self.payload()))

    def payload(self) -> dict[str, Any]:
        return {**self.to_json_dict(), "kind": "score"}


def _text(response: Any, fingerprint: str) -> str:
    """The text of a generation response, if it is a str that UTF-8 can
    encode; else GatewayError."""
    text = response.get("text") if isinstance(response, dict) else None
    if not isinstance(text, str):
        raise GatewayError(f"reply to {fingerprint[:12]} is {type(text).__name__}, not text")
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise GatewayError(f"reply to {fingerprint[:12]} is not valid UTF-8: {exc}") from exc
    return text


def _logprobs(response: Any, fingerprint: str) -> list[float]:
    """The token logprobs of a score response, if they are a non-empty
    list of finite numbers, not bools; else GatewayError."""
    logprobs = response.get("logprobs") if isinstance(response, dict) else None
    numbers = logprobs if isinstance(logprobs, list) else ()
    if not numbers or not all(type(lp) in (int, float) and math.isfinite(lp) for lp in numbers):
        raise GatewayError(
            f"reply to {fingerprint[:12]} is not a non-empty list of finite logprobs: "
            f"{logprobs!r:.80}"
        )
    return logprobs


def aggregate_logprobs(logprobs: Sequence[float], aggregation: Aggregation) -> float:
    if not logprobs:
        raise ValueError("no token logprobs to aggregate")
    total = math.fsum(logprobs)
    # The mean is what statistics.fmean computes, bit for bit, without
    # importing statistics.
    return total / len(logprobs) if Aggregation(aggregation) is Aggregation.MEAN else total


class Cassette:
    """Append-only JSONL store keyed by request fingerprint.

    Later records for the same fingerprint win, so re-recording a
    request replaces its response without rewriting history. The file
    keeps whole records, but only each fingerprint's response is held in
    memory, since replay reads nothing else. A final line that is not
    JSON and has no newline is what a process killed mid-append leaves:
    it is dropped with a warning, and the next append cuts it off first.
    A bad line anywhere else is an error.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._lock = threading.Lock()
        self._responses: dict[str, Any] = {}
        # Tail repairs made once, by the next append: the byte offset of a
        # torn final line to cut off, or a whole last record that lost its
        # newline.
        self._torn_at: Optional[int] = None
        self._newline_missing = False
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        with open(self.path, "rb") as handle:
            offset = 0
            for line_no, line in enumerate(handle, start=1):
                start = offset
                offset += len(line)
                if not line.strip():
                    continue
                try:
                    record = json.loads(line.decode("utf-8"))
                except ValueError as exc:
                    # Only the last line can lack its newline.
                    if not line.endswith(b"\n"):
                        log.warning(
                            "%s:%d: dropping a torn final cassette line (%d bytes, no newline)",
                            self.path,
                            line_no,
                            len(line),
                        )
                        self._torn_at = start
                        return
                    raise ValueError(
                        f"{self.path}:{line_no}: cassette line is not JSON: {exc}"
                    ) from exc
                if not isinstance(record, dict):
                    raise ValueError(
                        f"{self.path}:{line_no}: cassette record is not a JSON object"
                    )
                if "fingerprint" not in record or "response" not in record:
                    raise ValueError(
                        f"{self.path}:{line_no}: cassette record missing "
                        "fingerprint/response"
                    )
                if not isinstance(record["fingerprint"], str):
                    raise ValueError(
                        f"{self.path}:{line_no}: cassette fingerprint is "
                        f"{type(record['fingerprint']).__name__}, not a string"
                    )
                self._responses[record["fingerprint"]] = record["response"]
                self._newline_missing = not line.endswith(b"\n")

    def __len__(self) -> int:
        return len(self._responses)

    def get(self, fingerprint: str, default: Any = None) -> Any:
        """The response recorded for ``fingerprint``, or ``default``. A
        stored response may itself be None."""
        with self._lock:
            return self._responses.get(fingerprint, default)

    def append(self, record: Mapping[str, Any]) -> None:
        """Write ``record`` and then answer for it. A write that fails
        partway (a full disk) leaves a torn line, which the next append
        cuts off first."""
        line = (canonical_dumps(record) + "\n").encode("utf-8")
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a+b") as handle:
                if self._torn_at is not None:
                    handle.truncate(self._torn_at)
                    self._torn_at = None
                end = handle.seek(0, os.SEEK_END)
                try:
                    handle.write(b"\n" + line if self._newline_missing else line)
                    handle.flush()
                except BaseException:
                    self._torn_at = end
                    raise
                self._newline_missing = False
            self._responses[record["fingerprint"]] = record["response"]


def _retry_after_seconds(value: Optional[str]) -> Optional[float]:
    """A ``Retry-After`` header in its delay-seconds form, or None (absent,
    or the HTTP-date form, which is not honoured)."""
    if value is None:
        return None
    value = value.strip()
    return float(value) if value.isascii() and value.isdigit() else None


class HttpBackend:
    """OpenAI-compatible HTTP API.

    Chat completions serve generation; the legacy completions endpoint
    with echo and zero new tokens serves continuation scoring, because
    chat endpoints do not expose prompt token logprobs.

    Calls go over standard-library keep-alive connections, straight to
    ``base_url``: proxy variables and ``.netrc`` are not read, and HTTPS
    is verified against the system CA store. Each call takes its own
    connection, so calls from many threads may run at once. A finished
    call returns its connection to the idle list, so the list never holds
    more connections than were ever in flight at once.
    """

    def __init__(self, base_url: str, api_key: str = "", timeout: float = 120.0):
        # Imported here: replay and compare runs never build a backend.
        import http.client
        from urllib.parse import urlsplit

        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ValueError(f"base_url must be an http or https URL, got {base_url!r}")
        connection, tls = http.client.HTTPConnection, {}
        if parts.scheme == "https":
            import ssl

            connection, tls = http.client.HTTPSConnection, {"context": ssl.create_default_context()}
        self._connect = functools.partial(
            connection, parts.hostname, parts.port, timeout=timeout, **tls
        )
        self._path_prefix = parts.path
        self._idle: list[http.client.HTTPConnection] = []
        self._idle_lock = threading.Lock()
        self._headers = {"Content-Type": "application/json"}
        if api_key:
            self._headers["Authorization"] = f"Bearer {api_key}"

    def close(self) -> None:
        """Close the idle connections; calls made later open new ones."""
        with self._idle_lock:
            idle, self._idle = self._idle, []
        for connection in idle:
            connection.close()

    def _exchange(self, path: str, data: bytes) -> tuple[int, Optional[str], bytes]:
        """POST ``data`` and return the status, ``Retry-After`` header and
        body. A reused connection that the server has closed while idle
        fails before any response arrives; the call then goes once more
        on a new connection."""
        with self._idle_lock:
            connection = self._idle.pop() if self._idle else None
        reused = connection is not None
        if connection is None:
            connection = self._connect()
        try:
            try:
                connection.request("POST", path, data, self._headers)
                response = connection.getresponse()
            except (ConnectionResetError, BrokenPipeError):
                # http.client.RemoteDisconnected is a ConnectionResetError.
                if not reused:
                    raise
                connection.close()
                connection = self._connect()
                connection.request("POST", path, data, self._headers)
                response = connection.getresponse()
            body = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._idle_lock:
                self._idle.append(connection)
        return response.status, response.getheader("Retry-After"), body

    def _post(self, path: str, body: Mapping[str, Any]) -> dict[str, Any]:
        import http.client

        url = f"{self.base_url}{path}"
        data = json.dumps(body).encode("utf-8")
        try:
            status, retry_after, raw = self._exchange(self._path_prefix + path, data)
        except (OSError, http.client.HTTPException) as exc:
            raise TransportError(f"POST {url} failed: {exc}") from exc
        if status == 429 or status >= 500:
            raise TransportError(
                f"POST {url} returned {status}",
                retry_after=_retry_after_seconds(retry_after) if status in (429, 503) else None,
            )
        if status != 200:
            excerpt = raw.decode("utf-8", errors="replace")[:500]
            raise GatewayError(f"POST {url} returned {status}: {excerpt}")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise GatewayError(f"POST {url} returned a body that is not JSON: {exc}") from exc

    def complete(self, request: GenerationRequest) -> str:
        body = {
            "model": request.model_id,
            "messages": [m.to_json_dict() for m in request.messages],
            "temperature": TEMPERATURE,
            "max_tokens": request.max_tokens,
        }
        data = self._post("/chat/completions", body)
        try:
            choice = data["choices"][0]
            text = choice["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise GatewayError(f"malformed chat completion payload: {exc}") from exc
        if choice.get("finish_reason") not in (None, "stop"):
            raise ResponseTruncated(
                f"generation stopped early: finish_reason={choice.get('finish_reason')!r}"
            )
        return text

    def score(self, request: ScoreRequest) -> tuple[float, ...]:
        body = {
            "model": request.model_id,
            "prompt": request.prefix + request.continuation,
            "max_tokens": 0,
            "echo": True,
            "logprobs": 0,
            "temperature": TEMPERATURE,
        }
        data = self._post("/completions", body)
        cut = len(request.prefix)
        try:
            logprobs = data["choices"][0]["logprobs"]
            pairs = zip(logprobs["token_logprobs"], logprobs["text_offset"])
            selected = [lp for lp, offset in pairs if offset >= cut]
            if not selected:
                raise LogprobsUnsupported(
                    "no tokens fell inside the continuation; check tokenization boundaries"
                )
            if any(lp is None for lp in selected):
                raise LogprobsUnsupported(
                    f"model {request.model_id} returned null logprobs inside the continuation"
                )
            return tuple(float(lp) for lp in selected)
        except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
            raise LogprobsUnsupported(
                f"backend returned no usable token logprobs for model {request.model_id}: {exc}"
            ) from exc


class LlmGateway:
    """Front door for all model traffic: the cassette, if any, answers
    first, and a miss goes to the backend, whose reply the cassette
    records, or with no backend raises ``CassetteMiss``. Only
    TransportError retries; every other failure surfaces immediately. The
    gateway does not bound how many calls are in flight: its caller's
    threads do.
    """

    def __init__(
        self,
        backend: Any = None,
        cassette_path: Optional[Path | str] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ):
        if backend is None and cassette_path is None:
            raise ValueError("a gateway needs a backend, a cassette path or both")
        self.backend = backend
        self._sleeper = sleeper
        self._flights: dict[str, Future] = {}
        self._flights_lock = threading.Lock()
        self.cassette = Cassette(cassette_path) if cassette_path is not None else None

    def _call_with_retry(self, fn: Callable[[], Any], label: str) -> Any:
        for attempt in range(RETRY_ATTEMPTS):
            try:
                return fn()
            except TransportError as exc:
                if (exc.retry_after or 0.0) > MAX_RETRY_AFTER_S:
                    raise TransportError(
                        f"{label}: the server asked to retry after {exc.retry_after:g}s, "
                        f"longer than the {MAX_RETRY_AFTER_S:g}s limit ({exc})"
                    ) from exc
                if attempt + 1 == RETRY_ATTEMPTS:
                    raise
                delay = max(RETRY_BASE_DELAY_S * RETRY_FACTOR**attempt, exc.retry_after or 0.0)
                log.warning(
                    "%s failed (%s); retrying in %.2fs (%d/%d)",
                    label,
                    exc,
                    delay,
                    attempt + 2,
                    RETRY_ATTEMPTS,
                )
                self._sleeper(delay)

    def _respond(
        self,
        request: GenerationRequest | ScoreRequest,
        call: Callable[[], dict[str, Any]],
        reply: Callable[[Any, str], Any],
    ) -> Any:
        """``reply``'s check of the cassette response to ``request``, or of
        the response ``call`` gets from the backend, which the cassette
        records only once checked. Concurrent requests with the same
        fingerprint share that call, its record and its checked value."""
        fingerprint = request.fingerprint
        # One decision under the lock. A leader appends its response
        # before it ends its flight under this lock, so a request that
        # finds neither a record nor a flight has no answer yet.
        with self._flights_lock:
            response = _ABSENT if self.cassette is None else self.cassette.get(fingerprint, _ABSENT)
            flight = self._flights.get(fingerprint)
            leader = response is _ABSENT and flight is None and self.backend is not None
            if leader:
                flight = self._flights[fingerprint] = Future()
        if response is not _ABSENT:
            return reply(response, fingerprint)
        if self.backend is None:
            raise CassetteMiss(fingerprint)
        if not leader:
            return flight.result()
        try:
            payload = request.payload()
            kind = payload["kind"]
            response = self._call_with_retry(call, f"{kind} {fingerprint[:12]}")
            value = reply(response, fingerprint)
            if self.cassette is not None:
                self.cassette.append(
                    dict(fingerprint=fingerprint, kind=kind, request=payload, response=response)
                )
        except BaseException as exc:
            flight.set_exception(exc)
            raise
        else:
            flight.set_result(value)
            return value
        finally:
            with self._flights_lock:
                del self._flights[fingerprint]

    def generate(self, request: GenerationRequest) -> str:
        return self._respond(request, lambda: {"text": self.backend.complete(request)}, _text)

    def score_continuation(
        self,
        model_id: str,
        prefix: str,
        continuation: str,
        aggregation: Aggregation | str = Aggregation.MEAN,
    ) -> float:
        """The log-probability of ``continuation`` after ``prefix``, pooled
        over its tokens by ``aggregation``."""
        request = ScoreRequest(model_id=model_id, prefix=prefix, continuation=continuation)
        logprobs = self._respond(
            request, lambda: {"logprobs": list(self.backend.score(request))}, _logprobs
        )
        return aggregate_logprobs(logprobs, aggregation)
