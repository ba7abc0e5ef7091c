import json
import random
import sys
import threading
import time

import pytest
import requests

from factgap.gateway import (
    Aggregation,
    BackendExhausted,
    Cassette,
    CassetteMiss,
    ChatMessage,
    GatewayError,
    GatewayMode,
    GenerationRequest,
    HttpBackend,
    LlmGateway,
    LogprobsUnsupported,
    MockFileBackend,
    ResponseTruncated,
    RetryPolicy,
    ScoredContinuation,
    ScoreRequest,
    ScriptedBackend,
    TransportError,
    aggregate_logprobs,
)


def make_request(content="hello", model="m1"):
    return GenerationRequest(
        model_id=model, messages=(ChatMessage(role="user", content=content),)
    )


def test_fingerprint_is_stable_and_payload_sensitive():
    a = make_request()
    b = make_request()
    c = make_request(content="other")
    assert a.fingerprint == b.fingerprint
    assert a.fingerprint != c.fingerprint
    assert len(a.fingerprint) == 64


def test_temperature_is_pinned():
    with pytest.raises(ValueError, match="temperature"):
        GenerationRequest(
            model_id="m",
            messages=(ChatMessage(role="user", content="x"),),
            temperature=0.7,
        )


def test_extended_appends_repair_round():
    base = make_request()
    repaired = base.extended("bad output", "please fix")
    assert len(repaired.messages) == 3
    assert repaired.messages[1].role == "assistant"
    assert repaired.messages[2].content == "please fix"
    assert repaired.fingerprint != base.fingerprint


def test_score_request_validation():
    with pytest.raises(ValueError):
        ScoreRequest(model_id="m", prefix="", continuation="x")
    with pytest.raises(ValueError):
        ScoreRequest(model_id="m", prefix="x", continuation="")


def test_aggregation_mean_and_sum():
    assert aggregate_logprobs([-1.0, -3.0], Aggregation.MEAN) == -2.0
    assert aggregate_logprobs([-1.0, -3.0], Aggregation.SUM) == -4.0
    sc = ScoredContinuation(
        model_id="m",
        prefix="p",
        continuation="c",
        token_logprobs=(-1.0, -3.0),
        aggregation="sum",
        score=-4.0,
    )
    assert sc.score == -4.0
    with pytest.raises(ValueError):
        ScoredContinuation(
            model_id="m",
            prefix="p",
            continuation="c",
            token_logprobs=(-1.0, -3.0),
            aggregation=Aggregation.MEAN,
            score=-4.0,
        )


def test_cassette_round_trip_and_last_wins(tmp_path):
    path = tmp_path / "c.jsonl"
    cassette = Cassette(path)
    cassette.append({"fingerprint": "f1", "kind": "generate", "response": {"text": "a"}})
    cassette.append({"fingerprint": "f1", "kind": "generate", "response": {"text": "b"}})
    reloaded = Cassette(path)
    assert len(reloaded) == 1
    assert reloaded.get("f1")["response"]["text"] == "b"
    assert reloaded.get("missing") is None


def test_cassette_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ValueError, match="not JSON"):
        Cassette(path)
    path.write_text(json.dumps({"fingerprint": "f"}) + "\n")
    with pytest.raises(ValueError, match="missing"):
        Cassette(path)


def test_scripted_backend_order_and_exhaustion():
    backend = ScriptedBackend(
        generate_responses=["one", {"text": "two"}], score_responses=[[-1.0]]
    )
    req = make_request()
    assert backend.complete(req) == "one"
    assert backend.complete(req) == "two"
    with pytest.raises(BackendExhausted):
        backend.complete(req)
    assert backend.score(ScoreRequest(model_id="m", prefix="p", continuation="c")) == (-1.0,)


def test_replay_mode_hits_and_misses(tmp_path):
    path = tmp_path / "c.jsonl"
    req = make_request()
    Cassette(path).append(
        {"fingerprint": req.fingerprint, "kind": "generate", "response": {"text": "hi"}}
    )
    gateway = LlmGateway(mode="replay", cassette_path=path)
    assert gateway.generate(req) == "hi"
    with pytest.raises(CassetteMiss):
        gateway.generate(make_request(content="unseen"))


def test_record_mode_appends_then_short_circuits(tmp_path):
    path = tmp_path / "c.jsonl"
    backend = ScriptedBackend(generate_responses=["only"])
    gateway = LlmGateway(backend=backend, mode=GatewayMode.RECORD, cassette_path=path)
    req = make_request()
    assert gateway.generate(req) == "only"
    # Second call must come from the cassette; the backend is exhausted.
    assert gateway.generate(req) == "only"
    record = Cassette(path).get(req.fingerprint)
    assert record["request"]["model_id"] == "m1"


class BlockingBackend:
    """Holds each call at a two-party barrier. A call that meets a second
    concurrent call proves the gateway let both through; a call left
    alone returns once the barrier times out."""

    def __init__(self):
        self.calls = 0
        self._lock = threading.Lock()
        self._barrier = threading.Barrier(2, timeout=0.5)

    def _block(self):
        with self._lock:
            self.calls += 1
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError:
            pass

    def complete(self, request):
        self._block()
        return "shared"

    def score(self, request):
        self._block()
        return (-1.0,)


def run_threads(targets, timeout=10):
    threads = [threading.Thread(target=target) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout)
    assert not any(thread.is_alive() for thread in threads)


@pytest.mark.parametrize("kind", ["generate", "score"])
def test_record_mode_single_flight(tmp_path, kind):
    path = tmp_path / "c.jsonl"
    backend = BlockingBackend()
    gateway = LlmGateway(backend=backend, mode=GatewayMode.RECORD, cassette_path=path)
    start = threading.Barrier(2, timeout=5)
    replies = []

    def call():
        start.wait()
        if kind == "generate":
            replies.append(gateway.generate(make_request()))
        else:
            replies.append(gateway.score_continuation("m1", "prefix ", "tail").score)

    run_threads([call, call])
    assert backend.calls == 1
    assert len(replies) == 2 and replies[0] == replies[1]
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1


class CountingBackend:
    def __init__(self):
        self.calls = {}
        self._lock = threading.Lock()

    def complete(self, request):
        with self._lock:
            self.calls[request.fingerprint] = self.calls.get(request.fingerprint, 0) + 1
        time.sleep(0.001)  # widens the window in which a second caller could slip through
        return request.messages[0].content


def test_record_mode_single_flight_under_thread_churn(tmp_path):
    path = tmp_path / "c.jsonl"
    backend = CountingBackend()
    gateway = LlmGateway(
        backend=backend, mode=GatewayMode.RECORD, cassette_path=path, max_in_flight=8
    )
    requests_ = [make_request(f"q{i}") for i in range(20)]

    def caller(seed):
        def call():
            order = list(requests_)
            random.Random(seed).shuffle(order)
            for request in order:
                assert gateway.generate(request) == request.messages[0].content

        return call

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run_threads([caller(seed) for seed in range(8)])
    finally:
        sys.setswitchinterval(interval)
    assert backend.calls == {request.fingerprint: 1 for request in requests_}
    assert len(path.read_text(encoding="utf-8").splitlines()) == len(requests_)


def test_mode_configuration_errors(tmp_path):
    with pytest.raises(ValueError, match="requires a cassette"):
        LlmGateway(mode="replay")
    with pytest.raises(ValueError, match="requires a backend"):
        LlmGateway(mode="record", cassette_path=tmp_path / "c.jsonl")


def test_retry_only_on_transport_errors(tmp_path):
    class FlakyBackend:
        def __init__(self, failures):
            self.failures = failures
            self.calls = 0

        def complete(self, request):
            self.calls += 1
            if self.calls <= self.failures:
                raise TransportError("boom")
            return "ok"

    delays = []
    backend = FlakyBackend(failures=2)
    gateway = LlmGateway(
        backend=backend,
        mode="record",
        cassette_path=tmp_path / "c.jsonl",
        retry=RetryPolicy(attempts=3, base_delay=0.5, factor=2.0),
        sleeper=delays.append,
    )
    assert gateway.generate(make_request()) == "ok"
    assert backend.calls == 3
    assert delays == [0.5, 1.0]

    backend = FlakyBackend(failures=99)
    gateway = LlmGateway(
        backend=backend,
        mode="record",
        cassette_path=tmp_path / "c2.jsonl",
        sleeper=lambda _: None,
    )
    with pytest.raises(TransportError):
        gateway.generate(make_request())
    assert backend.calls == 3


def test_contract_errors_never_retry(tmp_path):
    class BrokenBackend:
        def __init__(self):
            self.calls = 0

        def complete(self, request):
            self.calls += 1
            raise ResponseTruncated("length")

    backend = BrokenBackend()
    gateway = LlmGateway(
        backend=backend, mode="record", cassette_path=tmp_path / "c.jsonl"
    )
    with pytest.raises(ResponseTruncated):
        gateway.generate(make_request())
    assert backend.calls == 1


def test_mock_file_backend(tmp_path):
    path = tmp_path / "mock.jsonl"
    gen = make_request()
    score = ScoreRequest(model_id="m1", prefix="p", continuation="c")
    cassette = Cassette(path)
    cassette.append(
        {"fingerprint": gen.fingerprint, "kind": "generate", "response": {"text": "hi"}}
    )
    cassette.append(
        {"fingerprint": score.fingerprint, "kind": "score", "response": {"logprobs": [-1.5]}}
    )
    backend = MockFileBackend(path)
    assert backend.complete(gen) == "hi"
    assert backend.score(score) == (-1.5,)
    with pytest.raises(CassetteMiss):
        backend.complete(make_request(content="unseen"))
    cassette.append(
        {"fingerprint": score.fingerprint, "kind": "score", "response": {}}
    )
    with pytest.raises(LogprobsUnsupported):
        MockFileBackend(path).score(score)


def test_score_continuation_records_and_replays(tmp_path):
    path = tmp_path / "c.jsonl"
    backend = ScriptedBackend(score_responses=[[-1.0, -3.0]])
    gateway = LlmGateway(backend=backend, mode="record", cassette_path=path)
    scored = gateway.score_continuation("m1", "prefix ", "tail")
    assert scored.score == -2.0
    assert scored.aggregation is Aggregation.MEAN

    replayed = LlmGateway(mode="replay", cassette_path=path).score_continuation(
        "m1", "prefix ", "tail", aggregation="sum"
    )
    assert replayed.token_logprobs == (-1.0, -3.0)
    assert replayed.score == -4.0


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text

    def json(self):
        return self._payload


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "body": json})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def chat_payload(text, finish="stop"):
    return {"choices": [{"message": {"content": text}, "finish_reason": finish}]}


def test_http_backend_complete():
    session = FakeSession([FakeResponse(payload=chat_payload("out"))])
    backend = HttpBackend("http://api.test/v1", api_key="k", session=session)
    assert backend.complete(make_request()) == "out"
    call = session.calls[0]
    assert call["url"] == "http://api.test/v1/chat/completions"
    assert call["body"]["temperature"] == 0.0


def test_http_backend_truncation_and_statuses():
    backend = HttpBackend(
        "http://api.test",
        session=FakeSession([FakeResponse(payload=chat_payload("x", finish="length"))]),
    )
    with pytest.raises(ResponseTruncated):
        backend.complete(make_request())

    for status, expected in ((500, TransportError), (429, TransportError), (400, GatewayError)):
        backend = HttpBackend(
            "http://api.test", session=FakeSession([FakeResponse(status_code=status)])
        )
        with pytest.raises(expected):
            backend.complete(make_request())

    backend = HttpBackend(
        "http://api.test",
        session=FakeSession([requests.ConnectionError("refused")]),
    )
    with pytest.raises(TransportError):
        backend.complete(make_request())


class NotJsonResponse(FakeResponse):
    def json(self):
        raise requests.exceptions.JSONDecodeError("Expecting value", "<html>", 0)


def test_http_backend_non_json_body_is_a_gateway_error():
    backend = HttpBackend("http://api.test", session=FakeSession([NotJsonResponse()]))
    with pytest.raises(GatewayError, match="not JSON"):
        backend.complete(make_request())


def score_payload(token_logprobs, offsets):
    return {
        "choices": [
            {"logprobs": {"token_logprobs": token_logprobs, "text_offset": offsets}}
        ]
    }


def test_http_backend_score_selects_continuation_tokens():
    # prefix is 7 chars; tokens at offsets 0 and 3 belong to it.
    session = FakeSession(
        [FakeResponse(payload=score_payload([None, -0.5, -1.0, -2.0], [0, 3, 7, 10]))]
    )
    backend = HttpBackend("http://api.test", session=session)
    req = ScoreRequest(model_id="m", prefix="abc def", continuation=" tail")
    assert backend.score(req) == (-1.0, -2.0)
    assert session.calls[0]["body"]["echo"] is True
    assert session.calls[0]["body"]["max_tokens"] == 0


def test_http_backend_score_failures():
    req = ScoreRequest(model_id="m", prefix="abc def", continuation=" tail")
    backend = HttpBackend(
        "http://api.test",
        session=FakeSession([FakeResponse(payload={"choices": [{}]})]),
    )
    with pytest.raises(LogprobsUnsupported):
        backend.score(req)

    backend = HttpBackend(
        "http://api.test",
        session=FakeSession([FakeResponse(payload=score_payload([None, -1.0], [0, 7]))]),
    )
    assert backend.score(req) == (-1.0,)

    backend = HttpBackend(
        "http://api.test",
        session=FakeSession([FakeResponse(payload=score_payload([None, None], [0, 7]))]),
    )
    with pytest.raises(LogprobsUnsupported, match="null logprobs"):
        backend.score(req)
