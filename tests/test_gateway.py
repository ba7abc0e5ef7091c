import errno
import json
import logging
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import factgap.gateway
from factgap.gateway import (
    Aggregation,
    Cassette,
    CassetteMiss,
    ChatMessage,
    GatewayError,
    GenerationRequest,
    HttpBackend,
    LlmGateway,
    LogprobsUnsupported,
    MAX_RETRY_AFTER_S,
    ResponseTruncated,
    ScoreRequest,
    TEMPERATURE,
    TransportError,
    aggregate_logprobs,
)

from loopback_server import Reply, open_after_concurrent_calls, unused_port_url
from scripted_backend import BackendExhausted, ScriptedBackend


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
    with pytest.raises(TypeError, match="temperature"):
        GenerationRequest(
            model_id="m",
            messages=(ChatMessage(role="user", content="x"),),
            temperature=0.7,
        )
    assert TEMPERATURE == 0.0
    assert make_request().payload()["temperature"] == 0.0


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


def test_every_fixture_cassette_record_fingerprints_its_decoded_request():
    types = {"generate": GenerationRequest, "score": ScoreRequest}
    paths = sorted((Path(__file__).parent / "fixtures" / "cassettes").glob("*.jsonl"))
    records = [
        json.loads(line) for path in paths for line in path.read_text(encoding="utf-8").splitlines()
    ]
    assert paths and records
    for record in records:
        fields = {k: v for k, v in record["request"].items() if k not in ("kind", "temperature")}
        request = types[record["kind"]].from_json_dict(fields)
        assert request.payload() == record["request"]
        assert request.fingerprint == record["fingerprint"]


def test_aggregation_mean_and_sum():
    assert aggregate_logprobs([-1.0, -3.0], Aggregation.MEAN) == -2.0
    assert aggregate_logprobs([-1.0, -3.0], Aggregation.SUM) == -4.0
    assert aggregate_logprobs((-1.0, -3.0), "sum") == -4.0
    with pytest.raises(ValueError, match="no token logprobs"):
        aggregate_logprobs([], Aggregation.MEAN)


def test_cassette_round_trip_and_last_wins(tmp_path):
    path = tmp_path / "c.jsonl"
    cassette = Cassette(path)
    cassette.append({"fingerprint": "f1", "kind": "generate", "response": {"text": "a"}})
    cassette.append({"fingerprint": "f1", "kind": "generate", "response": {"text": "b"}})
    reloaded = Cassette(path)
    assert len(reloaded) == 1
    assert reloaded.get("f1")["text"] == "b"
    assert reloaded.get("missing") is None


def test_cassette_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(ValueError, match="not JSON"):
        Cassette(path)
    path.write_text(json.dumps({"fingerprint": "f"}) + "\n")
    with pytest.raises(ValueError, match="missing"):
        Cassette(path)
    # JSON, but not an object: the error names the line.
    path.write_text(cassette_line("f1", "a") + "5\n")
    with pytest.raises(ValueError, match=r"bad\.jsonl:2: .*not a JSON object"):
        Cassette(path)


def cassette_line(fingerprint, text):
    record = {"fingerprint": fingerprint, "kind": "generate", "response": {"text": text}}
    return json.dumps(record, sort_keys=True, separators=(",", ":"), ensure_ascii=False) + "\n"


def test_cassette_drops_a_torn_final_line_with_a_warning(tmp_path, caplog):
    path = tmp_path / "torn.jsonl"
    whole = cassette_line("f1", "a") + cassette_line("f2", "é")
    # The cut lands inside the two bytes of "é", so the tail is not UTF-8 either.
    torn = cassette_line("f3", "é")[:-4].encode("utf-8")[:-1]
    path.write_bytes(whole.encode("utf-8") + torn)
    with caplog.at_level(logging.WARNING, logger="factgap.gateway"):
        cassette = Cassette(path)
    assert len(cassette) == 2
    assert cassette.get("f2")["text"] == "é"
    assert cassette.get("f3") is None
    assert "torn.jsonl:3: dropping a torn final cassette line" in caplog.text


def test_cassette_torn_line_in_the_middle_still_raises(tmp_path):
    path = tmp_path / "middle.jsonl"
    path.write_text(
        cassette_line("f1", "a") + cassette_line("f2", "b")[:-9] + "\n" + cassette_line("f3", "c"),
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match=r"middle\.jsonl:2: cassette line is not JSON"):
        Cassette(path)
    # A torn final line followed by blank lines has its newline: not torn.
    path.write_text(cassette_line("f1", "a") + cassette_line("f2", "b")[:-9] + "\n\n")
    with pytest.raises(ValueError, match=r"middle\.jsonl:2: cassette line is not JSON"):
        Cassette(path)


def test_cassette_append_after_a_torn_tail_keeps_every_whole_record(tmp_path):
    path = tmp_path / "torn.jsonl"
    path.write_text(cassette_line("f1", "a") + cassette_line("f2", "b")[:-7], encoding="utf-8")
    cassette = Cassette(path)
    cassette.append({"fingerprint": "f3", "kind": "generate", "response": {"text": "c"}})
    cassette.append({"fingerprint": "f4", "kind": "generate", "response": {"text": "d"}})
    assert path.read_text(encoding="utf-8") == (
        cassette_line("f1", "a") + cassette_line("f3", "c") + cassette_line("f4", "d")
    )
    reloaded = Cassette(path)
    assert [reloaded.get(f)["text"] for f in ("f1", "f3", "f4")] == ["a", "c", "d"]
    assert reloaded.get("f2") is None

    # A torn fragment that is the whole file, and a whole last record
    # that lost only its newline.
    for content, kept in (
        (cassette_line("f1", "a")[:-3], []),
        (cassette_line("f1", "a")[:-1], ["f1"]),
    ):
        path.write_text(content, encoding="utf-8")
        Cassette(path).append(
            {"fingerprint": "f5", "kind": "generate", "response": {"text": "e"}}
        )
        reloaded = Cassette(path)
        assert [f for f in ("f1", "f5") if reloaded.get(f)] == kept + ["f5"]


class StopsHalfway:
    """A cassette file whose writes stop halfway with a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.handle.close()

    def __getattr__(self, name):
        return getattr(self.handle, name)

    def write(self, data):
        self.handle.write(data[: len(data) // 2])
        self.handle.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def test_a_failed_append_is_cut_off_by_the_next_and_never_answers(tmp_path, monkeypatch):
    path = tmp_path / "c.jsonl"
    cassette = Cassette(path)
    cassette.append({"fingerprint": "a", "kind": "generate", "response": {"text": "a"}})
    monkeypatch.setattr(
        factgap.gateway, "open", lambda *args: StopsHalfway(open(*args)), raising=False
    )
    with pytest.raises(OSError, match="No space left"):
        cassette.append({"fingerprint": "b", "kind": "generate", "response": {"text": "b"}})
    monkeypatch.undo()
    assert cassette.get("b") is None
    assert path.read_text(encoding="utf-8").startswith(cassette_line("a", "a") + '{"')
    cassette.append({"fingerprint": "c", "kind": "generate", "response": {"text": "c"}})
    assert path.read_text(encoding="utf-8") == cassette_line("a", "a") + cassette_line("c", "c")
    reloaded = Cassette(path)
    assert [reloaded.get(f) for f in "abc"] == [{"text": "a"}, None, {"text": "c"}]


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
    gateway = LlmGateway(cassette_path=path)
    assert gateway.generate(req) == "hi"
    with pytest.raises(CassetteMiss):
        gateway.generate(make_request(content="unseen"))


# Half an emoji: JSON's "\ud83d" escape loads as it, and UTF-8 cannot encode it.
LONE_SURROGATE = "\ud83d"


@pytest.mark.parametrize(
    "text, refused",
    [
        pytest.param("hi" + LONE_SURROGATE, r"'\\ud83d' in position 2", id="high-half"),
        pytest.param("\udc00 low half first", r"'\\udc00' in position 0", id="low-half"),
        pytest.param("an emoji \U0001f600, \u00e9 and \uffff", None, id="whole-code-points"),
    ],
)
def test_a_cassette_reply_that_utf8_cannot_encode_is_a_gateway_error(tmp_path, text, refused):
    path = tmp_path / "c.jsonl"
    req = make_request()
    record = {"fingerprint": req.fingerprint, "response": {"text": text}}
    path.write_text(json.dumps(record) + "\n", encoding="ascii")
    gateway = LlmGateway(cassette_path=path)
    if refused is None:
        assert gateway.generate(req) == text
        return
    refusal = "is not valid UTF-8: 'utf-8' codec can't encode character " + refused
    with pytest.raises(GatewayError, match=refusal):
        gateway.generate(req)


def test_a_backend_reply_that_utf8_cannot_encode_is_never_recorded(tmp_path):
    path = tmp_path / "c.jsonl"
    backend = ScriptedBackend(generate_responses=["hi" + LONE_SURROGATE, "fine"])
    gateway = LlmGateway(backend=backend, cassette_path=path)
    with pytest.raises(GatewayError, match="is not valid UTF-8"):
        gateway.generate(make_request())
    assert not path.exists()
    assert gateway.generate(make_request(content="next")) == "fine"
    assert len(Cassette(path)) == 1


def test_a_backend_reply_that_is_not_a_string_is_a_gateway_error(tmp_path):
    backend = ScriptedBackend(generate_responses=[{"text": None}])
    gateway = LlmGateway(backend=backend, cassette_path=tmp_path / "c.jsonl")
    with pytest.raises(GatewayError, match="is NoneType, not text"):
        gateway.generate(make_request())
    assert not (tmp_path / "c.jsonl").exists()


@pytest.mark.parametrize(
    "kind, response, refusal",
    [
        pytest.param("generate", {}, "is NoneType, not text", id="no-text"),
        pytest.param("generate", ["text"], "is NoneType, not text", id="list-response"),
        pytest.param("score", {"logprobs": [-1.0, float("nan")]}, r"\[-1.0, nan\]", id="nan"),
        pytest.param("score", {"logprobs": [float("-inf")]}, r"\[-inf\]", id="infinite"),
        pytest.param("score", {"logprobs": []}, r"\[\]", id="empty"),
        pytest.param("score", {"logprobs": [True]}, r"\[True\]", id="bool"),
        pytest.param("score", {"logprobs": ["-1.0"]}, r"\['-1.0'\]", id="string"),
        pytest.param("score", {"logprobs": -1.0}, "-1.0", id="not-a-list"),
        pytest.param("score", {}, "None", id="no-logprobs"),
        pytest.param("score", 5, "None", id="number-response"),
        pytest.param("generate", None, "is NoneType, not text", id="null-response"),
        pytest.param("score", None, "None", id="null-score-response"),
    ],
)
def test_a_cassette_reply_of_the_wrong_shape_is_a_gateway_error(tmp_path, kind, response, refusal):
    path = tmp_path / "c.jsonl"
    request = make_request() if kind == "generate" else ScoreRequest("m1", "prefix ", "tail")
    fingerprint = request.fingerprint
    path.write_text(json.dumps({"fingerprint": fingerprint, "response": response}) + "\n")
    gateway = LlmGateway(cassette_path=path)
    with pytest.raises(GatewayError, match=f"^reply to {fingerprint[:12]} .*{refusal}"):
        if kind == "generate":
            gateway.generate(request)
        else:
            gateway.score_continuation("m1", "prefix ", "tail")


@pytest.mark.parametrize("logprobs", [[-1.0, float("nan")], [float("inf")]], ids=["nan", "inf"])
def test_a_backend_score_that_is_not_finite_is_never_recorded(tmp_path, logprobs):
    path = tmp_path / "c.jsonl"
    backend = ScriptedBackend(score_responses=[logprobs, [-1.0, -3.0]])
    gateway = LlmGateway(backend=backend, cassette_path=path)
    with pytest.raises(GatewayError, match="not a non-empty list of finite logprobs"):
        gateway.score_continuation("m1", "prefix ", "tail")
    assert not path.exists()
    assert gateway.score_continuation("m1", "prefix ", "tail") == -2.0
    assert len(Cassette(path)) == 1


def test_record_mode_appends_then_short_circuits(tmp_path):
    path = tmp_path / "c.jsonl"
    backend = ScriptedBackend(generate_responses=["only"])
    gateway = LlmGateway(backend=backend, cassette_path=path)
    req = make_request()
    assert gateway.generate(req) == "only"
    # Second call must come from the cassette; the backend is exhausted.
    assert gateway.generate(req) == "only"
    # The cassette file keeps the whole record, request included.
    (line,) = path.read_text(encoding="utf-8").splitlines()
    assert json.loads(line)["request"]["model_id"] == "m1"


def test_record_mode_treats_a_stored_null_response_as_a_malformed_reply(tmp_path):
    path = tmp_path / "c.jsonl"
    request = make_request()
    line = json.dumps({"fingerprint": request.fingerprint, "response": None}) + "\n"
    path.write_text(line)
    backend = ScriptedBackend(generate_responses=["never asked"])
    gateway = LlmGateway(backend=backend, cassette_path=path)
    with pytest.raises(GatewayError, match=f"^reply to {request.fingerprint[:12]} is NoneType"):
        gateway.generate(request)
    # The backend still holds its one reply, and nothing was appended.
    assert backend.complete(request) == "never asked"
    assert path.read_text() == line


@pytest.mark.parametrize("fingerprint", [["f1"], 5, None], ids=["list", "int", "null"])
def test_cassette_refuses_a_fingerprint_that_is_not_a_string(tmp_path, fingerprint):
    path = tmp_path / "c.jsonl"
    record = {"fingerprint": fingerprint, "response": {"text": "a"}}
    path.write_text(cassette_line("f0", "a") + json.dumps(record) + "\n")
    refusal = rf"c\.jsonl:2: cassette fingerprint is {type(fingerprint).__name__}, not a string"
    with pytest.raises(ValueError, match=refusal):
        Cassette(path)


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
    gateway = LlmGateway(backend=backend, cassette_path=path)
    start = threading.Barrier(2, timeout=5)
    replies = []

    def call():
        start.wait()
        if kind == "generate":
            replies.append(gateway.generate(make_request()))
        else:
            replies.append(gateway.score_continuation("m1", "prefix ", "tail"))

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
    gateway = LlmGateway(backend=backend, cassette_path=path)
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


def test_mode_configuration_errors():
    # With neither, no request could ever be answered.
    with pytest.raises(ValueError, match="needs a backend, a cassette path or both"):
        LlmGateway()


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
        cassette_path=tmp_path / "c.jsonl",
        sleeper=delays.append,
    )
    assert gateway.generate(make_request()) == "ok"
    assert backend.calls == 3
    assert delays == [0.5, 1.0]

    backend = FlakyBackend(failures=99)
    gateway = LlmGateway(
        backend=backend,
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
        backend=backend, cassette_path=tmp_path / "c.jsonl"
    )
    with pytest.raises(ResponseTruncated):
        gateway.generate(make_request())
    assert backend.calls == 1


def test_score_continuation_records_and_replays(tmp_path):
    path = tmp_path / "c.jsonl"
    backend = ScriptedBackend(score_responses=[[-1.0, -3.0]])
    gateway = LlmGateway(backend=backend, cassette_path=path)
    assert gateway.score_continuation("m1", "prefix ", "tail") == -2.0
    assert gateway.cassette.get(ScoreRequest("m1", "prefix ", "tail").fingerprint) == {
        "logprobs": [-1.0, -3.0]
    }

    replayed = LlmGateway(cassette_path=path).score_continuation(
        "m1", "prefix ", "tail", aggregation="sum"
    )
    assert replayed == -4.0


def chat_payload(text, finish="stop"):
    return {"choices": [{"message": {"content": text}, "finish_reason": finish}]}


def test_http_backend_complete(loopback, http_backend):
    loopback.script(Reply(payload=chat_payload("out")))
    backend = http_backend("/v1", api_key="k")
    assert backend.complete(make_request()) == "out"
    (call,) = loopback.requests
    assert call.path == "/v1/chat/completions"
    assert call.body["temperature"] == 0.0
    assert call.body["model"] == "m1"
    assert call.body["messages"] == [{"role": "user", "content": "hello"}]
    assert call.headers["Authorization"] == "Bearer k"


def test_http_backend_truncation_and_statuses(loopback, http_backend):
    backend = http_backend()
    loopback.script(Reply(payload=chat_payload("x", finish="length")))
    with pytest.raises(ResponseTruncated):
        backend.complete(make_request())

    for status, expected in ((500, TransportError), (429, TransportError), (400, GatewayError)):
        loopback.script(Reply(status=status, body=b"bad request body"))
        with pytest.raises(expected) as caught:
            backend.complete(make_request())
        assert type(caught.value) is expected
    assert str(caught.value).endswith("returned 400: bad request body")

    refused = unused_port_url()
    for url in (refused, refused.replace("http://", "https://")):
        with pytest.raises(TransportError, match="failed"):
            HttpBackend(url).complete(make_request())


@pytest.mark.parametrize("url", ["", "api.test/v1", "ftp://api.test/v1", "http:///v1"])
def test_http_backend_rejects_a_base_url_that_is_not_http(url):
    with pytest.raises(ValueError, match="http or https URL"):
        HttpBackend(url)


def test_http_backend_non_json_body_is_a_gateway_error(loopback, http_backend):
    loopback.script(Reply(body=b"<html>"))
    with pytest.raises(GatewayError, match="not JSON"):
        http_backend().complete(make_request())


def score_payload(token_logprobs, offsets):
    return {
        "choices": [
            {"logprobs": {"token_logprobs": token_logprobs, "text_offset": offsets}}
        ]
    }


def test_http_backend_score_selects_continuation_tokens(loopback, http_backend):
    # prefix is 7 chars; tokens at offsets 0 and 3 belong to it.
    loopback.script(Reply(payload=score_payload([None, -0.5, -1.0, -2.0], [0, 3, 7, 10])))
    backend = http_backend()
    req = ScoreRequest(model_id="m", prefix="abc def", continuation=" tail")
    assert backend.score(req) == (-1.0, -2.0)
    (call,) = loopback.requests
    assert call.path == "/completions"
    assert call.body["echo"] is True
    assert call.body["max_tokens"] == 0
    assert call.body["prompt"] == "abc def tail"


def test_http_backend_score_failures(loopback, http_backend):
    req = ScoreRequest(model_id="m", prefix="abc def", continuation=" tail")
    backend = http_backend()
    loopback.script(Reply(payload={"choices": [{}]}))
    with pytest.raises(LogprobsUnsupported):
        backend.score(req)

    loopback.script(Reply(payload=score_payload([None, -1.0], [0, 7])))
    assert backend.score(req) == (-1.0,)

    loopback.script(Reply(payload=score_payload([None, None], [0, 7])))
    with pytest.raises(LogprobsUnsupported, match="null logprobs"):
        backend.score(req)


@pytest.mark.parametrize(
    "token_logprobs, offsets",
    [
        pytest.param([None, -1.0], None, id="null-offsets"),
        pytest.param([None, -1.0], [0, "7"], id="text-offset"),
        pytest.param([None, "x"], [0, 7], id="text-logprob"),
        pytest.param([None, [1]], [0, 7], id="list-logprob"),
    ],
)
def test_http_backend_malformed_logprobs_are_unsupported(
    loopback, http_backend, token_logprobs, offsets
):
    loopback.script(Reply(payload=score_payload(token_logprobs, offsets)))
    req = ScoreRequest(model_id="m", prefix="abc def", continuation=" tail")
    with pytest.raises(LogprobsUnsupported, match="no usable token logprobs for model m: "):
        http_backend().score(req)


def test_http_backend_keeps_every_returned_connection_idle(loopback, http_backend):
    n = 5
    backend = http_backend()
    loopback.script(*[Reply(payload=chat_payload("ok"))] * n)
    still_open = open_after_concurrent_calls(
        loopback, lambda: backend.complete(make_request()), n, at_most=n
    )
    assert still_open == n
    assert len(backend._idle) == n
    assert loopback.connections_opened == n

    # The kept connections serve the next n concurrent calls.
    loopback.script(*[Reply(payload=chat_payload("ok"))] * n)
    open_after_concurrent_calls(
        loopback, lambda: backend.complete(make_request()), n, at_most=n
    )
    assert loopback.connections_opened == n


def test_http_backend_retries_a_stale_keep_alive_connection(loopback, http_backend):
    loopback.script(
        Reply(payload=chat_payload("one"), close=True), Reply(payload=chat_payload("two"))
    )
    delays = []
    gateway = LlmGateway(backend=http_backend(), sleeper=delays.append)
    assert gateway.generate(make_request("a")) == "one"
    # The server has dropped the connection the client keeps as idle.
    assert loopback.open_connections(at_most=0) == 0
    assert gateway.generate(make_request("b")) == "two"
    assert delays == []
    assert loopback.connections_opened == 2
    assert [call.body["messages"][0]["content"] for call in loopback.requests] == ["a", "b"]


def test_http_backend_does_not_keep_a_connection_the_server_will_close(
    loopback, http_backend
):
    loopback.script(
        Reply(payload=chat_payload("one"), headers={"Connection": "close"}),
        Reply(payload=chat_payload("two")),
    )
    backend = http_backend()
    assert backend.complete(make_request()) == "one"
    assert backend._idle == []
    assert backend.complete(make_request()) == "two"
    assert loopback.connections_opened == 2


def test_retry_after_extends_the_backoff(loopback, http_backend):
    loopback.script(
        Reply(status=429, headers={"Retry-After": "3"}),
        Reply(status=503, headers={"Retry-After": "0"}),
        Reply(payload=chat_payload("out")),
    )
    delays = []
    gateway = LlmGateway(backend=http_backend(), sleeper=delays.append)
    assert gateway.generate(make_request()) == "out"
    assert delays == [3.0, 1.0]

    backend = http_backend()
    for reply, expected in (
        (Reply(status=429, headers={"Retry-After": "7"}), 7.0),
        (Reply(status=503), None),
        (Reply(status=500, headers={"Retry-After": "7"}), None),
        (Reply(status=429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}), None),
        (Reply(status=429, headers={"Retry-After": "-1"}), None),
    ):
        loopback.script(reply)
        with pytest.raises(TransportError) as caught:
            backend.complete(make_request())
        assert caught.value.retry_after == expected


def test_retry_after_beyond_the_cap_fails_at_once(loopback, http_backend):
    wait = int(MAX_RETRY_AFTER_S) + 1
    loopback.script(Reply(status=429, headers={"Retry-After": str(wait)}))
    delays = []
    gateway = LlmGateway(backend=http_backend(), sleeper=delays.append)
    with pytest.raises(TransportError, match=f"retry after {wait}s") as caught:
        gateway.generate(make_request())
    assert caught.value.retry_after is None
    assert delays == []
    assert len(loopback.requests) == 1

    # A wait at the cap is still honoured.
    loopback.script(
        Reply(status=503, headers={"Retry-After": str(int(MAX_RETRY_AFTER_S))}),
        Reply(payload=chat_payload("out")),
    )
    assert gateway.generate(make_request("b")) == "out"
    assert delays == [MAX_RETRY_AFTER_S]


def test_live_gateway_runs_without_requests(loopback, tmp_path):
    loopback.script(Reply(payload=chat_payload("out")))
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "models": {"summary": "s", "metric": "m"},
                "backend": {"kind": "http", "base_url": loopback.url + "/v1"},
                "mode": "live",
            }
        )
    )
    script = (
        "import sys\n"
        "sys.modules['requests'] = None\n"
        "from factgap.config import build_gateway, load_config\n"
        "from factgap.gateway import ChatMessage, GenerationRequest\n"
        "gateway = build_gateway(load_config(sys.argv[1]))\n"
        "request = GenerationRequest(\n"
        "    model_id='m', messages=(ChatMessage(role='user', content='hi'),)\n"
        ")\n"
        "print(gateway.backend.complete(request))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c", script, str(config)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "out\n"
    assert [call.path for call in loopback.requests] == ["/v1/chat/completions"]
