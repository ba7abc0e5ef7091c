"""Simulated OpenAI-compatible model server for the benchmark.

Serves ``/chat/completions`` and ``/completions`` (echo with
``text_offset``) from the fixture cassette. Requests carry the markers
described in ``gen.py``; the server strips them to find the fixture
reply and writes the request's marker back into summary and fact
replies. Each reply waits ``base_ms + per_char_ms * reply length``
first, so summaries and fact lists cost more than truncations or scores.

With ``--repair-seed``, the first-attempt chat request that
``gen.repair_ordinal`` picks for an encounter gets the fixture reply
without its code fences, which the pipeline's repair round rejects and
asks again; the repair request (original messages plus 2) gets the
fixture reply.

Control endpoints: ``GET /_bench/drain`` returns and clears the
per-request records (arrival and finish times, prompt characters,
marker, whether the reply was an injected format error) and restarts
the count of first attempts that picks the injected ones;
``POST /_bench/shutdown`` stops the server.

Run: ``python3 perfbench/simserver.py --cassette tests/fixtures/cassettes/corpus.jsonl``;
the first line printed is the port it listens on (loopback only).
"""

from __future__ import annotations

import argparse
import json
import os
import socket
import sys
import threading
import time
from collections import defaultdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402


def _chat_key(model: str, messages: list[dict[str, str]], max_tokens: int) -> str:
    stripped = [[m["role"], gen.strip_markers(m["content"])] for m in messages]
    return json.dumps([model, stripped, max_tokens], ensure_ascii=False)


def _score_key(model: str, prompt: str) -> str:
    return json.dumps([model, gen.strip_markers(prompt)], ensure_ascii=False)


def _fence_body(text: str) -> tuple[int, int]:
    """Start and end offsets of the last fenced block's body."""
    close = text.rindex("```")
    open_ = text.rindex("```", 0, close)
    return text.index("\n", open_) + 1, close


def mark_reply(text: str, k: int) -> str:
    """Insert encounter k's marker into a summary's first section or
    into fact F0; other replies come back unchanged."""
    start, end = _fence_body(text)
    lines = text[start:end].split("\n")
    tag = gen.marker(k)
    for i, line in enumerate(lines):
        if line.upper().startswith("CHIEF COMPLAINT:"):
            target = i if line.split(":", 1)[1].strip() else i + 1
            while not lines[target].strip():
                target += 1
            lines[target] = lines[target].rstrip() + tag
            break
        if line.startswith("F0:") and "|" in line:
            left, right = line.rsplit("|", 1)
            body = left.rstrip()
            lines[i] = body + tag + left[len(body):] + "|" + right
            break
    return text[:start] + "\n".join(lines) + text[end:]


def unfenced(text: str) -> str:
    return text.replace("```", "")


class Fixture:
    """Fixture cassette records keyed by marker-free request content."""

    def __init__(self, path: Path):
        self.chat: dict[str, str] = {}
        self.score: dict[str, tuple[str, list[float]]] = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if not line.strip():
                    continue
                record = json.loads(line)
                request = record["request"]
                if request["kind"] == "generate":
                    key = _chat_key(
                        request["model_id"], request["messages"], request["max_tokens"]
                    )
                    self.chat[key] = record["response"]["text"]
                else:
                    key = _score_key(
                        request["model_id"], request["prefix"] + request["continuation"]
                    )
                    self.score[key] = (
                        request["continuation"],
                        [float(x) for x in record["response"]["logprobs"]],
                    )


class SimModel:
    def __init__(
        self,
        fixture: Fixture,
        base_ms: float,
        per_char_ms: float,
        repair_seed: Optional[int],
    ):
        self.fixture = fixture
        self.base_ms = base_ms
        self.per_char_ms = per_char_ms
        self.repair_seed = repair_seed
        self.lock = threading.Lock()
        self.records: list[dict[str, Any]] = []
        self.first_attempts: dict[Optional[int], int] = defaultdict(int)

    def delay(self, reply_chars: int) -> float:
        return (self.base_ms + self.per_char_ms * reply_chars) / 1000.0

    def chat(self, body: dict[str, Any]) -> tuple[int, dict[str, Any], dict[str, Any]]:
        messages = body["messages"]
        k = gen.find_marker(messages[0]["content"])
        key = _chat_key(body["model"], messages[:1], body["max_tokens"])
        text = self.fixture.chat.get(key)
        info: dict[str, Any] = {
            "marker": k,
            "prompt_chars": sum(len(m["content"]) for m in messages),
            "injected": False,
        }
        if text is None:
            return 400, {"error": {"message": "unknown request"}}, info
        if k is not None:
            text = mark_reply(text, k)
        if len(messages) == 1 and self.repair_seed is not None:
            with self.lock:
                ordinal = self.first_attempts[k]
                self.first_attempts[k] += 1
            if k is not None and gen.repair_ordinal(self.repair_seed, k) == ordinal:
                text = unfenced(text)
                info["injected"] = True
        info["reply_chars"] = len(text)
        payload = {
            "object": "chat.completion",
            "model": body["model"],
            "choices": [
                {
                    "index": 0,
                    "message": {"role": "assistant", "content": text},
                    "finish_reason": "stop",
                }
            ],
        }
        return 200, payload, info

    def complete(self, body: dict[str, Any]) -> tuple[int, dict[str, Any], dict[str, Any]]:
        prompt = body["prompt"]
        info: dict[str, Any] = {
            "marker": gen.find_marker(prompt),
            "prompt_chars": len(prompt),
            "injected": False,
        }
        found = self.fixture.score.get(_score_key(body["model"], prompt))
        if found is None:
            return 400, {"error": {"message": "unknown request"}}, info
        continuation, logprobs = found
        cut = len(prompt) - len(continuation)
        info["reply_chars"] = len(continuation)
        payload = {
            "object": "text_completion",
            "model": body["model"],
            "choices": [
                {
                    "index": 0,
                    "text": prompt,
                    "finish_reason": "length",
                    "logprobs": {
                        "tokens": ["<prefix>"] + [f"<t{i}>" for i in range(len(logprobs))],
                        "token_logprobs": [None] + logprobs,
                        "text_offset": [0] + [cut + i for i in range(len(logprobs))],
                    },
                }
            ],
        }
        return 200, payload, info


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "SimServer"

    def setup(self) -> None:
        super().setup()
        # Without this, Nagle's algorithm and delayed ACKs add tens of
        # milliseconds per call and the benchmark measures the simulator.
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def log_message(self, format: str, *args: Any) -> None:
        pass

    def _send(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, ensure_ascii=False).encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def do_GET(self) -> None:
        if self.path == "/_bench/drain":
            model = self.server.model
            with model.lock:
                records, model.records = model.records, []
                # A drain ends a repeat; the next one starts counting anew.
                model.first_attempts.clear()
            self._send(200, {"records": records})
        else:
            self._send(404, {"error": {"message": "not found"}})

    def do_POST(self) -> None:
        arrival = time.perf_counter()
        length = int(self.headers.get("Content-Length", "0"))
        raw = self.rfile.read(length)
        if self.path == "/_bench/shutdown":
            self._send(200, {})
            threading.Thread(target=self.server.shutdown, daemon=True).start()
            return
        model = self.server.model
        body = json.loads(raw)
        if self.path.endswith("/chat/completions"):
            status, payload, info = model.chat(body)
        elif self.path.endswith("/completions"):
            status, payload, info = model.complete(body)
        else:
            status, payload, info = 404, {"error": {"message": "not found"}}, {}
        if status == 200:
            time.sleep(max(0.0, arrival + model.delay(info["reply_chars"]) - time.perf_counter()))
        self._send(status, payload)
        info.update(path=self.path, status=status, arrival=arrival, finish=time.perf_counter())
        with model.lock:
            model.records.append(info)


class SimServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, model: SimModel):
        super().__init__(("127.0.0.1", 0), Handler)
        self.model = model


def _exit_with_parent(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(0)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cassette", required=True, help="fixture cassette (JSONL)")
    parser.add_argument("--base-ms", type=float, default=0.0)
    parser.add_argument("--per-char-ms", type=float, default=0.0)
    parser.add_argument("--repair-seed", type=int, default=None)
    args = parser.parse_args(argv)
    model = SimModel(
        Fixture(Path(args.cassette)), args.base_ms, args.per_char_ms, args.repair_seed
    )
    server = SimServer(model)
    threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()
    sys.stdout.write(f"{server.server_address[1]}\n")
    sys.stdout.flush()
    try:
        server.serve_forever(poll_interval=0.05)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
