import json
import math

import pytest
import yaml

from factgap.config import (
    BackendConfig,
    ModelsConfig,
    RunConfig,
    ThresholdsConfig,
    build_backend,
    build_gateway,
    load_config,
)
from factgap.gateway import (
    ChatMessage,
    GatewayMode,
    GenerationRequest,
    HttpBackend,
)

from loopback_server import Reply, open_after_concurrent_calls


def minimal_config_dict(cassette="cassette.jsonl"):
    return {
        "models": {"summary": "sum-model", "metric": "metric-model"},
        "backend": {"kind": "mock", "path": "responses.jsonl"},
        "cassette": cassette,
    }


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_load_json_config_resolves_relative_paths(tmp_path):
    (tmp_path / "responses.jsonl").write_text("")
    path = write_config(tmp_path, minimal_config_dict())
    config = load_config(path)
    assert config.backend.path == (tmp_path / "responses.jsonl").resolve()
    assert config.cassette == (tmp_path / "cassette.jsonl").resolve()
    assert config.mode is GatewayMode.REPLAY
    assert config.thresholds.min_truncated_turns == 6
    assert config.thresholds.repair_budget == 1
    assert config.uniqueness_polarity.value == "both"
    assert config.aggregation.value == "mean"


def test_load_yaml_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(
        "models:\n  summary: s\n  metric: m\n  margin: g\n"
        "backend:\n  kind: mock\n  path: r.jsonl\n"
        "cassette: c.jsonl\n"
        "mode: record\n"
        "thresholds:\n  repair_budget: 2\n"
        "aggregation: sum\n"
    )
    config = load_config(path)
    assert config.models.margin == "g"
    assert config.mode is GatewayMode.RECORD
    assert config.thresholds.repair_budget == 2
    assert config.aggregation.value == "sum"


def test_yaml_exponent_without_a_dot_loads_as_a_float(tmp_path):
    # YAML 1.1 reads 1e-9 as a string; the config coerces it.
    path = tmp_path / "config.yaml"
    path.write_text(
        "models:\n  summary: s\n  metric: m\n"
        "backend:\n  kind: mock\n  path: r.jsonl\n  timeout: 1e2\n"
        "cassette: c.jsonl\n"
        "thresholds:\n  margin_epsilon: 1e-9\n"
    )
    config = load_config(path)
    assert config.thresholds.margin_epsilon == 1e-9
    assert isinstance(config.thresholds.margin_epsilon, float)
    assert config.backend.timeout == 100.0
    assert isinstance(config.backend.timeout, float)


def test_a_value_the_record_refuses_names_each_enclosing_type(tmp_path):
    path = tmp_path / "c.yaml"
    path.write_text(
        "models:\n  summary: s\n  metric: m\ncassette: c.jsonl\n"
        "thresholds:\n  margin_epsilon: tiny\n"
    )
    with pytest.raises(ValueError) as caught:
        load_config(path)
    assert str(caught.value) == (
        f"{path}: RunConfig: ThresholdsConfig: could not convert string to float: 'tiny'"
    )


def test_integer_keys_take_only_integers(tmp_path):
    data = minimal_config_dict()
    data["max_gen_tokens"] = 1024.0
    with pytest.raises(ValueError, match="RunConfig: 'float' object cannot be interpreted"):
        load_config(write_config(tmp_path, data))

    data = minimal_config_dict()
    data["thresholds"] = {"repair_budget": "2"}
    with pytest.raises(ValueError, match="ThresholdsConfig: 'str' object cannot be interpreted"):
        load_config(write_config(tmp_path, data))

    data = minimal_config_dict()
    data["max_gen_tokens"] = True
    with pytest.raises(ValueError, match=": RunConfig: expected an integer, got bool$"):
        load_config(write_config(tmp_path, data))


def test_float_keys_refuse_booleans(tmp_path):
    data = minimal_config_dict()
    data["thresholds"] = {"margin_epsilon": True}
    with pytest.raises(
        ValueError, match=": RunConfig: ThresholdsConfig: expected a number, got bool$"
    ):
        load_config(write_config(tmp_path, data))

    data = minimal_config_dict()
    data["backend"]["timeout"] = True
    with pytest.raises(
        ValueError, match=": RunConfig: BackendConfig: expected a number, got bool$"
    ):
        load_config(write_config(tmp_path, data))


def test_unknown_keys_rejected_everywhere(tmp_path):
    data = minimal_config_dict()
    data["surprise"] = 1
    with pytest.raises(ValueError, match="surprise"):
        load_config(write_config(tmp_path, data))

    data = minimal_config_dict()
    data["models"]["extra"] = "x"
    with pytest.raises(ValueError, match="extra"):
        load_config(write_config(tmp_path, data))

    data = minimal_config_dict()
    data["thresholds"] = {"repair": 1}
    with pytest.raises(ValueError, match="repair"):
        load_config(write_config(tmp_path, data))

    # Stemming is chosen by `compare --use-stemmer`; a run config that
    # sets it would be silently ignored, so it is refused.
    data = minimal_config_dict()
    data["use_stemmer"] = True
    with pytest.raises(ValueError, match="use_stemmer"):
        load_config(write_config(tmp_path, data))


def test_required_sections(tmp_path):
    with pytest.raises(ValueError, match="models"):
        load_config(write_config(tmp_path, {"backend": {"kind": "mock", "path": "x"}}))
    # A backend is needed only where one is built: in live and record mode.
    data = minimal_config_dict()
    del data["backend"]
    config = load_config(write_config(tmp_path, data))
    for mode in ("live", "record"):
        with pytest.raises(ValueError, match=f"^mode {mode} requires a backend$"):
            build_gateway(config.with_mode(mode))
    with pytest.raises(ValueError, match="unsupported config extension"):
        load_config(write_config(tmp_path, {}, name="config.toml"))


def test_backend_validation():
    with pytest.raises(ValueError, match="kind"):
        BackendConfig(kind="grpc")
    with pytest.raises(ValueError, match="requires backend.path"):
        BackendConfig(kind="mock")
    with pytest.raises(ValueError, match="base_url"):
        BackendConfig(kind="http")


def test_models_and_thresholds_validation():
    with pytest.raises(ValueError, match="summary"):
        ModelsConfig(summary="", metric="m")
    with pytest.raises(ValueError, match="min_truncated_turns"):
        ThresholdsConfig(min_truncated_turns=0)
    with pytest.raises(ValueError, match="repair_budget"):
        ThresholdsConfig(repair_budget=-1)
    with pytest.raises(ValueError, match="margin_epsilon"):
        ThresholdsConfig(margin_epsilon=0.0)


def test_replay_requires_cassette(tmp_path):
    data = minimal_config_dict(cassette=None)
    del data["cassette"]
    with pytest.raises(ValueError, match="cassette"):
        load_config(write_config(tmp_path, data))


def test_with_mode_override(tmp_path):
    path = write_config(tmp_path, minimal_config_dict())
    config = load_config(path)
    updated = config.with_mode("record")
    assert updated.mode is GatewayMode.RECORD
    assert updated.models == config.models
    assert config.mode is GatewayMode.REPLAY


def test_build_backend_mock_and_http(tmp_path, monkeypatch, loopback):
    cassette = tmp_path / "responses.jsonl"
    cassette.write_text("")
    config = load_config(write_config(tmp_path, minimal_config_dict()))
    with pytest.raises(ValueError, match="replay"):
        build_backend(config)

    data = minimal_config_dict()
    data["backend"] = {
        "kind": "http",
        "base_url": loopback.url + "/v1",
        "api_key_env": "TEST_API_KEY",
    }
    config = load_config(write_config(tmp_path, data, name="http.json"))
    monkeypatch.delenv("TEST_API_KEY", raising=False)
    with pytest.raises(ValueError, match="TEST_API_KEY"):
        build_backend(config)
    monkeypatch.setenv("TEST_API_KEY", "secret")
    backend = build_backend(config)
    assert isinstance(backend, HttpBackend)
    # The pool keeps every connection a finished call returns, and the next
    # calls reuse them.
    n = 5
    gateway = build_gateway(config.with_mode("live"))
    request = GenerationRequest(model_id="m", messages=(ChatMessage(role="user", content="x"),))
    reply = Reply(payload={"choices": [{"message": {"content": "ok"}}]})
    try:
        loopback.script(*[reply] * n)
        still_open = open_after_concurrent_calls(
            loopback, lambda: gateway.backend.complete(request), n, at_most=n
        )
        loopback.script(*[reply] * n)
        open_after_concurrent_calls(
            loopback, lambda: gateway.backend.complete(request), n, at_most=n
        )
    finally:
        gateway.backend.close()
    assert still_open == n
    assert loopback.connections_opened == n


def test_build_gateway_replay_needs_no_backend(tmp_path):
    (tmp_path / "cassette.jsonl").write_text("")
    config = load_config(write_config(tmp_path, minimal_config_dict()))
    gateway = build_gateway(config)
    assert gateway.backend is None
    assert gateway.cassette.path == (tmp_path / "cassette.jsonl").resolve()


def test_live_gateway_reads_no_cassette_the_config_names(tmp_path, loopback):
    data = minimal_config_dict()
    data["backend"] = {"kind": "http", "base_url": loopback.url}
    config = load_config(write_config(tmp_path, data)).with_mode("live")
    assert config.cassette == (tmp_path / "cassette.jsonl").resolve()
    gateway = build_gateway(config)
    assert gateway.cassette is None
    assert isinstance(gateway.backend, HttpBackend)
    record = build_gateway(config.with_mode("record"))
    assert record.cassette.path == config.cassette
    assert record.backend is not None


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", ["config.json", "config.yaml"])
@pytest.mark.parametrize("section, key", [("backend", "timeout"), ("thresholds", "margin_epsilon")])
def test_a_number_that_is_not_finite_is_refused_naming_the_file_and_key(
    tmp_path, section, key, name, value
):
    data = minimal_config_dict()
    data.setdefault(section, {})[key] = value
    path = tmp_path / name
    # json writes Infinity, -Infinity and NaN; yaml writes .inf, -.inf and .nan.
    path.write_text(json.dumps(data) if name.endswith(".json") else yaml.safe_dump(data))
    with pytest.raises(ValueError) as refused:
        load_config(path)
    assert str(refused.value).startswith(f"{path}: RunConfig: ")
    assert f"{section}.{key} must be positive and finite" in str(refused.value)
