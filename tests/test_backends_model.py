import io
import json
import sys
import threading
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from proofseek.errors import BudgetExceeded, MissingFixture, TransportError
from proofseek.model import (
    ChatModelClient,
    MockModel,
    ModelParams,
    PromptRecord,
    RecordingModel,
    ReplayModel,
    load_replay_fixtures,
    prompt_digest,
)
from proofseek.prompts import erp_prompt, whole_proof_prompt

from fixtures import ChatServer


def _prompt(purpose="whole_proof", text="prove it"):
    return PromptRecord(({"role": "user", "content": text},), purpose=purpose)


# ---------------------------------------------------------------------------
# params and prompts

def test_model_params_defaults():
    params = ModelParams()
    assert params.temperature == 0.6
    assert params.top_p == 0.95
    assert params.max_samples == 10


@pytest.mark.parametrize("kwargs", [
    {"temperature": 0.0}, {"top_p": 0.0}, {"top_p": 1.5}, {"max_samples": 0},
])
def test_model_params_invariants(kwargs):
    with pytest.raises(ValueError):
        ModelParams(**kwargs)


def test_prompt_record_requires_messages():
    with pytest.raises(ValueError):
        PromptRecord((), purpose="whole_proof")
    with pytest.raises(ValueError):
        _prompt(purpose="not_a_purpose")


def test_prompt_builders_tag_purposes():
    assert whole_proof_prompt("theorem x").purpose == "whole_proof"
    assert erp_prompt("theorem x", "proof -").purpose == "erp"
    one_shot = whole_proof_prompt("t", few_shots=[("s", "p")])
    assert one_shot.few_shot_count == 1
    assert len(one_shot.messages) == 4  # system, shot user, shot assistant, user


def test_prompt_digest_stable_and_purpose_sensitive():
    a = _prompt("whole_proof", "x")
    assert prompt_digest(a) == prompt_digest(_prompt("whole_proof", "x"))
    assert prompt_digest(a) != prompt_digest(_prompt("erp", "x"))
    assert prompt_digest(a) != prompt_digest(_prompt("whole_proof", "y"))


# ---------------------------------------------------------------------------
# replay backend

def test_replay_returns_fixture():
    prompt = _prompt()
    model = ReplayModel({prompt_digest(prompt): ["proof one", "proof two"]})
    assert model.complete(ModelParams(), prompt, 2) == ["proof one", "proof two"]


def test_replay_deterministic():
    prompt = _prompt()
    model = ReplayModel({prompt_digest(prompt): ["out"]})
    first = model.complete(ModelParams(), prompt, 1)
    second = model.complete(ModelParams(), prompt, 1)
    assert first == second == ["out"]


def test_replay_missing_fixture():
    model = ReplayModel({})
    with pytest.raises(MissingFixture):
        model.complete(ModelParams(), _prompt(), 1)


def test_replay_fixture_file_round_trip(tmp_path):
    prompt = _prompt()
    recorder = RecordingModel(MockModel({"whole_proof": [["answer"]]}))
    recorder.complete(ModelParams(), prompt, 1)
    path = tmp_path / "fixtures.jsonl"
    recorder.dump(path)
    assert load_replay_fixtures(path) == {prompt_digest(prompt): [["answer"]]}
    replay = ReplayModel(path)
    assert replay.complete(ModelParams(), prompt, 1) == ["answer"]


@pytest.mark.parametrize("row", [
    {"digest": 5, "completions": ["by simp"]},
    {"completions": ["by simp"]},
    {"digest": "0f77f04e6ddfe26b", "completions": "by simp"},
    {"digest": "0f77f04e6ddfe26b", "completions": [None]},
    ["0f77f04e6ddfe26b", ["by simp"]],
], ids=["digest-number", "digest-missing", "completions-string",
        "completion-null", "row-list"])
def test_replay_fixture_row_of_the_wrong_shape_is_a_value_error(tmp_path, row):
    path = tmp_path / "fixtures.jsonl"
    path.write_text(json.dumps(row) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_replay_fixtures(path)


def test_recording_dump_keeps_every_answer_sorted_by_digest(tmp_path):
    # One prompt answered twice: the dump kept only the second answer, so
    # a replay gave it to the first ask too.
    recorder = RecordingModel(MockModel({"whole_proof": [["one"], ["two"]],
                                         "erp": [["cont"]]}))
    for prompt in (_prompt(), _prompt("erp", "go on"), _prompt()):
        recorder.complete(ModelParams(), prompt, 1)
    assert [r["completions"] for r in recorder.requests] == [
        ["one"], ["cont"], ["two"]]
    path = tmp_path / "fixtures.jsonl"
    recorder.dump(path)
    assert path.read_bytes() == (
        b'{"digest": "0f77f04e6ddfe26b", "completions": ["one"]}\n'
        b'{"digest": "0f77f04e6ddfe26b", "completions": ["two"]}\n'
        b'{"digest": "b1c9c34c73c6cd96", "completions": ["cont"]}\n')
    replay = ReplayModel(path)
    assert [replay.complete(ModelParams(), _prompt(), 1) for _ in range(3)] \
        == [["one"], ["two"], ["two"]]


def test_a_dump_with_one_row_per_digest_replays_and_dumps_byte_identically(
        tmp_path):
    recorder = RecordingModel(MockModel({"whole_proof": [["one", "two"]],
                                         "erp": [["cont"]]}))
    for prompt in (_prompt(), _prompt("erp", "go on")):
        recorder.complete(ModelParams(), prompt, 2)
    recorder.dump(tmp_path / "live.jsonl")
    replayed = RecordingModel(ReplayModel(tmp_path / "live.jsonl"))
    for prompt in (_prompt("erp", "go on"), _prompt()):
        replayed.complete(ModelParams(), prompt, 2)
    replayed.dump(tmp_path / "replayed.jsonl")
    assert (tmp_path / "replayed.jsonl").read_bytes() == \
        (tmp_path / "live.jsonl").read_bytes() == (
        b'{"digest": "0f77f04e6ddfe26b", "completions": ["one", "two"]}\n'
        b'{"digest": "b1c9c34c73c6cd96", "completions": ["cont"]}\n')


# ---------------------------------------------------------------------------
# budget enforcement

def test_budget_exceeded_boundary():
    model = ReplayModel({})
    params = ModelParams(max_samples=10)
    with pytest.raises(BudgetExceeded):
        model.complete(params, _prompt(), 11)


def test_budget_boundary_allows_max():
    prompt = _prompt()
    model = ReplayModel({prompt_digest(prompt): ["x"] * 10})
    assert len(model.complete(ModelParams(max_samples=10), prompt, 10)) == 10


# ---------------------------------------------------------------------------
# mock backend and recorded requests

def test_mock_model_sequences_per_purpose():
    model = MockModel({"erp": [["first"], ["second"]]})
    params = ModelParams()
    assert model.complete(params, _prompt("erp"), 1) == ["first"]
    assert model.complete(params, _prompt("erp"), 1) == ["second"]
    # last batch is sticky
    assert model.complete(params, _prompt("erp"), 1) == ["second"]


@pytest.mark.parametrize("backend", [
    MockModel({"whole_proof": [[]]}),
    ReplayModel({prompt_digest(_prompt()): []}),
], ids=["mock", "replay"])
def test_empty_completion_batch_is_transport_error(backend):
    # The live client already raised on `choices: []`; the in-process
    # backends handed back an empty list, read as no candidates.
    with pytest.raises(TransportError, match="malformed completion batch"):
        backend.complete(ModelParams(), _prompt(), 1)


def test_mock_model_missing_purpose():
    # a purpose with no script, or with an empty list of batches
    for script in ({}, {"whole_proof": []}):
        with pytest.raises(MissingFixture):
            MockModel(script).complete(ModelParams(), _prompt(), 1)


@pytest.mark.parametrize("script", [
    [["by simp"]],
    {"whole_proof": "by simp"},
    {"whole_proof": ["by simp"]},
    {"whole_proof": [[None]]},
    {"proof": [["by simp"]]},
], ids=["list", "batches-string", "batch-string", "completion-null",
        "unknown-purpose"])
def test_mock_model_script_of_the_wrong_shape_is_a_value_error(script):
    with pytest.raises(ValueError):
        MockModel(script)


def test_request_log_carries_sampling_params():
    prompt = _prompt()
    model = RecordingModel(ReplayModel({prompt_digest(prompt): ["x"]}))
    model.complete(ModelParams(temperature=0.6, top_p=0.95), prompt, 1)
    entry = model.requests[0]
    assert entry["temperature"] == 0.6
    assert entry["top_p"] == 0.95
    assert entry["purpose"] == "whole_proof"
    assert entry["n"] == 1


def test_request_log_thread_safe():
    prompt = _prompt()
    model = RecordingModel(ReplayModel({prompt_digest(prompt): ["x"]}))
    params = ModelParams()

    def hammer():
        for _ in range(50):
            model.complete(params, prompt, 1)

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(model.requests) == 200


def test_mock_model_concurrent_calls_consume_each_batch_once():
    # 16 threads race for 20,000 scripted batches; a lost cursor update
    # would hand one batch out twice.
    batches = [[f"c{i}"] for i in range(20000)] + [["sticky"]]
    model = MockModel({"whole_proof": batches})
    params, prompt = ModelParams(), _prompt()

    def drain():
        return [model.complete(params, prompt, 1)[0] for _ in range(1250)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(16) as pool:
            futures = [pool.submit(drain) for _ in range(16)]
            outputs = [text for f in futures for text in f.result(timeout=60)]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(outputs) == sorted(f"c{i}" for i in range(20000))


# ---------------------------------------------------------------------------
# live client configuration

def test_chat_client_requires_endpoint(monkeypatch):
    monkeypatch.delenv("PROOFSEEK_MODEL_URL", raising=False)
    with pytest.raises(TransportError):
        ChatModelClient()


def test_chat_client_sends_concurrent_requests_at_once():
    # The stub answers only once both requests are in flight together.
    barrier = threading.Barrier(2, timeout=5)

    def answer(body):
        barrier.wait()
        return [body["messages"][-1]["content"]] * body["n"]

    server = ChatServer(answer)
    client = ChatModelClient(url=server.url, api_key="", timeout_s=30)
    try:
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(client.complete, ModelParams(),
                                   _prompt(text=text), 1)
                       for text in ("first", "second")]
            assert [f.result(timeout=30) for f in futures] == [
                ["first"], ["second"]]
    finally:
        server.stop()


def test_chat_client_sends_stop_sequences_as_a_list():
    bodies = []

    def answer(body):
        bodies.append(body)
        return ["done"]

    server = ChatServer(answer)
    client = ChatModelClient(url=server.url, api_key="", timeout_s=30)
    try:
        client.complete(ModelParams(stop=("qed", "end")), _prompt(), 1)
        client.complete(ModelParams(), _prompt(), 1)
    finally:
        server.stop()
    assert bodies[0]["stop"] == ["qed", "end"]
    assert "stop" not in bodies[1]


def test_chat_client_closes_an_error_reply():
    # The HTTPError of a 500 holds the reply's connection; left open, the
    # socket lived until a garbage collection reached it.
    def answer(_body):
        raise RuntimeError("overloaded")

    server = ChatServer(answer)
    client = ChatModelClient(url=server.url, api_key="", timeout_s=30)
    try:
        with pytest.raises(TransportError, match="HTTP Error 500") as caught:
            client.complete(ModelParams(), _prompt(), 1)
    finally:
        server.stop()
    error = caught.value.__cause__
    assert isinstance(error, urllib.error.HTTPError) and error.fp.closed


def test_chat_client_unreachable_endpoint_is_transport_error():
    client = ChatModelClient(url="http://127.0.0.1:9/none", timeout_s=0.2)
    with pytest.raises(TransportError):
        client.complete(ModelParams(), _prompt(), 1)


@pytest.mark.parametrize("texts", [[None], [3], [["by simp"]], [],
                                   ["by simp", "by auto"]],
                         ids=["null", "number", "list", "no-choices",
                              "n-plus-one"])
def test_chat_client_malformed_completion_is_transport_error(texts):
    # A content that is not a string crashed `prove`; more choices than
    # asked for were all tried as candidates.
    server = ChatServer(lambda _body: texts)
    client = ChatModelClient(url=server.url, api_key="", timeout_s=30)
    try:
        with pytest.raises(TransportError, match="malformed completion"):
            client.complete(ModelParams(), _prompt(), 1)
    finally:
        server.stop()


def test_chat_client_reply_nested_too_deeply_is_transport_error(monkeypatch):
    # The decoder's RecursionError escaped as a crash, not a transport fault.
    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda _request, timeout: io.BytesIO(b"[" * 100_000))
    client = ChatModelClient(url="http://127.0.0.1:9/none", timeout_s=1)
    with pytest.raises(TransportError, match="nested too deeply"):
        client.complete(ModelParams(), _prompt(), 1)
