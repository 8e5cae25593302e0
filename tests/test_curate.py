import json
import re
import sys
import threading
import time
from collections import Counter

import pytest

from proofseek.curate import (
    TheoremProofPair,
    build_rl_records,
    build_sft_records,
    filter_self_contained,
    reward_correctness,
    reward_verification,
)
from proofseek.errors import TransportError
from proofseek.jsonl import read_jsonl
from proofseek.model import (
    MockModel,
    ModelBackend,
    ModelParams,
    RecordingModel,
)
from proofseek.prover import (
    MockProver,
    ProverConfig,
    ProverServer,
    RecordingProver,
    WireProver,
)

from fixtures import (
    GOLDEN_FORMAL_STATEMENT,
    SessionLosingProver,
    accepting_mock,
)

ACCEPTED = ["by simp", "by auto", "by blast"]


def _pairs(n=10):
    proofs = ACCEPTED + [f"by (metis lemma_{i})" for i in range(n - len(ACCEPTED))]
    return [TheoremProofPair(f'lemma l{i}: "P{i}"', proof)
            for i, proof in enumerate(proofs)]


def _prover():
    return accepting_mock(ACCEPTED)


# ---------------------------------------------------------------------------
# filtering

def test_filter_partition_counts():
    result = filter_self_contained(_pairs(10), _prover())
    assert len(result.rl_pool) == 3
    assert len(result.sft_pool) == 7
    assert not result.undetermined


def test_filter_partition_exact_and_disjoint():
    pairs = _pairs(10)
    result = filter_self_contained(pairs, _prover())
    combined = [*result.rl_pool, *result.sft_pool]
    assert sorted(p.statement for p in combined) == \
        sorted(p.statement for p in pairs)
    assert not set(p.statement for p in result.rl_pool) & \
        set(p.statement for p in result.sft_pool)


def test_filter_idempotent():
    pairs = _pairs(10)
    first = filter_self_contained(pairs, _prover())
    second = filter_self_contained(pairs, _prover())
    assert [p.statement for p in first.rl_pool] == \
        [p.statement for p in second.rl_pool]
    assert [p.statement for p in first.sft_pool] == \
        [p.statement for p in second.sft_pool]


def test_filter_transport_fault_is_undetermined():
    class Flaky(MockProver):
        def init_session(self, theory_text):
            if 'l1' in theory_text:
                raise TransportError("connection reset")
            return super().init_session(theory_text)

    flaky = Flaky(table={"by simp": "ok", "by auto": "ok", "by blast": "ok"})
    result = filter_self_contained(_pairs(4), flaky, pool_size=1)
    assert len(result.undetermined) == 1
    assert result.undetermined[0][0].statement == 'lemma l1: "P1"'
    assert len(result.rl_pool) + len(result.sft_pool) == 3


def test_filter_raises_a_check_error_that_is_no_transport_fault():
    # a prover bug is neither a verdict on the pair nor a fault to log and
    # go past: it is raised, and no pair is filed
    class Broken(MockProver):
        def init_session(self, theory_text):
            if 'l1' in theory_text:
                raise RuntimeError("prover bug")
            return super().init_session(theory_text)

    broken = Broken(table={proof: "ok" for proof in ACCEPTED})
    with pytest.raises(RuntimeError, match="prover bug"):
        filter_self_contained(_pairs(4), broken, pool_size=1)


def test_a_lost_session_leaves_its_pair_undetermined():
    # The prover loses l1's session: the session fault escaped both the
    # filter and the reward.
    server = ProverServer(SessionLosingProver(
        "l1", table={proof: "ok" for proof in ACCEPTED})).start()
    client = WireProver(ProverConfig(endpoint=server.address))
    try:
        pairs = _pairs(4)
        result = filter_self_contained(pairs, client, pool_size=2)
        assert [p for p, _ in result.undetermined] == [pairs[1]]
        assert len(result.rl_pool) + len(result.sft_pool) == 3
        assert reward_verification("by simp", 'lemma l1: "P1"',
                                   client) is None
        assert reward_verification("by simp", 'lemma l0: "P0"', client) == 1
    finally:
        client.shutdown()
        server.stop()


def _rejecting(statement_tag):
    """A prover that accepts ACCEPTED but will not load a theory naming
    ``statement_tag``: its statement needs dependencies beyond Main."""
    return MockProver(
        table={proof: "ok" for proof in ACCEPTED},
        reject_theory=lambda theory: ("undefined constant"
                                      if statement_tag in theory else None))


def test_filter_statement_that_will_not_load_goes_to_the_sft_pool():
    pairs = _pairs(4)
    result = filter_self_contained(pairs, _rejecting("l1"), pool_size=1)
    assert [p.statement for p in result.rl_pool] == \
        ['lemma l0: "P0"', 'lemma l2: "P2"']
    assert [p.statement for p in result.sft_pool] == \
        ['lemma l1: "P1"', 'lemma l3: "P3"']
    assert not result.undetermined


def test_pair_requires_nonempty_fields():
    with pytest.raises(ValueError):
        TheoremProofPair("", "by simp")


# ---------------------------------------------------------------------------
# record construction

def test_build_sft_records_all_valid():
    pool = _pairs(5)
    model = MockModel({"nl_statement": [["a plain description"]]})
    records, drops = build_sft_records(pool, model, 5, seed=3)
    assert len(records) == 5 and not drops
    assert all(r.natural_language_statement == "a plain description"
               for r in records)
    assert all(set(r.to_json()) == {"proof", "statement",
                                    "natural_language_statement"}
               for r in records)


def test_build_sft_records_drop_after_double_failure():
    pool = _pairs(5)

    class Empty(MockModel):
        def _complete(self, params, prompt, n):
            return [""]

    records, drops = build_sft_records(pool, Empty({}), 5, seed=3)
    assert not records and len(drops) == 5
    assert all("retry" in d["reason"] for d in drops)


def test_build_sft_records_seeded_sample_deterministic():
    pool = _pairs(8)
    model = MockModel({"nl_statement": [["text"]]})
    first, _ = build_sft_records(pool, model, 4, seed=11)
    second, _ = build_sft_records(pool, MockModel(
        {"nl_statement": [["text"]]}), 4, seed=11)
    assert [r.statement for r in first] == [r.statement for r in second]


def test_build_sft_records_sample_count_bound():
    with pytest.raises(ValueError):
        build_sft_records(_pairs(3), MockModel({}), 5)


def test_build_sft_records_rejects_a_negative_sample_count():
    model = _PairModel()
    with pytest.raises(ValueError, match="sample_count"):
        build_sft_records(_pairs(3), model, -1)
    assert not model.events


def test_build_rl_records():
    pool = _pairs(3)
    model = MockModel({"nl_statement": [["nl text"]]})
    records, drops = build_rl_records(pool, model)
    assert len(records) == 3 and not drops
    assert all(set(r.to_json()) == {"natural_language_statement",
                                    "formal_proof"} for r in records)


class _PairModel(ModelBackend):
    """Answers the NL-statement prompt of pair ``lemma l<i>`` with
    ``answer(i, try)`` (``try`` counts that pair's requests from 0) after
    ``delay(i)`` seconds, and logs each request's start and end, and the
    most requests it saw in flight at once."""

    def __init__(self, answer=lambda i, _try: f"nl {i}", delay=lambda i: 0.0):
        super().__init__()
        self.answer, self.delay = answer, delay
        self.events: list[tuple[str, int]] = []
        self.tries: Counter = Counter()
        self.in_flight = self.peak = 0

    def _complete(self, params, prompt, n):
        i = int(re.search(r"lemma l(\d+)", prompt.text).group(1))
        with self._lock:
            self.events.append(("start", i))
            attempt = self.tries[i]
            self.tries[i] += 1
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            time.sleep(self.delay(i))
            return [self.answer(i, attempt)]
        finally:
            with self._lock:
                self.in_flight -= 1
                self.events.append(("end", i))


def test_records_and_drops_come_in_pair_order_whatever_order_answers_come():
    # Each pair waits less than the one before it, so the answers come back
    # in reverse; pairs 1 and 4 fail validation twice and are dropped.
    pool = _pairs(6)
    model = _PairModel(answer=lambda i, _try: "" if i in (1, 4) else f"nl {i}",
                       delay=lambda i: 0.05 * (6 - i))
    records, drops = build_rl_records(pool, model,
                                      params=ModelParams(max_samples=6))
    ends = [i for kind, i in model.events if kind == "end"]
    assert ends.index(5) < ends.index(0)
    assert [(r.formal_proof, r.natural_language_statement) for r in records] == \
        [(pool[i].proof, f"nl {i}") for i in (0, 2, 3, 5)]
    assert drops == [{"statement": pool[i].statement,
                      "reason": "nl generation failed after retry"}
                     for i in (1, 4)]


def test_sft_records_come_in_sample_order_whatever_order_answers_come():
    pool = _pairs(8)
    want, _ = build_sft_records(pool, _PairModel(), 5, seed=11,
                                params=ModelParams(max_samples=1))
    records, drops = build_sft_records(
        pool, _PairModel(delay=lambda i: 0.02 * (8 - i)), 5, seed=11,
        params=ModelParams(max_samples=5))
    assert records == want and not drops


@pytest.mark.parametrize("params, peak", [(ModelParams(), 10),
                                          (ModelParams(max_samples=3), 3)])
def test_no_more_requests_in_flight_than_the_models_max_samples(params, peak):
    # One request per pair, as many in flight as one whole-proof request
    # may ask the endpoint for: 10 by default, 3 when the model allows 3.
    model = _PairModel(delay=lambda _i: 0.2)
    records, _ = build_rl_records(_pairs(12), model, params=params)
    assert len(records) == 12
    assert model.peak == peak


def test_each_pair_is_retried_once_on_its_own():
    # Even pairs answer on their second request, odd pairs never; every pair
    # is asked exactly twice, and only the even ones make records.
    pool = _pairs(6)
    model = _PairModel(
        answer=lambda i, attempt: f"nl {i}" if attempt and i % 2 == 0 else " ",
        delay=lambda i: 0.01 * i)
    records, drops = build_rl_records(pool, model,
                                      params=ModelParams(max_samples=4))
    assert model.tries == Counter({i: 2 for i in range(6)})
    assert [r.natural_language_statement for r in records] == \
        ["nl 0", "nl 2", "nl 4"]
    assert [d["statement"] for d in drops] == \
        [pool[i].statement for i in (1, 3, 5)]


def test_a_model_fault_raises_and_no_request_starts_after_it():
    # Pair 0 faults while pair 1 is still in flight: the worker that saw
    # the fault starts nothing more, pair 1's request finishes, and then
    # the fault is raised.
    def answer(i, _try):
        if i == 0:
            raise TransportError("model endpoint failed")
        return f"nl {i}"

    model = _PairModel(answer=answer, delay=lambda i: 0.05 if i == 0 else 0.3)
    with pytest.raises(TransportError, match="model endpoint failed"):
        build_rl_records(_pairs(10), model,
                         params=ModelParams(max_samples=2))
    assert model.tries == Counter({0: 1, 1: 1})
    assert sorted(model.events[:2]) == [("start", 0), ("start", 1)]
    assert model.events[2:] == [("end", 0), ("end", 1)]


def test_faults_from_many_workers_at_once_are_never_lost():
    # More workers than cores, switching threads as often as the interpreter
    # allows, with several pairs faulting together: the builder raises every
    # time, and no pair is asked more than twice.
    def answer(i, _try):
        if i in (13, 14, 15, 16):
            raise TransportError("model endpoint failed")
        return " "

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            model = _PairModel(answer=answer)
            with pytest.raises(TransportError):
                build_rl_records(_pairs(40), model,
                                 params=ModelParams(max_samples=8))
            assert max(model.tries.values()) <= 2
    finally:
        sys.setswitchinterval(interval)


class _GatedModel(_PairModel):
    """A ``_PairModel`` whose requests wait at a gate: the requests that
    start while one gate is shut are one wave, and ``open_waves`` opens
    each gate once its wave is full."""

    def __init__(self):
        super().__init__()
        self.gate = threading.Event()
        self.waves = [0]

    def _complete(self, params, prompt, n):
        with self._lock:
            gate = self.gate
            self.waves[-1] += 1
        assert gate.wait(10), "a wave was never let through"
        return super()._complete(params, prompt, n)

    def open_waves(self, running, size, timeout_s=5.0):
        """Open each wave's gate once ``size`` requests wait at it, or
        after ``timeout_s`` if fewer ever come, until ``running`` ends; the
        sizes of the waves."""
        while running.is_alive():
            deadline = time.monotonic() + timeout_s
            while (running.is_alive() and self.waves[-1] < size
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            with self._lock:
                shut, self.gate = self.gate, threading.Event()
                self.waves.append(0)
            shut.set()
        return [size for size in self.waves if size]


def test_cmd_curate_asks_for_the_sft_sample_and_rl_pool_in_one_pool(
        tmp_path, monkeypatch):
    # 13 pairs verify (the RL pool) and 7 do not (the SFT pool), mixed:
    # at max_samples 10 their 20 NL-statement requests start in two waves
    # of 10, not one of 7 and then 10 and 3.
    from proofseek import cli

    accepted = [i % 3 != 1 for i in range(20)]
    rows = [{"statement": f'lemma l{i}: "P{i}"',
             "proof": "by simp" if ok else f"by (metis m{i})"}
            for i, ok in enumerate(accepted)]
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    (tmp_path / "prover_mock.json").write_text(
        json.dumps({"table": {"by simp": "ok"}}), encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({
        "mode": "mock", "out_dir": str(tmp_path / "out"),
        "fixtures": {"model_mock": "unused.json",
                     "prover_mock": "prover_mock.json"}}), encoding="utf-8")
    model = _GatedModel()
    monkeypatch.setattr(cli, "build_model", lambda config: model)
    codes = []
    running = threading.Thread(target=lambda: codes.append(cli.main(
        ["curate", str(tmp_path / "corpus.jsonl"),
         "--config", str(tmp_path / "config.json")])))
    running.start()
    try:
        waves = model.open_waves(running, size=10)
    finally:
        model.gate.set()
        running.join(30)
    assert not running.is_alive()
    assert codes == [0]
    assert waves == [10, 10]
    out = tmp_path / "out"
    assert [r["statement"] for r in read_jsonl(out / "sft.jsonl")] == \
        [row["statement"] for row, ok in zip(rows, accepted) if not ok]
    assert [r["natural_language_statement"]
            for r in read_jsonl(out / "rl.jsonl")] == \
        [f"nl {i}" for i, ok in enumerate(accepted) if ok]


def test_curation_and_formalization_have_separate_purposes():
    from proofseek.formalize import formalize_nl

    model = RecordingModel(MockModel({
        "nl_statement": [["nl text"]],
        "stage_description": [["described"]],
        "stage_informal_proof": [["argued"]],
        "stage_formal_statement": [[GOLDEN_FORMAL_STATEMENT]],
    }))
    build_rl_records(_pairs(3), model)
    build_sft_records(_pairs(5), model, 2, seed=1)
    assert [r["purpose"] for r in model.requests] == ["nl_statement"] * 5
    model.requests.clear()
    formalize_nl("allow running instances", model)
    assert model.requests and all(r["purpose"] != "nl_statement"
                                  for r in model.requests)


# ---------------------------------------------------------------------------
# rewards

def test_reward_correctness_exact_echo():
    assert reward_correctness("by simp", "by simp") == 1.0


def test_reward_correctness_token_equivalent_whitespace():
    assert reward_correctness("by   simp", "by simp") == 1.0


def test_reward_correctness_empty_response():
    assert reward_correctness("", "by simp") == 0.0


def test_reward_correctness_half_overlap_f1():
    # extracted and reference share 5 of their 10 tokens each:
    # F1 = 2*5/(10+10) = 0.5, hand-computed
    ground = "a b c d e f g h i j"
    response = "a b c d e v w x y z"
    assert reward_correctness(response, ground) == pytest.approx(0.5)


def test_reward_correctness_symmetry():
    a = "by (simp add: foo bar)"
    b = "by (auto simp: foo)"
    assert reward_correctness(a, b) == pytest.approx(reward_correctness(b, a))


def test_reward_correctness_strict_mode():
    assert reward_correctness("a b", "a c", strict=True) == 0.0
    assert reward_correctness("a b", "a b", strict=True) == 1.0


def test_reward_correctness_extracts_comment_wrapped(golden_proof_wrapped,
                                                     golden_proof_body):
    assert reward_correctness(golden_proof_wrapped, golden_proof_body) == 1.0


def test_reward_verification_accepted():
    assert reward_verification("by simp", "lemma x: \"P\"", _prover()) == 1


def test_reward_verification_rejected():
    assert reward_verification("by nope", "lemma x: \"P\"", _prover()) == 0


def test_reward_verification_requires_prover_done():
    prover = RecordingProver(_prover())
    result = reward_verification("by simp", 'lemma x: "P"', prover)
    assert result == 1
    # the call log must show a successful terminal apply, not engine judgment
    assert any(r["step"] == "by simp" for r in prover.requests())


def test_reward_verification_transport_is_undetermined():
    class Down(MockProver):
        def init_session(self, theory_text):
            raise TransportError("unreachable")

    result = reward_verification("by simp", 'lemma x: "P"', Down())
    assert result is None


def test_reward_verification_statement_that_will_not_load_is_zero():
    prover = _rejecting("lemma x")
    assert reward_verification("by simp", 'lemma x: "P"', prover) == 0
    assert reward_verification("by simp", 'lemma y: "P"', prover) == 1
