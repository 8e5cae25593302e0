"""Properties of the model client over every shape of reply body, the twin
of the prover wire's: a chat-completion reply of any shape is read as 1 to n
completion texts or as a transport fault, and no other exception escapes."""

import io
import json
import urllib.request

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofseek.errors import TransportError
from proofseek.model import ChatModelClient, ModelParams, PromptRecord

from fixtures import MISSING, json_field, json_objects, json_values

PROMPT = PromptRecord(({"role": "user", "content": "prove it"},), "whole_proof")

messages = st.one_of(json_values,
                     json_objects(content=json_field("by simp", "")))
choices = st.one_of(
    st.text(max_size=6).map(lambda text: {"message": {"content": text}}),
    json_values, json_objects(message=messages))
bodies = st.one_of(json_values, json_objects(choices=st.one_of(
    st.just(MISSING), json_values, st.lists(choices, max_size=4))))


def _check(outcome, body, n: int) -> None:
    """``outcome`` is a TransportError, or 1 to ``n`` texts that are the
    ``content`` of each of ``body``'s choices in order."""
    if isinstance(outcome, TransportError):
        return
    assert isinstance(outcome, list) and 0 < len(outcome) <= n
    assert all(isinstance(text, str) for text in outcome)
    assert outcome == [choice["message"]["content"]
                       for choice in body["choices"]]


def test_any_reply_is_1_to_n_completions_or_a_transport_error():
    client = ChatModelClient(url="http://127.0.0.1:9/none", timeout_s=1)
    replies = {}

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(urllib.request, "urlopen",
                      lambda _request, timeout: io.BytesIO(replies["body"]))

        @settings(max_examples=200, deadline=None, database=None)
        @given(body=bodies, n=st.integers(1, 3))
        @example(body={"choices": [{"message": {"content": "a"}}] * 2}, n=1)
        def check(body, n):
            replies["body"] = json.dumps(body).encode("utf-8")
            try:
                outcome = client.complete(ModelParams(), PROMPT, n)
            except TransportError as exc:
                outcome = exc
            _check(outcome, body, n)

        check()
