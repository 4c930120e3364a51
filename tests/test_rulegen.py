"""Prompt assembly, the chat client, reply validation, and templates."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from deixis.logic import render_program
from deixis.rulegen import (
    FEW_SHOT,
    SYSTEM_PROMPT,
    AuthError,
    ChatClient,
    FixtureClient,
    FormatError,
    HttpChatClient,
    RulegenConfig,
    ServiceError,
    Timeout,
    build_prompt,
    generate_program,
    template_rulegen,
    validate_rules,
)

from oracles import reference_template_rulegen

PROGRAM_1 = (
    "cond1(X):-on(X,Y),type(Y,boat).\n"
    "cond2(X):-holding(X,Y),type(Y,umbrella).\n"
    "target(X):-cond1(X),cond2(X)."
)


def make_cfg(**overrides) -> RulegenConfig:
    base = dict(
        endpoint_url="http://chat.invalid/v1",
        model_name="test-model",
        api_key_env_var="",
        temperature=0.0,
        max_retries=2,
        timeout=5.0,
    )
    base.update(overrides)
    return RulegenConfig(**base)


def test_system_prompt_states_the_format():
    assert "target(X):-cond1(X),...condn(X)." in SYSTEM_PROMPT
    assert "Capitalize variables: X, Y, Z, W, etc." in SYSTEM_PROMPT


def test_build_prompt_matches_few_shot_shape():
    bundle = build_prompt("an object that is next to a keyboard.", ["next_to"])
    assert bundle.user == FEW_SHOT[0]["user"]
    assert bundle.system == SYSTEM_PROMPT
    assert not bundle.cot


def test_build_prompt_without_predicates():
    bundle = build_prompt("an object that is on a desk.", [])
    assert bundle.user == "an object that is on a desk."
    assert "available predicates" not in bundle.user


def test_build_prompt_joins_predicates_with_commas():
    bundle = build_prompt("prompt.", ["has", "on", "above"])
    assert bundle.user.endswith("available predicates: has,on,above")


def test_messages_alternate_roles():
    bundle = build_prompt("prompt.", ["on"])
    messages = bundle.messages()
    assert messages[0]["role"] == "system"
    assert messages[-1] == {"role": "user", "content": bundle.user}
    middle = messages[1:-1]
    assert len(middle) == 2 * len(FEW_SHOT)
    assert all(
        m["role"] == ("user" if i % 2 == 0 else "assistant")
        for i, m in enumerate(middle)
    )


def test_every_few_shot_reply_validates():
    for pair in FEW_SHOT:
        program = validate_rules(pair["assistant"])
        assert any(r.head.predicate.name == "target" for r in program.rules)


def test_validate_rules_accepts_program_one():
    program = validate_rules(PROGRAM_1)
    assert render_program(program) == PROGRAM_1


def test_validate_rules_extracts_from_prose_and_fences():
    text = (
        "Sure! Here are the rules you asked for:\n"
        "```prolog\n"
        "1. cond1(X):-on(X,Y),type(Y,boat).\n"
        "2. target(X):-cond1(X).\n"
        "```\n"
        "Let me know if you need anything else."
    )
    program = validate_rules(text)
    assert len(program.rules) == 2


def test_validate_rules_collects_all_issues():
    bad = "cond1(v):-on(v,y),type(y,boat).\ntarget(X):-cond1(X),cond2(X)."
    with pytest.raises(FormatError) as err:
        validate_rules(bad)
    assert "undefined_condition" in err.value.categories
    assert "lowercase_variable" in err.value.categories


def test_malformed_corpus_categories(data_dir):
    cases = json.loads((data_dir / "malformed_rules.json").read_text())
    assert len(cases) == 20
    for case in cases:
        with pytest.raises(FormatError) as err:
            validate_rules(case["text"])
        assert case["category"] in err.value.categories, case["name"]


def test_template_rulegen_produces_program_one():
    program = template_rulegen([("on", "boat"), ("holding", "umbrella")])
    assert render_program(program) == PROGRAM_1


def test_template_rulegen_canonicalizes():
    program = template_rulegen([("ON TOP OF", "Traffic Light")])
    text = render_program(program)
    assert "on_top_of(X,Y)" in text
    assert "type(Y,trafficlight)" in text


def test_template_output_always_validates():
    for pairs in (
        [("on", "boat")],
        [("on", "boat"), ("holding", "umbrella")],
        [("has", "handle"), ("on", "bench"), ("near", "tree")],
    ):
        program = template_rulegen(pairs)
        assert validate_rules(render_program(program)) == program


# Names that canonicalise to something: digits first, mixed case and
# non-ASCII letters. Other names add spaces and punctuation, letters that
# stay uppercase when lowercased (so the relation canonicalises to an
# invalid predicate name), and names that canonicalise to nothing.
_GOOD_NAME = st.text(
    st.sampled_from(list("onTOP3é字ÉßǅΣ")), min_size=1, max_size=6
)
_TEMPLATE_NAME = st.one_of(
    _GOOD_NAME,
    st.text(st.sampled_from(list("on _-.:(3ÉϒΣ")), max_size=6),
    st.text(max_size=4),
)
_TEMPLATE_PAIR = st.one_of(
    st.tuples(_GOOD_NAME, _GOOD_NAME),
    st.tuples(_TEMPLATE_NAME, _TEMPLATE_NAME),
    st.lists(_TEMPLATE_NAME, min_size=2, max_size=2),
    st.sampled_from([("on",), ("on", "boat", "x"), ("on", 3), None, "on"]),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_TEMPLATE_PAIR, max_size=4))
def test_template_rulegen_matches_the_checked_reference(pairs):
    try:
        expected = reference_template_rulegen(pairs)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            template_rulegen(pairs)
        assert str(err.value) == str(exc)
        return
    program = template_rulegen(pairs)
    assert program == expected
    assert repr(program) == repr(expected)
    assert hash(program) == hash(expected)
    assert render_program(program) == render_program(expected)


def test_template_rulegen_rejects_what_canonicalises_to_nothing():
    for pairs in ([("on", "!!")], [("on", "boat"), ("--", "boat")], []):
        with pytest.raises(ValueError) as err:
            template_rulegen(pairs)
        with pytest.raises(ValueError) as reference:
            reference_template_rulegen(pairs)
        assert str(err.value) == str(reference.value)


def test_fixture_client_round_trip(data_dir):
    client = FixtureClient.load(str(data_dir / "llm_fixture.json"))
    bundle = build_prompt(
        "an object that is on a barge, and that is holding an umbrella.", []
    )
    text = client.complete(bundle.messages())
    assert "type(Y,barge)" in text
    with pytest.raises(ServiceError):
        client.complete(build_prompt("unknown prompt.", []).messages())


class _Response:
    def __init__(self, status_code: int, content: str = ""):
        self.status_code = status_code
        self._content = content

    def json(self):
        return {"choices": [{"message": {"content": self._content}}]}


def test_http_client_retries_with_backoff(monkeypatch):
    import requests

    calls = []
    sleeps = []

    def fake_post(url, json=None, headers=None, timeout=None):
        calls.append(url)
        if len(calls) < 3:
            return _Response(503)
        return _Response(200, "target(X):-cond1(X).")

    monkeypatch.setattr(requests, "post", fake_post)
    client = HttpChatClient(make_cfg(), sleep=sleeps.append)
    text = client.complete([{"role": "user", "content": "hi"}])
    assert text == "target(X):-cond1(X)."
    assert len(calls) == 3
    assert sleeps == [0.5, 1.0]  # exponential backoff


def test_http_client_gives_up_after_retries(monkeypatch):
    import requests

    monkeypatch.setattr(
        requests, "post", lambda *a, **k: _Response(500)
    )
    client = HttpChatClient(make_cfg(max_retries=1), sleep=lambda _: None)
    with pytest.raises(ServiceError):
        client.complete([{"role": "user", "content": "hi"}])


def test_http_client_auth_failures_do_not_retry(monkeypatch):
    import requests

    calls = []

    def fake_post(*args, **kwargs):
        calls.append(1)
        return _Response(401)

    monkeypatch.setattr(requests, "post", fake_post)
    client = HttpChatClient(make_cfg(), sleep=lambda _: None)
    with pytest.raises(AuthError):
        client.complete([{"role": "user", "content": "hi"}])
    assert len(calls) == 1


def test_http_client_requires_configured_key(monkeypatch):
    monkeypatch.delenv("CHAT_KEY", raising=False)
    client = HttpChatClient(make_cfg(api_key_env_var="CHAT_KEY"),
                            sleep=lambda _: None)
    with pytest.raises(AuthError):
        client.complete([{"role": "user", "content": "hi"}])


def test_http_client_sends_bearer_token(monkeypatch):
    import requests

    seen = {}

    def fake_post(url, json=None, headers=None, timeout=None):
        seen.update(headers)
        return _Response(200, "ok")

    monkeypatch.setattr(requests, "post", fake_post)
    monkeypatch.setenv("CHAT_KEY", "sekrit")
    client = HttpChatClient(make_cfg(api_key_env_var="CHAT_KEY"))
    client.complete([{"role": "user", "content": "hi"}])
    assert seen["Authorization"] == "Bearer sekrit"


def test_http_client_timeout_surfaces(monkeypatch):
    import requests

    def fake_post(*args, **kwargs):
        raise requests.Timeout("no answer")

    monkeypatch.setattr(requests, "post", fake_post)
    client = HttpChatClient(make_cfg(max_retries=1), sleep=lambda _: None)
    with pytest.raises(Timeout):
        client.complete([{"role": "user", "content": "hi"}])


class _ScriptedClient(ChatClient):
    def __init__(self, replies):
        self.replies = list(replies)
        self.requests = []

    def complete(self, messages):
        self.requests.append(messages)
        return self.replies.pop(0)


def test_generate_program_repairs_once():
    client = _ScriptedClient(
        [
            "target(x):-cond1(x).\ncond1(x):-on(x,y),type(y,boat).",
            "cond1(X):-on(X,Y),type(Y,boat).\ntarget(X):-cond1(X).",
        ]
    )
    program, meta = generate_program("an object that is on a boat.", client)
    assert meta["repaired"]
    assert len(program.rules) == 2
    # The repair turn carries the previous reply and the error report.
    repair_messages = client.requests[1]
    assert repair_messages[-2]["role"] == "assistant"
    assert "invalid" in repair_messages[-1]["content"]


def test_generate_program_gives_up_after_one_repair():
    client = _ScriptedClient(["nonsense", "still nonsense"])
    with pytest.raises(FormatError):
        generate_program("prompt.", client)


def test_generate_program_cot_extracts_predicates_first():
    client = _ScriptedClient(
        [
            "on,holding",
            "cond1(X):-on(X,Y),type(Y,boat).\n"
            "cond2(X):-holding(X,Y),type(Y,umbrella).\n"
            "target(X):-cond1(X),cond2(X).",
        ]
    )
    program, meta = generate_program(
        "an object that is on a boat, and that is holding an umbrella.",
        client,
        cot=True,
    )
    assert meta["cot"] and meta["predicates"] == ["on", "holding"]
    assert len(program.rules) == 3
    # The second call's user turn injects the extracted predicates.
    final_user = client.requests[1][-1]["content"]
    assert final_user.endswith("available predicates: on,holding")
