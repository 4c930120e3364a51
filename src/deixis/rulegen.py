"""Turning deictic prompts into restricted logic programs.

Two routes produce the same rule format:

* an external chat-completion service, prompted with a fixed system prompt
  and few-shot examples, whose reply is validated (and once repaired) into
  a Program;
* a deterministic template expander over structured (relation, attribute)
  conditions, for synthetic prompts and offline runs.

The target format is deliberately narrow so that grounding stays linear in
the number of conditions::

    target(X):-cond1(X),...,condn(X).
    condi(X):-predi(X,Y),type(Y,consti).
"""

from __future__ import annotations

import json
import os
import re
import time
from dataclasses import dataclass, field

from .logic import (
    Atom,
    Predicate,
    Program,
    Rule,
    RuleSyntaxError,
    Term,
    _alpha_key,
    parse_rule,
)
from .scene import canon_constant, canon_predicate

SYSTEM_PROMPT = """\
Given a deictic representation and available predicates, generate rules in the format.
target(X):-cond1(X),...condn(X).
cond1(X):-pred1(X,Y),type(Y,const1).
...
condn(X):-predn(X,Y),type(Y,const2).
Use predicates and constants that appear in the given sentence.
Capitalize variables: X, Y, Z, W, etc."""

FEW_SHOT: tuple[dict[str, str], ...] = (
    {
        "user": "an object that is next to a keyboard.\n"
        "available predicates: next_to",
        "assistant": "cond1(X):-next_to(X,Y),type(Y,keyboard).\n"
        "target(X):-cond1(X).",
    },
    {
        "user": "an object that is on a desk.\navailable predicates: on",
        "assistant": "cond1(X):-on(X,Y),type(Y,desk).\ntarget(X):-cond1(X).",
    },
    {
        "user": "an object that is on a ground, and that is behind a white "
        "line.\navailable predicates: on,behind",
        "assistant": "cond1(X):-on(X,Y),type(Y,ground).\n"
        "cond2(X):-behind(X,Y),type(Y,whiteline).\n"
        "target(X):-cond1(X),cond2(X)",
    },
    {
        "user": "an object that is near a desk and against wall.\n"
        "available predicates: near,against",
        "assistant": "cond1(X):-near(X,Y),type(Y,desk).\n"
        "cond2(X):-against(X,Y),type(Y,wall).\n"
        "target(X):-cond1(X),cond2(X).",
    },
    {
        "user": "an object that has sides, that is on a pole, and that is "
        "above a stop sign.\navailable predicates: has,on,above",
        "assistant": "cond1(X):-has(X,Y),type(Y,sides).\n"
        "cond2(X):-on(X,Y),type(Y,pole).\n"
        "cond3(X):-above(X,Y),type(Y,stopsign).\n"
        "target(X):-cond1(X),cond2(X),cond3(X).",
    },
    {
        "user": "an object that is wearing a shirt, that has a hair, and "
        "that is wearing shoes.\navailable predicates: wearing,has,wearing",
        "assistant": "cond1(X):-wearing(X,Y),type(Y,shirt).\n"
        "cond2(X):-has(X,Y),type(Y,hair).\n"
        "cond3(X):-wearing(X,Y),type(Y,shoes).\n"
        "target(X):-cond1(X),cond2(X),cond3(X).",
    },
)

# Pre-pass used in chain-of-thought mode: the model first names the
# predicates, which are then injected into the rule-generation prompt.
PREDICATE_SYSTEM_PROMPT = (
    "Given a deictic representation, extract all predicates that appear in "
    "the sentence.\nAnswer with a comma-separated list of predicates only."
)

PREDICATE_FEW_SHOT: tuple[dict[str, str], ...] = (
    {
        "user": "an object that is next to a keyboard.",
        "assistant": "next_to",
    },
    {
        "user": "an object that is on a ground, and that is behind a white line.",
        "assistant": "on,behind",
    },
    {
        "user": "an object that is wearing a shirt, that has a hair, and "
        "that is wearing shoes.",
        "assistant": "wearing,has,wearing",
    },
)


class ServiceError(RuntimeError):
    """The chat-completion service failed (HTTP or transport)."""


class AuthError(ServiceError):
    """Missing or rejected API credentials."""


class Timeout(ServiceError):
    """The service did not answer within the configured timeout."""


@dataclass(frozen=True)
class RulegenConfig:
    """Connection settings for the chat-completion service."""

    endpoint_url: str = ""
    model_name: str = ""
    api_key_env_var: str = ""
    temperature: float = 0.0
    max_retries: int = 2
    timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if not self.timeout > 0:
            raise ValueError(f"timeout must be positive, got {self.timeout}")
        if self.temperature < 0:
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")


@dataclass(frozen=True)
class PromptBundle:
    """A fully assembled chat prompt, ready to send or replay."""

    system: str
    few_shot: tuple[dict[str, str], ...]
    user: str
    cot: bool = False

    def messages(self) -> list[dict[str, str]]:
        msgs = [{"role": "system", "content": self.system}]
        for pair in self.few_shot:
            msgs.append({"role": "user", "content": pair["user"]})
            msgs.append({"role": "assistant", "content": pair["assistant"]})
        msgs.append({"role": "user", "content": self.user})
        return msgs


def build_prompt(
    deictic: str, predicates, *, cot: bool = False
) -> PromptBundle:
    """Assemble the chat prompt for a deictic sentence.

    In normal mode the user turn is the sentence followed by an
    "available predicates: p1,p2,..." line (omitted when the list is
    empty).  In chain-of-thought mode (``cot=True``) the bundle instead
    asks only for the predicates; callers then re-prompt with the
    extracted list injected.
    """
    if not deictic:
        raise ValueError("deictic prompt must be non-empty")
    if cot:
        return PromptBundle(
            system=PREDICATE_SYSTEM_PROMPT,
            few_shot=PREDICATE_FEW_SHOT,
            user=deictic,
            cot=True,
        )
    user = deictic
    predicates = list(predicates)
    if predicates:
        user = f"{deictic}\navailable predicates: {','.join(predicates)}"
    return PromptBundle(system=SYSTEM_PROMPT, few_shot=FEW_SHOT, user=user)


class ChatClient:
    """Interface of anything that can answer a chat prompt."""

    def complete(self, messages: list[dict[str, str]]) -> str:
        raise NotImplementedError


class HttpChatClient(ChatClient):
    """Blocking JSON chat-completion client with exponential backoff.

    Sends {model, messages, temperature} and reads
    choices[0].message.content.  Transient failures (timeouts, connection
    errors, 5xx) retry up to ``cfg.max_retries`` times; auth failures and
    other 4xx responses fail immediately. Needs the ``requests`` package,
    installed with the ``online`` extra.
    """

    def __init__(self, cfg: RulegenConfig, sleep=time.sleep) -> None:
        try:
            import requests
        except ImportError:
            raise ValueError(
                "online rule generation needs the 'online' extra: "
                "pip install 'deixis[online]'"
            ) from None
        self._requests = requests
        if not cfg.endpoint_url:
            raise ValueError("endpoint_url is required for HTTP rule generation")
        self.cfg = cfg
        self._sleep = sleep

    def _headers(self) -> dict[str, str]:
        headers = {"Content-Type": "application/json"}
        if self.cfg.api_key_env_var:
            key = os.environ.get(self.cfg.api_key_env_var)
            if not key:
                raise AuthError(
                    f"environment variable {self.cfg.api_key_env_var} is not set"
                )
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete(self, messages: list[dict[str, str]]) -> str:
        payload = {
            "model": self.cfg.model_name,
            "messages": messages,
            "temperature": self.cfg.temperature,
        }
        headers = self._headers()
        requests = self._requests
        last_error: ServiceError | None = None
        for attempt in range(self.cfg.max_retries + 1):
            if attempt:
                self._sleep(0.5 * 2 ** (attempt - 1))
            try:
                resp = requests.post(
                    self.cfg.endpoint_url,
                    json=payload,
                    headers=headers,
                    timeout=self.cfg.timeout,
                )
            except requests.Timeout:
                last_error = Timeout(
                    f"no answer within {self.cfg.timeout}s "
                    f"(attempt {attempt + 1})"
                )
                continue
            except requests.RequestException as exc:
                last_error = ServiceError(f"transport failure: {exc}")
                continue
            if resp.status_code in (401, 403):
                raise AuthError(f"service rejected credentials ({resp.status_code})")
            if resp.status_code >= 500:
                last_error = ServiceError(
                    f"service error {resp.status_code} (attempt {attempt + 1})"
                )
                continue
            if resp.status_code >= 400:
                raise ServiceError(
                    f"request rejected ({resp.status_code}): {resp.text[:200]}"
                )
            try:
                return resp.json()["choices"][0]["message"]["content"]
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                raise ServiceError(f"malformed service response: {exc}") from exc
        assert last_error is not None
        raise last_error


class FixtureClient(ChatClient):
    """Replays recorded request/response pairs for hermetic tests.

    A fixture file is a JSON array of {"request": ..., "response": ...}
    where ``request`` is matched against the final user message.
    """

    def __init__(self, fixtures: list[dict[str, str]]) -> None:
        self.fixtures = list(fixtures)

    @classmethod
    def load(cls, path: str) -> "FixtureClient":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, list):
            raise ValueError(f"{path}: fixture file must be a JSON array")
        return cls(data)

    def complete(self, messages: list[dict[str, str]]) -> str:
        last_user = next(
            (m["content"] for m in reversed(messages) if m["role"] == "user"),
            None,
        )
        for entry in self.fixtures:
            if entry.get("request") == last_user:
                return entry["response"]
        raise ServiceError(
            f"no recorded fixture matches the request: {last_user!r}"
        )


def request_rules(
    bundle: PromptBundle,
    cfg: RulegenConfig,
    client: ChatClient | None = None,
) -> str:
    """Send the prompt and return the assistant's raw reply."""
    if client is None:
        client = HttpChatClient(cfg)
    return client.complete(bundle.messages())


class FormatError(ValueError):
    """The reply does not fit the restricted rule format.

    ``issues`` lists (category, message) pairs for every violated check;
    ``categories`` collects just the category slugs.  Callers may quote
    ``str(error)`` in a repair re-prompt.
    """

    def __init__(self, issues: list[tuple[str, str]]) -> None:
        self.issues = list(issues)
        super().__init__("; ".join(msg for _, msg in self.issues))

    @property
    def categories(self) -> set[str]:
        return {cat for cat, _ in self.issues}


_COND_NAME = re.compile(r"^cond\d+$")
_ALLOWED_VARIABLES = frozenset({"X", "Y", "Z", "W"})
_ENUMERATION = re.compile(r"^(?:[-*]|\d+[.)])\s+")


def _extract_rule_lines(text: str) -> list[str]:
    """Pull rule-shaped lines out of a chat reply, dropping prose and
    code fences."""
    lines = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("```"):
            continue
        line = _ENUMERATION.sub("", line)
        if ":-" in line:
            lines.append(line)
    return lines


def validate_rules(text: str) -> Program:
    """Parse a reply into a Program, enforcing the restricted format.

    Checks, each with its own error category:

    * every rule line parses (``syntax``, ``arity_drift``);
    * rule heads bind variables, not constants (``lowercase_variable``);
    * all variables come from {X, Y, Z, W} (``bad_variable``);
    * exactly one target rule (``missing_target`` / ``multiple_target``);
    * the target body references condN rules only (``bad_target_body``),
      each defined exactly once (``undefined_condition`` /
      ``duplicate_condition``);
    * cond bodies are ``pred(X,Y),type(Y,const)`` or a single unary or
      binary atom (``bad_condition_body``);
    * no two rules are duplicates up to renaming (``duplicate_rule``).

    Relations the scene does not use are left for the semantic unifier
    rather than rejected here.
    """
    issues: list[tuple[str, str]] = []
    rules: list[Rule] = []
    arities: dict[str, tuple[int, int]] = {}
    seen_keys: dict[object, int] = {}

    lines = _extract_rule_lines(text)
    if not lines:
        raise FormatError([("missing_target", "the reply contains no rules")])

    for line_no, line in enumerate(lines, start=1):
        known = {name: arity for name, (arity, _) in arities.items()}
        try:
            rule = parse_rule(line, line_no=line_no, arities=known)
        except RuleSyntaxError as exc:
            category = "syntax"
            if "arity mismatch" in str(exc):
                category = "arity_drift"
            issues.append((category, str(exc)))
            continue
        except ValueError as exc:
            issues.append(("syntax", f"line {line_no}: {exc}"))
            continue

        for atom_ in (rule.head, *rule.body):
            name = atom_.predicate.name
            if name not in arities:
                arities[name] = (atom_.predicate.arity, line_no)

        key = _alpha_key(rule)
        if key in seen_keys:
            issues.append(
                (
                    "duplicate_rule",
                    f"line {line_no}: duplicate of the rule on line "
                    f"{seen_keys[key]}",
                )
            )
            continue
        seen_keys[key] = line_no

        for arg in rule.head.args:
            if not arg.is_variable:
                issues.append(
                    (
                        "lowercase_variable",
                        f"line {line_no}: head argument {arg.name!r} is a "
                        "constant; variables must be capitalized",
                    )
                )
        bad_vars = {
            v.name
            for atom_ in (rule.head, *rule.body)
            for v in atom_.variables
            if v.name not in _ALLOWED_VARIABLES
        }
        if bad_vars:
            issues.append(
                (
                    "bad_variable",
                    f"line {line_no}: variables must come from X, Y, Z, W; "
                    f"got {', '.join(sorted(bad_vars))}",
                )
            )
        rules.append(rule)

    targets = [r for r in rules if r.head.predicate.name == "target"]
    conds = [r for r in rules if _COND_NAME.match(r.head.predicate.name)]
    cond_defs: dict[str, int] = {}
    for r in conds:
        cond_defs[r.head.predicate.name] = (
            cond_defs.get(r.head.predicate.name, 0) + 1
        )

    if not targets:
        issues.append(("missing_target", "no rule has the head predicate target"))
    elif len(targets) > 1:
        issues.append(
            ("multiple_target", f"{len(targets)} rules define target; expected 1")
        )

    if targets:
        target = targets[0]
        referenced: set[str] = set()
        for atom_ in target.body:
            name = atom_.predicate.name
            if not _COND_NAME.match(name):
                issues.append(
                    (
                        "bad_target_body",
                        f"target body atom {atom_} is not a condN condition",
                    )
                )
                continue
            referenced.add(name)
            if cond_defs.get(name, 0) == 0:
                issues.append(
                    ("undefined_condition", f"{name} is referenced but never defined")
                )
        for name, count in cond_defs.items():
            if count > 1:
                issues.append(
                    ("duplicate_condition", f"{name} is defined {count} times")
                )

    for r in conds:
        body = r.body
        ok = False
        if len(body) == 1:
            ok = body[0].predicate.arity in (1, 2)
        elif len(body) == 2:
            rel, typ = body
            ok = (
                rel.predicate.arity == 2
                and rel.predicate.name not in ("type", "typeSgg")
                and typ.predicate.name == "type"
                and typ.predicate.arity == 2
                and typ.args[0].is_variable
                and not typ.args[1].is_variable
            )
        if not ok:
            issues.append(
                (
                    "bad_condition_body",
                    f"{r.head.predicate.name} body must be "
                    "pred(X,Y),type(Y,const) or a single unary/binary atom",
                )
            )

    if issues:
        raise FormatError(issues)
    return Program(tuple(rules))


REPAIR_INSTRUCTION = (
    "The rules you produced were invalid: {error}\n"
    "Reply with corrected rules only, one per line, in the required format."
)


def generate_program(
    deictic: str,
    cfg: RulegenConfig,
    *,
    client: ChatClient | None = None,
    cot: bool = False,
    predicates=None,
) -> tuple[Program, dict]:
    """End-to-end rule generation: prompt, request, validate, repair once.

    Returns the validated Program plus a metadata dict recording the raw
    replies, the predicate list used, and whether a repair round ran.
    In chain-of-thought mode the service is first asked to extract the
    predicates from the sentence, unless ``predicates`` is supplied.
    """
    if client is None:
        client = HttpChatClient(cfg)
    meta: dict = {"cot": cot, "repaired": False}

    if predicates is None:
        if cot:
            pre = build_prompt(deictic, [], cot=True)
            raw = request_rules(pre, cfg, client)
            predicates = [p.strip() for p in raw.split(",") if p.strip()]
            meta["predicate_reply"] = raw
        else:
            predicates = []
    meta["predicates"] = list(predicates)

    bundle = build_prompt(deictic, predicates)
    raw = request_rules(bundle, cfg, client)
    meta["raw"] = raw
    try:
        program = validate_rules(raw)
    except FormatError as exc:
        repair_user = REPAIR_INSTRUCTION.format(error=exc)
        messages = bundle.messages()
        messages.append({"role": "assistant", "content": raw})
        messages.append({"role": "user", "content": repair_user})
        raw2 = client.complete(messages)
        meta["raw_repair"] = raw2
        meta["repaired"] = True
        program = validate_rules(raw2)
    return program, meta


def template_rulegen(structured) -> Program:
    """Deterministic rule generation from (relation, attribute) pairs.

    Produces exactly the rules a perfect generation run would: one
    ``condI(X):-relI(X,Y),type(Y,attrI).`` per pair plus the target rule
    conjoining them.  Relation and attribute names are canonicalized the
    same way scene graphs are, so the output always grounds against
    matching scene facts.
    """
    pairs = list(structured)
    if not pairs:
        raise ValueError("structured prompt must contain at least one condition")
    x, y = Term("X"), Term("Y")
    rules = []
    target_body = []
    for i, pair in enumerate(pairs, start=1):
        if not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and all(isinstance(p, str) for p in pair)
        ):
            raise ValueError(
                f"condition {i}: expected a (relation, attribute) pair of "
                f"strings, got {pair!r}"
            )
        relation, attribute = pair
        rel = canon_predicate(relation)
        attr = canon_constant(attribute)
        if not rel or not attr:
            raise ValueError(
                f"condition {i}: relation/attribute must be non-empty "
                f"after canonicalization, got {(relation, attribute)!r}"
            )
        cond = Predicate(f"cond{i}", 1)
        rules.append(
            Rule(
                head=Atom(cond, (x,)),
                body=(
                    Atom(Predicate(rel, 2), (x, y)),
                    Atom(Predicate("type", 2), (y, Term(attr))),
                ),
            )
        )
        target_body.append(Atom(cond, (x,)))
    rules.append(
        Rule(head=Atom(Predicate("target", 1), (x,)), body=tuple(target_body))
    )
    return Program(tuple(rules))
