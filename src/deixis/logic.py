"""Restricted first-order language: terms, atoms, weighted definite clauses,
programs, ordered fact stores, and the line-based rule text format.

The language has no function symbols, no negation and no lists. A term is a
variable (name starts with an uppercase letter) or a constant (lowercase or
digit initial). Rules are definite clauses ``head:-b1,...,bn.`` with an
optional decimal weight prefix ``0.5: `` and an optional trailing period.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator

__all__ = [
    "Term",
    "Predicate",
    "Atom",
    "Rule",
    "Program",
    "FactSet",
    "RuleSyntaxError",
    "atom",
    "parse_program",
    "parse_rule",
    "render_rule",
    "render_program",
]

# Characters that may never occur in term or predicate names (plus whitespace).
_NAME_FORBIDDEN = set("(),:-.%")

_WEIGHT_RE = re.compile(r"^([0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?)\s*:\s*(?![-])")


class RuleSyntaxError(SyntaxError):
    """Rule text violating the grammar; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


def _valid_name(name: str) -> bool:
    if not name:
        return False
    return not any(c in _NAME_FORBIDDEN or c.isspace() for c in name)


@dataclass(frozen=True, order=True)
class Term:
    """A variable (uppercase initial) or constant (lowercase/digit initial)."""

    name: str

    def __post_init__(self):
        if not _valid_name(self.name):
            raise ValueError(f"invalid term name {self.name!r}")

    @property
    def is_variable(self) -> bool:
        return self.name[0].isupper()

    @property
    def is_constant(self) -> bool:
        return not self.is_variable

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Predicate:
    name: str
    arity: int

    def __post_init__(self):
        if not _valid_name(self.name) or self.name[0].isupper():
            raise ValueError(f"invalid predicate name {self.name!r}")
        if self.arity < 1:
            raise ValueError(f"predicate {self.name!r}: arity must be >= 1")

    def __str__(self) -> str:
        return f"{self.name}/{self.arity}"


@dataclass(frozen=True, order=True)
class Atom:
    predicate: Predicate
    args: tuple[Term, ...]

    def __post_init__(self):
        if len(self.args) != self.predicate.arity:
            raise ValueError(
                f"{self.predicate.name}: expected {self.predicate.arity} "
                f"arguments, got {len(self.args)}"
            )

    @property
    def variables(self) -> frozenset[Term]:
        return frozenset(t for t in self.args if t.is_variable)

    def is_ground(self) -> bool:
        return all(t.is_constant for t in self.args)

    def substitute(self, binding: dict[Term, Term]) -> "Atom":
        return Atom(self.predicate, tuple(binding.get(t, t) for t in self.args))

    def __str__(self) -> str:
        return f"{self.predicate.name}({','.join(t.name for t in self.args)})"


def atom(name: str, *args: "str | Term") -> Atom:
    """Convenience constructor: ``atom("on", "X", "obj1")``."""
    terms = tuple(a if isinstance(a, Term) else Term(a) for a in args)
    return Atom(Predicate(name, len(terms)), terms)


@dataclass(frozen=True)
class Rule:
    """Definite clause ``head :- body`` with a weight in [0, 1] by convention.

    Range restriction is enforced: every head variable must occur in the
    body, so bodiless rules (facts) must be ground.
    """

    head: Atom
    body: tuple[Atom, ...] = ()
    weight: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "weight", float(self.weight))
        if not math.isfinite(self.weight):
            raise ValueError(f"non-finite rule weight {self.weight}")
        if self.weight < 0.0:
            raise ValueError(f"negative rule weight {self.weight}")
        body_vars: set[Term] = set()
        for a in self.body:
            body_vars.update(a.variables)
        unbound = sorted(self.head.variables - body_vars)
        if unbound:
            names = ", ".join(t.name for t in unbound)
            raise ValueError(f"head variable(s) {names} do not appear in the body")

    @property
    def is_fact(self) -> bool:
        return not self.body

    @property
    def variables(self) -> frozenset[Term]:
        vs = set(self.head.variables)
        for a in self.body:
            vs.update(a.variables)
        return frozenset(vs)

    def substitute(self, binding: dict[Term, Term]) -> "Rule":
        return Rule(
            self.head.substitute(binding),
            tuple(a.substitute(binding) for a in self.body),
            self.weight,
        )

    def __str__(self) -> str:
        return render_rule(self)


def _alpha_key(rule: Rule) -> tuple:
    """Rule signature invariant under variable renaming (weight ignored)."""
    mapping: dict[Term, Term] = {}

    def rename(t: Term) -> Term:
        if t.is_constant:
            return t
        if t not in mapping:
            mapping[t] = Term(f"V{len(mapping)}")
        return mapping[t]

    head = Atom(rule.head.predicate, tuple(rename(t) for t in rule.head.args))
    body = tuple(
        Atom(a.predicate, tuple(rename(t) for t in a.args)) for a in rule.body
    )
    return (head, body)


@dataclass(frozen=True)
class Program:
    """An ordered set of rules; duplicates up to variable renaming rejected."""

    rules: tuple[Rule, ...] = ()

    def __post_init__(self):
        seen: set[tuple] = set()
        for r in self.rules:
            key = _alpha_key(r)
            if key in seen:
                raise ValueError(f"duplicate rule: {r}")
            seen.add(key)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def predicates(self) -> frozenset[Predicate]:
        preds = set()
        for r in self.rules:
            preds.add(r.head.predicate)
            preds.update(a.predicate for a in r.body)
        return frozenset(preds)

    @property
    def intensional_predicates(self) -> frozenset[Predicate]:
        """Predicates that appear as some rule head."""
        return frozenset(r.head.predicate for r in self.rules)


class FactSet:
    """Ordered store of ground atoms with a position index.

    Positions are stable and form a bijection onto ``range(len(self))``;
    valuation vectors are aligned with this order.
    """

    def __init__(self, atoms: Iterable[Atom] = ()):
        self._atoms: list[Atom] = []
        self._index: dict[Atom, int] = {}
        for a in atoms:
            self.add(a)

    def add(self, a: Atom) -> int:
        """Insert a ground atom; returns its position (existing or new)."""
        if not a.is_ground():
            raise ValueError(f"non-ground fact: {a}")
        pos = self._index.get(a)
        if pos is None:
            pos = len(self._atoms)
            self._atoms.append(a)
            self._index[a] = pos
        return pos

    def position(self, a: Atom) -> int:
        return self._index[a]

    def __contains__(self, a: Atom) -> bool:
        return a in self._index

    def __len__(self) -> int:
        return len(self._atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms)

    def __getitem__(self, pos: int) -> Atom:
        return self._atoms[pos]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FactSet):
            return NotImplemented
        return self._atoms == other._atoms

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return tuple(self._atoms)

    def __repr__(self) -> str:
        return f"FactSet({len(self._atoms)} atoms)"


# ---------------------------------------------------------------------------
# Parsing


def _tokenize(text: str, line_no: int) -> list[tuple[str, str]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if text.startswith(":-", i):
            tokens.append((":-", ":-"))
            i += 2
            continue
        if c in "(),.":
            tokens.append((c, c))
            i += 1
            continue
        if c in ":-%":
            raise RuleSyntaxError(f"unexpected character {c!r}", line_no)
        j = i
        while j < n and text[j] not in _NAME_FORBIDDEN and not text[j].isspace():
            j += 1
        tokens.append(("name", text[i:j]))
        i = j
    return tokens


class _LineParser:
    def __init__(self, tokens: list[tuple[str, str]], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line_no = line_no

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind: str, what: str) -> str:
        if self.peek() != kind:
            got = self.tokens[self.pos][1] if self.pos < len(self.tokens) else "end of line"
            raise RuleSyntaxError(f"expected {what}, got {got!r}", self.line_no)
        value = self.tokens[self.pos][1]
        self.pos += 1
        return value

    def atom(self) -> Atom:
        name = self.take("name", "a predicate name")
        self.take("(", "'('")
        args = [Term(self.take("name", "a term"))]
        while self.peek() == ",":
            self.pos += 1
            args.append(Term(self.take("name", "a term")))
        if self.peek() != ")":
            raise RuleSyntaxError("unbalanced parentheses", self.line_no)
        self.pos += 1
        return Atom(Predicate(name, len(args)), tuple(args))


def parse_rule(line: str, line_no: int = 1, arities: dict[str, int] | None = None) -> Rule:
    """Parse a single rule line (weight prefix and trailing period optional)."""
    weight = 1.0
    m = _WEIGHT_RE.match(line)
    if m:
        weight = float(m.group(1))
        line = line[m.end():]

    try:
        tokens = _tokenize(line, line_no)
    except ValueError as e:
        raise RuleSyntaxError(str(e), line_no) from None

    parser = _LineParser(tokens, line_no)
    try:
        head = parser.atom()
        body: list[Atom] = []
        if parser.peek() == ":-":
            parser.pos += 1
            body.append(parser.atom())
            while parser.peek() == ",":
                parser.pos += 1
                body.append(parser.atom())
        if parser.peek() == ".":
            parser.pos += 1
        if parser.peek() is not None:
            extra = parser.tokens[parser.pos][1]
            if not body:
                raise RuleSyntaxError(
                    f"missing ':-' before {extra!r} in a non-fact line", line_no
                )
            raise RuleSyntaxError(f"unexpected trailing {extra!r}", line_no)
    except ValueError as e:
        raise RuleSyntaxError(str(e), line_no) from None

    if not body and head.variables:
        names = ",".join(sorted(t.name for t in head.variables))
        raise RuleSyntaxError(
            f"non-fact line is missing ':-' (head contains variables {names})",
            line_no,
        )

    if arities is not None:
        for a in [head, *body]:
            known = arities.setdefault(a.predicate.name, a.predicate.arity)
            if known != a.predicate.arity:
                raise RuleSyntaxError(
                    f"arity mismatch for predicate '{a.predicate.name}': "
                    f"{a.predicate.arity} here vs {known} earlier",
                    line_no,
                )

    try:
        return Rule(head, tuple(body), weight)
    except ValueError as e:
        # Range restriction failures commonly stem from lowercase "variables".
        raise RuleSyntaxError(
            f"{e} (lowercase names are constants; variables must be capitalized)",
            line_no,
        ) from None


def parse_program(text: str) -> Program:
    """Parse rule text, one rule per line.

    Blank lines and lines starting with ``%`` are ignored; ``%`` also starts
    a trailing comment. Raises :class:`RuleSyntaxError` with a line number on
    malformed rules, predicate arity drift, or duplicate rules.
    """
    rules: list[Rule] = []
    arities: dict[str, int] = {}
    seen: dict[tuple, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        rule = parse_rule(line, line_no, arities)
        key = _alpha_key(rule)
        if key in seen:
            raise RuleSyntaxError(
                f"duplicate rule (same as line {seen[key]})", line_no
            )
        seen[key] = line_no
        rules.append(rule)
    return Program(tuple(rules))


def render_rule(rule: Rule) -> str:
    head = str(rule.head)
    if rule.body:
        text = f"{head}:-{','.join(str(a) for a in rule.body)}."
    else:
        text = f"{head}."
    if rule.weight != 1.0:
        text = f"{rule.weight!r}: {text}"
    return text


def render_program(program: Program) -> str:
    """Render one rule per line; ``parse_program`` inverts this exactly."""
    return "\n".join(render_rule(r) for r in program.rules)
