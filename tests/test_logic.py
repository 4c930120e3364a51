"""Terms, atoms, rules, parsing, and rendering round-trips."""

import pytest
from hypothesis import given, strategies as st

from deixis.logic import (
    Atom,
    FactSet,
    Predicate,
    Program,
    Rule,
    RuleSyntaxError,
    Term,
    atom,
    parse_program,
    parse_rule,
    render_program,
    render_rule,
)

PROGRAM_1 = (
    "cond1(X):-on(X,Y),type(Y,boat).\n"
    "cond2(X):-holding(X,Y),type(Y,umbrella).\n"
    "target(X):-cond1(X),cond2(X).\n"
)


def test_term_classification():
    assert Term("X").is_variable
    assert Term("boat").is_constant
    assert Term("obj12").is_constant
    assert not Term("boat").is_variable


def test_term_rejects_bad_names():
    with pytest.raises(ValueError):
        Term("")
    with pytest.raises(ValueError):
        Term("two words")


def test_atom_arity_checked():
    with pytest.raises(ValueError):
        Atom(Predicate("on", 2), (Term("X"),))


def test_rule_range_restriction():
    with pytest.raises(ValueError):
        Rule(head=atom("target", "X"), body=(atom("on", "Y", "Z"),))


@pytest.mark.parametrize("weight", [float("nan"), float("inf")])
def test_rule_rejects_non_finite_weight(weight):
    with pytest.raises(ValueError, match="non-finite"):
        Rule(head=atom("target", "X"), body=(atom("on", "X", "Y"),),
             weight=weight)


def test_rule_weight_is_plain_float():
    rule = parse_rule("0.5: target(X):-cond1(X).")
    assert type(rule.weight) is float
    assert rule.weight == 0.5


def test_parse_program_round_trip():
    program = parse_program(PROGRAM_1)
    assert len(program) == 3
    assert render_program(program) == PROGRAM_1.rstrip("\n")


def test_weighted_rule_round_trip():
    text = "0.25: target(X):-cond1(X)."
    rule = parse_rule(text)
    assert render_rule(rule) == text
    assert parse_rule(render_rule(rule)) == rule


def test_trailing_period_optional():
    with_period = parse_rule("target(X):-cond1(X).")
    without = parse_rule("target(X):-cond1(X)")
    assert with_period == without


def test_parse_reports_line_numbers():
    with pytest.raises(RuleSyntaxError) as err:
        parse_program("target(X):-cond1(X).\ncond1(X):-on(X,Y,.")
    assert err.value.line_no == 2


def test_arity_consistency_across_lines():
    with pytest.raises(RuleSyntaxError) as err:
        parse_program("cond1(X):-on(X,Y),type(Y,boat).\ntarget(X):-cond1(X,Y).")
    assert "arity" in str(err.value)


def test_program_rejects_alpha_equivalent_duplicates():
    r1 = parse_rule("cond1(X):-on(X,Y),type(Y,boat).")
    r2 = parse_rule("cond1(Z):-on(Z,W),type(W,boat).")
    with pytest.raises(ValueError):
        Program((r1, r2))


def test_program_predicate_partition():
    program = parse_program(PROGRAM_1)
    intensional = {p.name for p in program.intensional_predicates}
    assert intensional == {"cond1", "cond2", "target"}
    every = {p.name for p in program.predicates}
    assert {"on", "holding", "type"} <= every


def test_factset_preserves_order_and_dedupes():
    facts = FactSet()
    first = facts.add(atom("on", "obj1", "obj2"))
    second = facts.add(atom("type", "obj1", "man"))
    again = facts.add(atom("on", "obj1", "obj2"))
    assert (first, second, again) == (0, 1, 0)
    assert len(facts) == 2
    assert facts.position(atom("type", "obj1", "man")) == 1
    assert atom("on", "obj1", "obj2") in facts
    assert facts[0] == atom("on", "obj1", "obj2")


_NAMES = st.sampled_from(["p", "q", "r"])
_CONSTS = st.sampled_from(["a", "b", "c", "obj1"])
_VARS = st.sampled_from(["X", "Y", "Z"])


@st.composite
def rules(draw):
    body = []
    body_vars = set()
    for i in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(1, 2))
        args = []
        for _ in range(arity):
            if draw(st.booleans()):
                name = draw(_VARS)
                body_vars.add(name)
            else:
                name = draw(_CONSTS)
            args.append(name)
        # One predicate name per body slot keeps arities unambiguous.
        body.append(atom(f"{draw(_NAMES)}{i}", *args))
    head_pool = sorted(body_vars) or ["a"]
    head_args = [
        draw(st.sampled_from(head_pool)) for _ in range(draw(st.integers(1, 2)))
    ]
    weight = draw(st.sampled_from([1.0, 0.5, 0.25]))
    return Rule(atom("h", *head_args), tuple(body), weight=weight)


@given(rules())
def test_render_parse_round_trip(rule):
    again = parse_rule(render_rule(rule))
    assert again == rule
