"""Terms, atoms, rules, parsing, and rendering round-trips."""

import tracemalloc
from dataclasses import FrozenInstanceError, fields

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
from deixis.logic import _alpha_key, _unchecked
from deixis.rulegen import FormatError, validate_rules
from deixis.scene import Box, SceneGraph, SceneObject, SceneRelation

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


@pytest.mark.parametrize(
    "first, second",
    [
        ("cond1(X):-on(X,Y),type(Y,boat).", "cond1(A):-on(A,B),type(B,boat)."),
        ("p(X,Y):-q(X,Y).", "p(Y,X):-q(Y,X)."),
        ("p(X):-q(X,X).", "p(Y):-q(Y,Y)."),
        ("p(X):-q(X,obj1).", "p(Y):-q(Y,obj1)."),
    ],
)
def test_alpha_equivalent_rules_are_duplicates(first, second):
    with pytest.raises(ValueError, match="duplicate rule"):
        Program((parse_rule(first), parse_rule(second)))
    with pytest.raises(RuleSyntaxError, match="duplicate rule"):
        parse_program(f"{first}\n{second}")
    with pytest.raises(FormatError) as err:
        validate_rules(f"{first}\n{second}")
    assert "duplicate_rule" in err.value.categories


@pytest.mark.parametrize(
    "first, second",
    [
        # Differ only by a constant.
        ("cond1(X):-on(X,Y),type(Y,boat).", "cond1(X):-on(X,Y),type(Y,barge)."),
        # A constant against a variable, including a constant that looks
        # like a variable's number.
        ("p(X):-q(X,Y).", "p(X):-q(X,obj1)."),
        ("p(X):-q(X,Y).", "p(X):-q(X,1)."),
        ("p(X):-q(X,Y).", "p(X):-q(X,0)."),
        # A repeated variable against two variables, and swapped roles.
        ("p(X):-q(X,X).", "p(X):-q(X,Y)."),
        ("p(X,Y):-q(X,Y).", "p(X,Y):-q(Y,X)."),
        # A different predicate.
        ("p(X):-q(X).", "p(X):-r(X)."),
    ],
)
def test_rules_that_differ_beyond_renaming_are_kept(first, second):
    rules = (parse_rule(first), parse_rule(second))
    assert Program(rules).rules == rules
    assert parse_program(f"{first}\n{second}").rules == rules
    assert _alpha_key(rules[0]) != _alpha_key(rules[1])


def test_rules_whose_predicates_differ_in_arity_are_kept():
    rules = (
        Rule(atom("p", "X"), (atom("q", "X"),)),
        Rule(atom("p", "X"), (atom("q", "X", "X"),)),
    )
    assert Program(rules).rules == rules


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


def test_factset_rejects_non_ground_atoms():
    with pytest.raises(ValueError, match="non-ground"):
        FactSet().add(atom("on", "obj1", "X"))
    with pytest.raises(ValueError, match="non-ground"):
        FactSet([atom("type", "Y", "boat")])


def test_pooled_facts_keep_their_order():
    first = FactSet([atom("on", "obj1", "obj2", "sgg1")])
    second = FactSet(
        [atom("on", "obj2", "obj1", "sgg2"), atom("on", "obj1", "obj2", "sgg1")]
    )
    pooled = FactSet.pool([first, second])
    assert list(pooled) == [
        atom("on", "obj1", "obj2", "sgg1"), atom("on", "obj2", "obj1", "sgg2"),
    ]
    assert pooled.position(atom("on", "obj2", "obj1", "sgg2")) == 1
    assert len(FactSet.pool([])) == 0


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


def _checked_values():
    box = Box(1.0, 2.5, 3.0, 4.0)
    objects = (
        SceneObject(1, ("man",), box, ("man.n.01",)),
        SceneObject(2, ("boat",), Box(0.0, 0.0, 9.0, 9.0)),
    )
    relation = SceneRelation(1, "on", 2, 0.5)
    rule = parse_rule("cond1(X):-on(X,Y),type(Y,boat).")
    return [
        box, objects[0], relation, SceneGraph(3, objects, (relation,)),
        rule.body[0], rule, parse_program(PROGRAM_1),
    ]


@pytest.mark.parametrize(
    "checked", _checked_values(), ids=lambda value: type(value).__name__
)
def test_an_unchecked_instance_is_the_checked_one(checked):
    cls = type(checked)
    values = {f.name: getattr(checked, f.name) for f in fields(cls)}
    unchecked = _unchecked(cls)(**values)
    assert type(unchecked) is cls
    assert unchecked == checked and checked == unchecked
    assert hash(unchecked) == hash(checked)
    assert repr(unchecked) == repr(checked)
    assert str(unchecked) == str(checked)
    assert vars(unchecked) == vars(checked)
    assert list(vars(unchecked)) == list(vars(checked))
    name = fields(cls)[0].name
    with pytest.raises(FrozenInstanceError):
        setattr(unchecked, name, values[name])
    assert _unchecked(cls)(*values.values()) == checked


def test_the_unchecked_constructor_checks_nothing():
    with pytest.raises(ValueError):
        Box(-1.0, 0.0, 0.0, 0.0)
    assert _unchecked(Box)(-1.0, 0.0, 0.0, 0.0).w == 0.0
    with pytest.raises(ValueError):
        Atom(Predicate("on", 2), (Term("X"),))
    assert _unchecked(Atom)(Predicate("on", 2), (Term("X"),)).args == (Term("X"),)


def test_unchecked_boxes_take_no_more_memory_than_checked_ones():
    def traced(make) -> int:
        tracemalloc.start()
        try:
            boxes = [make(float(i), 1.0, 2.0, 3.0) for i in range(10_000)]
            assert len(boxes) == 10_000
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    checked, unchecked = traced(Box), traced(_unchecked(Box))
    assert unchecked <= 1.1 * checked
