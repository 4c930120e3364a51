"""Grounding: universe restriction, joins, and the reasoning graph."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deixis.grounding import (
    UniverseTooLarge,
    _plan,
    _shape,
    build_reasoning_graph,
    ground_program,
    grounding_universe,
)
from deixis.logic import Atom, FactSet, Predicate, Program, Rule, Term, atom, parse_program
from deixis.reasoner import ReasonerConfig, forward

from oracles import boolean_closure, oracle_ground

PROGRAM_1 = (
    "cond1(X):-on(X,Y),type(Y,boat).\n"
    "cond2(X):-holding(X,Y),type(Y,umbrella).\n"
    "target(X):-cond1(X),cond2(X).\n"
)


def boat_scene_facts() -> FactSet:
    return FactSet(
        [
            atom("on", "obj1", "obj2"),
            atom("holding", "obj1", "obj3"),
            atom("type", "obj1", "man"),
            atom("type", "obj2", "boat"),
            atom("type", "obj3", "umbrella"),
        ]
    )


def test_universe_contents():
    program = parse_program(PROGRAM_1)
    universe = {t.name for t in grounding_universe(program, boat_scene_facts())}
    # First-argument constants plus object-pattern constants; attribute
    # constants like "boat" are never bindable.
    assert universe == {"obj1", "obj2", "obj3"}


def test_universe_picks_object_constants_from_program():
    program = parse_program("target(X):-on(X,obj9).")
    universe = {t.name for t in grounding_universe(program, FactSet())}
    assert universe == {"obj9"}


def test_variables_never_bind_attribute_constants():
    # X in the body could only bind to "boat", which is not in the universe.
    program = parse_program("mark(X):-type(obj1,X).")
    facts = FactSet([atom("type", "obj1", "boat")])
    assert ground_program(program, facts) == []


def test_ground_program_boat_scene():
    program = parse_program(PROGRAM_1)
    ground = ground_program(program, boat_scene_facts())
    heads = {str(g.head) for g in ground}
    assert heads == {"cond1(obj1)", "cond2(obj1)", "target(obj1)"}
    # cond1 and cond2 never hold for obj2 or obj3, so no target instance
    # is built for them.
    assert "target(obj2)" not in heads and "target(obj3)" not in heads
    by_rule = {}
    for g in ground:
        by_rule.setdefault(g.rule_index, set()).add(str(g.head))
    assert by_rule[0] == {"cond1(obj1)"}
    assert by_rule[1] == {"cond2(obj1)"}
    assert by_rule[2] == {"target(obj1)"}


def test_recursive_rules_reach_their_fixpoint():
    program = parse_program(
        "path(X,Y):-link(X,Y).\n"
        "path(X,Z):-link(X,Y),path(Y,Z).\n"
    )
    facts = FactSet(
        [atom("link", f"obj{i}", f"obj{i + 1}") for i in range(1, 4)]
    )
    heads = {str(g.head) for g in ground_program(program, facts)}
    assert heads == {
        "path(obj1,obj2)", "path(obj2,obj3)", "path(obj3,obj4)",
        "path(obj1,obj3)", "path(obj2,obj4)", "path(obj1,obj4)",
    }


def test_mutually_recursive_rules_reach_their_fixpoint():
    # even/odd form one recursive stratum with no rule that calls itself.
    program = parse_program(
        "even(X):-zero(X).\n"
        "odd(Y):-succ(X,Y),even(X).\n"
        "even(Y):-succ(X,Y),odd(X).\n"
    )
    facts = FactSet(
        [atom("zero", "obj0")]
        + [atom("succ", f"obj{i}", f"obj{i + 1}") for i in range(3)]
    )
    heads = {str(g.head) for g in ground_program(program, facts)}
    assert heads == {"even(obj0)", "odd(obj1)", "even(obj2)", "odd(obj3)"}


def test_intensional_joins_follow_universe_order():
    # c/1 is derived in m's fact order (obj2, obj1), but the instances of
    # rule 1 bind X in universe order (obj1, obj2), the order in which the
    # soft OR over d(obj1) sums its conjunctions.
    program = parse_program("c(X):-m(X).\nd(obj1):-c(X).")
    facts = FactSet(
        [atom("t", "obj1"), atom("t", "obj2"), atom("m", "obj2"), atom("m", "obj1")]
    )
    ground = ground_program(program, facts)
    assert [str(g.body[0]) for g in ground if g.rule_index == 1] == [
        "c(obj1)", "c(obj2)",
    ]


def test_bodiless_ground_rule_allowed():
    program = parse_program("seed(obj1).\nmark(X):-seed(X).")
    ground = ground_program(program, FactSet([atom("type", "obj1", "man")]))
    bodiless = [g for g in ground if not g.body]
    assert len(bodiless) == 1
    assert str(bodiless[0].head) == "seed(obj1)"


def test_universe_cap_enforced():
    program = parse_program("mark(X):-link(X,Y),link(Y,Z),link(Z,W).")
    facts = FactSet(
        [atom("link", f"obj{i}", f"obj{j}") for i in range(9) for j in range(9)]
    )
    with pytest.raises(UniverseTooLarge):
        ground_program(program, facts, max_groundings=100)


def test_reasoning_graph_layout():
    program = parse_program(PROGRAM_1)
    facts = boat_scene_facts()
    graph = build_reasoning_graph(program, facts)
    assert graph.n_facts == len(facts)
    assert graph.atoms[: graph.n_facts] == tuple(facts)
    assert graph.n_rules == 3
    assert graph.n_conj == len(ground_program(program, facts))
    assert graph.body_counts.sum() == graph.body_atoms.size
    assert graph.conj_head.shape == (graph.n_conj,)
    assert np.all(graph.conj_rule < graph.n_rules)
    # Every head is an updated atom and vice versa.
    assert set(graph.conj_head) == set(graph.updated_atoms)


def test_graph_carries_read_only_rule_weights():
    program = parse_program("0.25: cond1(X):-on(X,Y).\ntarget(X):-cond1(X).\n")
    graph = build_reasoning_graph(program, FactSet([atom("on", "obj1", "obj2")]))
    assert graph.weights.tolist() == [0.25, 1.0]
    assert graph.weights.dtype == np.float64
    with pytest.raises(ValueError):
        graph.weights[0] = 0.5
    with pytest.raises(ValueError):
        graph.weights += 1.0
    assert graph.weights.tolist() == [0.25, 1.0]


def test_recorded_names_come_before_the_facts_own():
    program = parse_program("cond1(X):-near(X,Y).\ntarget(X):-cond1(X),on(X,obj9).")
    facts = FactSet([atom("on", "obj2", "obj1")])
    facts.leads, facts.later = ("obj1", "obj2"), ("obj3", "obj1")
    names = [t.name for t in grounding_universe(program, facts)]
    assert names == ["obj1", "obj2", "obj3", "obj9"]
    # A fact added later widens the universe as it would the full facts:
    # its first argument after every recorded one, its others after theirs.
    facts.add(atom("near", "obj5", "obj4"))
    names = [t.name for t in grounding_universe(program, facts)]
    assert names == ["obj1", "obj2", "obj5", "obj3", "obj4", "obj9"]


def test_forward_keeps_fact_values_when_no_rule_derives_a_fact():
    # The fact values fill the graph's first n_facts atom nodes, in fact
    # order; no rule head is a fact here, so forward leaves them as given.
    program = parse_program(PROGRAM_1)
    facts = boat_scene_facts()
    graph = build_reasoning_graph(program, facts)
    assert graph.atoms[: graph.n_facts] == tuple(facts)
    values = np.linspace(0.1, 0.9, len(facts))
    v = forward(graph, values, graph.weights, ReasonerConfig(steps=3))
    assert v.shape == (graph.n_atoms,)
    assert np.array_equal(v[: graph.n_facts], values)


def test_ground_rule_head_can_be_existing_fact():
    # Deriving an atom that is also an input fact must reuse its node.
    program = parse_program("on(X,Y):-above(X,Y).")
    facts = FactSet([atom("on", "obj1", "obj2"), atom("above", "obj1", "obj2")])
    graph = build_reasoning_graph(program, facts)
    assert graph.n_atoms == 2
    assert graph.updated_atoms.tolist() == [0]


def test_debug_dict_round_trips_through_json():
    program = parse_program(PROGRAM_1)
    graph = build_reasoning_graph(program, boat_scene_facts())
    dump = json.loads(json.dumps(graph.to_debug_dict()))
    assert dump["n_facts"] == graph.n_facts
    assert len(dump["atoms"]) == graph.n_atoms
    assert len(dump["conjunctions"]) == graph.n_conj
    for conj in dump["conjunctions"]:
        assert 0 <= conj["head"] < graph.n_atoms
        assert 0 <= conj["rule_index"] < graph.n_rules
        assert all(0 <= b < graph.n_atoms for b in conj["body"])
    assert "atoms" in repr(graph) or "ReasoningGraph" in repr(graph)


_PREDICATES = (
    Predicate("p", 1), Predicate("q", 2), Predicate("r", 1), Predicate("s", 2),
)
_VARIABLES = (Term("X"), Term("Y"), Term("Z"))


@st.composite
def programs_and_facts(draw):
    """A random program over p/1, q/2, r/1, s/2 (recursion included) and
    facts over up to five objects plus the attribute constant ``boat``,
    which facts never put first, so it stays outside the universe."""
    objects = [Term(f"obj{i}") for i in range(1, draw(st.integers(1, 5)) + 1)]
    const = st.sampled_from(objects + [Term("boat")])
    pred = st.sampled_from(_PREDICATES)
    facts = FactSet()
    for p in draw(st.lists(pred, min_size=1, max_size=8)):
        args = (draw(st.sampled_from(objects)),)
        facts.add(Atom(p, args + tuple(draw(const) for _ in range(p.arity - 1))))

    term = st.one_of(st.sampled_from(_VARIABLES), const)
    rules: list[Rule] = []
    for _ in range(draw(st.integers(1, 4))):
        body = tuple(
            Atom(p, tuple(draw(term) for _ in range(p.arity)))
            for p in draw(st.lists(pred, min_size=0, max_size=3))
        )
        body_vars = sorted({t for a in body for t in a.args if t.is_variable})
        head_term = st.sampled_from(body_vars) if body_vars else const
        head_pred = draw(pred)
        head = Atom(
            head_pred, tuple(draw(head_term) for _ in range(head_pred.arity))
        )
        candidate = Rule(head, body)
        try:
            Program(tuple(rules) + (candidate,))
        except ValueError:
            continue  # alpha-equivalent to an earlier rule
        rules.append(candidate)
    return Program(tuple(rules)), facts


@settings(max_examples=300, deadline=None)
@given(programs_and_facts())
def test_ground_program_matches_reference_grounder(case):
    program, facts = case
    got = [(g.rule_index, g.head, g.body) for g in ground_program(program, facts)]
    assert len(got) == len(set(got))
    assert set(got) == oracle_ground(program, facts)
    assert [i for i, _, _ in got] == sorted(i for i, _, _ in got)


@settings(max_examples=150, deadline=None)
@given(
    programs_and_facts(),
    st.floats(0.01, 0.2),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
def test_underivable_atoms_score_zero(case, gamma, steps, seed):
    program, facts = case
    rng = np.random.default_rng(seed)
    graph = build_reasoning_graph(program, facts)
    v = forward(
        graph,
        rng.uniform(0.0, 1.0, len(facts)),
        rng.uniform(0.0, 1.0, len(program)),
        ReasonerConfig(gamma=gamma, steps=steps),
    )
    closure = boolean_closure(program, list(facts))
    for i, a in enumerate(graph.atoms):
        if a not in closure:
            assert v[i] == 0.0, a


_CONSTANT_NAMES = ("obj1", "obj2", "obj3", "obj4", "obj5", "boat")


@settings(max_examples=200, deadline=None)
@given(
    programs_and_facts(),
    st.permutations([p.name for p in _PREDICATES]),
    st.permutations(_CONSTANT_NAMES + ("cyan",)),
)
def test_programs_of_one_shape_share_a_plan(case, names, constants):
    """A program renamed by bijections on predicate names (facts renamed
    alike) and on constants (facts kept) has the same shape, so it grounds
    through the plan compiled for the first; it must still ground exactly
    as the reference grounder does, and as a freshly compiled plan does."""
    program, facts = case
    pred_map = dict(zip((p.name for p in _PREDICATES), names))
    const_map = dict(zip(_CONSTANT_NAMES, constants))

    def rename(a: Atom, constants_too: bool) -> Atom:
        return Atom(
            Predicate(pred_map[a.predicate.name], a.predicate.arity),
            tuple(
                Term(const_map[t.name]) if constants_too and t.is_constant else t
                for t in a.args
            ),
        )

    renamed = Program(tuple(
        Rule(rename(r.head, True), tuple(rename(b, True) for b in r.body), r.weight)
        for r in program.rules
    ))
    renamed_facts = FactSet(rename(f, False) for f in facts)
    assert _shape(renamed)[0] == _shape(program)[0]

    _plan.cache_clear()
    first = ground_program(program, facts)
    hit = ground_program(renamed, renamed_facts)
    assert (_plan.cache_info().misses, _plan.cache_info().hits) == (1, 1)
    _plan.cache_clear()
    assert ground_program(renamed, renamed_facts) == hit

    for prog, fs, got in ((program, facts, first), (renamed, renamed_facts, hit)):
        instances = [(g.rule_index, g.head, g.body) for g in got]
        assert len(instances) == len(set(instances))
        assert set(instances) == oracle_ground(prog, fs)


def test_shape_plan_covers_recursion_repeats_and_bound_constants():
    # One shape, two namings: a recursive rule, a repeated variable and a
    # constant at a bound position.
    text = (
        "{path}(X,Y):-{link}(X,Y).\n"
        "{path}(X,Z):-{link}(X,Y),{path}(Y,Z).\n"
        "{loop}(X):-{link}(X,X).\n"
        "{hit}(X):-{path}(X,{end}).\n"
    )
    facts = FactSet(
        [atom("link", "obj1", "obj2"), atom("link", "obj2", "obj3"),
         atom("link", "obj3", "obj3"), atom("edge", "obj3", "obj1"),
         atom("edge", "obj1", "obj1")]
    )
    first = parse_program(text.format(
        path="path", link="link", loop="loop", hit="hit", end="obj3"))
    second = parse_program(text.format(
        path="reach", link="edge", loop="self", hit="goal", end="obj1"))
    assert _shape(first)[0] == _shape(second)[0]
    _plan.cache_clear()
    for program in (first, second):
        got = {(g.rule_index, g.head, g.body) for g in ground_program(program, facts)}
        assert got == oracle_ground(program, facts)
    assert (_plan.cache_info().misses, _plan.cache_info().hits) == (1, 1)
    heads = {str(g.head) for g in ground_program(second, facts)}
    assert heads == {
        "reach(obj3,obj1)", "reach(obj1,obj1)", "self(obj1)", "goal(obj3)", "goal(obj1)",
    }


@settings(max_examples=150, deadline=None)
@given(programs_and_facts())
def test_reasoning_graph_index_arrays_match_numpy_reference(case):
    """The index arrays, built in plain lists, equal what the numpy
    segment operations give from the heads and body counts."""
    program, facts = case
    graph = build_reasoning_graph(program, facts)
    counts = graph.body_counts
    starts = np.zeros(graph.n_conj, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    reduce_starts = starts.copy()
    reduce_starts[counts == 0] = graph.body_atoms.size
    order = np.argsort(graph.conj_head, kind="stable")
    heads = graph.conj_head[order]
    boundary = np.flatnonzero(np.diff(heads, prepend=-1))
    expected = {
        "body_starts": starts,
        "slot_conj": np.repeat(np.arange(graph.n_conj), counts),
        "body_reduce_starts": reduce_starts,
        "grouped_conj": order,
        "updated_atoms": heads[boundary],
        "group_starts": boundary,
        "group_sizes": np.diff(np.append(boundary, graph.n_conj)),
    }
    for name, want in expected.items():
        got = getattr(graph, name)
        assert got.dtype == np.int64, name
        assert np.array_equal(got, want), name
