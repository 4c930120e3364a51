"""Grounding: joins in store order, the binding budget, and the reasoning
graph."""

import gc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deixis import grounding
from deixis.grounding import (
    GroundingTooLarge,
    ReasoningGraph,
    _plan,
    _shape,
    build_reasoning_graph,
    ground_program,
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


def test_variables_bind_attribute_constants():
    # C binds to the attribute each type fact holds, as any constant.
    program = parse_program("same(X,Y):-type(X,C),type(Y,C).\nmark(X):-type(obj1,X).")
    facts = FactSet(
        [atom("type", "obj1", "boat"), atom("type", "obj2", "boat"),
         atom("type", "obj3", "man")]
    )
    assert [str(g.head) for g in ground_program(program, facts)] == [
        "same(obj1,obj1)", "same(obj1,obj2)", "same(obj2,obj1)",
        "same(obj2,obj2)", "same(obj3,obj3)", "mark(boat)",
    ]


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


def test_joins_follow_store_order():
    # c/1 is derived in m's fact order (obj2, obj1), and the instances of
    # rule 1 take c's atoms in that order, the order in which the soft OR
    # over d(obj1) sums its conjunctions. A derived head that is also a
    # fact keeps the fact's place: c(obj3) comes first.
    program = parse_program("c(X):-m(X).\nd(obj1):-c(X).")
    facts = FactSet(
        [atom("c", "obj3"), atom("m", "obj2"), atom("m", "obj1"),
         atom("m", "obj3")]
    )
    ground = ground_program(program, facts)
    assert [str(g.body[0]) for g in ground] == [
        "m(obj2)", "m(obj1)", "m(obj3)", "c(obj3)", "c(obj2)", "c(obj1)",
    ]


def test_bodiless_ground_rule_allowed():
    program = parse_program("seed(obj1).\nmark(X):-seed(X).")
    ground = ground_program(program, FactSet([atom("type", "obj1", "man")]))
    bodiless = [g for g in ground if not g.body]
    assert len(bodiless) == 1
    assert str(bodiless[0].head) == "seed(obj1)"


def test_binding_budget_enforced(monkeypatch):
    program = parse_program("mark(X):-link(X,Y),link(Y,Z),link(Z,W).")
    facts = FactSet(
        [atom("link", f"obj{i}", f"obj{j}") for i in range(9) for j in range(9)]
    )
    monkeypatch.setattr(grounding, "BINDING_BUDGET", 100)
    with pytest.raises(GroundingTooLarge) as err:
        ground_program(program, facts)
    assert str(err.value) == (
        "rule 0 (mark(X):-link(X,Y),link(Y,Z),link(Z,W).): "
        "grounding passed its budget of 100 bindings"
    )


@pytest.mark.parametrize("enabled", [True, False])
def test_grounding_leaves_the_collector_as_it_found_it(monkeypatch, enabled):
    program = parse_program("mark(X):-link(X,Y),link(Y,Z).")
    facts = FactSet(
        [atom("link", f"obj{i}", f"obj{j}") for i in range(4) for j in range(4)]
    )
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(ground_program(program, facts)) == 64
        assert gc.isenabled() == enabled
        monkeypatch.setattr(grounding, "BINDING_BUDGET", 10)
        with pytest.raises(GroundingTooLarge):
            ground_program(program, facts)
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


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
    assert repr(graph) == "ReasoningGraph(8 atoms, 3 conjunctions, 5 facts)"


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


_PREDICATES = (
    Predicate("p", 1), Predicate("q", 2), Predicate("r", 1), Predicate("s", 2),
)
_VARIABLES = (Term("X"), Term("Y"), Term("Z"))


@st.composite
def programs_and_facts(draw):
    """A random program over p/1, q/2, r/1, s/2 (recursion included) and
    facts over up to five objects plus the attribute constant ``boat``,
    which facts never put first."""
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


def _ground_within(program, facts, budget):
    """The instances grounding builds under ``budget`` bindings, as a set,
    or None when it raises GroundingTooLarge."""
    with mock.patch.object(grounding, "BINDING_BUDGET", budget):
        try:
            got = ground_program(program, facts)
        except GroundingTooLarge:
            return None
    return {(g.rule_index, g.head, g.body) for g in got}


def test_budget_counts_the_bindings_of_every_re_join():
    # Each join of a rule counts its empty binding, one per link, and one
    # per path that extends a link. Rounds 1-4 of the recursive stratum
    # build 4 + 4, 4 + 6, 4 + 7 and 4 + 7 bindings: 40 in all.
    program = parse_program(
        "path(X,Y):-link(X,Y).\n"
        "path(X,Z):-link(X,Y),path(Y,Z).\n"
    )
    facts = FactSet(
        [atom("link", f"obj{i}", f"obj{i + 1}") for i in range(1, 4)]
    )
    assert _ground_within(program, facts, 39) is None
    assert _ground_within(program, facts, 40) == oracle_ground(program, facts)


@settings(max_examples=300, deadline=None)
@given(programs_and_facts(), st.integers(0, 40), st.integers(0, 40))
def test_binding_budget_bounds_grounding(case, low, extra):
    """Under any budget, grounding either equals the reference grounder
    or raises; it raises whenever the budget is below the number of
    instances, and a budget that suffices keeps sufficing when raised."""
    program, facts = case
    expected = oracle_ground(program, facts)
    budgets = (low, low + extra)
    outcomes = [_ground_within(program, facts, budget) for budget in budgets]
    for budget, got in zip(budgets, outcomes):
        if got is not None:
            assert got == expected
        if budget < len(expected):
            assert got is None
    if outcomes[0] is not None:
        assert outcomes[1] is not None


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
        "body_gather": np.append(graph.body_atoms, graph.n_atoms),
        "grouped_conj": order,
        "updated_atoms": heads[boundary],
        "group_starts": boundary,
        "group_of": np.repeat(
            np.arange(boundary.size), np.diff(np.append(boundary, graph.n_conj))
        ),
    }
    for name, want in expected.items():
        got = getattr(graph, name)
        assert got.dtype == np.int64, name
        assert np.array_equal(got, want), name


def assert_same_graph(got, want):
    """Every field of two reasoning graphs is equal, arrays under
    np.array_equal and with their dtypes."""
    for name in (
        "atoms", "n_facts", "n_atoms", "n_conj", "n_rules", "defines_target",
        "depth", "target_atoms",
    ):
        assert getattr(got, name) == getattr(want, name), name
    for name in (
        "conj_head", "conj_rule", "body_counts", "body_gather", "body_atoms",
        "body_starts", "slot_conj", "body_reduce_starts", "grouped_conj",
        "updated_atoms", "group_starts", "group_of", "weights",
    ):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert not got.weights.flags.writeable


@settings(max_examples=300, deadline=None)
@given(programs_and_facts(), st.data())
def test_the_core_and_the_cut_build_what_the_ground_rules_build(case, data):
    """A graph rebuilt through the core from its own arrays equals it, and
    a cut of any conjunctions equals the graph built from their ground
    rules over their body atoms, in first-use order, as facts; a cut in
    which a head feeds a selected conjunction raises. r/1 is renamed
    target/1, so graphs hold target atoms to renumber."""
    program, facts = case
    target = {Predicate("r", 1): Predicate("target", 1)}

    def rename(a: Atom) -> Atom:
        return Atom(target.get(a.predicate, a.predicate), a.args)

    program = Program(tuple(
        Rule(rename(r.head), tuple(map(rename, r.body)), r.weight)
        for r in program.rules
    ))
    facts = FactSet(map(rename, facts))
    ground = ground_program(program, facts)
    graph = build_reasoning_graph(program, facts)
    rebuilt = ReasoningGraph.__new__(ReasoningGraph)
    rebuilt._build(
        graph.atoms, graph.n_facts, graph.conj_head.tolist(),
        graph.conj_rule.tolist(), graph.body_atoms.tolist(),
        graph.body_counts.tolist(), graph.weights, graph.defines_target,
        graph.depth, graph.target_atoms,
    )
    assert_same_graph(rebuilt, graph)

    conj_ids = data.draw(
        st.lists(st.sampled_from(range(graph.n_conj)), min_size=1, unique=True)
        if graph.n_conj else st.just([])
    )
    rules = [ground[c] for c in conj_ids]
    body = list(dict.fromkeys(a for gr in rules for a in gr.body))
    if {gr.head for gr in rules} & set(body):
        with pytest.raises(ValueError, match="a body atom of the cut"):
            graph.cut(conj_ids)
        return
    cut, fact_ids = graph.cut(conj_ids)
    want = ReasoningGraph(
        rules, FactSet(body), graph.weights, graph.defines_target, depth=1
    )
    assert_same_graph(cut, want)
    assert fact_ids.dtype == np.int64
    assert [graph.atoms[i] for i in fact_ids] == body


def test_cut_refuses_a_head_that_feeds_the_cut():
    # cond1(obj1) heads conjunction 0 and is a body atom of conjunction 2,
    # so one round over the cut would not reach target(obj1).
    graph = build_reasoning_graph(parse_program(PROGRAM_1), boat_scene_facts())
    with pytest.raises(ValueError, match="conjunction 0 derives a body atom"):
        graph.cut([2, 0])
    cut, fact_ids = graph.cut([0, 1])
    assert repr(cut) == "ReasoningGraph(6 atoms, 2 conjunctions, 4 facts)"
    assert cut.depth == 1 and cut.target_atoms == ()
    assert [str(graph.atoms[i]) for i in fact_ids] == [
        "on(obj1,obj2)", "type(obj2,boat)", "holding(obj1,obj3)",
        "type(obj3,umbrella)",
    ]
