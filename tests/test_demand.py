"""Demand-driven facts: building only the facts a program can read, with the
universe taken from the argument names the cut facts record and the
vocabularies read off the scene, changes no prediction.

The references in ``oracles`` derive the universe and the vocabularies
from the full fact set, as the pipeline did before it cut the facts down.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from deixis.grounding import (
    build_reasoning_graph,
    ground_program,
    grounding_universe,
)
from deixis.logic import (
    Atom,
    FactSet,
    Predicate,
    Program,
    Rule,
    Term,
    parse_program,
)
from deixis.reasoner import ReasonerConfig, extract_targets, forward
from deixis.scene import (
    Box,
    SceneGraph,
    SceneObject,
    SceneRelation,
    scene_graph_to_facts,
)
from deixis.training import make_merge_rules, mixture_facts, specialize_program
from deixis.unify import EmbeddingStore, scene_vocabularies, unify_program

from oracles import reference_universe, reference_vocabularies

# Raw names, including ones that canonicalise to object constants
# ("Obj 3" -> obj3), to structural words, or to nothing.
OBJECT_NAMES = (
    "man", "boat", "Umbrella", "white line", "Obj 3", "obj1", "sgg2",
    "person", "type", "cond1", "!!", "",
)
RELATION_NAMES = (
    "on", "near", "holding", "on", "near", "holding", "parked on", "On",
    "type", "cond1", "target", "pos2", "", "  ",
)
CONFIDENCES = st.sampled_from((1.0, 0.75, 0.5, 0.25, 0.0)) | st.floats(0.0, 1.0)

# Program vocabulary over canonical names, plus words no scene uses.
BINARY = (
    "on", "near", "holding", "parked_on", "type", "type", "type", "cond1",
    "beside",
)
CONSTANTS = (
    "man", "boat", "umbrella", "whiteline", "person", "barge", "obj1",
    "obj3", "obj9", "sgg1", "sgg2",
)
VARIABLES = ("X", "Y", "Z")
ATTRIBUTES = ("man", "boat", "umbrella", "person", "obj3")


@st.composite
def scene_graphs(draw):
    n = draw(st.integers(0, 6))
    ids = draw(st.lists(st.integers(1, 60), min_size=n, max_size=n, unique=True))
    objects = tuple(
        SceneObject(
            object_id,
            tuple(draw(st.lists(st.sampled_from(OBJECT_NAMES), max_size=3))),
            Box(12.0 * k, 3.0 * k, 10.0, 8.0 + k),
        )
        for k, object_id in enumerate(ids)
    )
    relations = ()
    if ids:
        endpoint = st.sampled_from(ids)
        relations = tuple(
            SceneRelation(
                draw(endpoint), draw(st.sampled_from(RELATION_NAMES)),
                draw(endpoint), draw(CONFIDENCES),
            )
            for _ in range(draw(st.integers(0, 10)))
        )
    return SceneGraph(draw(st.integers(0, 99)), objects, relations)


def _binary_atom(draw, first: str) -> Atom:
    """A binary body atom whose first argument is ``first``; the second is
    a variable or a constant, so ``type(Y,Z)`` and ``type(Y,boat)`` both
    occur."""
    term = st.sampled_from(VARIABLES) | st.sampled_from(CONSTANTS)
    return Atom(
        Predicate(draw(st.sampled_from(BINARY)), 2),
        (Term(first), Term(draw(term))),
    )


@st.composite
def programs(draw):
    """condK(X) rules over scene predicates, an optional rule deriving a
    scene predicate (so facts of an intensional predicate are read too),
    and target/1 rules over the conditions."""
    rules = []
    n_conds = draw(st.integers(1, 3))
    for k in range(1, n_conds + 1):
        if draw(st.booleans()):
            # The template form: relation(X,Y),type(Y,attribute).
            body = [
                Atom(
                    Predicate(draw(st.sampled_from(("on", "near", "holding"))), 2),
                    (Term("X"), Term("Y")),
                ),
                Atom(
                    Predicate("type", 2),
                    (Term("Y"), Term(draw(st.sampled_from(ATTRIBUTES)))),
                ),
            ]
        else:
            first = draw(st.sampled_from(("X", "obj1", "obj3")))
            body = [_binary_atom(draw, first)]
            if first != "X":
                body.append(_binary_atom(draw, "X"))
            for _ in range(draw(st.integers(0, 2))):
                body.append(_binary_atom(draw, draw(st.sampled_from(VARIABLES))))
        rules.append(Rule(Atom(Predicate(f"cond{k}", 1), (Term("X"),)), tuple(body)))
    if draw(st.booleans()):
        head, source = draw(
            st.lists(st.sampled_from(BINARY), min_size=2, max_size=2, unique=True)
        )
        args = (Term("X"), Term("Y"))
        rules.append(
            Rule(Atom(Predicate(head, 2), args), (Atom(Predicate(source, 2), args),))
        )
    target = Predicate("target", 1)
    cond_atoms = [
        Atom(Predicate(f"cond{k}", 1), (Term("X"),)) for k in range(1, n_conds + 1)
    ]
    conds = draw(st.lists(st.sampled_from(cond_atoms), min_size=1, max_size=3))
    rules.append(Rule(Atom(target, (Term("X"),)), tuple(dict.fromkeys(conds))))
    if n_conds > 1 and draw(st.booleans()):
        rules.append(Rule(Atom(target, (Term("X"),)), (cond_atoms[-1],)))
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=len(rules),
                            max_size=len(rules)))
    unique = []
    for rule, weight in zip(rules, weights):
        candidate = Rule(rule.head, rule.body, weight)
        try:
            Program(tuple(unique) + (candidate,))
        except ValueError:
            continue  # alpha-equivalent to an earlier rule
        unique.append(candidate)
    return Program(tuple(unique))


CONFIG = st.builds(
    ReasonerConfig,
    gamma=st.sampled_from((0.01, 0.05, 0.1)),
    steps=st.integers(1, 4),
)


def _names(universe):
    return tuple(t.name for t in universe)


def _outcome(graph, values, sg, cfg):
    """Ground instances and (object, score, box, fallback) predictions."""
    v = forward(graph, values, graph.weights, cfg)
    predictions = extract_targets(
        graph, v, sg, cfg, rng=np.random.default_rng(cfg.rng_seed)
    )
    instances = [
        (
            int(graph.conj_rule[i]),
            str(graph.atoms[graph.conj_head[i]]),
            tuple(
                str(graph.atoms[b])
                for b in graph.body_atoms[
                    graph.body_starts[i]: graph.body_starts[i] + graph.body_counts[i]
                ]
            ),
        )
        for i in range(graph.n_conj)
    ]
    return instances, [
        (p.object_constant.name, p.object_id, p.score, p.box, p.fallback)
        for p in predictions
    ]


def _demand_and_full(sg, program, cfg):
    facts, values = scene_graph_to_facts(sg, program)
    demand = build_reasoning_graph(program, facts)
    full_facts, full_values = scene_graph_to_facts(sg)
    # A copy records no names: its universe comes from its own facts.
    full = build_reasoning_graph(program, FactSet(full_facts))
    assert len(facts) <= len(full_facts)
    assert _names(grounding_universe(program, facts)) == reference_universe(
        program, full_facts
    )
    return (
        _outcome(demand, values, sg, cfg),
        _outcome(full, full_values, sg, cfg),
    )


@settings(max_examples=200, deadline=None)
@given(scene_graphs(), programs(), CONFIG)
def test_demand_driven_predictions_equal_full_fact_predictions(sg, program, cfg):
    demand, full = _demand_and_full(sg, program, cfg)
    assert demand == full


@settings(max_examples=200, deadline=None)
@given(scene_graphs(), programs())
def test_cut_fact_universe_equals_the_full_fact_universe(sg, program):
    full_facts, _ = scene_graph_to_facts(sg)
    expected = reference_universe(program, full_facts)
    facts, _ = scene_graph_to_facts(sg, program)
    for fact_set in (facts, full_facts, FactSet(full_facts)):
        assert _names(grounding_universe(program, fact_set)) == expected


def test_cut_facts_ground_like_the_full_facts():
    # Cut to its on facts, this scene lists obj2 first; the full facts list
    # obj1 first, which sets the order of the intensional join.
    sg = SceneGraph(
        1,
        (
            SceneObject(1, ("man",), Box(0, 0, 5, 5)),
            SceneObject(2, ("boat",), Box(5, 0, 5, 5)),
        ),
        (
            SceneRelation(1, "near", 2),
            SceneRelation(2, "on", 1),
            SceneRelation(1, "on", 2),
        ),
    )
    program = parse_program("cond1(X):-on(X,Y).\ntarget(X):-cond1(X).\n")
    facts, _ = scene_graph_to_facts(sg, program)
    full_facts, _ = scene_graph_to_facts(sg)
    assert [str(f) for f in facts] == ["on(obj2,obj1)", "on(obj1,obj2)"]
    cut = ground_program(program, facts)
    assert cut == ground_program(program, FactSet(full_facts))
    assert [str(g.head) for g in cut if g.rule_index == 1] == [
        "target(obj1)", "target(obj2)",
    ]


@settings(max_examples=200, deadline=None)
@given(scene_graphs())
def test_scene_vocabularies_equal_the_full_fact_vocabularies(sg):
    full_facts, _ = scene_graph_to_facts(sg)
    relations, attributes = scene_vocabularies(sg)
    assert (set(relations), set(attributes)) == reference_vocabularies(full_facts)


def _store() -> EmbeddingStore:
    rng = np.random.default_rng(7)
    store = EmbeddingStore(dim=6)
    for word in (*CONSTANTS, *BINARY, "parkedon", "whiteline", "carrying"):
        store.add(word, rng.normal(size=6))
    return store


STORE = _store()


@settings(max_examples=150, deadline=None)
@given(scene_graphs(), programs(), CONFIG)
def test_unified_programs_keep_their_predictions(sg, program, cfg):
    full_facts, _ = scene_graph_to_facts(sg)
    unified, report = unify_program(program, scene_vocabularies(sg), STORE)
    reference, reference_report = unify_program(
        program, reference_vocabularies(full_facts), STORE
    )
    assert unified == reference and report == reference_report
    demand, full = _demand_and_full(sg, unified, cfg)
    assert demand == full


@settings(max_examples=150, deadline=None)
@given(scene_graphs(), scene_graphs(), programs(), CONFIG)
def test_mixture_demand_matches_full_facts(first, second, program, cfg):
    sources = ("ground_truth", "corrupted")
    graphs = {"ground_truth": first, "corrupted": second}
    combined = Program(
        specialize_program(program).rules + make_merge_rules(len(sources))
    )
    full_facts, full_values = mixture_facts(sources, graphs)
    facts, values = mixture_facts(sources, graphs, combined)
    expected = reference_universe(combined, full_facts)
    for fact_set in (facts, full_facts, FactSet(full_facts)):
        assert _names(grounding_universe(combined, fact_set)) == expected

    assert set(facts) <= set(full_facts)
    demand = build_reasoning_graph(combined, facts)
    full = build_reasoning_graph(combined, FactSet(full_facts))
    assert _outcome(demand, values, first, cfg) == _outcome(
        full, full_values, first, cfg
    )


def test_demand_keeps_only_readable_facts():
    sg = SceneGraph(
        1,
        (
            SceneObject(1, ("man",), Box(0, 0, 5, 5)),
            SceneObject(2, ("umbrella", "Obj 7"), Box(5, 0, 5, 5)),
            SceneObject(3, (), Box(10, 0, 5, 5)),
        ),
        (
            SceneRelation(1, "holding", 2, 0.5),
            SceneRelation(1, "near", 3),
            SceneRelation(1, "holding", 2, 0.75),
        ),
    )
    program = parse_program(
        "cond1(X):-holding(X,Y),type(Y,boat).\n"
        "cond2(X):-holding(X,Y),type(Y,umbrella).\n"
        "target(X):-cond2(X).\n"
    )
    facts, values = scene_graph_to_facts(sg, program)
    assert [str(f) for f in facts] == ["holding(obj1,obj2)", "type(obj2,umbrella)"]
    assert values.tolist() == [0.75, 1.0]
    # First arguments, then object-like names elsewhere: obj3 only ever
    # comes second, and obj7 is the name "Obj 7".
    universe = grounding_universe(program, facts)
    assert [t.name for t in universe] == ["obj1", "obj2", "obj3", "obj7"]
    assert len(ground_program(program, facts)) == 2
