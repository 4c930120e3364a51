"""Soft-logic forward pass, exact gradients, and target extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deixis.grounding import build_reasoning_graph
from deixis.logic import FactSet, atom, parse_program
from deixis.reasoner import (
    DimensionMismatch,
    NoTargetAtoms,
    ReasonerConfig,
    TapeMissing,
    backward,
    extract_targets,
    forward,
    softor,
)
from deixis.scene import Box, SceneGraph, SceneObject, SceneRelation

from oracles import finite_difference, oracle_softor

PROGRAM_1 = (
    "cond1(X):-on(X,Y),type(Y,boat).\n"
    "cond2(X):-holding(X,Y),type(Y,umbrella).\n"
    "target(X):-cond1(X),cond2(X).\n"
)


def boat_scene_setup():
    program = parse_program(PROGRAM_1)
    facts = FactSet(
        [
            atom("on", "obj1", "obj2"),
            atom("holding", "obj1", "obj3"),
            atom("type", "obj2", "boat"),
            atom("type", "obj3", "umbrella"),
        ]
    )
    graph = build_reasoning_graph(program, facts)
    weights = np.ones(3)
    return program, facts, graph, weights


def test_softor_closed_form():
    expected = 0.5 + 0.01 * math.log(2.0)
    assert abs(softor(np.array([0.5, 0.5]), 0.01) - expected) < 1e-12


def test_softor_single_input_exact():
    for value in (0.0, 0.25, 1.0):
        assert softor(np.array([value]), 0.01) == value


def test_softor_empty_rejected():
    with pytest.raises(ValueError):
        softor(np.array([]), 0.01)


@given(
    st.lists(st.floats(0, 1), min_size=1, max_size=6),
    st.sampled_from([0.01, 0.1, 0.5]),
)
def test_softor_bounds(values, gamma):
    xs = np.asarray(values)
    out = softor(xs, gamma)
    assert out >= xs.max() - 1e-12
    assert out <= xs.max() + gamma * math.log(len(values)) + 1e-12
    assert out == pytest.approx(oracle_softor(values, gamma), abs=1e-12)


def test_forward_two_rounds_derives_target():
    _, facts, graph, weights = boat_scene_setup()
    cfg = ReasonerConfig(gamma=0.01, steps=2)
    v = forward(graph, graph.initial_valuation(np.ones(len(facts))), weights, cfg)
    target = v[graph.atom_index[atom("target", "obj1")]]
    assert target > 0.99
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_forward_one_round_is_not_enough():
    # Conditions are derived in round one, target needs a second round.
    _, facts, graph, weights = boat_scene_setup()
    cfg = ReasonerConfig(gamma=0.01, steps=1)
    v = forward(graph, graph.initial_valuation(np.ones(len(facts))), weights, cfg)
    assert v[graph.atom_index[atom("target", "obj1")]] < 0.1
    assert v[graph.atom_index[atom("cond1", "obj1")]] > 0.99


def test_forward_zero_weight_blocks_rule():
    _, facts, graph, weights = boat_scene_setup()
    weights = weights.copy()
    weights[2] = 0.0  # the target rule
    cfg = ReasonerConfig(gamma=0.01, steps=2)
    v = forward(graph, graph.initial_valuation(np.ones(len(facts))), weights, cfg)
    assert v[graph.atom_index[atom("target", "obj1")]] < 0.1


def test_forward_shape_checks():
    _, facts, graph, weights = boat_scene_setup()
    cfg = ReasonerConfig()
    with pytest.raises(DimensionMismatch):
        forward(graph, np.zeros(3), weights, cfg)
    with pytest.raises(DimensionMismatch):
        forward(graph, graph.initial_valuation(np.ones(len(facts))),
                np.ones(7), cfg)


def test_forward_monotone_in_inputs():
    _, facts, graph, weights = boat_scene_setup()
    cfg = ReasonerConfig(gamma=0.05, steps=3)
    rng = np.random.default_rng(3)
    for _ in range(25):
        lo = rng.uniform(0, 1, len(facts))
        hi = np.clip(lo + rng.uniform(0, 1 - lo), 0, 1)
        v_lo = forward(graph, graph.initial_valuation(lo), weights, cfg)
        v_hi = forward(graph, graph.initial_valuation(hi), weights, cfg)
        assert np.all(v_hi >= v_lo - 1e-9)


def random_graph(rng):
    """Small random program + facts with interior-valued inputs."""
    consts = [f"obj{i}" for i in range(1, rng.integers(3, 6))]
    facts = FactSet()
    for a in consts:
        for b in consts:
            if a != b and rng.random() < 0.5:
                facts.add(atom("link", a, b))
    for a in consts:
        if rng.random() < 0.7:
            facts.add(atom("mark", a))
    rules = [
        "cond1(X):-link(X,Y),mark(Y).",
        "cond2(X):-link(Y,X),mark(X).",
        "target(X):-cond1(X),cond2(X).",
        "target(X):-cond2(X),link(X,Y).",
    ]
    program = parse_program("\n".join(rules))
    graph = build_reasoning_graph(program, facts)
    return graph, len(program.rules)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(7)
    cfg = ReasonerConfig(gamma=0.1, steps=3)
    for _ in range(10):
        graph, n_rules = random_graph(rng)
        if graph.n_conj == 0 or graph.n_facts == 0:
            continue
        fact_values = rng.uniform(0.2, 0.8, graph.n_facts)
        weights = rng.uniform(0.3, 0.7, n_rules)
        coeffs = rng.uniform(-1, 1, graph.n_atoms)

        def loss(w=None, fv=None):
            w_arr = weights if w is None else np.asarray(w)
            f_arr = fact_values if fv is None else np.asarray(fv)
            v = forward(graph, graph.initial_valuation(f_arr), w_arr, cfg)
            return float(coeffs @ v)

        grad_w, grad_v0 = backward(
            graph, graph.initial_valuation(fact_values), weights, cfg, coeffs
        )
        fd_w = finite_difference(lambda w: loss(w=w), list(weights))
        fd_v = finite_difference(lambda fv: loss(fv=fv), list(fact_values))
        np.testing.assert_allclose(grad_w, fd_w, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(
            grad_v0[: graph.n_facts], fd_v, rtol=1e-4, atol=1e-7
        )


def test_backward_rejects_stale_tape():
    _, facts, graph, weights = boat_scene_setup()
    cfg = ReasonerConfig(gamma=0.01, steps=2)
    v0 = graph.initial_valuation(np.ones(len(facts)))
    _, tape = forward(graph, v0, weights, cfg, record=True)
    other = ReasonerConfig(gamma=0.5, steps=2)
    with pytest.raises(TapeMissing):
        backward(graph, v0, weights, other, np.ones(graph.n_atoms), tape=tape)


def test_backward_recomputes_without_tape():
    _, facts, graph, weights = boat_scene_setup()
    cfg = ReasonerConfig(gamma=0.1, steps=2)
    v0 = graph.initial_valuation(np.ones(len(facts)))
    loss_grad = np.ones(graph.n_atoms)
    _, tape = forward(graph, v0, weights, cfg, record=True)
    with_tape = backward(graph, v0, weights, cfg, loss_grad, tape=tape)
    without = backward(graph, v0, weights, cfg, loss_grad)
    np.testing.assert_allclose(with_tape[0], without[0])
    np.testing.assert_allclose(with_tape[1], without[1])


def make_scene():
    return SceneGraph(
        image_id=1,
        objects=(
            SceneObject(1, ("man",), Box(0, 0, 10, 10), ()),
            SceneObject(2, ("boat",), Box(20, 0, 10, 10), ()),
            SceneObject(3, ("dog",), Box(40, 0, 10, 10), ()),
        ),
        relations=(SceneRelation(1, "on", 2),),
    )


def test_extract_targets_threshold_and_order():
    sg = make_scene()
    program = parse_program("target(X):-type(X,man).\ntarget(X):-type(X,dog).")
    from deixis.scene import scene_graph_to_facts

    facts, values = scene_graph_to_facts(sg)
    graph = build_reasoning_graph(program, facts)
    cfg = ReasonerConfig(gamma=0.01, steps=2, target_threshold=0.2)
    weights = np.array([1.0, 0.6])
    v = forward(graph, graph.initial_valuation(values), weights, cfg)
    got = extract_targets(graph, v, sg, cfg)
    assert [p.object_id for p in got] == [1, 3]
    assert got[0].score > got[1].score
    assert not any(p.fallback for p in got)


def test_extract_targets_fallback_is_seeded():
    sg = make_scene()
    program = parse_program("target(X):-type(X,man).")
    from deixis.scene import scene_graph_to_facts

    facts, values = scene_graph_to_facts(sg)
    graph = build_reasoning_graph(program, facts)
    cfg = ReasonerConfig(rng_seed=5)
    # A tiny rule weight leaves every target atom under the threshold.
    v = forward(graph, graph.initial_valuation(values),
                np.array([0.05]), cfg)
    first = extract_targets(graph, v, sg, cfg)
    second = extract_targets(graph, v, sg, cfg)
    assert len(first) == 1 and first[0].fallback
    assert 0.1 <= first[0].score <= 0.4
    assert first == second  # fresh default rng from the config seed


def test_extract_targets_requires_target_atoms():
    sg = make_scene()
    program = parse_program("cond1(X):-on(X,Y),type(Y,boat).")
    from deixis.scene import scene_graph_to_facts

    facts, values = scene_graph_to_facts(sg)
    graph = build_reasoning_graph(program, facts)
    cfg = ReasonerConfig()
    v = forward(graph, graph.initial_valuation(values), np.ones(1), cfg)
    with pytest.raises(NoTargetAtoms):
        extract_targets(graph, v, sg, cfg)


def test_target_fact_is_predicted_at_its_node():
    sg = make_scene()
    # No on fact: the target rule cannot fire, so only the fact scores.
    program = parse_program("target(X):-on(X,Y).")
    facts = FactSet([atom("type", "obj2", "boat"), atom("target", "obj1")])
    graph = build_reasoning_graph(program, facts)
    assert graph.n_conj == 0
    assert graph.target_atoms == (1,)
    cfg = ReasonerConfig()
    v = forward(graph, graph.initial_valuation(np.ones(2)), graph.weights, cfg)
    [prediction] = extract_targets(graph, v, sg, cfg)
    assert (prediction.object_id, prediction.fallback) == (1, False)
    assert prediction.node == 1
    assert graph.atoms[prediction.node] == atom("target", "obj1")
    # At value 0 the fact stays under the threshold: a fallback, no node.
    v = forward(graph, graph.initial_valuation([1.0, 0.0]), graph.weights, cfg)
    [prediction] = extract_targets(graph, v, sg, cfg)
    assert prediction.fallback and prediction.node is None


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_forward_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    graph, n_rules = random_graph(rng)
    cfg = ReasonerConfig(gamma=0.1, steps=4)
    fact_values = rng.uniform(0, 1, graph.n_facts)
    weights = rng.uniform(0, 1, n_rules)
    v = forward(graph, graph.initial_valuation(fact_values), weights, cfg)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)


@pytest.mark.parametrize("gamma", [math.inf, math.nan, 0.0])
def test_reasoner_config_rejects_gamma_that_is_not_positive_and_finite(gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        ReasonerConfig(gamma=gamma)
