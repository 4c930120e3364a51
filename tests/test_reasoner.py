"""Soft-logic forward pass, exact gradients, and target extraction."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deixis.grounding import build_reasoning_graph
from deixis.logic import FactSet, atom, parse_program
from deixis.reasoner import (
    DimensionMismatch,
    NoTargetAtoms,
    ReasonerConfig,
    backward,
    extract_targets,
    forward,
    softor,
)
from deixis.scene import Box, SceneGraph, SceneObject, SceneRelation

from oracles import (
    finite_difference,
    oracle_softor,
    reference_backward,
    reference_forward,
)

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
    v = forward(graph, np.ones(len(facts)), weights, cfg)
    target = v[graph.atoms.index(atom("target", "obj1"))]
    assert target > 0.99
    assert np.all((v >= 0.0) & (v <= 1.0))


def test_forward_one_step_gives_the_bits_of_two_on_a_depth_two_program():
    # Conditions are derived in round one, target needs a second round:
    # forward runs both, whatever ``steps`` says.
    _, facts, graph, weights = boat_scene_setup()
    assert graph.depth == 2
    one = forward(graph, np.ones(len(facts)), weights, ReasonerConfig(0.01, 1))
    two = forward(graph, np.ones(len(facts)), weights, ReasonerConfig(0.01, 2))
    assert same_bits(one, two)
    assert one[graph.atoms.index(atom("target", "obj1"))] > 0.99


def test_forward_zero_weight_blocks_rule():
    _, facts, graph, weights = boat_scene_setup()
    weights = weights.copy()
    weights[2] = 0.0  # the target rule
    cfg = ReasonerConfig(gamma=0.01, steps=2)
    v = forward(graph, np.ones(len(facts)), weights, cfg)
    assert v[graph.atoms.index(atom("target", "obj1"))] < 0.1


def test_forward_shape_checks():
    _, facts, graph, weights = boat_scene_setup()
    cfg = ReasonerConfig()
    with pytest.raises(DimensionMismatch):
        forward(graph, np.zeros(3), weights, cfg)
    with pytest.raises(DimensionMismatch):
        forward(graph, np.ones(len(facts)), np.ones(7), cfg)


def test_forward_rejects_a_full_atom_valuation():
    # forward takes one value per fact and starts derived atoms itself.
    _, facts, graph, weights = boat_scene_setup()
    assert graph.n_atoms > graph.n_facts == len(facts)
    message = f"graph has {len(facts)} facts"
    with pytest.raises(DimensionMismatch, match=message):
        forward(graph, np.ones(graph.n_atoms), weights, ReasonerConfig())


def test_forward_monotone_in_inputs():
    _, facts, graph, weights = boat_scene_setup()
    cfg = ReasonerConfig(gamma=0.05, steps=3)
    rng = np.random.default_rng(3)
    for _ in range(25):
        lo = rng.uniform(0, 1, len(facts))
        hi = np.clip(lo + rng.uniform(0, 1 - lo), 0, 1)
        v_lo = forward(graph, lo, weights, cfg)
        v_hi = forward(graph, hi, weights, cfg)
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
            v = forward(graph, f_arr, w_arr, cfg)
            return float(coeffs @ v)

        _, tape = forward(graph, fact_values, weights, cfg, record=True)
        grad_w, grad_facts = backward(tape, coeffs)
        fd_w = finite_difference(lambda w: loss(w=w), list(weights))
        fd_v = finite_difference(lambda fv: loss(fv=fv), list(fact_values))
        np.testing.assert_allclose(grad_w, fd_w, rtol=1e-4, atol=1e-7)
        np.testing.assert_allclose(grad_facts, fd_v, rtol=1e-4, atol=1e-7)


# Rules the kernel property draws from: heads with several conjunctions
# (target), a recursive rule (reach) and a weighted program fact, whose
# empty body reads the sentinel 1.0.
KERNEL_RULES = (
    "cond1(X):-link(X,Y),mark(Y).",
    "cond2(X):-link(Y,X),mark(X).",
    "target(X):-cond1(X),cond2(X).",
    "0.5: target(X):-cond2(X),link(X,Y).",
    "reach(X,Y):-link(X,Y).",
    "reach(X,Z):-reach(X,Y),link(Y,Z).",
    "target(X):-reach(X,X).",
    "0.7: mark(obj1).",
)


def same_bits(got, want) -> bool:
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def program_depth(program):
    """Proof depth of a program's predicates: 0 for an extensional one, one
    above its deepest body predicate for a head, and None when some
    predicate depends on itself."""
    bodies = {}
    for rule in program.rules:
        bodies.setdefault(rule.head.predicate, []).extend(
            b.predicate for b in rule.body
        )

    def depth(p, path):
        if p not in bodies:
            return 0
        if p in path:
            return None
        below = [depth(q, path | {p}) for q in bodies[p]]
        return None if None in below else 1 + max(below, default=0)

    depths = [depth(p, frozenset()) for p in bodies]
    return None if None in depths else max(depths, default=0)


def rounds_cfg(graph, cfg) -> ReasonerConfig:
    """The config whose ``steps`` are the rounds forward runs on ``graph``:
    its proof depth, or ``cfg.steps`` on a recursive graph."""
    if graph.depth is None:
        return cfg
    return ReasonerConfig(cfg.gamma, graph.depth, cfg.target_threshold)


@settings(max_examples=150, deadline=None)
@given(
    rules=st.sets(st.integers(0, len(KERNEL_RULES) - 1), min_size=1),
    n_objects=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    gamma=st.floats(0.01, 0.2),
    steps=st.integers(1, 8),
)
@example(rules={2}, n_objects=3, seed=0, gamma=0.05, steps=3)  # no conjunction
@example(rules={7}, n_objects=1, seed=1, gamma=0.01, steps=2)  # only the sentinel
@example(rules=set(range(len(KERNEL_RULES))), n_objects=4, seed=2, gamma=0.2, steps=8)
def test_kernel_matches_the_reference_bit_for_bit(rules, n_objects, seed, gamma, steps):
    """forward and backward give the bits of the reference kernel, which
    runs exactly the rounds it is given: the valuation, each round's
    conjunction values (its products) and both gradients. forward runs
    the program's proof depth where one is known, else ``steps``."""
    rng = np.random.default_rng(seed)
    consts = [f"obj{i}" for i in range(1, n_objects + 1)]
    facts = FactSet()
    for a in consts:
        for b in consts:
            if rng.random() < 0.5:
                facts.add(atom("link", a, b))
        if rng.random() < 0.7:
            facts.add(atom("mark", a))
    program = parse_program("\n".join(KERNEL_RULES[i] for i in sorted(rules)))
    graph = build_reasoning_graph(program, facts)
    # Facts at exactly 0 and 1 as well as in between, so rounds take both
    # leave-one-out paths.
    fact_values = np.where(
        rng.random(graph.n_facts) < 0.3,
        rng.integers(0, 2, graph.n_facts).astype(np.float64),
        rng.uniform(0.0, 1.0, graph.n_facts),
    )
    weights = rng.uniform(0.0, 1.0, graph.n_rules)
    loss_grad = rng.normal(size=graph.n_atoms)
    cfg = ReasonerConfig(gamma=gamma, steps=steps)

    v, tape = forward(graph, fact_values, weights, cfg, record=True)
    ref_cfg = rounds_cfg(graph, cfg)
    ref_v, ref_tape = reference_forward(
        graph, fact_values, weights, ref_cfg, record=True
    )
    assert same_bits(v, ref_v)
    assert same_bits(forward(graph, fact_values, weights, cfg), v)
    assert graph.depth == program_depth(program)
    assert len(tape.rounds) == len(ref_tape.rounds) == ref_cfg.steps
    for rec, ref in zip(tape.rounds, ref_tape.rounds):
        assert same_bits(rec.products, ref.products)
    grad_w, grad_facts = backward(tape, loss_grad)
    ref_w, ref_facts = reference_backward(ref_tape, loss_grad)
    assert same_bits(grad_w, ref_w)
    assert same_bits(grad_facts, ref_facts)


# An acyclic program up to four rounds deep: heads with several conjunctions
# (target), a weighted program fact whose head is also an input fact
# (mark(obj1)), and a rule over a derived atom (top).
ACYCLIC_RULES = (
    "cond1(X):-link(X,Y),mark(Y).",
    "cond2(X):-link(Y,X),mark(X).",
    "target(X):-cond1(X),cond2(X).",
    "0.5: target(X):-cond2(X),link(X,Y).",
    "top(X):-target(X),mark(X).",
    "0.7: mark(obj1).",
)


def proof_depth(graph) -> int:
    """The longest derivation in an acyclic graph, in rounds: a head sits
    one round above the deepest body atom of its conjunctions."""
    height = np.zeros(graph.n_atoms, dtype=np.int64)
    changed = True
    while changed:
        changed = False
        for c in range(graph.n_conj):
            start, count = graph.body_starts[c], graph.body_counts[c]
            body = graph.body_atoms[start : start + count]
            h = 1 + (int(height[body].max()) if count else 0)
            if h > height[graph.conj_head[c]]:
                height[graph.conj_head[c]] = h
                changed = True
    return int(height.max(initial=0))


def supported_atoms(graph, fact_values, weights) -> np.ndarray:
    """Boolean closure: an input fact with a positive value, or the head
    of a conjunction with a positive rule weight whose body atoms are all
    supported."""
    supported = np.zeros(graph.n_atoms, dtype=bool)
    supported[: graph.n_facts] = fact_values > 0.0
    changed = True
    while changed:
        changed = False
        for c in range(graph.n_conj):
            start, count = graph.body_starts[c], graph.body_counts[c]
            body = graph.body_atoms[start : start + count]
            head = graph.conj_head[c]
            fires = weights[graph.conj_rule[c]] > 0.0 and supported[body].all()
            if fires and not supported[head]:
                supported[head] = True
                changed = True
    return supported


@settings(max_examples=100, deadline=None)
@given(
    rules=st.sets(st.integers(0, len(ACYCLIC_RULES) - 1), min_size=1),
    n_objects=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    gamma=st.floats(0.01, 0.2),
    steps=st.integers(1, 8),
)
@example(
    rules=set(range(len(ACYCLIC_RULES))), n_objects=4, seed=3, gamma=0.2, steps=8
)
def test_no_evidence_scores_zero_and_rounds_past_the_depth_change_nothing(
    rules, n_objects, seed, gamma, steps
):
    rng = np.random.default_rng(seed)
    consts = [f"obj{i}" for i in range(1, n_objects + 1)]
    facts = FactSet()
    for a in consts:
        for b in consts:
            if rng.random() < 0.5:
                facts.add(atom("link", a, b))
        if rng.random() < 0.7:
            facts.add(atom("mark", a))
    program = parse_program("\n".join(ACYCLIC_RULES[i] for i in sorted(rules)))
    graph = build_reasoning_graph(program, facts)
    # Facts and weights at exactly 0 leave some atoms without evidence.
    fact_values = rng.uniform(0.0, 1.0, graph.n_facts)
    fact_values[rng.random(graph.n_facts) < 0.3] = 0.0
    weights = rng.uniform(0.0, 1.0, graph.n_rules)
    weights[rng.random(graph.n_rules) < 0.2] = 0.0
    cfg = ReasonerConfig(gamma=gamma, steps=steps)

    v = forward(graph, fact_values, weights, cfg)
    unsupported = ~supported_atoms(graph, fact_values, weights)
    assert np.all(v[unsupported] == 0.0)

    depth = max(proof_depth(graph), 1)
    assert depth <= graph.depth == program_depth(program)
    at_depth = forward(graph, fact_values, weights, ReasonerConfig(gamma, depth))
    for more in range(depth + 1, 9):
        v_more = forward(graph, fact_values, weights, ReasonerConfig(gamma, more))
        assert same_bits(v_more, at_depth)


@settings(max_examples=100, deadline=None)
@given(
    rules=st.sets(st.integers(0, len(ACYCLIC_RULES) - 1), min_size=1),
    n_objects=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    gamma=st.floats(0.01, 0.2),
)
@example(rules=set(range(len(ACYCLIC_RULES))), n_objects=4, seed=3, gamma=0.2)
def test_steps_change_nothing_on_an_acyclic_program(rules, n_objects, seed, gamma):
    """forward at every ``steps`` gives the valuation and the gradients of
    the reference kernel run for the proof depth, bit for bit: the tape
    holds the depth's rounds, below it and past it."""
    rng = np.random.default_rng(seed)
    consts = [f"obj{i}" for i in range(1, n_objects + 1)]
    facts = FactSet()
    for a in consts:
        for b in consts:
            if rng.random() < 0.5:
                facts.add(atom("link", a, b))
        if rng.random() < 0.7:
            facts.add(atom("mark", a))
    program = parse_program("\n".join(ACYCLIC_RULES[i] for i in sorted(rules)))
    graph = build_reasoning_graph(program, facts)
    fact_values = rng.uniform(0.0, 1.0, graph.n_facts)
    fact_values[rng.random(graph.n_facts) < 0.3] = 0.0
    weights = rng.uniform(0.0, 1.0, graph.n_rules)
    loss_grad = rng.normal(size=graph.n_atoms)

    assert proof_depth(graph) <= graph.depth == program_depth(program)
    ref_cfg = ReasonerConfig(gamma, graph.depth)
    ref_v, ref_tape = reference_forward(
        graph, fact_values, weights, ref_cfg, record=True
    )
    ref_w, ref_facts = reference_backward(ref_tape, loss_grad)
    for steps in range(1, 9):
        cfg = ReasonerConfig(gamma, steps)
        v, tape = forward(graph, fact_values, weights, cfg, record=True)
        assert len(tape.rounds) == graph.depth
        assert same_bits(v, ref_v)
        grad_w, grad_facts = backward(tape, loss_grad)
        assert same_bits(grad_w, ref_w)
        assert same_bits(grad_facts, ref_facts)


README_PROGRAM = "cond1(X):-on(X,Y),type(Y,boat).\ntarget(X):-cond1(X).\n"


def readme_scene_setup(confidence):
    """The 3-object scene with the man on the boat at ``confidence``, and
    the README program grounded on it."""
    from deixis.scene import scene_graph_to_facts

    sg = make_scene(confidence)
    program = parse_program(README_PROGRAM)
    facts, values = scene_graph_to_facts(sg, program)
    return sg, build_reasoning_graph(program, facts), values


@pytest.mark.parametrize("gamma", [0.01, 0.05, 0.1])
@pytest.mark.parametrize("steps", [2, 4, 8])
def test_a_relation_at_confidence_zero_derives_nothing(gamma, steps):
    """The man is on the boat at confidence 0.0, so nothing is on a boat:
    target(obj1) scores exactly 0 at every smoothness and round count."""
    sg, graph, values = readme_scene_setup(0.0)
    cfg = ReasonerConfig(gamma=gamma, steps=steps)
    v = forward(graph, values, graph.weights, cfg)
    assert v[graph.atoms.index(atom("target", "obj1"))] == 0.0
    assert v[graph.atoms.index(atom("cond1", "obj1"))] == 0.0
    [prediction] = extract_targets(graph, v, sg, cfg, 0)
    assert prediction.fallback


@settings(deadline=None)
@given(
    confidence=st.floats(0.0, 1.0),
    gamma=st.floats(0.01, 0.2),
    steps=st.integers(2, 8),
)
def test_a_single_derivation_scores_its_evidence_exactly(confidence, gamma, steps):
    """Every other input of each soft OR is 0, so it is the maximum:
    target(obj1) scores the relation's confidence, with no overshoot."""
    _, graph, values = readme_scene_setup(confidence)
    v = forward(graph, values, graph.weights, ReasonerConfig(gamma, steps))
    assert v[graph.atoms.index(atom("target", "obj1"))] == confidence


def test_backward_returns_one_fact_gradient_per_fact():
    _, facts, graph, weights = boat_scene_setup()
    cfg = ReasonerConfig(gamma=0.1, steps=2)
    _, tape = forward(graph, np.ones(len(facts)), weights, cfg, record=True)
    grad_w, grad_facts = backward(tape, np.ones(graph.n_atoms))
    assert grad_w.shape == (graph.n_rules,)
    assert grad_facts.shape == (graph.n_facts,) == (len(facts),)
    with pytest.raises(DimensionMismatch, match="loss gradient"):
        backward(tape, np.ones(graph.n_facts))


def test_tape_keeps_the_weights_forward_ran_with():
    _, facts, graph, weights = boat_scene_setup()
    cfg = ReasonerConfig(gamma=0.1, steps=2)
    weights = np.array([0.9, 0.7, 0.8])
    loss_grad = np.linspace(-1.0, 1.0, graph.n_atoms)
    _, tape = forward(graph, np.ones(len(facts)), weights, cfg, record=True)
    before = backward(tape, loss_grad)
    weights[:] = 0.1  # the caller reuses its buffer
    after = backward(tape, loss_grad)
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])
    assert np.array_equal(tape.weights, [0.9, 0.7, 0.8])
    assert not tape.weights.flags.writeable
    with pytest.raises(ValueError):
        tape.weights[0] = 0.0
    assert tape.graph is graph
    assert len(tape.rounds) == cfg.steps


def make_scene(confidence=1.0):
    return SceneGraph(
        image_id=1,
        objects=(
            SceneObject(1, ("man",), Box(0, 0, 10, 10), ()),
            SceneObject(2, ("boat",), Box(20, 0, 10, 10), ()),
            SceneObject(3, ("dog",), Box(40, 0, 10, 10), ()),
        ),
        relations=(SceneRelation(1, "on", 2, confidence),),
    )


def test_extract_targets_threshold_and_order():
    sg = make_scene()
    program = parse_program("target(X):-type(X,man).\ntarget(X):-type(X,dog).")
    from deixis.scene import scene_graph_to_facts

    facts, values = scene_graph_to_facts(sg)
    graph = build_reasoning_graph(program, facts)
    cfg = ReasonerConfig(gamma=0.01, steps=2, target_threshold=0.2)
    weights = np.array([1.0, 0.6])
    v = forward(graph, values, weights, cfg)
    got = extract_targets(graph, v, sg, cfg, 0)
    assert [p.object_id for p in got] == [1, 3]
    assert got[0].score > got[1].score
    assert not any(p.fallback for p in got)


def test_extract_targets_fallback_is_seeded():
    sg = make_scene()
    program = parse_program("target(X):-type(X,man).")
    from deixis.scene import scene_graph_to_facts

    facts, values = scene_graph_to_facts(sg)
    graph = build_reasoning_graph(program, facts)
    cfg = ReasonerConfig()
    # A tiny rule weight leaves every target atom under the threshold.
    v = forward(graph, values,
                np.array([0.05]), cfg)
    first = extract_targets(graph, v, sg, cfg, 5)
    second = extract_targets(graph, v, sg, cfg, 5)
    assert len(first) == 1 and first[0].fallback
    assert 0.1 <= first[0].score <= 0.4
    assert first == second  # a seed draws afresh on every call
    # A Generator is advanced: it gives the seed's first draw, then others.
    rng = np.random.default_rng(5)
    assert extract_targets(graph, v, sg, cfg, rng) == first
    assert extract_targets(graph, v, sg, cfg, rng) != first


def test_extract_targets_requires_target_atoms():
    sg = make_scene()
    program = parse_program("cond1(X):-on(X,Y),type(Y,boat).")
    from deixis.scene import scene_graph_to_facts

    facts, values = scene_graph_to_facts(sg)
    graph = build_reasoning_graph(program, facts)
    cfg = ReasonerConfig()
    v = forward(graph, values, np.ones(1), cfg)
    with pytest.raises(NoTargetAtoms):
        extract_targets(graph, v, sg, cfg, 0)


def test_target_fact_is_predicted_at_its_node():
    sg = make_scene()
    # No on fact: the target rule cannot fire, so only the fact scores.
    program = parse_program("target(X):-on(X,Y).")
    facts = FactSet([atom("type", "obj2", "boat"), atom("target", "obj1")])
    graph = build_reasoning_graph(program, facts)
    assert graph.n_conj == 0
    assert graph.target_atoms == (1,)
    cfg = ReasonerConfig()
    v = forward(graph, np.ones(2), graph.weights, cfg)
    [prediction] = extract_targets(graph, v, sg, cfg, 0)
    assert (prediction.object_id, prediction.fallback) == (1, False)
    assert prediction.node == 1
    assert graph.atoms[prediction.node] == atom("target", "obj1")
    # At value 0 the fact stays under the threshold: a fallback, no node.
    v = forward(graph, [1.0, 0.0], graph.weights, cfg)
    [prediction] = extract_targets(graph, v, sg, cfg, 0)
    assert prediction.fallback and prediction.node is None


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_forward_stays_in_unit_interval(seed):
    rng = np.random.default_rng(seed)
    graph, n_rules = random_graph(rng)
    cfg = ReasonerConfig(gamma=0.1, steps=4)
    fact_values = rng.uniform(0, 1, graph.n_facts)
    weights = rng.uniform(0, 1, n_rules)
    v = forward(graph, fact_values, weights, cfg)
    assert np.all(v >= 0.0) and np.all(v <= 1.0)


@pytest.mark.parametrize("gamma", [math.inf, math.nan, 0.0])
def test_reasoner_config_rejects_gamma_that_is_not_positive_and_finite(gamma):
    with pytest.raises(ValueError, match="gamma must be positive and finite"):
        ReasonerConfig(gamma=gamma)
