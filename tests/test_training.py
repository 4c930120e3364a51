"""Mixture specialization, the loss stack, and the training loop."""

import functools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deixis.datasets import (
    AnswerObject,
    DeicticInstance,
    corrupt_scene_graph,
    random_scene_graphs,
    synthesize_deivg,
)
from deixis.logic import parse_program, render_program
from deixis.reasoner import ReasonerConfig, extract_targets
from deixis.rulegen import template_rulegen
from deixis.scene import Box, SceneGraph, SceneObject, SceneRelation
from deixis.training import (
    TrainConfig,
    TrainingExample,
    _ground_example,
    _loss_and_grad,
    _reason,
    bce_loss,
    evaluate_mixture,
    label_predictions,
    make_mixture_task,
    mixture_facts,
    save_checkpoint,
    save_trace,
    sigmoid,
    specialize_program,
    train_mixture,
)

PROGRAM_1 = (
    "cond1(X):-on(X,Y),type(Y,boat).\n"
    "cond2(X):-holding(X,Y),type(Y,umbrella).\n"
    "target(X):-cond1(X),cond2(X).\n"
)

# The reasoner the training tests run: template programs are acyclic, so
# it runs each to its proof depth.
REASONER_CFG = ReasonerConfig()


def test_specialize_appends_source_variable():
    specialized = specialize_program(parse_program(PROGRAM_1))
    text = render_program(specialized)
    assert "condSgg" not in text  # intensional names keep their identity
    assert "cond1(X,SG):-onSgg(X,Y,SG),typeSgg(Y,boat,SG)." in text
    assert "targetSgg(X,SG):-cond1(X,SG),cond2(X,SG)." in text


def test_mixture_task_shapes():
    task = make_mixture_task(("ground_truth", "corrupted"))
    assert task.params.shape == (2,)
    np.testing.assert_allclose(task.weights, [0.5, 0.5])
    example = replay_examples()[1]
    graph = _ground_example(task, example).graph
    # The specialized program's rules come first, then one merge rule per
    # source, so theta binds to the last weight slots.
    n_rules = len(example.program.rules)
    assert graph.n_rules == n_rules + 2
    merged = set()
    for c, rule in enumerate(graph.conj_rule.tolist()):
        start, count = graph.body_starts[c], graph.body_counts[c]
        head = str(graph.atoms[graph.conj_head[c]])
        body = [str(graph.atoms[a]) for a in graph.body_atoms[start : start + count]]
        is_target = head.startswith("target(")
        assert is_target == (rule >= n_rules)
        if is_target:
            constant = head[len("target(") : -1]
            assert body == [f"targetSgg({constant},sgg{rule - n_rules + 1})"]
            merged.add(rule - n_rules)
    assert merged == {0, 1}


def test_mixture_facts_tags_sources():
    sg = random_scene_graphs(1, seed=0)[0]
    dropped = corrupt_scene_graph(sg, seed=1)
    facts, values = mixture_facts(
        ("ground_truth", "corrupted"),
        {"ground_truth": sg, "corrupted": dropped},
    )
    tags = {f.args[-1].name for f in facts}
    assert tags == {"sgg1", "sgg2"}
    assert len(values) == len(facts)


def test_label_predictions_strict_iou():
    answers = [Box(0, 0, 10, 10)]

    class Pred:
        def __init__(self, box):
            self.box = box
            self.score = 0.5

    exactly = Pred(Box(0, 0, 10, 8))  # IoU exactly 0.8
    labels = label_predictions([exactly], answers, threshold=0.8)
    assert labels.tolist() == [0.0]
    above = Pred(Box(0, 0, 10, 9))  # IoU 0.9
    assert label_predictions([above], answers).tolist() == [1.0]


def test_bce_loss_reference_point():
    assert bce_loss(np.array([0.5]), np.array([1.0])) == pytest.approx(
        math.log(2.0)
    )
    small = bce_loss(np.array([0.99]), np.array([1.0]))
    assert 0 < small < 0.02


def test_train_config_rejects_negative_lr_and_steps():
    with pytest.raises(ValueError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        TrainConfig(seed=-1)


@pytest.mark.parametrize("field", ["lr", "rmsprop_eps"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_train_config_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be positive and finite"):
        TrainConfig(**{field: value})


def make_training_data(n_graphs=30, seed=0, spurious=4):
    graphs = random_scene_graphs(n_graphs, seed=seed)
    instances = synthesize_deivg(graphs, k=1, n=n_graphs, seed=seed)
    by_image = {g.image_id: g for g in graphs}
    sources = ("ground_truth", "corrupted")
    examples = []
    for inst in instances:
        sg = by_image[inst.image_id]
        examples.append(
            TrainingExample(
                instance=inst,
                program=template_rulegen(inst.structured),
                scene_graphs={
                    "ground_truth": sg,
                    "corrupted": corrupt_scene_graph(
                        sg, drop_rate=0.5, spurious_per_relation=spurious,
                        seed=seed + inst.image_id,
                    ),
                },
            )
        )
    return examples


@pytest.mark.filterwarnings(
    "ignore::deixis.datasets.InsufficientCandidatesWarning"
)
def test_training_moves_weights_apart():
    examples = make_training_data()
    assert len(examples) >= 10
    task = make_mixture_task(("ground_truth", "corrupted"))
    cfg = TrainConfig(steps=40, seed=0)
    result = train_mixture(task, examples, cfg, REASONER_CFG)
    w_gt, w_bad = result.weights
    assert w_gt > w_bad
    assert w_gt > 0.5
    np.testing.assert_allclose(task.params, result.theta)
    # Loss trend: the tail of the trace is below the head.
    losses = [t.loss for t in result.trace if not math.isnan(t.loss)]
    head = np.mean(losses[: len(losses) // 3])
    tail = np.mean(losses[-len(losses) // 3 :])
    assert tail < head


@pytest.mark.filterwarnings(
    "ignore::deixis.datasets.InsufficientCandidatesWarning"
)
def test_training_is_deterministic():
    examples = make_training_data(n_graphs=12, seed=2)
    cfg = TrainConfig(steps=8, seed=1)
    r1 = train_mixture(make_mixture_task(("ground_truth", "corrupted")),
                       examples, cfg, REASONER_CFG)
    r2 = train_mixture(make_mixture_task(("ground_truth", "corrupted")),
                       examples, cfg, REASONER_CFG)
    np.testing.assert_array_equal(r1.theta, r2.theta)
    assert [t.step for t in r1.trace] == [t.step for t in r2.trace]
    np.testing.assert_array_equal(
        np.array([t.loss for t in r1.trace]),
        np.array([t.loss for t in r2.trace]),
    )


@pytest.mark.filterwarnings(
    "ignore::deixis.datasets.InsufficientCandidatesWarning"
)
def test_steps_below_the_proof_depth_train_like_the_default():
    """Mixture programs are three rounds deep, and one step still runs all
    three: theta moves, by the bits it moves at the default."""
    examples = make_training_data(n_graphs=12, seed=2)
    cfg = TrainConfig(steps=8, seed=1)
    one, default = (
        train_mixture(make_mixture_task(("ground_truth", "corrupted")),
                      examples, cfg, reasoner_cfg)
        for reasoner_cfg in (ReasonerConfig(steps=1), REASONER_CFG)
    )
    assert one.theta.tobytes() == default.theta.tobytes()
    assert np.all(one.theta != 0.0)


@pytest.mark.filterwarnings(
    "ignore::deixis.datasets.InsufficientCandidatesWarning"
)
def test_evaluate_mixture_scores_gt_perfectly():
    examples = make_training_data(n_graphs=15, seed=4)
    task = make_mixture_task(("ground_truth", "corrupted"))
    # Hand-pick confident GT, silent corrupted source.
    theta = np.array([4.0, -4.0])
    score = evaluate_mixture(task, theta, examples, REASONER_CFG, 0)
    assert score == pytest.approx(1.0)


def test_evaluate_mixture_falls_back_when_target_is_underivable():
    # One object and no relations: target(X) can never be derived from
    # either source, so the single fallback prediction picks the answer.
    man = SceneObject(1, ("man",), Box(0, 0, 10, 20))
    sg = SceneGraph(image_id=3, objects=(man,), relations=())
    instance = DeicticInstance(
        deictic_prompt="the man on the boat",
        answers=(AnswerObject(object_id=1, box=man.box, names=("man",)),),
        image_id=3,
        structured=(("on", "boat"),),
        complexity=1,
    )
    example = TrainingExample(
        instance=instance,
        program=template_rulegen(instance.structured),
        scene_graphs={"ground_truth": sg, "corrupted": sg},
    )
    task = make_mixture_task(("ground_truth", "corrupted"))
    assert evaluate_mixture(task, task.params, [example], REASONER_CFG, 0) == 1.0


def test_checkpoint_holds_theta_config_and_step(tmp_path):
    cfg = TrainConfig(steps=7, seed=9)
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), np.array([0.25, -1.5]), cfg, step=7)
    data = json.loads(path.read_text())
    assert data == {"theta": [0.25, -1.5], "config": cfg.to_dict(), "step": 7}


def test_trace_csv_format(tmp_path):
    from deixis.training import TraceStep

    trace = [
        TraceStep(step=0, loss=float("nan"), val_map=0.25),
        TraceStep(step=1, loss=0.6931471805599453, val_map=None),
        TraceStep(step=2, loss=0.5, val_map=0.75),
    ]
    path = tmp_path / "trace.csv"
    save_trace(str(path), trace)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "step,loss,val_mAP"
    assert lines[1] == "0,,0.25"
    assert lines[2].startswith("1,0.693147")
    assert lines[2].endswith(",")
    assert lines[3] == "2,0.5,0.75"


def test_sigmoid_endpoints():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(50.0) == pytest.approx(1.0)
    assert sigmoid(np.array([-50.0]))[0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.filterwarnings(
    "ignore::deixis.datasets.InsufficientCandidatesWarning"
)
def test_each_example_is_grounded_once_per_task(monkeypatch):
    import deixis.grounding as grounding_mod

    calls = []
    original = grounding_mod.ground_program

    def counting(program, facts, **kwargs):
        calls.append(program)
        return original(program, facts, **kwargs)

    monkeypatch.setattr(grounding_mod, "ground_program", counting)
    examples = make_training_data(n_graphs=12, seed=2)
    train, val, test = examples[:6], examples[6:9], examples[9:]
    task = make_mixture_task(("ground_truth", "corrupted"))
    before = evaluate_mixture(task, task.params, test, REASONER_CFG, 0)
    result = train_mixture(task, train, TrainConfig(steps=12, seed=1),
                           REASONER_CFG, val_data=val, val_every=4)
    after = evaluate_mixture(task, result.theta, test, REASONER_CFG, 0)
    # Steps draw examples at random; evaluating the training set too makes
    # sure every example was needed at least once.
    evaluate_mixture(task, result.theta, train, REASONER_CFG, 0)
    distinct = len(train) + len(val) + len(test)
    assert len(calls) == distinct
    # A fresh task grounds again and scores the same.
    assert evaluate_mixture(
        make_mixture_task(("ground_truth", "corrupted")), task.params, test,
        REASONER_CFG, 0,
    ) == after
    assert len(calls) == distinct + len(test)
    assert 0.0 <= before <= 1.0


@functools.lru_cache(maxsize=None)
def replay_examples():
    return make_training_data(n_graphs=20, seed=5)


def assert_replay_matches(task, example, theta, cfg):
    """From an example's second pass on, only the merge layer runs, and it
    gives the whole graph's predictions, loss and theta gradient bit for
    bit. Returns the grounding the passes ran on."""
    w = sigmoid(theta)

    def predictions(grounded):
        graph, v, _ = _reason(grounded, w, cfg)
        found = extract_targets(
            graph, v, grounded.extraction_sg, cfg, rng=np.random.default_rng(0)
        )
        return graph, [(p.object_id, p.box, p.score, p.fallback) for p in found]

    def loss_and_grad(grounded):
        loss, grad = _loss_and_grad(
            grounded, w, cfg, 0.8, np.random.default_rng(0)
        )
        return loss, grad.tobytes()

    # The first pass over a fresh grounding runs the whole graph.
    whole = _ground_example(task, example)
    whole_graph, want = predictions(whole)
    assert whole_graph is whole.graph
    want_loss = loss_and_grad(_ground_example(task, example))

    primed = _ground_example(task, example)
    _loss_and_grad(primed, sigmoid(-theta), cfg, 0.8, np.random.default_rng(1))
    graph, got = predictions(primed)
    assert got == want
    assert loss_and_grad(primed) == want_loss
    assert graph is not primed.graph and graph.depth == 1
    assert graph.n_conj <= primed.graph.n_conj
    return primed


@pytest.mark.filterwarnings(
    "ignore::deixis.datasets.InsufficientCandidatesWarning"
)
@settings(max_examples=60, deadline=None)
@given(
    index=st.integers(0, 19),
    sources=st.sampled_from([
        ("ground_truth",),
        ("corrupted",),
        ("ground_truth", "corrupted"),
        ("corrupted", "ground_truth"),
    ]),
    theta=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2),
    steps=st.integers(1, 6),
    gamma=st.floats(0.01, 0.2),
)
# Nothing is derivable from the one source, so the merge layer is empty.
@example(index=10, sources=("corrupted",), theta=[0.0, 0.0], steps=3, gamma=0.1)
# Two steps, one below the proof depth: steps is ignored on this acyclic
# program, so the pass still runs all three rounds.
@example(
    index=1, sources=("ground_truth", "corrupted"), theta=[1.0, -1.0],
    steps=2, gamma=0.05,
)
def test_a_replayed_pass_matches_the_whole_graph(index, sources, theta, steps, gamma):
    """For any ``steps``, which the acyclic mixture program ignores, a
    replayed pass matches the whole graph's."""
    examples = replay_examples()
    example = examples[index % len(examples)]
    assert_replay_matches(
        make_mixture_task(sources),
        example,
        np.array(theta[: len(sources)]),
        ReasonerConfig(gamma=gamma, steps=steps),
    )


REACH = parse_program(
    "reach(X,Y):-on(X,Y).\n"
    "reach(X,Z):-reach(X,Y),on(Y,Z).\n"
    "target(X):-reach(X,Y),type(Y,boat).\n"
)


def reach_scene(n, edges, boats):
    objects = tuple(
        SceneObject(i, ("boat" if i in boats else "man",), Box(20 * i, 0, 10, 10))
        for i in range(1, n + 1)
    )
    relations = tuple(
        SceneRelation(s, "on", o, confidence)
        for (s, o), confidence in edges.items()
        if s <= n and o <= n
    )
    return SceneGraph(image_id=1, objects=objects, relations=relations)


edge_maps = st.dictionaries(
    st.tuples(st.integers(1, 6), st.integers(1, 6)),
    st.floats(0.05, 1.0),
    max_size=12,
)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    truth=edge_maps,
    noisy=edge_maps,
    boats=st.sets(st.integers(1, 6), max_size=3),
    answer=st.integers(1, 6),
    theta=st.lists(st.floats(-4.0, 4.0), min_size=2, max_size=2),
    steps=st.integers(1, 7),
    gamma=st.floats(0.01, 0.2),
)
# A four-object cycle: reach/2 keeps growing for more rounds than run.
@example(
    n=4, truth={(1, 2): 1.0, (2, 3): 0.9, (3, 4): 0.8, (4, 1): 0.7},
    noisy={(2, 1): 0.5}, boats={4}, answer=1, theta=[0.5, -0.5], steps=2,
    gamma=0.05,
)
def test_a_replayed_pass_matches_the_whole_graph_on_a_recursive_program(
    n, truth, noisy, boats, answer, theta, steps, gamma
):
    """A recursive program has no proof depth, so every pass runs all
    ``steps`` rounds; the merge layer still reads what the last one read."""
    scenes = {
        "ground_truth": reach_scene(n, truth, boats),
        "corrupted": reach_scene(n, noisy, boats),
    }
    target = scenes["ground_truth"].objects[min(answer, n) - 1]
    instance = DeicticInstance(
        deictic_prompt="the thing on a boat",
        answers=(AnswerObject(target.object_id, target.box, target.names),),
        image_id=1,
        structured=(("on", "boat"),),
        complexity=1,
    )
    example = TrainingExample(instance, REACH, scenes)
    primed = assert_replay_matches(
        make_mixture_task(("ground_truth", "corrupted")),
        example,
        np.array(theta),
        ReasonerConfig(gamma=gamma, steps=steps),
    )
    assert primed.graph.depth is None
