"""Mixture specialization, the loss stack, and the training loop."""

import json
import math

import numpy as np
import pytest

from deixis.datasets import (
    AnswerObject,
    DeicticInstance,
    corrupt_scene_graph,
    random_scene_graphs,
    synthesize_deivg,
)
from deixis.logic import atom, parse_program, render_program
from deixis.reasoner import ReasonerConfig
from deixis.rulegen import template_rulegen
from deixis.scene import Box, SceneGraph, SceneObject
from deixis.training import (
    TrainConfig,
    TrainingExample,
    bce_loss,
    evaluate_mixture,
    label_predictions,
    load_checkpoint,
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
    merge = render_program(task.program_template)
    assert "target(X):-targetSgg(X,sgg1)." in merge
    assert "target(X):-targetSgg(X,sgg2)." in merge


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


def test_train_config_round_trip():
    cfg = TrainConfig(lr=0.02, steps=5, seed=3)
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ValueError):
        TrainConfig(lr=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(steps=-1)


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
    result = train_mixture(task, examples, cfg,
                           reasoner_cfg=ReasonerConfig(steps=4))
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
                       examples, cfg)
    r2 = train_mixture(make_mixture_task(("ground_truth", "corrupted")),
                       examples, cfg)
    np.testing.assert_array_equal(r1.theta, r2.theta)
    assert [t.step for t in r1.trace] == [t.step for t in r2.trace]
    np.testing.assert_array_equal(
        np.array([t.loss for t in r1.trace]),
        np.array([t.loss for t in r2.trace]),
    )


@pytest.mark.filterwarnings(
    "ignore::deixis.datasets.InsufficientCandidatesWarning"
)
def test_evaluate_mixture_scores_gt_perfectly():
    examples = make_training_data(n_graphs=15, seed=4)
    task = make_mixture_task(("ground_truth", "corrupted"))
    # Hand-pick confident GT, silent corrupted source.
    theta = np.array([4.0, -4.0])
    score = evaluate_mixture(task, theta, examples)
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
    assert evaluate_mixture(task, task.params, [example]) == 1.0


def test_checkpoint_round_trip(tmp_path):
    cfg = TrainConfig(steps=7, seed=9)
    theta = np.array([0.25, -1.5])
    rng = np.random.default_rng(9)
    rng.random(5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(str(path), theta, cfg, step=7, rng=rng)
    theta2, cfg2, step, rng2 = load_checkpoint(str(path))
    np.testing.assert_array_equal(theta2, theta)
    assert cfg2 == cfg and step == 7
    assert rng2.random() == rng.random()  # stream restored exactly

    data = json.loads(path.read_text())
    assert set(data) == {"theta", "config", "step", "rng_state"}


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
