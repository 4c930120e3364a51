"""Rule-weight learning over a mixture of scene-graph sources.

A scene can be described by several imperfect sources (ground-truth
annotations, a noisy generator, ...).  Each instance's program is
specialized so every scene predicate carries a source tag, the per-source
facts are tagged accordingly, and one weighted merge rule per source folds
the per-source targets together::

    targetSgg(X,SG):-cond1(X,SG),cond2(X,SG).
    cond1(X,SG):-hasSgg(X,Y,SG),typeSgg(Y,hair,SG).
    w_1: target(X):-targetSgg(X,sgg1).
    w_2: target(X):-targetSgg(X,sgg2).

The merge weights w_k = sigmoid(theta_k) are the only trained parameters:
predictions are labeled by box IoU against the answers, scored with binary
cross-entropy, and the gradient flows through the differentiable reasoner
back to theta, updated with RMSProp.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .datasets import DeicticInstance
from .evaluation import EvalConfig, evaluate_instances
from .grounding import ReasoningGraph, build_reasoning_graph
from .logic import Atom, FactSet, Predicate, Program, Rule, Term
from .reasoner import (
    ReasonerConfig,
    TargetPrediction,
    backward,
    extract_targets,
    forward,
)
from .scene import Box, SceneGraph, scene_graph_to_facts

_BCE_EPS = 1e-7


def sigmoid(x):
    x = np.asarray(x, dtype=np.float64)
    return 1.0 / (1.0 + np.exp(-x))


def label_predictions(
    predictions: list[TargetPrediction],
    answer_boxes: list[Box],
    threshold: float = 0.8,
) -> np.ndarray:
    """Binary labels: 1 iff a prediction's best answer IoU strictly exceeds
    the threshold."""
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"threshold must be in (0, 1], got {threshold}")
    labels = np.zeros(len(predictions), dtype=np.float64)
    for i, pred in enumerate(predictions):
        best = max((pred.box.iou(b) for b in answer_boxes), default=0.0)
        if best > threshold:
            labels[i] = 1.0
    return labels


def bce_loss(scores, labels) -> float:
    """Summed binary cross-entropy with scores clamped to [eps, 1-eps]."""
    s = np.clip(np.asarray(scores, dtype=np.float64), _BCE_EPS, 1.0 - _BCE_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return float(-(y * np.log(s) + (1.0 - y) * np.log(1.0 - s)).sum())


def bce_grad(scores, labels) -> np.ndarray:
    """d(bce_loss)/d(scores), evaluated at the clamped scores."""
    s = np.clip(np.asarray(scores, dtype=np.float64), _BCE_EPS, 1.0 - _BCE_EPS)
    y = np.asarray(labels, dtype=np.float64)
    return (s - y) / (s * (1.0 - s))


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters for mixture-weight learning."""

    lr: float = 1e-2
    steps: int = 200
    batch_size: int = 1
    iou_threshold: float = 0.8
    rmsprop_alpha: float = 0.99
    rmsprop_eps: float = 1e-8
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.lr > 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.steps < 0:
            raise ValueError(f"steps must be >= 0, got {self.steps}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 < self.iou_threshold <= 1.0:
            raise ValueError(
                f"iou_threshold must be in (0, 1], got {self.iou_threshold}"
            )
        if not 0.0 <= self.rmsprop_alpha < 1.0:
            raise ValueError(
                f"rmsprop_alpha must be in [0, 1), got {self.rmsprop_alpha}"
            )
        if not self.rmsprop_eps > 0:
            raise ValueError(
                f"rmsprop_eps must be positive, got {self.rmsprop_eps}"
            )

    def to_dict(self) -> dict:
        return {
            "lr": self.lr,
            "steps": self.steps,
            "batch_size": self.batch_size,
            "iou_threshold": self.iou_threshold,
            "rmsprop_alpha": self.rmsprop_alpha,
            "rmsprop_eps": self.rmsprop_eps,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        return cls(**data)


def _tag_predicate(name: str) -> str:
    return name if name.endswith("Sgg") else f"{name}Sgg"


def specialize_program(program: Program) -> Program:
    """Rewrite a single-source program to carry a source argument.

    Every rule head and body atom gains a trailing SG variable; scene
    (extensional) predicates are renamed with an Sgg suffix so they match
    tagged facts, while predicates defined inside the program keep their
    names.  The target head becomes targetSgg, ready for weighted merge
    rules to fold sources back together.
    """
    sg_var = Term("SG")
    intensional = {p.name for p in program.intensional_predicates}

    def rewrite(atom_: Atom) -> Atom:
        name = atom_.predicate.name
        if name == "target":
            name = "targetSgg"
        elif name not in intensional:
            name = _tag_predicate(name)
        return Atom(
            Predicate(name, atom_.predicate.arity + 1),
            atom_.args + (sg_var,),
        )

    rules = []
    for rule in program.rules:
        rules.append(
            Rule(
                head=rewrite(rule.head),
                body=tuple(rewrite(b) for b in rule.body),
                weight=rule.weight,
            )
        )
    return Program(tuple(rules))


def make_merge_rules(n_sources: int) -> tuple[Rule, ...]:
    """One target(X):-targetSgg(X,sggK) rule per source; their weights are
    the trained mixture parameters."""
    if n_sources < 1:
        raise ValueError(f"need at least one source, got {n_sources}")
    x = Term("X")
    target = Predicate("target", 1)
    target_sgg = Predicate("targetSgg", 2)
    return tuple(
        Rule(
            head=Atom(target, (x,)),
            body=(Atom(target_sgg, (x, Term(f"sgg{k}"))),),
        )
        for k in range(1, n_sources + 1)
    )


@dataclass
class MixtureTask:
    """The named sources, their merge rules, and the parameters theta."""

    sources: tuple[str, ...]
    program_template: Program
    params: np.ndarray

    def __post_init__(self) -> None:
        self.sources = tuple(self.sources)
        self.params = np.asarray(self.params, dtype=np.float64)
        if not self.sources:
            raise ValueError("a mixture task needs at least one source")
        if self.params.shape != (len(self.sources),):
            raise ValueError(
                f"params shape {self.params.shape} does not match "
                f"{len(self.sources)} sources"
            )
        merge = [
            r for r in self.program_template.rules
            if r.head.predicate.name == "target"
        ]
        if len(merge) != len(self.sources):
            raise ValueError(
                f"expected one merge rule per source "
                f"({len(self.sources)}), found {len(merge)}"
            )

    @property
    def weights(self) -> np.ndarray:
        return sigmoid(self.params)


def make_mixture_task(sources, init: float = 0.0) -> MixtureTask:
    """Standard task setup: merge rules over the named sources, theta
    initialized to a constant (0 gives every source weight 0.5)."""
    sources = tuple(sources)
    return MixtureTask(
        sources=sources,
        program_template=Program(make_merge_rules(len(sources))),
        params=np.full(len(sources), float(init)),
    )


@dataclass(frozen=True)
class TrainingExample:
    """One instance with its program and a scene graph per source."""

    instance: DeicticInstance
    program: Program
    scene_graphs: dict[str, SceneGraph]


def mixture_facts(
    sources: tuple[str, ...],
    scene_graphs: dict[str, SceneGraph],
) -> tuple[FactSet, np.ndarray]:
    """Tag each source's facts with its sggK constant and pool them."""
    facts = FactSet()
    values: list[float] = []
    for k, source in enumerate(sources, start=1):
        try:
            sg = scene_graphs[source]
        except KeyError:
            raise KeyError(f"example has no scene graph for source {source!r}")
        tag = Term(f"sgg{k}")
        source_facts, source_values = scene_graph_to_facts(sg)
        for fact, value in zip(source_facts, source_values):
            tagged = Atom(
                Predicate(_tag_predicate(fact.predicate.name), fact.predicate.arity + 1),
                fact.args + (tag,),
            )
            before = len(facts)
            position = facts.add(tagged)
            if len(facts) > before:
                values.append(float(value))
            else:
                values[position] = max(values[position], float(value))
    return facts, np.array(values, dtype=np.float64)


@dataclass
class _GroundedExample:
    graph: ReasoningGraph
    v0: np.ndarray
    weights_base: np.ndarray
    merge_indices: np.ndarray
    extraction_sg: SceneGraph
    answer_boxes: list[Box]


def _ground_example(task: MixtureTask, example: TrainingExample) -> _GroundedExample:
    specialized = specialize_program(example.program)
    combined = Program(specialized.rules + task.program_template.rules)
    merge_offset = len(specialized.rules)
    facts, fact_values = mixture_facts(task.sources, example.scene_graphs)
    graph = build_reasoning_graph(combined, facts)
    weights_base = np.array([r.weight for r in combined.rules], dtype=np.float64)
    merge_indices = np.arange(
        merge_offset, merge_offset + len(task.sources), dtype=np.int64
    )
    return _GroundedExample(
        graph=graph,
        v0=graph.initial_valuation(fact_values),
        weights_base=weights_base,
        merge_indices=merge_indices,
        extraction_sg=example.scene_graphs[task.sources[0]],
        answer_boxes=[a.box for a in example.instance.answers],
    )


def _example_loss_and_grad(
    grounded: _GroundedExample,
    theta: np.ndarray,
    reasoner_cfg: ReasonerConfig,
    iou_threshold: float,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """BCE loss for one example and its gradient with respect to theta."""
    graph = grounded.graph
    weights = grounded.weights_base.copy()
    w = sigmoid(theta)
    weights[grounded.merge_indices] = w

    v_final, tape = forward(graph, grounded.v0, weights, reasoner_cfg, record=True)
    predictions = extract_targets(
        graph, v_final, grounded.extraction_sg, reasoner_cfg, rng=rng
    )
    if not predictions:
        return 0.0, np.zeros_like(theta)

    scores = np.array([p.score for p in predictions], dtype=np.float64)
    labels = label_predictions(predictions, grounded.answer_boxes, iou_threshold)
    loss = bce_loss(scores, labels)
    d_scores = bce_grad(scores, labels)

    loss_grad = np.zeros(graph.n_atoms, dtype=np.float64)
    target = Predicate("target", 1)
    any_path = False
    for pred, d in zip(predictions, d_scores):
        if pred.fallback:
            continue  # sampled score: constant with respect to the weights
        atom_ = Atom(target, (pred.object_constant,))
        index = graph.atom_index.get(atom_)
        if index is not None:
            loss_grad[index] += d
            any_path = True
    if not any_path:
        return loss, np.zeros_like(theta)

    grad_weights, _ = backward(
        graph, grounded.v0, weights, reasoner_cfg, loss_grad, tape
    )
    grad_theta = grad_weights[grounded.merge_indices] * w * (1.0 - w)
    return loss, grad_theta


@dataclass(frozen=True)
class TraceStep:
    step: int
    loss: float
    val_map: float | None = None


@dataclass
class TrainResult:
    theta: np.ndarray
    weights: np.ndarray
    trace: list[TraceStep] = field(default_factory=list)


def evaluate_mixture(
    task: MixtureTask,
    theta,
    data: list[TrainingExample],
    reasoner_cfg: ReasonerConfig | None = None,
    eval_cfg: EvalConfig | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """mAP of the mixture with the given parameters over a dataset."""
    theta = np.asarray(theta, dtype=np.float64)
    reasoner_cfg = reasoner_cfg or ReasonerConfig(steps=4)
    eval_cfg = eval_cfg or EvalConfig()
    if rng is None:
        rng = np.random.default_rng(reasoner_cfg.rng_seed)
    instances = []
    for example in data:
        grounded = _ground_example(task, example)
        weights = grounded.weights_base.copy()
        weights[grounded.merge_indices] = sigmoid(theta)
        v_final = forward(grounded.graph, grounded.v0, weights, reasoner_cfg)
        predictions = extract_targets(
            grounded.graph, v_final, grounded.extraction_sg, reasoner_cfg, rng=rng
        )
        instances.append(
            (
                [(p.box, p.score) for p in predictions],
                grounded.answer_boxes,
            )
        )
    return evaluate_instances(instances, eval_cfg).map


def train_mixture(
    task: MixtureTask,
    data: list[TrainingExample],
    cfg: TrainConfig,
    val_data: list[TrainingExample] | None = None,
    reasoner_cfg: ReasonerConfig | None = None,
    val_every: int = 0,
) -> TrainResult:
    """RMSProp training of the mixture weights.

    Per step: draw a batch (default size 1) of examples, run the reasoner,
    label the extracted targets by IoU against the answers, backpropagate
    the BCE loss to the merge-rule weights, and update theta.  Validation
    mAP is recorded at the start, at the end, and every ``val_every`` steps
    when positive.  Groundings are cached per example across steps.
    """
    if not data:
        raise ValueError("training data is empty")
    reasoner_cfg = reasoner_cfg or ReasonerConfig(steps=4)
    rng = np.random.default_rng(cfg.seed)
    theta = task.params.astype(np.float64).copy()
    square_avg = np.zeros_like(theta)
    cache: dict[int, _GroundedExample] = {}

    def grounded_for(index: int) -> _GroundedExample:
        if index not in cache:
            cache[index] = _ground_example(task, data[index])
        return cache[index]

    def validation_map() -> float | None:
        if val_data is None:
            return None
        return evaluate_mixture(
            task, theta, val_data, reasoner_cfg,
            rng=np.random.default_rng(cfg.seed),
        )

    trace: list[TraceStep] = [
        TraceStep(step=0, loss=float("nan"), val_map=validation_map())
    ]

    for step in range(1, cfg.steps + 1):
        batch_loss = 0.0
        batch_grad = np.zeros_like(theta)
        for _ in range(cfg.batch_size):
            index = int(rng.integers(len(data)))
            loss, grad = _example_loss_and_grad(
                grounded_for(index), theta, reasoner_cfg,
                cfg.iou_threshold, rng,
            )
            batch_loss += loss
            batch_grad += grad
        batch_loss /= cfg.batch_size
        batch_grad /= cfg.batch_size

        square_avg = (
            cfg.rmsprop_alpha * square_avg
            + (1.0 - cfg.rmsprop_alpha) * batch_grad**2
        )
        theta = theta - cfg.lr * batch_grad / (np.sqrt(square_avg) + cfg.rmsprop_eps)

        record_val = (
            step == cfg.steps or (val_every > 0 and step % val_every == 0)
        )
        trace.append(
            TraceStep(
                step=step,
                loss=batch_loss,
                val_map=validation_map() if record_val else None,
            )
        )

    task.params = theta.copy()
    return TrainResult(theta=theta, weights=sigmoid(theta), trace=trace)


def save_checkpoint(
    path: str,
    theta,
    cfg: TrainConfig,
    step: int,
    rng: np.random.Generator | None = None,
) -> None:
    """JSON checkpoint: parameters, config, step, and RNG state."""
    payload = {
        "theta": list(np.asarray(theta, dtype=np.float64)),
        "config": cfg.to_dict(),
        "step": int(step),
        "rng_state": rng.bit_generator.state if rng is not None else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def load_checkpoint(
    path: str,
) -> tuple[np.ndarray, TrainConfig, int, np.random.Generator | None]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    theta = np.array(payload["theta"], dtype=np.float64)
    cfg = TrainConfig.from_dict(payload["config"])
    step = int(payload["step"])
    rng = None
    if payload.get("rng_state") is not None:
        rng = np.random.default_rng()
        rng.bit_generator.state = payload["rng_state"]
    return theta, cfg, step, rng


def save_trace(path: str, trace: list[TraceStep]) -> None:
    """CSV trace: step, loss, val_mAP (blank when not measured)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "val_mAP"])
        for row in trace:
            writer.writerow(
                [
                    row.step,
                    "" if row.loss != row.loss else f"{row.loss:.10g}",
                    "" if row.val_map is None else f"{row.val_map:.10g}",
                ]
            )
