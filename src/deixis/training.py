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

theta reaches only the merge rules, and no rule body reads target/1, so
every atom below target is the same on every pass (activity analysis, as
in Hascoët and Pascual, "The Tapenade automatic differentiation tool",
ACM TOMS 2013). An example's first pass under a reasoner config runs its
whole graph; once the config reaches the graph's proof depth, every later
pass runs only the merge layer, with the same bits.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import DeicticInstance
from .evaluation import EvalConfig, evaluate_instances
from .grounding import GroundRule, ReasoningGraph, build_reasoning_graph
from .logic import Atom, FactSet, Predicate, Program, Rule, Term, render_rule
from .reasoner import (
    ReasonerConfig,
    TargetPrediction,
    backward,
    extract_targets,
    forward,
)
from .scene import Box, SceneGraph, scene_graph_to_facts, tagged_predicate

_BCE_EPS = 1e-7
_TARGET = Predicate("target", 1)


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
    return _bce(
        np.asarray(scores, dtype=np.float64), np.asarray(labels, dtype=np.float64)
    )[0]


def _bce(scores: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """bce_loss and its gradient with respect to the scores, both at the
    scores clamped once. np.maximum and np.minimum give np.clip's bits on
    finite scores without its Python-level wrapper."""
    s = np.minimum(np.maximum(scores, _BCE_EPS), 1.0 - _BCE_EPS)
    loss = float(-(labels * np.log(s) + (1.0 - labels) * np.log(1.0 - s)).sum())
    return loss, (s - labels) / (s * (1.0 - s))


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
        if not 0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
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
        if not 0 < self.rmsprop_eps < math.inf:
            raise ValueError(
                f"rmsprop_eps must be positive and finite, got {self.rmsprop_eps}"
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
            name = tagged_predicate(name)
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
    """The named sources, their merge rules, and the parameters theta.

    A task grounds each example once (:meth:`grounded`) and keeps the
    result, so training and every evaluation of a run share one grounding
    per example. Grounding does not depend on theta.
    """

    sources: tuple[str, ...]
    program_template: Program
    params: np.ndarray
    # id(example) -> (example, its grounding). The entry holds the example,
    # so its id cannot be reused by another object while it is cached.
    _groundings: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

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
        # Replaying only the merge layer is exact only while the target
        # atoms, the one place theta reaches, feed no other atom.
        for rule in self.program_template.rules:
            if any(b.predicate == _TARGET for b in rule.body):
                raise ValueError(
                    f"template rule {render_rule(rule)} reads target/1; "
                    f"no rule of a mixture may read it"
                )

    @property
    def weights(self) -> np.ndarray:
        return sigmoid(self.params)

    def grounded(self, example: "TrainingExample") -> "_GroundedExample":
        """The grounding of ``example`` under this task, built on first use."""
        entry = self._groundings.get(id(example))
        if entry is None:
            entry = (example, _ground_example(self, example))
            self._groundings[id(example)] = entry
        return entry[1]


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


def _source_graphs(
    sources: tuple[str, ...], scene_graphs: dict[str, SceneGraph]
) -> list[SceneGraph]:
    try:
        return [scene_graphs[source] for source in sources]
    except KeyError as exc:
        raise KeyError(
            f"example has no scene graph for source {exc.args[0]!r}"
        ) from None


def _source_tags(n_sources: int) -> list[str]:
    return [f"sgg{k}" for k in range(1, n_sources + 1)]


def mixture_facts(
    sources: tuple[str, ...],
    scene_graphs: dict[str, SceneGraph],
    program: Program | None = None,
) -> tuple[FactSet, np.ndarray]:
    """Tag each source's facts with its sggK constant and pool them.

    With a ``program`` (the specialized program plus its merge rules), only
    the tagged facts that one of its body atoms can read are built, as in
    :func:`scene.scene_graph_to_facts`; the pooled set grounds like the
    full pooled facts.
    """
    graphs = _source_graphs(sources, scene_graphs)
    parts = [
        scene_graph_to_facts(sg, program, tag=tag)
        for sg, tag in zip(graphs, _source_tags(len(graphs)))
    ]
    # Every fact ends in its source's tag, so sources never share a fact.
    facts = FactSet.pool(part for part, _ in parts)
    return facts, np.concatenate([np.empty(0), *(values for _, values in parts)])


@dataclass
class _GroundedExample:
    graph: ReasoningGraph
    fact_values: np.ndarray
    merge_indices: np.ndarray
    extraction_sg: SceneGraph
    answer_boxes: list[Box]
    # Per reasoner config that reaches the graph's proof depth: the final
    # valuation of the first pass, then the merge layer cut from it as
    # (graph, fact values).
    kept: dict = field(default_factory=dict, repr=False)


def _ground_example(task: MixtureTask, example: TrainingExample) -> _GroundedExample:
    specialized = specialize_program(example.program)
    combined = Program(specialized.rules + task.program_template.rules)
    merge_offset = len(specialized.rules)
    facts, fact_values = mixture_facts(task.sources, example.scene_graphs, combined)
    graph = build_reasoning_graph(combined, facts)
    merge_indices = np.arange(
        merge_offset, merge_offset + len(task.sources), dtype=np.int64
    )
    return _GroundedExample(
        graph=graph,
        fact_values=fact_values,
        merge_indices=merge_indices,
        extraction_sg=example.scene_graphs[task.sources[0]],
        answer_boxes=[a.box for a in example.instance.answers],
    )


def _merge_layer(
    graph: ReasoningGraph, valuation: np.ndarray
) -> tuple[ReasoningGraph, np.ndarray]:
    """The conjunctions that derive target/1 atoms, cut from a grounded
    graph into a graph one round deep, and its fact values: the body atoms
    of those conjunctions at their values in ``valuation``, the graph's
    final valuation.

    No rule body reads target/1, so those body atoms are final, and one
    round gives each target atom the bits the whole graph gives it: the
    conjunctions keep their order and rule indices, and the cut keeps
    every rule's weight slot, so the merge indices name the same rules.
    """
    targets = set(graph.target_atoms)
    starts, counts = graph.body_starts.tolist(), graph.body_counts.tolist()
    body_atoms, rules = graph.body_atoms.tolist(), graph.conj_rule.tolist()
    ground_rules = []
    body_ids: dict[int, None] = {}
    for c, head in enumerate(graph.conj_head.tolist()):
        if head in targets:
            body = body_atoms[starts[c] : starts[c] + counts[c]]
            body_ids.update(dict.fromkeys(body))
            ground_rules.append(
                GroundRule(
                    graph.atoms[head], tuple(graph.atoms[i] for i in body), rules[c]
                )
            )
    ids = list(body_ids)
    cut = ReasoningGraph(
        ground_rules,
        FactSet(graph.atoms[i] for i in ids),
        graph.weights,
        defines_target=graph.defines_target,
        depth=1,
    )
    return cut, valuation[ids]


def _reason(
    grounded: _GroundedExample,
    w: np.ndarray,
    reasoner_cfg: ReasonerConfig,
    record: bool = False,
):
    """One reasoner pass over an example with merge weights ``w``: the
    graph it ran on and what :func:`forward` returned.

    The first pass runs the whole graph. When ``reasoner_cfg.steps``
    reaches the graph's proof depth, that pass keeps its final valuation,
    and every later pass runs only the merge layer cut from it
    (:func:`_merge_layer`).
    """
    graph, fact_values = grounded.graph, grounded.fact_values
    replay = graph.depth is not None and reasoner_cfg.steps >= graph.depth
    kept = grounded.kept.get(reasoner_cfg) if replay else None
    if kept is not None:
        if isinstance(kept, np.ndarray):
            kept = grounded.kept[reasoner_cfg] = _merge_layer(graph, kept)
        graph, fact_values = kept
    weights = graph.weights.copy()
    weights[grounded.merge_indices] = w
    result = forward(graph, fact_values, weights, reasoner_cfg, record=record)
    if replay and kept is None:
        grounded.kept[reasoner_cfg] = result[0] if record else result
    return graph, result


def _example_loss_and_grad(
    grounded: _GroundedExample,
    theta: np.ndarray,
    reasoner_cfg: ReasonerConfig,
    iou_threshold: float,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """BCE loss for one example and its gradient with respect to theta."""
    return _loss_and_grad(
        grounded, sigmoid(theta), reasoner_cfg, iou_threshold, rng
    )


def _loss_and_grad(
    grounded: _GroundedExample,
    w: np.ndarray,
    reasoner_cfg: ReasonerConfig,
    iou_threshold: float,
    rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """:func:`_example_loss_and_grad` at the merge weights w = sigmoid(theta)."""
    graph, (v_final, tape) = _reason(grounded, w, reasoner_cfg, record=True)
    predictions = extract_targets(
        graph, v_final, grounded.extraction_sg, reasoner_cfg, rng=rng
    )
    if not predictions:
        return 0.0, np.zeros_like(w)

    scores = np.array([p.score for p in predictions], dtype=np.float64)
    labels = label_predictions(predictions, grounded.answer_boxes, iou_threshold)
    loss, d_scores = _bce(scores, labels)

    loss_grad = np.zeros(graph.n_atoms, dtype=np.float64)
    any_path = False
    for pred, d in zip(predictions, d_scores):
        # A fallback's score is sampled: constant with respect to the weights.
        if pred.node is not None:
            loss_grad[pred.node] += d
            any_path = True
    if not any_path:
        return loss, np.zeros_like(w)

    grad_weights, _ = backward(tape, loss_grad)
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
    w = sigmoid(theta)
    instances = []
    for example in data:
        grounded = task.grounded(example)
        graph, v_final = _reason(grounded, w, reasoner_cfg)
        predictions = extract_targets(
            graph, v_final, grounded.extraction_sg, reasoner_cfg, rng=rng
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
    when positive.  Each example is grounded once per task
    (:meth:`MixtureTask.grounded`).
    """
    if not data:
        raise ValueError("training data is empty")
    reasoner_cfg = reasoner_cfg or ReasonerConfig(steps=4)
    rng = np.random.default_rng(cfg.seed)
    theta = task.params.astype(np.float64).copy()
    square_avg = np.zeros_like(theta)

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
        w = sigmoid(theta)
        batch_loss = 0.0
        batch_grad = np.zeros_like(theta)
        for _ in range(cfg.batch_size):
            index = int(rng.integers(len(data)))
            loss, grad = _loss_and_grad(
                task.grounded(data[index]), w, reasoner_cfg,
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


def save_checkpoint(path: str, theta, cfg: TrainConfig, step: int) -> None:
    """JSON checkpoint: parameters, config and step."""
    payload = {
        "theta": list(np.asarray(theta, dtype=np.float64)),
        "config": cfg.to_dict(),
        "step": int(step),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


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
