"""Box-level average-precision evaluation of target predictions.

Predictions are matched greedily against answer boxes in descending score
order; a prediction is a true positive when its IoU with a still-unmatched
answer strictly exceeds the matching threshold.  AP is the area under the
precision-recall curve with all-point interpolation (the precision
envelope), and mAP averages AP over instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scene import Box


class EmptyEvaluation(ValueError):
    """mAP over zero instances is undefined."""


@dataclass(frozen=True)
class EvalConfig:
    """Matching threshold and how to read a prediction's confidence."""

    match_iou: float = 0.5
    score_key: str = "score"

    def __post_init__(self) -> None:
        if not 0.0 < self.match_iou <= 1.0:
            raise ValueError(f"match_iou must be in (0, 1], got {self.match_iou}")

    def to_dict(self) -> dict:
        return {"match_iou": self.match_iou, "score_key": self.score_key}


def _box_and_score(prediction, score_key: str, index: int) -> tuple[Box, float]:
    """Accept (box, score) pairs, dicts, or objects with box/score fields.
    A box given as a dict must hold numbers only (:meth:`Box.from_dict`);
    its errors name the prediction by its ``index``."""
    if isinstance(prediction, tuple) and len(prediction) == 2:
        box, score = prediction
    elif isinstance(prediction, dict):
        box, score = prediction["box"], prediction[score_key]
    else:
        box, score = prediction.box, getattr(prediction, score_key)
    if isinstance(box, dict):
        box = Box.from_dict(box, f"predictions[{index}].box")
    return box, float(score)


def _match(
    predictions, answers, match_iou: float, score_key: str
) -> tuple[list[int], list[bool], list[int | None]]:
    """Greedy one-to-one matching in descending score order.

    Returns the evaluation order (indices into ``predictions``), the
    true-positive flag per ordered prediction, and the matched answer index
    (or None) per ordered prediction.  Ties in score keep input order; ties
    in overlap go to the earliest answer.
    """
    scored = [_box_and_score(p, score_key, i) for i, p in enumerate(predictions)]
    for j, answer in enumerate(answers):
        if not isinstance(answer, Box):
            raise ValueError(
                f"answers[{j}] must be a Box, not {type(answer).__name__}"
            )
    order = sorted(range(len(scored)), key=lambda i: -scored[i][1])
    taken = [False] * len(answers)
    flags: list[bool] = []
    matched: list[int | None] = []
    for i in order:
        box, _ = scored[i]
        best_iou = 0.0
        best_j: int | None = None
        for j, answer in enumerate(answers):
            if taken[j]:
                continue
            overlap = box.iou(answer)
            if overlap > best_iou:
                best_iou = overlap
                best_j = j
        if best_j is not None and best_iou > match_iou:
            taken[best_j] = True
            flags.append(True)
            matched.append(best_j)
        else:
            flags.append(False)
            matched.append(None)
    return order, flags, matched


def average_precision(
    predictions, answers, match_iou: float = 0.5, score_key: str = "score"
) -> float:
    """All-point interpolated AP of predictions against answer boxes.

    Total by convention: no answers or no predictions both give 0.0.
    """
    answers = list(answers)
    predictions = list(predictions)
    if not answers or not predictions:
        return 0.0
    _, flags, _ = _match(predictions, answers, match_iou, score_key)
    return _precision_area(flags, len(answers))


def _precision_area(flags: list[bool], n_answers: int) -> float:
    """AP of ranked true-positive flags against ``n_answers`` answers."""
    tp = np.cumsum(np.asarray(flags, dtype=np.float64))
    ranks = np.arange(1, len(flags) + 1, dtype=np.float64)
    precision = tp / ranks
    recall = tp / n_answers

    # Precision envelope over the recall axis (all-point interpolation).
    mrec = np.concatenate([[0.0], recall, [1.0]])
    mpre = np.concatenate([[0.0], precision, [0.0]])
    for i in range(mpre.size - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    steps = np.flatnonzero(mrec[1:] != mrec[:-1])
    return float(np.sum((mrec[steps + 1] - mrec[steps]) * mpre[steps + 1]))


def mean_average_precision(average_precisions) -> float:
    """Arithmetic mean of per-instance APs; empty input is an error."""
    aps = list(average_precisions)
    if not aps:
        raise EmptyEvaluation("cannot average precision over zero instances")
    return float(np.mean(np.asarray(aps, dtype=np.float64)))


@dataclass(frozen=True)
class InstanceResult:
    """Evaluation outcome for one instance."""

    instance_id: int
    ap: float
    matches: tuple[tuple[int, int], ...]  # (prediction index, answer index)
    n_predictions: int
    n_answers: int

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "ap": self.ap,
            "matches": [list(m) for m in self.matches],
            "n_predictions": self.n_predictions,
            "n_answers": self.n_answers,
        }


@dataclass
class EvalReport:
    """mAP plus the per-instance breakdown and the config that produced it."""

    map: float
    per_instance: list[InstanceResult] = field(default_factory=list)
    config: EvalConfig = field(default_factory=EvalConfig)

    def to_dict(self) -> dict:
        return {
            "map": self.map,
            "per_instance": [r.to_dict() for r in self.per_instance],
            "config": self.config.to_dict(),
        }

    def render_table(self) -> str:
        lines = [f"{'instance':>10} {'AP':>10} {'preds':>7} {'answers':>8}"]
        for r in self.per_instance:
            lines.append(
                f"{r.instance_id:>10} {r.ap:>10.4f} "
                f"{r.n_predictions:>7} {r.n_answers:>8}"
            )
        lines.append(f"{'mAP':>10} {self.map:>10.4f}")
        return "\n".join(lines)


def evaluate_instances(instances, cfg: EvalConfig | None = None) -> EvalReport:
    """Evaluate (predictions, answer boxes) pairs into a full report."""
    cfg = cfg or EvalConfig()
    instances = list(instances)
    if not instances:
        raise EmptyEvaluation("no instances to evaluate")
    results = []
    for index, (predictions, answers) in enumerate(instances):
        predictions = list(predictions)
        answers = list(answers)
        ap = 0.0
        matches: tuple[tuple[int, int], ...] = ()
        if predictions and answers:
            order, flags, matched = _match(
                predictions, answers, cfg.match_iou, cfg.score_key
            )
            ap = _precision_area(flags, len(answers))
            matches = tuple(
                (pred_i, ans_j)
                for pred_i, ans_j in zip(order, matched)
                if ans_j is not None
            )
        results.append(
            InstanceResult(
                instance_id=index,
                ap=ap,
                matches=matches,
                n_predictions=len(predictions),
                n_answers=len(answers),
            )
        )
    return EvalReport(
        map=mean_average_precision([r.ap for r in results]),
        per_instance=results,
        config=cfg,
    )
