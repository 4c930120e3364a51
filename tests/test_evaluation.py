"""Average precision, greedy matching, and the evaluation report."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deixis.evaluation import (
    EmptyEvaluation,
    EvalConfig,
    average_precision,
    evaluate_instances,
    mean_average_precision,
)
from deixis.scene import Box

from oracles import oracle_average_precision


def boxes(raw):
    return [Box(*b) for b in raw]


def test_spec_example_half_ap():
    answers = [Box(0, 0, 10, 10)]
    predictions = [
        (Box(100, 100, 10, 10), 0.9),
        (Box(0, 0, 10, 10), 0.8),
    ]
    assert average_precision(predictions, answers) == pytest.approx(0.5)


def test_empty_inputs_score_zero():
    assert average_precision([], [Box(0, 0, 1, 1)]) == 0.0
    assert average_precision([(Box(0, 0, 1, 1), 0.5)], []) == 0.0


def test_mean_average_precision_rejects_empty():
    with pytest.raises(EmptyEvaluation):
        mean_average_precision([])
    with pytest.raises(EmptyEvaluation):
        evaluate_instances([])


def test_matching_is_one_to_one():
    # Two predictions on the same answer: only one true positive.
    answer = [Box(0, 0, 10, 10)]
    predictions = [
        (Box(0, 0, 10, 10), 0.9),
        (Box(0, 0, 10, 10), 0.8),
    ]
    # Ranks: TP at 1, FP at 2; AP = 1.0 (recall saturates at rank 1).
    assert average_precision(predictions, answer) == pytest.approx(1.0)


def test_match_iou_is_strict():
    # IoU exactly at the threshold must NOT match.
    answers = [Box(0, 0, 10, 10)]
    predictions = [(Box(0, 0, 10, 5), 0.9)]  # IoU exactly 0.5
    assert average_precision(predictions, answers, match_iou=0.5) == 0.0
    assert average_precision(predictions, answers, match_iou=0.49) == 1.0


def test_fixture_values_to_1e9(data_dir):
    fixture = json.loads((data_dir / "map_fixture.json").read_text())
    aps = []
    for case in fixture["instances"]:
        answers = boxes(case["answers"])
        predictions = [(Box(*b), s) for b, s in case["predictions"]]
        ap = average_precision(
            predictions, answers, match_iou=fixture["match_iou"]
        )
        assert abs(ap - case["expected_ap"]) < 1e-9, case["note"]
        aps.append(ap)
    assert abs(mean_average_precision(aps) - fixture["expected_map"]) < 1e-9


def test_report_structure(data_dir):
    fixture = json.loads((data_dir / "map_fixture.json").read_text())
    instances = [
        ([(Box(*b), s) for b, s in case["predictions"]],
         boxes(case["answers"]))
        for case in fixture["instances"]
    ]
    report = evaluate_instances(instances, EvalConfig(match_iou=0.5))
    assert abs(report.map - fixture["expected_map"]) < 1e-9
    assert len(report.per_instance) == 5
    table = report.render_table()
    assert "mAP" in table
    data = report.to_dict()
    assert data["map"] == report.map
    assert len(data["per_instance"]) == 5


def test_accepts_dicts_and_objects():
    answers = [Box(0, 0, 10, 10)]
    as_dicts = [{"box": {"x": 0, "y": 0, "w": 10, "h": 10}, "score": 0.9}]
    assert average_precision(as_dicts, answers) == 1.0

    class Pred:
        box = Box(0, 0, 10, 10)
        score = 0.9

    assert average_precision([Pred()], answers) == 1.0


@pytest.mark.parametrize(
    "box, path",
    [
        ({"x": "1", "y": 1, "w": 5, "h": 5}, r"predictions\[0\]\.box\.x"),
        ({"x": 1, "y": True, "w": 5, "h": 5}, r"predictions\[0\]\.box\.y"),
        ({"x": 1, "y": 1, "w": 5}, r"predictions\[0\]\.box\.h"),
    ],
)
def test_dict_boxes_must_hold_numbers(box, path):
    # A coercing reader would score each of these 1.0 against this answer.
    with pytest.raises(ValueError, match=path):
        evaluate_instances([([(box, 0.9)], [Box(1, 1, 5, 5)])], EvalConfig())


def test_answers_given_as_dicts_are_rejected():
    answer = {"x": 0, "y": 0, "w": 10, "h": 10}
    with pytest.raises(ValueError, match=r"answers\[0\] must be a Box, not dict"):
        average_precision([(Box(0, 0, 10, 10), 0.9)], [answer])


def test_score_key_override():
    answers = [Box(0, 0, 10, 10)]
    preds = [{"box": Box(0, 0, 10, 10), "confidence": 0.4}]
    cfg = EvalConfig(score_key="confidence")
    report = evaluate_instances([(preds, answers)], cfg)
    assert report.map == 1.0


@st.composite
def instance_cases(draw):
    n_answers = draw(st.integers(1, 4))
    answers = []
    for i in range(n_answers):
        answers.append((i * 30.0, 0.0, 10.0, 10.0))
    n_preds = draw(st.integers(0, 6))
    predictions = []
    for _ in range(n_preds):
        if draw(st.booleans()):
            # Aim at some answer, possibly with partial overlap.
            target = draw(st.integers(0, n_answers - 1))
            dx = draw(st.sampled_from([0.0, 2.0, 6.0]))
            box = (target * 30.0 + dx, 0.0, 10.0, 10.0)
        else:
            box = (draw(st.integers(0, 10)) * 7.0, 50.0, 10.0, 10.0)
        # Quantized scores keep monotone transforms collision-free.
        predictions.append((box, draw(st.integers(1, 999)) / 1000.0))
    return predictions, answers


@settings(max_examples=200, deadline=None)
@given(instance_cases(), st.sampled_from([0.3, 0.5, 0.75]))
def test_matches_reference_implementation(case, match_iou):
    raw_predictions, raw_answers = case
    predictions = [(Box(*b), s) for b, s in raw_predictions]
    answers = boxes(raw_answers)
    ours = average_precision(predictions, answers, match_iou=match_iou)
    report = evaluate_instances(
        [(predictions, answers)], EvalConfig(match_iou=match_iou)
    )
    reference = oracle_average_precision(
        raw_predictions, raw_answers, match_iou
    )
    assert ours == pytest.approx(reference, abs=1e-12)
    assert report.per_instance[0].ap == pytest.approx(reference, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(
    instance_cases(),
    st.floats(0.1, 3.0),
    st.floats(-0.5, 0.5),
)
def test_monotone_transform_invariance(case, scale, shift):
    raw_predictions, raw_answers = case
    answers = boxes(raw_answers)
    predictions = [(Box(*b), s) for b, s in raw_predictions]
    transformed = [(box, scale * s + shift) for box, s in predictions]
    assert average_precision(predictions, answers) == average_precision(
        transformed, answers
    )


def test_map_averages_instances():
    perfect = ([(Box(0, 0, 10, 10), 0.9)], [Box(0, 0, 10, 10)])
    useless = ([(Box(50, 50, 10, 10), 0.9)], [Box(0, 0, 10, 10)])
    report = evaluate_instances([perfect, useless])
    assert report.map == pytest.approx(0.5)
    assert [round(r.ap, 6) for r in report.per_instance] == [1.0, 0.0]
