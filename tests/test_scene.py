"""Scene graphs, boxes, and the facts translation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from deixis.logic import atom
from deixis.scene import (
    Box,
    DanglingReference,
    SceneGraph,
    SceneObject,
    SceneRelation,
    canon_constant,
    canon_predicate,
    load_scene_graphs,
    object_constants,
    parse_scene_graph,
    scene_graph_to_dict,
    scene_graph_to_facts,
)


def make_graph():
    return SceneGraph(
        image_id=7,
        objects=(
            SceneObject(1, ("man",), Box(0, 0, 10, 20), ("man.n.01",)),
            SceneObject(2, ("boat", "vessel"), Box(5, 5, 30, 10), ("boat.n.01",)),
        ),
        relations=(SceneRelation(1, "on", 2, confidence=0.75),),
    )


def test_box_validates():
    with pytest.raises(ValueError):
        Box(0, 0, -1, 10)


@pytest.mark.parametrize("field", ["x", "y", "w", "h"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_box_rejects_non_finite_coordinates(field, value):
    coords = {"x": 0.0, "y": 0.0, "w": 10.0, "h": 10.0, field: value}
    with pytest.raises(ValueError, match="finite"):
        Box(**coords)


def test_box_iou_known_values():
    a = Box(0, 0, 10, 10)
    assert a.iou(Box(0, 0, 10, 10)) == 1.0
    assert a.iou(Box(20, 20, 10, 10)) == 0.0
    # Half-overlap: intersection 50, union 150.
    assert a.iou(Box(5, 0, 10, 10)) == pytest.approx(50 / 150)


@given(
    st.tuples(
        st.floats(0, 100), st.floats(0, 100),
        st.floats(1, 50), st.floats(1, 50),
    ),
    st.tuples(
        st.floats(0, 100), st.floats(0, 100),
        st.floats(1, 50), st.floats(1, 50),
    ),
)
def test_box_iou_symmetric_and_bounded(t1, t2):
    a, b = Box(*t1), Box(*t2)
    assert a.iou(b) == pytest.approx(b.iou(a))
    assert 0.0 <= a.iou(b) <= 1.0 + 1e-12


def test_canonicalization():
    assert canon_constant("Traffic Light!") == "trafficlight"
    assert canon_predicate("ON TOP OF") == "on_top_of"
    assert canon_constant(canon_constant("Boat")) == "boat"


def test_scene_graph_rejects_dangling_relation():
    with pytest.raises(DanglingReference):
        SceneGraph(
            image_id=1,
            objects=(SceneObject(1, ("man",), Box(0, 0, 1, 1), ()),),
            relations=(SceneRelation(1, "on", 99),),
        )


def test_scene_graph_to_facts_layout():
    sg = make_graph()
    facts, values = scene_graph_to_facts(sg)
    listed = list(facts)
    assert listed[0] == atom("on", "obj1", "obj2")
    # Type facts follow relations; every object name becomes one.
    assert atom("type", "obj1", "man") in facts
    assert atom("type", "obj2", "boat") in facts
    assert atom("type", "obj2", "vessel") in facts
    assert values[0] == pytest.approx(0.75)
    assert values.shape == (len(facts),)
    assert np.all((values >= 0) & (values <= 1))


def test_duplicate_relation_keeps_max_confidence():
    sg = SceneGraph(
        image_id=1,
        objects=(
            SceneObject(1, ("man",), Box(0, 0, 1, 1), ()),
            SceneObject(2, ("boat",), Box(1, 1, 1, 1), ()),
        ),
        relations=(
            SceneRelation(1, "on", 2, confidence=0.3),
            SceneRelation(1, "on", 2, confidence=0.9),
        ),
    )
    facts, values = scene_graph_to_facts(sg)
    pos = facts.position(atom("on", "obj1", "obj2"))
    assert values[pos] == pytest.approx(0.9)


def test_object_constants_are_positional():
    sg = SceneGraph(
        image_id=1,
        objects=(
            SceneObject(42, ("man",), Box(0, 0, 1, 1), ()),
            SceneObject(7, ("boat",), Box(1, 1, 1, 1), ()),
        ),
        relations=(),
    )
    constants = object_constants(sg)
    assert constants[42].name == "obj1"
    assert constants[7].name == "obj2"


def test_parse_scene_graph_tolerates_vg_shapes(data_dir):
    graphs = load_scene_graphs(str(data_dir / "scene_graphs.json"))
    assert [g.image_id for g in graphs] == [101, 102]
    barge = graphs[0].object_by_id(2)
    assert barge.names == ("barge",)
    assert (barge.box.x, barge.box.y, barge.box.w, barge.box.h) == (
        120, 170, 220, 90,
    )
    assert graphs[1].relations[0].confidence == pytest.approx(0.9)


def test_scene_graph_dict_round_trip():
    sg = make_graph()
    again = parse_scene_graph(scene_graph_to_dict(sg))
    assert again == sg
