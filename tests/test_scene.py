"""Scene graphs, boxes, and the facts translation."""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from deixis.logic import Atom, FactSet, Predicate, Term, atom
from deixis.scene import (
    Box,
    DanglingReference,
    SceneGraph,
    SceneObject,
    SceneRelation,
    SchemaError,
    canon_constant,
    canon_predicate,
    load_scene_graphs,
    object_constants,
    object_positions,
    parse_scene_graph,
    scene_graph_to_dict,
    scene_graph_to_facts,
    scene_rows,
    tagged_predicate,
)

from oracles import reference_scene_graphs


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


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=8))
@example("ℭar")
@example("ϒ on")
def test_a_canonical_name_is_a_constant_or_empty(name):
    """Some letters stay uppercase when lowercased (``ℭ``, ``ϒ``); kept at
    the start, they would make the name a variable."""
    for canon in (canon_constant, canon_predicate):
        result = canon(name)
        assert result == "" or Term(result).is_constant
        assert canon(result) == result


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


def _checked_facts(sg, tag=None):
    """The facts of ``sg`` through the checking constructors and
    ``FactSet.add``."""
    facts, values = FactSet(), []
    for name, args, value in scene_rows(sg):
        if tag is not None:
            name, args = tagged_predicate(name), (*args, tag)
        facts.add(Atom(Predicate(name, len(args)), tuple(map(Term, args))))
        values.append(value)
    return facts, values


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(st.sampled_from(list("boatℭϒΣ3 ")), max_size=4), max_size=3),
    st.sampled_from([None, "sgg0", "Src", "ℭ1"]),
)
def test_scene_facts_match_the_checked_build(names, tag):
    """A canonical name never reads as a variable, though some letters stay
    uppercase when lowercased; a tag that does is rejected as
    ``FactSet.add`` would reject it."""
    sg = SceneGraph(
        image_id=1,
        objects=(
            SceneObject(1, tuple(names), Box(0, 0, 1, 1)),
            SceneObject(2, ("boat",), Box(1, 1, 1, 1)),
        ),
        relations=(SceneRelation(1, "on", 2, 0.5),),
    )
    try:
        expected, expected_values = _checked_facts(sg, tag)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            scene_graph_to_facts(sg, tag=tag)
        assert str(err.value) == str(exc)
        return
    facts, values = scene_graph_to_facts(sg, tag=tag)
    assert list(facts) == list(expected)
    assert [facts.position(a) for a in expected] == list(range(len(expected)))
    assert values.tolist() == expected_values


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
    # The name -> position table is built once and kept on the graph.
    positions = object_positions(sg)
    assert positions == {"obj1": 0, "obj2": 1}
    assert object_positions(sg) is positions


def test_parse_scene_graph_tolerates_vg_shapes(data_dir):
    graphs = load_scene_graphs(str(data_dir / "scene_graphs.json"))
    assert [g.image_id for g in graphs] == [101, 102]
    barge = graphs[0].object_by_id(2)
    assert barge.names == ("barge",)
    assert (barge.box.x, barge.box.y, barge.box.w, barge.box.h) == (
        120, 170, 220, 90,
    )
    assert graphs[1].relations[0].confidence == pytest.approx(0.9)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_scene_relation_rejects_non_finite_confidence(value):
    with pytest.raises(ValueError, match="finite"):
        SceneRelation(1, "on", 2, confidence=value)


@pytest.mark.parametrize("value, clipped", [(7.5, 1.0), (-0.5, 0.0)])
def test_relation_confidence_is_clipped_at_ingestion(value, clipped):
    sg = parse_scene_graph(scene_graph_to_dict(make_graph()) | {
        "relations": [
            {"subject_id": 1, "predicate": "on", "object_id": 2,
             "confidence": value},
        ],
    })
    assert sg.relations[0].confidence == clipped


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda g: g["objects"][1].pop("x"), "$[1].objects[1].x"),
        (lambda g: g["relations"][0].update(confidence=float("nan")),
         "$[1].relations[0].confidence"),
        # An int too large for a float reads as infinite.
        pytest.param(lambda g: g["objects"][1].update(w=10**400),
                     "$[1].objects[1]", id="huge-int-box"),
        pytest.param(lambda g: g["relations"][0].update(confidence=-10**400),
                     "$[1].relations[0].confidence", id="huge-int-confidence"),
    ],
)
def test_load_scene_graphs_names_the_bad_path(tmp_path, edit, where):
    graphs = [scene_graph_to_dict(make_graph()) for _ in range(2)]
    edit(graphs[1])
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps(graphs))
    with pytest.raises(SchemaError) as err:
        load_scene_graphs(str(path))
    assert err.value.json_path == where


@pytest.mark.parametrize(
    "array, index, key, value",
    [("objects", 0, "x", True), ("objects", 1, "h", False),
     ("relations", 0, "confidence", True), ("relations", 0, "score", False)],
)
def test_a_bool_is_not_a_number(tmp_path, array, index, key, value):
    graph = scene_graph_to_dict(make_graph())
    entry = graph[array][index]
    entry.pop("confidence", None)
    entry[key] = value
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps([graph]))
    with pytest.raises(SchemaError) as err:
        load_scene_graphs(str(path))
    assert str(err.value) == (
        f"$[0].{array}[{index}].{key}: must be a number, got {value}"
    )
    with pytest.raises(SchemaError) as reference:
        reference_scene_graphs(json.loads(path.read_text()))
    assert str(reference.value) == str(err.value)


@pytest.mark.parametrize("value", [True, None, 5, 2.5, [1], ["on"], {}])
def test_a_relation_predicate_must_be_a_string(tmp_path, value):
    graph = scene_graph_to_dict(make_graph())
    graph["relations"][0]["predicate"] = value
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps([graph]))
    for image_ids in (None, set()):
        with pytest.raises(SchemaError) as err:
            load_scene_graphs(str(path), image_ids)
        assert str(err.value) == (
            f"$[0].relations[0].predicate: must be a string, got {value!r}"
        )
    with pytest.raises(SchemaError) as reference:
        reference_scene_graphs(json.loads(path.read_text()))
    assert str(reference.value) == str(err.value)


def test_scene_graph_dict_round_trip():
    sg = make_graph()
    again = parse_scene_graph(scene_graph_to_dict(sg))
    assert again == sg


# --- ingestion against the reference parser ---------------------------------

_ODD = st.sampled_from(
    [None, True, False, math.nan, math.inf, -math.inf, -1, 0, 1, 2.0, 2.5,
     "3", "2.0", "abc", "", [], ["man"], [1], {}, {"object_id": 1}]
)
_CORNER = st.one_of(st.integers(0, 60), st.floats(0.0, 60.0))
_SIZE = st.one_of(st.integers(1, 60), st.floats(0.5, 60.0))
_NAMES = st.one_of(
    st.lists(st.sampled_from(["man", "boat", "Stop Sign", "obj 2", ""]),
             max_size=3),
    st.sampled_from(["man", "boat"]),
)
_ALIASES = {
    "image_id": ("id", "VG_image_id"),
    "relations": ("relationships",),
    "names": ("name",),
    "confidence": ("score",),
}


@st.composite
def _scene_json(draw):
    """A scene graph as JSON, mostly well formed, with a few fields
    mutated: wrong types, NaN, bools, missing keys, aliases, nested
    endpoints and duplicate ids."""
    ids = draw(st.lists(st.integers(1, 5), max_size=4, unique=True))
    objects = [
        {"object_id": oid, "names": draw(_NAMES), "x": draw(_CORNER),
         "y": draw(_CORNER), "w": draw(_SIZE), "h": draw(_SIZE),
         **({"synsets": draw(_NAMES)} if draw(st.booleans()) else {})}
        for oid in ids
    ]
    endpoint = st.sampled_from(ids) if ids else st.integers(1, 5)
    relations = [
        {"subject_id": draw(endpoint),
         "predicate": draw(st.sampled_from(["on", "near", "parked on"])),
         "object_id": draw(endpoint),
         **({"confidence": draw(st.one_of(st.floats(-0.5, 1.5), st.just(1)))}
            if draw(st.booleans()) else {})}
        for _ in range(draw(st.integers(0, 4)))
    ]
    graph = {"image_id": draw(st.integers(0, 4)), "objects": objects,
             "relations": relations}
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2, 3]))):
        action = draw(
            st.sampled_from(["odd", "drop", "alias", "nest", "dup", "number"])
        )
        if action == "dup":
            if objects:
                draw(st.sampled_from(objects))["object_id"] = draw(
                    st.sampled_from(ids)
                )
            continue
        if action == "number":
            if objects or relations:
                entry = draw(st.sampled_from([*objects, *relations]))
                key = "x y w h".split() if "x" in entry else ["confidence"]
                entry[draw(st.sampled_from(key))] = draw(
                    st.sampled_from([-1, 0, -0.5, math.nan, math.inf, -math.inf])
                )
            continue
        holder = draw(st.sampled_from([graph, *objects, *relations]))
        key = draw(st.sampled_from(sorted(holder)))
        if action == "odd":
            holder[key] = draw(_ODD)
        elif action == "drop":
            del holder[key]
        elif action == "alias" and key in _ALIASES:
            holder[draw(st.sampled_from(_ALIASES[key]))] = holder.pop(key)
        elif action == "nest" and key in ("subject_id", "object_id"):
            inner = draw(st.sampled_from(["object_id", "id"]))
            holder[key[:-3]] = {inner: holder.pop(key)}
    return graph


@settings(max_examples=300, deadline=None)
@given(
    data=st.one_of(
        st.lists(_scene_json(), min_size=1, max_size=4),
        st.lists(_scene_json(), min_size=1, max_size=4),
        _scene_json(),
        _ODD,
    ),
    image_ids=st.one_of(st.none(), st.sets(st.integers(0, 4), max_size=2)),
)
def test_load_scene_graphs_matches_the_reference_parser(data, image_ids):
    text = json.dumps(data)
    try:
        expected = reference_scene_graphs(json.loads(text))
    except SchemaError as exc:
        expected = str(exc)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "graphs.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        if isinstance(expected, str):
            with pytest.raises(SchemaError) as err:
                load_scene_graphs(path, image_ids)
            assert str(err.value) == expected
        else:
            assert load_scene_graphs(path, image_ids) == [
                sg for sg in expected
                if image_ids is None or sg.image_id in image_ids
            ]


@pytest.mark.parametrize(
    "edit",
    [
        lambda g: g["objects"][1].update(object_id=1),
        lambda g: g["objects"][0].update(w=0),
        lambda g: g["objects"][0].update(x=float("nan")),
        lambda g: g["objects"][0].pop("h"),
        lambda g: g["objects"][1].update(names=[3]),
        lambda g: g["relations"][0].update(confidence=float("inf")),
        lambda g: g["relations"][0].update(object_id=9),
        lambda g: g["relations"][0].update(subject_id=True),
        lambda g: g.update(relations={}),
    ],
    ids=["duplicate-id", "empty-box", "nan-x", "missing-h", "number-name",
         "infinite-confidence", "dangling", "bool-endpoint", "relations-object"],
)
def test_graphs_left_unbuilt_are_checked_all_the_same(tmp_path, edit):
    graphs = [scene_graph_to_dict(make_graph()) | {"image_id": i}
              for i in (1, 2)]
    edit(graphs[1])
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps(graphs))
    with pytest.raises(SchemaError) as reference:
        reference_scene_graphs(json.loads(path.read_text()))
    for image_ids in (None, {1}, set()):
        with pytest.raises(SchemaError) as err:
            load_scene_graphs(str(path), image_ids)
        assert str(err.value) == str(reference.value)
        assert err.value.json_path.startswith("$[1].")


def test_load_scene_graphs_builds_only_the_asked_graphs(tmp_path):
    graphs = [scene_graph_to_dict(make_graph()) | {"image_id": i}
              for i in (4, 5, 4, 6)]
    graphs[2]["objects"][0]["names"] = ["last"]
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps(graphs))
    loaded = load_scene_graphs(str(path), {4, 9})
    assert [sg.image_id for sg in loaded] == [4, 4]
    # A repeated image id resolves to the last graph in a by-id dict.
    assert {sg.image_id: sg for sg in loaded}[4].objects[0].names == ("last",)
    assert load_scene_graphs(str(path), set()) == []
    assert len(load_scene_graphs(str(path))) == 4
