"""Dataset synthesis: deictic prompts over scene graphs and block scenes."""

import json
import warnings

import numpy as np
import pytest

from deixis.datasets import (
    CLEVR_COLORS,
    RELATION_WHITELIST,
    AnswerObject,
    ClevrObject,
    ClevrScene,
    DeicticInstance,
    InsufficientCandidates,
    InsufficientCandidatesWarning,
    SchemaError,
    clevr_facts,
    clevr_oracle,
    clevr_program,
    clevr_scene_graph,
    corrupt_scene_graph,
    generate_deiclevr,
    load_deiclevr,
    load_deivg,
    random_scene_graphs,
    render_clevr_prompt,
    render_prompt,
    save_deiclevr,
    save_deivg,
    synthesize_deivg,
)
from deixis.grounding import build_reasoning_graph
from deixis.logic import atom
from deixis.reasoner import ReasonerConfig, extract_targets, forward
from deixis.scene import Box, SceneGraph, SceneObject, SceneRelation


def test_render_prompt_styles():
    assert (
        render_prompt([("holding", "umbrella"), ("on", "boat")])
        == "an object that is holding an umbrella, and that is on a boat."
    )
    assert (
        render_prompt([("has", "handle"), ("on", "bench")], style="s4")
        == "An object that has a handle and that is on a bench"
    )
    assert render_prompt([("on", "boat")]) == "an object that is on a boat."
    assert (
        render_prompt([("on", "floor"), ("near", "tree"), ("has", "hat")])
        == "an object that is on a floor, that is near a tree, "
        "and that has a hat."
    )


def test_article_heuristics():
    assert render_prompt([("wears", "glasses")]) == (
        "an object that wears glasses."
    )
    assert render_prompt([("near", "elephant")]) == (
        "an object that is near an elephant."
    )


def graph_with_two_boats():
    """Two men, one on each of two boats; one also holds an umbrella."""
    return SceneGraph(
        image_id=55,
        objects=(
            SceneObject(1, ("man",), Box(0, 0, 10, 10), ("man.n.01",)),
            SceneObject(2, ("boat",), Box(20, 0, 30, 10), ("boat.n.01",)),
            SceneObject(3, ("man",), Box(60, 0, 10, 10), ("man.n.01",)),
            SceneObject(4, ("boat",), Box(80, 0, 30, 10), ("boat.n.01",)),
            SceneObject(5, ("umbrella",), Box(0, 20, 8, 8), ("umbrella.n.01",)),
        ),
        relations=(
            SceneRelation(1, "on", 2),
            SceneRelation(3, "on", 4),
            SceneRelation(1, "holding", 5),
        ),
    )


@pytest.mark.filterwarnings(
    "ignore::deixis.datasets.InsufficientCandidatesWarning"
)
def test_synthesize_skips_ambiguous_and_keeps_synset_groups():
    # "on a boat" matches both men, but they share a synset, so the
    # instance is unambiguous with two answers.
    instances = synthesize_deivg([graph_with_two_boats()], k=1, n=10, seed=0)
    by_prompt = {i.deictic_prompt: i for i in instances}
    boat = by_prompt["an object that is on a boat."]
    assert {a.object_id for a in boat.answers} == {1, 3}
    umbrella = by_prompt["an object that is holding an umbrella."]
    assert [a.object_id for a in umbrella.answers] == [1]


@pytest.mark.filterwarnings(
    "ignore::deixis.datasets.InsufficientCandidatesWarning"
)
def test_synthesize_k2_requires_shared_subject():
    instances = synthesize_deivg([graph_with_two_boats()], k=2, n=10, seed=0)
    assert len(instances) == 1
    inst = instances[0]
    assert inst.complexity == 2
    assert {tuple(c) for c in inst.structured} == {
        ("on", "boat"),
        ("holding", "umbrella"),
    }
    assert [a.object_id for a in inst.answers] == [1]


def test_synthesize_only_uses_whitelisted_relations():
    sg = SceneGraph(
        image_id=9,
        objects=(
            SceneObject(1, ("man",), Box(0, 0, 10, 10), ()),
            SceneObject(2, ("boat",), Box(20, 0, 10, 10), ()),
        ),
        relations=(SceneRelation(1, "attached to", 2),),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", InsufficientCandidatesWarning)
        assert synthesize_deivg([sg], k=1, n=5, seed=0) == []
    assert "attached to" not in RELATION_WHITELIST


def test_synthesize_shortfall_warns_or_raises():
    graphs = [graph_with_two_boats()]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        instances = synthesize_deivg(graphs, k=1, n=50, seed=0)
    assert len(instances) < 50
    assert any(
        issubclass(w.category, InsufficientCandidatesWarning) for w in caught
    )
    with pytest.raises(InsufficientCandidates):
        synthesize_deivg(graphs, k=1, n=50, seed=0, strict=True)


def test_synthesize_is_deterministic():
    graphs = random_scene_graphs(30, seed=4)
    a = synthesize_deivg(graphs, k=1, n=20, seed=9)
    b = synthesize_deivg(graphs, k=1, n=20, seed=9)
    assert a == b


def test_deivg_save_load_round_trip(tmp_path):
    graphs = random_scene_graphs(40, seed=3)
    instances = synthesize_deivg(graphs, k=2, n=12, seed=1)
    assert instances
    path = tmp_path / "deivg.json"
    save_deivg(instances, str(path))
    again = load_deivg(str(path))
    assert again == instances
    # Byte-identical on re-save.
    second = tmp_path / "deivg2.json"
    save_deivg(again, str(second))
    assert path.read_bytes() == second.read_bytes()


@pytest.mark.filterwarnings(
    "ignore::deixis.datasets.InsufficientCandidatesWarning"
)
def test_deivg_record_shape_matches_vg_convention(tmp_path):
    instances = synthesize_deivg([graph_with_two_boats()], k=1, n=3, seed=0)
    path = tmp_path / "deivg.json"
    save_deivg(instances, str(path))
    records = json.loads(path.read_text())
    record = records[0]
    assert set(record) >= {"deictic_prompt", "answer", "VG_image_id",
                           "VG_data_index"}
    answer = record["answer"][0]
    assert {"names", "h", "w", "x", "y", "object_id"} <= set(answer)


def test_load_deivg_tolerates_name_variants(tmp_path):
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps(
            [
                {
                    "deictic_prompt": "an object that is on a boat.",
                    "answer": [
                        {"name": "man", "x": 0, "y": 0, "w": 5, "h": 5,
                         "object_id": 3}
                    ],
                    "VG_image_id": 12,
                }
            ]
        )
    )
    (inst,) = load_deivg(str(path))
    assert inst.answers[0].names == ("man",)
    assert inst.image_id == 12


def test_load_deivg_schema_errors_carry_paths(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            [
                {
                    "deictic_prompt": "p.",
                    "answer": [{"name": "man", "x": 0, "y": 0, "w": -3,
                                "h": 5, "object_id": 1}],
                    "VG_image_id": 1,
                }
            ]
        )
    )
    with pytest.raises(SchemaError) as err:
        load_deivg(str(path))
    assert "[0]" in str(err.value)


def test_clevr_oracle_examples():
    objects = tuple(
        ClevrObject(color=c, shape="cube", material="metal",
                    box=Box(40 + 150 * i, 80, 50, 50))
        for i, c in enumerate(["gray", "red", "cyan"])
    )
    scene = ClevrScene(objects=objects)
    # Delete the gray object: survivors are red, cyan; second is cyan.
    assert clevr_oracle(scene, "delete", 2, "gray") == 2
    # Sort by color: cyan, gray, red; first is cyan.
    sorted_scene = ClevrScene(
        objects=tuple(
            ClevrObject(color=c, shape="cube", material="metal",
                        box=Box(40 + 150 * i, 80, 50, 50))
            for i, c in enumerate(["yellow", "cyan", "red"])
        )
    )
    assert clevr_oracle(sorted_scene, "sort", 1, None) == 1


def test_clevr_prompts():
    assert render_clevr_prompt("delete", 2, "gray") == (
        "The second left-most object after deleting a gray object?"
    )
    assert render_clevr_prompt("sort", 1, None) == (
        "The first left-most object after sorting the objects by color?"
    )


def test_clevr_scene_invariants():
    with pytest.raises(ValueError):
        ClevrScene(objects=())
    dup = ClevrObject("red", "cube", "metal", Box(0, 0, 10, 10))
    dup2 = ClevrObject("red", "sphere", "matte", Box(20, 0, 10, 10))
    with pytest.raises(ValueError):
        ClevrScene(objects=(dup, dup2))


def test_clevr_reasoning_matches_oracle_spot_check():
    instances = generate_deiclevr(20, "delete", seed=12)
    for scene, prompt, answer_index, program in instances:
        facts, values = clevr_facts(scene)
        graph = build_reasoning_graph(program, facts)
        weights = np.array([r.weight for r in program.rules])
        cfg = ReasonerConfig(gamma=0.01, steps=2)
        v = forward(graph, values, weights, cfg)
        got = extract_targets(graph, v, clevr_scene_graph(scene), cfg, 0)
        assert len(got) == 1
        assert got[0].object_id - 1 == answer_index
        assert not got[0].fallback


def test_clevr_facts_layout():
    scene = ClevrScene(
        objects=(
            ClevrObject("red", "cube", "metal", Box(0, 0, 10, 10)),
            ClevrObject("cyan", "sphere", "matte", Box(30, 0, 10, 10)),
        )
    )
    facts, values = clevr_facts(scene)
    assert atom("leftof", "obj1", "obj2") in facts
    assert atom("color", "obj1", "red") in facts
    assert atom("color", "obj2", "cyan") in facts
    assert np.all(values == 1.0)


def test_generate_deiclevr_deterministic_and_valid():
    a = generate_deiclevr(30, "sort", seed=5)
    b = generate_deiclevr(30, "sort", seed=5)
    assert len(a) == 30
    assert [(p, i) for _, p, i, _ in a] == [(p, i) for _, p, i, _ in b]
    for scene, prompt, answer_index, program in a:
        assert 0 <= answer_index < len(scene.objects)
        assert clevr_oracle_from_prompt(scene, prompt) == answer_index


def clevr_oracle_from_prompt(scene, prompt: str) -> int:
    """Re-derive the answer straight from the rendered prompt text."""
    words = prompt.split()
    q = {"first": 1, "second": 2, "third": 3}[words[1]]
    if "deleting" in prompt:
        color = words[words.index("deleting") + 2]
        return clevr_oracle(scene, "delete", q, color)
    return clevr_oracle(scene, "sort", q, None)


def test_deiclevr_save_load_round_trip(tmp_path):
    instances = generate_deiclevr(10, "delete", seed=2)
    path = tmp_path / "clevr.json"
    save_deiclevr(instances, str(path))
    again = load_deiclevr(str(path))
    assert again == instances


@pytest.mark.parametrize(
    "box, message",
    [
        ({"y": 90, "w": 60, "h": 60},
         "$[0].objects[0].box.x: missing required key 'x'"),
        ({"x": 40, "y": True, "w": 60, "h": 60},
         "$[0].objects[0].box.y: must be a number"),
        ({"x": "12", "y": 90, "w": 60, "h": 60},
         "$[0].objects[0].box.x: must be a number"),
        ([40, 90, 60, 60],
         "$[0].objects[0].box: must be an {x, y, w, h} object"),
    ],
    ids=["missing-x", "bool-y", "string-x", "not-an-object"],
)
def test_load_deiclevr_box_errors_name_their_path(tmp_path, box, message):
    path = tmp_path / "clevr.json"
    save_deiclevr(generate_deiclevr(1, "sort", seed=2), str(path))
    records = json.loads(path.read_text())
    records[0]["objects"][0]["box"] = box
    path.write_text(json.dumps(records))
    with pytest.raises(SchemaError) as err:
        load_deiclevr(str(path))
    assert str(err.value) == message


def test_random_scene_graphs_shape():
    graphs = random_scene_graphs(25, seed=0)
    assert len(graphs) == 25
    assert len({g.image_id for g in graphs}) == 25
    for g in graphs:
        assert 3 <= len(g.objects) <= 7
        assert 2 <= len(g.relations) <= 8
        for rel in g.relations:
            assert rel.predicate in RELATION_WHITELIST
            assert rel.subject_id != rel.object_id
    assert random_scene_graphs(25, seed=0) == graphs


def test_corrupt_scene_graph_drops_and_rewires():
    sg = random_scene_graphs(1, seed=8, min_objects=6, max_objects=7,
                             min_relations=8, max_relations=8)[0]
    corrupted = corrupt_scene_graph(sg, drop_rate=0.5,
                                    spurious_per_relation=2, seed=0)
    assert corrupted.objects == sg.objects
    original = set(sg.relations)
    kept = [r for r in corrupted.relations if r in original]
    spurious = [r for r in corrupted.relations if r not in original]
    assert len(kept) < len(sg.relations)
    assert spurious, "rewired copies must introduce false edges"
    for rel in spurious:
        # Same predicate/object as some original edge, different subject.
        assert any(
            rel.predicate == orig.predicate
            and rel.object_id == orig.object_id
            and rel.subject_id != orig.subject_id
            for orig in sg.relations
        )
    assert corrupt_scene_graph(sg, seed=0) == corrupt_scene_graph(sg, seed=0)


def test_corrupt_zero_rates_is_identity_plus_nothing():
    sg = random_scene_graphs(1, seed=3)[0]
    same = corrupt_scene_graph(sg, drop_rate=0.0, spurious_per_relation=0,
                               seed=1)
    assert same.relations == sg.relations


def test_deictic_instance_validation():
    answer = AnswerObject(1, Box(0, 0, 1, 1), ("man",))
    with pytest.raises(ValueError):
        DeicticInstance("", (answer,), 1)
    with pytest.raises(ValueError):
        DeicticInstance("p.", (), 1)
    with pytest.raises(ValueError):
        DeicticInstance("p.", (answer,), 1,
                        structured=(("on", "boat"),), complexity=2)
