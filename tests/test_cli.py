"""End-to-end command-line pipeline tests (all offline)."""

import contextlib
import copy
import gc
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import deixis

from deixis import cli, grounding
from deixis.cli import load_config_file, main
from deixis.datasets import load_deiclevr, load_deivg, load_predictions
from deixis.rulegen import FixtureClient
from deixis.scene import SchemaError, load_scene_graphs, scene_graph_to_dict
from deixis.datasets import random_scene_graphs


@pytest.fixture
def graphs_file(tmp_path):
    graphs = random_scene_graphs(20, seed=14)
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps([scene_graph_to_dict(g) for g in graphs]))
    return path


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "deixis" in capsys.readouterr().out


def test_reason_with_program_file(tmp_path, data_dir, capsys):
    program = tmp_path / "program.lp"
    program.write_text(
        "cond1(X):-on(X,Y),type(Y,barge).\n"
        "cond2(X):-holding(X,Y),type(Y,umbrella).\n"
        "target(X):-cond1(X),cond2(X).\n"
    )
    code = main(
        [
            "reason",
            "--scene-graphs", str(data_dir / "scene_graphs.json"),
            "--program", str(program),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    first = payload["results"][0]
    assert first["image_id"] == 101
    assert [p["object_id"] for p in first["predictions"]] == [1]
    assert first["predictions"][0]["score"] > 0.9
    assert len(first["fired_rules"]) == 3
    # Second scene has no barge: fallback prediction, flagged as such.
    second = payload["results"][1]
    assert all(p["fallback"] for p in second["predictions"])


def test_reason_underivable_target_falls_back(tmp_path, capsys):
    # Nothing is on a boat, so no target atom is derivable at any gamma or
    # step count: the scene still gets exactly one fallback prediction.
    scene = {
        "image_id": 5,
        "objects": [
            {"object_id": 1, "names": ["man"], "x": 0, "y": 0, "w": 10, "h": 20},
            {"object_id": 2, "names": ["tree"], "x": 30, "y": 0, "w": 10, "h": 40},
        ],
        "relations": [{"subject_id": 1, "predicate": "near", "object_id": 2}],
    }
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(scene))
    code = main(
        [
            "reason", "--scene-graphs", str(path),
            "--structured", '[["on", "boat"]]',
            "--gamma", "0.05", "--steps", "8",
        ]
    )
    assert code == 0
    result = json.loads(capsys.readouterr().out)["results"][0]
    assert len(result["predictions"]) == 1
    assert result["predictions"][0]["fallback"] is True
    assert result["fired_rules"] == []


def test_reason_with_structured_json(data_dir, capsys):
    code = main(
        [
            "reason",
            "--scene-graphs", str(data_dir / "scene_graphs.json"),
            "--structured", '[["on", "barge"]]',
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["program_meta"]["source"] == "template"
    assert [p["object_id"] for p in payload["results"][0]["predictions"]] == [1]


def test_reason_structured_names_the_bad_condition(data_dir, capsys):
    code = main(
        [
            "reason",
            "--scene-graphs", str(data_dir / "scene_graphs.json"),
            "--structured", '[["on", "barge"], ["on"]]',
        ]
    )
    assert code == 2
    assert "condition 2" in capsys.readouterr().err


def test_reason_names_the_bad_scene_graph_path(tmp_path, data_dir, capsys):
    graphs = json.loads((data_dir / "scene_graphs.json").read_text())
    del graphs[0]["objects"][1]["x"]
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps(graphs))
    code = main(
        [
            "reason", "--scene-graphs", str(path),
            "--structured", '[["on", "barge"]]',
        ]
    )
    assert code == 2
    assert "$[0].objects[1].x" in capsys.readouterr().err


def _one_scene(edit=None) -> dict:
    scene = {
        "image_id": 3,
        "objects": [
            {"object_id": 1, "names": ["man"], "x": 0, "y": 0, "w": 10, "h": 20},
            {"object_id": 2, "names": ["boat"], "x": 0, "y": 20, "w": 40, "h": 10},
        ],
        "relations": [{"subject_id": 2, "predicate": "on", "object_id": 1}],
    }
    if edit is not None:
        edit(scene)
    return scene


def _reason_on(tmp_path, scene) -> int:
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps([scene]))
    return main(
        [
            "reason", "--scene-graphs", str(path),
            "--structured", '[["on", "man"]]',
        ]
    )


def test_reason_reads_a_string_names_as_one_name(tmp_path, capsys):
    scene = _one_scene(lambda g: g["objects"][0].update(names="man"))
    assert _reason_on(tmp_path, scene) == 0
    result = json.loads(capsys.readouterr().out)["results"][0]
    assert [(p["object_id"], p["fallback"]) for p in result["predictions"]] == [
        (2, False)
    ]


@pytest.mark.parametrize(
    "edit, where",
    [
        (lambda g: g["objects"][0].update(names=5), "$[0].objects[0].names: "),
        (lambda g: g.update(image_id="abc"), "$[0].image_id: "),
        (lambda g: g.update(image_id=1.7), "$[0].image_id: "),
        (lambda g: g["relations"][0].update(object_id=9),
         "$[0].relations[0].object_id: "),
        (lambda g: g.update(relations=[
            {"subject": {"object_id": 7}, "predicate": "on", "object_id": 1}
        ]), "$[0].relations[0].subject.object_id: "),
        (lambda g: g["objects"][1].update(object_id=1),
         "$[0].objects[1].object_id: "),
        (lambda g: g.update(objects={"1": g["objects"][0]}), "$[0].objects: "),
    ],
    ids=[
        "names-number", "image-id-text", "image-id-fraction",
        "dangling-endpoint", "dangling-nested-endpoint",
        "duplicate-object-id", "objects-not-array",
    ],
)
def test_reason_names_the_path_of_a_malformed_field(tmp_path, capsys, edit, where):
    assert _reason_on(tmp_path, _one_scene(edit)) == 2
    assert capsys.readouterr().err.startswith(f"error: {where}")


def test_unmapped_exception_is_one_line_exit_4(tmp_path, capsys, monkeypatch):
    import deixis.cli as cli

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_reason", broken)
    assert _reason_on(tmp_path, _one_scene()) == 4
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


def test_reason_unifies_against_embeddings(tmp_path, data_dir, capsys):
    # The program says "boat"; the scene only has a barge.
    program = tmp_path / "program.lp"
    program.write_text(
        "cond1(X):-on(X,Y),type(Y,boat).\ntarget(X):-cond1(X).\n"
    )
    code = main(
        [
            "reason",
            "--scene-graphs", str(data_dir / "scene_graphs.json"),
            "--program", str(program),
            "--embeddings", str(data_dir / "embeddings.txt"),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    first = payload["results"][0]
    subs = {
        (s["original"], s["replacement"])
        for s in first["unification"]["substitutions"]
    }
    assert ("boat", "barge") in subs
    assert 1 in [p["object_id"] for p in first["predictions"]]
    assert "type(Y,barge)" in first["program"]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_reason_rejects_non_finite_embeddings(tmp_path, data_dir, capsys, value):
    vectors = tmp_path / "vectors.txt"
    vectors.write_text(f"2 2\nboat 1.0 0.0\non {value} 0.5\n")
    program = tmp_path / "program.lp"
    program.write_text("cond1(X):-on(X,Y),type(Y,boat).\ntarget(X):-cond1(X).\n")
    output = tmp_path / "results.json"
    code = main(
        [
            "reason",
            "--scene-graphs", str(data_dir / "scene_graphs.json"),
            "--program", str(program),
            "--embeddings", str(vectors),
            "--output", str(output),
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {vectors}:3: embedding values must be finite\n"
    )
    assert not output.exists()


def _on_scene(tmp_path, n: int, pairs) -> Path:
    """A scene file of ``n`` boxes with an ``on`` relation for each
    (subject id, object id) pair."""
    scene = {
        "image_id": 1,
        "objects": [
            {"object_id": i, "names": ["box"], "x": 0, "y": 0, "w": 1, "h": 1}
            for i in range(1, n + 1)
        ],
        "relations": [
            {"subject_id": i, "predicate": "on", "object_id": j}
            for i, j in pairs
        ],
    }
    graphs = tmp_path / "graphs.json"
    graphs.write_text(json.dumps([scene]))
    return graphs


def _reason_two_hops(tmp_path, graphs: Path, capsys) -> tuple[int, str, str]:
    program = tmp_path / "program.lp"
    program.write_text("target(X):-on(X,Y),on(Y,Z).\n")
    code = main(
        ["reason", "--scene-graphs", str(graphs), "--program", str(program)]
    )
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reason_input_too_large_to_ground_exits_2(tmp_path, capsys, monkeypatch):
    # A complete "on" over 20 objects has 380 facts, and the 2-hop rule
    # extends each by 19 more: 7,601 bindings with the empty one, over a
    # budget of 1,000.
    n = 20
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    graphs = _on_scene(tmp_path, n, pairs)
    monkeypatch.setattr(grounding, "BINDING_BUDGET", 1000)
    code, out, err = _reason_two_hops(tmp_path, graphs, capsys)
    assert code == 2
    assert out == ""
    assert err == (
        "error: rule 0 (target(X):-on(X,Y),on(Y,Z).): "
        "grounding passed its budget of 1000 bindings\n"
    )


def test_reason_grounds_a_long_chain(tmp_path, capsys):
    # 216 objects in a ring of "on": 216^3 substitutions of the rule's
    # variables, but only 216 two-hop paths, each a target.
    n = 216
    graphs = _on_scene(tmp_path, n, [(i, i % n + 1) for i in range(1, n + 1)])
    code, out, _ = _reason_two_hops(tmp_path, graphs, capsys)
    assert code == 0
    (result,) = json.loads(out)["results"]
    predictions = result["predictions"]
    assert len(predictions) == n
    assert not any(p["fallback"] for p in predictions)
    assert sorted(p["object_id"] for p in predictions) == list(range(1, n + 1))


def test_reason_with_llm_fixture(data_dir, capsys):
    code = main(
        [
            "reason",
            "--scene-graphs", str(data_dir / "scene_graphs.json"),
            "--prompt", "an object that is on a bench.",
            "--llm-fixture", str(data_dir / "llm_fixture.json"),
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["program_meta"]["source"] == "generated"
    # Graph 102: the dog (object 1) is on the bench.
    second = payload["results"][1]
    real = [p for p in second["predictions"] if not p["fallback"]]
    assert [p["object_id"] for p in real] == [1]


def test_reason_checks_the_chat_settings_with_a_fixture_too(data_dir, capsys):
    code = main(
        [
            "reason",
            "--scene-graphs", str(data_dir / "scene_graphs.json"),
            "--prompt", "an object that is on a bench.",
            "--llm-fixture", str(data_dir / "llm_fixture.json"),
            "--llm-retries", "-1",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == "error: max_retries must be >= 0, got -1\n"


def test_reason_prompt_offline_without_fixture_fails(data_dir, capsys):
    code = main(
        [
            "reason",
            "--scene-graphs", str(data_dir / "scene_graphs.json"),
            "--prompt", "an object that is on a bench.",
        ]
    )
    assert code == 2
    assert "offline" in capsys.readouterr().err


def test_reason_writes_output_and_manifest(tmp_path, data_dir):
    out = tmp_path / "predictions.json"
    code = main(
        [
            "reason",
            "--scene-graphs", str(data_dir / "scene_graphs.json"),
            "--structured", '[["on", "barge"]]',
            "--output", str(out),
        ]
    )
    assert code == 0
    assert out.exists()
    manifest = json.loads((tmp_path / "predictions.json.manifest.json").read_text())
    assert manifest["command"] == "reason"
    assert manifest["seed"] == 0
    assert "config_hash" in manifest and "versions" in manifest
    assert "timestamp" not in json.dumps(manifest).lower()


def test_synth_deivg_roundtrip_and_determinism(tmp_path, graphs_file):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = [
        "synth", "--kind", "deivg", "--k", "1", "--n", "10",
        "--seed", "3", "--scene-graphs", str(graphs_file),
    ]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    instances = load_deivg(str(out1))
    assert len(instances) == 10
    assert all(i.complexity == 1 for i in instances)


def test_synth_deiclevr(tmp_path):
    out = tmp_path / "clevr.json"
    code = main(
        [
            "synth", "--kind", "deiclevr", "--operation", "sort",
            "--n", "12", "--seed", "1", "--output", str(out),
        ]
    )
    assert code == 0
    instances = load_deiclevr(str(out))
    assert len(instances) == 12
    assert (tmp_path / "clevr.json.manifest.json").exists()


def test_eval_predictions_mode(tmp_path, graphs_file, capsys):
    data = tmp_path / "data.json"
    assert main(
        [
            "synth", "--kind", "deivg", "--k", "1", "--n", "6",
            "--seed", "3", "--scene-graphs", str(graphs_file),
            "--output", str(data),
        ]
    ) == 0
    capsys.readouterr()
    instances = load_deivg(str(data))
    predictions = [
        {
            "predictions": [
                {"box": a.box.to_dict(), "score": 0.9} for a in inst.answers
            ]
        }
        for inst in instances
    ]
    preds_file = tmp_path / "preds.json"
    preds_file.write_text(json.dumps(predictions))
    report_file = tmp_path / "report.json"
    code = main(
        [
            "eval", "--data", str(data), "--predictions", str(preds_file),
            "--output", str(report_file),
        ]
    )
    assert code == 0
    assert "mAP" in capsys.readouterr().out
    report = json.loads(report_file.read_text())
    assert report["map"] == pytest.approx(1.0)


_BOX = {"x": 0, "y": 0, "w": 10, "h": 10}


@pytest.mark.parametrize(
    "prediction, where",
    [
        ({"box": [1, 2], "score": 0.9}, "$[0].predictions[0].box"),
        ({"box": {**_BOX, "x": float("nan")}, "score": 0.9},
         "$[0].predictions[0].box"),
        ({"box": _BOX, "score": float("nan")}, "$[0].predictions[0].score"),
        ({"box": _BOX, "score": "high"}, "$[0].predictions[0].score"),
    ],
)
def test_eval_rejects_malformed_predictions(tmp_path, capsys, prediction, where):
    data = tmp_path / "data.json"
    data.write_text(json.dumps([{
        "deictic_prompt": "an object that is on a boat.",
        "answer": [{"names": ["man"], "object_id": 1, **_BOX}],
        "VG_image_id": 1,
    }]))
    preds = tmp_path / "preds.json"
    preds.write_text(json.dumps([{"predictions": [prediction]}]))
    code = main(["eval", "--data", str(data), "--predictions", str(preds)])
    assert code == 2
    assert where in capsys.readouterr().err


def test_eval_pipeline_mode_parallel(tmp_path, graphs_file, capsys):
    data = tmp_path / "data.json"
    assert main(
        [
            "synth", "--kind", "deivg", "--k", "2", "--n", "4",
            "--seed", "5", "--scene-graphs", str(graphs_file),
            "--output", str(data),
        ]
    ) == 0
    capsys.readouterr()
    code = main(
        [
            "eval", "--data", str(data), "--scene-graphs", str(graphs_file),
            "--match-iou", "0.9",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "mAP" in out and "1.0000" in out


def test_train_command_end_to_end(tmp_path, graphs_file, capsys):
    data = tmp_path / "data.json"
    assert main(
        [
            "synth", "--kind", "deivg", "--k", "1", "--n", "8",
            "--seed", "3", "--scene-graphs", str(graphs_file),
            "--output", str(data),
        ]
    ) == 0
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    code = main(
        [
            "train", "--data", str(data), "--scene-graphs", str(graphs_file),
            "--out-dir", str(out_dir), "--steps", "3",
            "--train-n", "4", "--val-n", "2", "--test-n", "2",
        ]
    )
    assert code == 0
    assert "test mAP" in capsys.readouterr().out
    checkpoint = json.loads((out_dir / "checkpoint.json").read_text())
    assert len(checkpoint["theta"]) == 2
    trace = (out_dir / "trace.csv").read_text().strip().split("\n")
    assert trace[0] == "step,loss,val_mAP"
    assert len(trace) >= 4  # header + start + steps
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["weights"]) == {"ground_truth", "corrupted"}
    assert (out_dir / "summary.json.manifest.json").exists()


def test_train_split_too_large_is_input_error(tmp_path, graphs_file, capsys):
    data = tmp_path / "data.json"
    assert main(
        [
            "synth", "--kind", "deivg", "--k", "1", "--n", "4",
            "--seed", "3", "--scene-graphs", str(graphs_file),
            "--output", str(data),
        ]
    ) == 0
    code = main(
        [
            "train", "--data", str(data), "--scene-graphs", str(graphs_file),
            "--out-dir", str(tmp_path), "--steps", "1",
            "--train-n", "100", "--val-n", "10", "--test-n", "10",
        ]
    )
    assert code == 2
    assert "split" in capsys.readouterr().err


def test_strict_synth_with_too_few_candidates_exits_2(tmp_path, graphs_file, capsys):
    code = main(
        [
            "synth", "--kind", "deivg", "--k", "1", "--n", "100000",
            "--strict", "--scene-graphs", str(graphs_file),
            "--output", str(tmp_path / "data.json"),
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: requested 100000 instances for k=1 but only ")
    assert not (tmp_path / "data.json").exists()


def _synth_instances(tmp_path, graphs_file, n: int) -> Path:
    data = tmp_path / "data.json"
    assert main(
        [
            "synth", "--kind", "deivg", "--k", "1", "--n", str(n),
            "--seed", "3", "--scene-graphs", str(graphs_file),
            "--output", str(data),
        ]
    ) == 0
    return data


def test_eval_seeds_each_fallback_draw_afresh(tmp_path, capsys):
    """With every relation removed no target is derivable, so each of the
    100 predictions is a fallback box. Each instance draws from its own
    generator, seeded with --seed, so reversing the instances reverses the
    per-instance report."""
    graphs = random_scene_graphs(200, seed=1, max_objects=12, max_relations=20)
    corpus = tmp_path / "graphs.json"
    corpus.write_text(json.dumps([scene_graph_to_dict(g) for g in graphs]))
    data = tmp_path / "data.json"
    assert main(
        [
            "synth", "--kind", "deivg", "--k", "2", "--n", "100", "--seed", "2",
            "--scene-graphs", str(corpus), "--output", str(data),
        ]
    ) == 0
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(
        [scene_graph_to_dict(g) | {"relations": []} for g in graphs]
    ))
    reversed_data = tmp_path / "reversed.json"
    reversed_data.write_text(json.dumps(json.loads(data.read_text())[::-1]))
    reports = []
    for instances in (data, reversed_data):
        out = tmp_path / f"{instances.stem}-report.json"
        assert main(
            ["eval", "--data", str(instances), "--scene-graphs", str(bare),
             "--output", str(out)]
        ) == 0
        reports.append(json.loads(out.read_text()))
    assert reports[0]["map"] == reports[1]["map"] == 0.17
    forwards, backwards = (
        [{k: v for k, v in r.items() if k != "instance_id"}
         for r in report["per_instance"]]
        for report in reports
    )
    assert backwards == forwards[::-1]


def test_reason_draws_every_fallback_from_one_generator(tmp_path, capsys):
    """Two identical scenes in which no target is derivable: the run's one
    generator, seeded with --seed, gives the second scene its own draw."""
    scene = {
        "image_id": 1,
        "objects": [
            {"object_id": i, "names": ["man"], "x": 10 * i, "y": 0,
             "w": 5, "h": 5}
            for i in range(1, 9)
        ],
        "relations": [],
    }
    path = tmp_path / "scenes.json"
    path.write_text(json.dumps([scene, scene]))
    capsys.readouterr()
    assert main(
        ["reason", "--scene-graphs", str(path),
         "--structured", '[["on", "boat"]]']
    ) == 0
    first, second = (
        r["predictions"]
        for r in json.loads(capsys.readouterr().out)["results"]
    )
    assert first[0]["fallback"] and second[0]["fallback"]
    assert first != second


def _break_an_unused_graph(tmp_path, graphs_file, data) -> tuple[Path, str]:
    """A copy of the corpus in which one graph that no instance of ``data``
    uses lacks a box coordinate, and the JSON path of the gap."""
    graphs = json.loads(graphs_file.read_text())
    used = {inst.image_id for inst in load_deivg(str(data))}
    index = next(
        i for i, g in enumerate(graphs)
        if g["image_id"] not in used and g["objects"]
    )
    del graphs[index]["objects"][0]["x"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(graphs))
    return path, f"$[{index}].objects[0].x"


def test_eval_checks_graphs_that_no_instance_uses(tmp_path, graphs_file, capsys):
    data = _synth_instances(tmp_path, graphs_file, 4)
    broken, where = _break_an_unused_graph(tmp_path, graphs_file, data)
    capsys.readouterr()
    code = main(["eval", "--data", str(data), "--scene-graphs", str(broken)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {where}: missing")


def test_train_checks_graphs_that_no_instance_uses(tmp_path, graphs_file, capsys):
    data = _synth_instances(tmp_path, graphs_file, 8)
    broken, where = _break_an_unused_graph(tmp_path, graphs_file, data)
    capsys.readouterr()
    code = main(
        [
            "train", "--data", str(data), "--scene-graphs", str(broken),
            "--out-dir", str(tmp_path / "run"), "--steps", "1",
            "--train-n", "4", "--val-n", "2", "--test-n", "2",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith(f"error: {where}: missing")


def test_eval_rejects_non_finite_gamma(tmp_path, graphs_file, capsys):
    data = _synth_instances(tmp_path, graphs_file, 4)
    capsys.readouterr()
    code = main(
        [
            "eval", "--data", str(data), "--scene-graphs", str(graphs_file),
            "--gamma", "inf",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: gamma must be")


def test_reason_rejects_a_gamma_whose_reciprocal_overflows(tmp_path, capsys):
    # The soft OR divides by gamma: at 1e-320 numpy would overflow and warn.
    path = tmp_path / "graphs.json"
    path.write_text(json.dumps([_one_scene()]))
    code = main(
        [
            "reason", "--scene-graphs", str(path),
            "--structured", '[["on", "man"]]', "--gamma", "1e-320",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: gamma must be positive and finite, at least "
        f"{sys.float_info.min}, got 1e-320\n"
    )


def test_train_rejects_non_finite_lr(tmp_path, graphs_file, capsys):
    data = _synth_instances(tmp_path, graphs_file, 8)
    capsys.readouterr()
    out_dir = tmp_path / "run"
    code = main(
        [
            "train", "--data", str(data), "--scene-graphs", str(graphs_file),
            "--out-dir", str(out_dir), "--steps", "1", "--lr", "inf",
            "--train-n", "4", "--val-n", "2", "--test-n", "2",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("error: lr must be")
    assert not (out_dir / "summary.json").exists()


def test_config_file_supplies_defaults(tmp_path, data_dir):
    config = tmp_path / "settings.json"
    config.write_text(
        json.dumps(
            {
                "scene-graphs": str(data_dir / "scene_graphs.json"),
                "gamma": 0.5,
                "seed": 9,
            }
        )
    )
    out = tmp_path / "out.json"
    # --scene-graphs comes from the config file, not the command line.
    code = main(
        [
            "reason", "--config", str(config),
            "--structured", '[["on", "barge"]]',
            "--output", str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["config"]["gamma"] == 0.5
    assert manifest["seed"] == 9


def test_explicit_flag_wins_over_config(tmp_path, data_dir):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"gamma": 0.5}))
    out = tmp_path / "out.json"
    code = main(
        [
            "reason", "--config", str(config),
            "--scene-graphs", str(data_dir / "scene_graphs.json"),
            "--structured", '[["on", "barge"]]',
            "--gamma", "0.01",
            "--output", str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["config"]["gamma"] == 0.01


def test_unknown_config_key_is_exit_2(tmp_path, data_dir, capsys):
    config = tmp_path / "settings.json"
    config.write_text(json.dumps({"gama": 0.5}))
    code = main(
        [
            "reason", "--config", str(config),
            "--scene-graphs", str(data_dir / "scene_graphs.json"),
            "--structured", '[["on", "barge"]]',
        ]
    )
    assert code == 2
    assert "unknown config keys: gama" in capsys.readouterr().err


@pytest.mark.parametrize(
    "before, after",
    [([], ["--conf", "{config}"]), ([], ["--confi={config}"]),
     (["--config", "{config}"], [])],
    ids=["abbreviated", "abbreviated-equals", "before-the-command"],
)
def test_config_is_read_wherever_argparse_reads_it(
    tmp_path, data_dir, before, after
):
    config = tmp_path / "settings.json"
    config.write_text(
        json.dumps({"scene-graphs": str(data_dir / "scene_graphs.json"),
                    "seed": 9})
    )
    out = tmp_path / "out.json"
    argv = [
        *before, "reason", *after, "--structured", '[["on", "barge"]]',
        "--output", str(out),
    ]
    assert main([a.format(config=config) for a in argv]) == 0
    manifest = json.loads((tmp_path / "out.json.manifest.json").read_text())
    assert manifest["seed"] == 9


def test_config_without_a_path_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reason", "--structured", '[["on", "barge"]]', "--config"])
    assert exc.value.code == 2
    assert "--config: expected one argument" in capsys.readouterr().err


def test_missing_required_settings_is_exit_2(capsys):
    code = main(["synth", "--kind", "deivg"])
    assert code == 2
    err = capsys.readouterr().err
    assert "missing required settings" in err and "--output" in err


def test_missing_file_is_exit_2(tmp_path, capsys):
    code = main(
        [
            "reason", "--scene-graphs", str(tmp_path / "nope.json"),
            "--structured", '[["on", "boat"]]',
        ]
    )
    assert code == 2


def test_bad_schema_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"deictic_prompt": "", "answer": []}]))
    code = main(["eval", "--data", str(bad), "--predictions", str(bad)])
    assert code == 2


_NOT_JSON = "not valid JSON: Expecting value: line 1 column 1 (char 0)"


@pytest.mark.parametrize(
    "reader",
    [load_scene_graphs, load_deivg, load_deiclevr, load_predictions,
     load_config_file, FixtureClient.load],
    ids=lambda reader: reader.__qualname__,
)
def test_json_reader_names_the_file_of_a_syntax_error(tmp_path, reader):
    bad = tmp_path / "bad.json"
    bad.write_text("nope")
    with pytest.raises(SchemaError) as err:
        reader(str(bad))
    assert str(err.value) == f"{bad}: {_NOT_JSON}"


@pytest.mark.parametrize("flag", ["--scene-graphs", "--predictions"])
def test_eval_names_which_json_file_is_not_valid(tmp_path, graphs_file, capsys, flag):
    data = _synth_instances(tmp_path, graphs_file, 4)
    bad = tmp_path / "bad.json"
    bad.write_text("nope")
    capsys.readouterr()
    assert main(["eval", "--data", str(data), flag, str(bad)]) == 2
    assert capsys.readouterr().err == f"error: {bad}: {_NOT_JSON}\n"


def test_reason_names_structured_when_it_is_not_json(data_dir, capsys):
    code = main(
        [
            "reason", "--scene-graphs", str(data_dir / "scene_graphs.json"),
            "--structured", "nope",
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == f"error: --structured: {_NOT_JSON}\n"


@pytest.mark.parametrize(
    "flag, value, least",
    [("--train-n", "0", 1), ("--train-n", "-3", 1), ("--val-n", "0", 1),
     ("--test-n", "-1", 1), ("--val-every", "-2", 0)],
)
def test_train_rejects_bad_split_flags(tmp_path, graphs_file, capsys, flag, value, least):
    data = _synth_instances(tmp_path, graphs_file, 8)
    capsys.readouterr()
    code = main(
        [
            "train", "--data", str(data), "--scene-graphs", str(graphs_file),
            "--out-dir", str(tmp_path / "run"), "--steps", "1",
            "--train-n", "4", "--val-n", "2", "--test-n", "2", flag, value,
        ]
    )
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: {flag} must be at least {least}, got {value}\n"
    )
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "command, flag, value, from_config",
    [("reason", "--seed", -1, False), ("synth", "--seed", -1, False),
     ("train", "--seed", -1, False), ("train", "--corrupt-seed", -100000, False),
     ("eval", "--seed", -1, False), ("eval", "--seed", -1, True),
     ("train", "--corrupt-seed", -3, True), ("reason", "--seed", None, True),
     ("train", "--seed", 1.5, True)],
)
def test_a_bad_seed_names_its_flag(
    tmp_path, graphs_file, data_dir, capsys, command, flag, value, from_config
):
    data = _synth_instances(tmp_path, graphs_file, 8)
    out = tmp_path / "out"
    argv = {
        "reason": ["--scene-graphs", str(data_dir / "scene_graphs.json"),
                   "--structured", '[["on", "barge"]]', "--output", str(out)],
        "synth": ["--kind", "deivg", "--n", "3", "--output", str(out)],
        "train": ["--data", str(data), "--scene-graphs", str(graphs_file),
                  "--out-dir", str(out), "--steps", "1",
                  "--train-n", "4", "--val-n", "2", "--test-n", "2"],
        "eval": ["--data", str(data), "--scene-graphs", str(graphs_file),
                 "--output", str(out)],
    }[command]
    if from_config:
        config = tmp_path / "settings.json"
        config.write_text(json.dumps({flag[2:]: value}))
        argv += ["--config", str(config)]
    else:
        argv += [flag, str(value)]
    capsys.readouterr()
    assert main([command, *argv]) == 2
    wanted = (
        f"must be at least 0, got {value}" if isinstance(value, int)
        else f"must be an integer, got {value!r}"
    )
    assert capsys.readouterr().err == f"error: {flag} {wanted}\n"
    assert not out.exists()


def test_offline_pipeline_touches_no_sockets(
    tmp_path, data_dir, no_network, capsys
):
    # Synthesis, reasoning, and evaluation all run with sockets disabled.
    graphs = tmp_path / "graphs.json"
    graphs.write_text(
        json.dumps(
            [scene_graph_to_dict(g) for g in random_scene_graphs(10, seed=2)]
        )
    )
    data = tmp_path / "data.json"
    assert main(
        [
            "synth", "--kind", "deivg", "--k", "1", "--n", "5",
            "--seed", "0", "--scene-graphs", str(graphs),
            "--output", str(data),
        ]
    ) == 0
    assert main(
        [
            "reason", "--scene-graphs", str(data_dir / "scene_graphs.json"),
            "--prompt", "an object that is on a bench.",
            "--llm-fixture", str(data_dir / "llm_fixture.json"),
            "--embeddings", str(data_dir / "embeddings.txt"),
        ]
    ) == 0
    assert main(
        ["eval", "--data", str(data), "--scene-graphs", str(graphs)]
    ) == 0


def test_runs_without_the_online_extra(data_dir):
    # With requests unimportable, everything offline still works and
    # --online fails with exit 2, naming the extra to install.
    script = (
        "import sys; sys.modules['requests'] = None; "
        "from deixis.cli import main; sys.exit(main(sys.argv[1:]))"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(deixis.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p
    )
    graphs = str(data_dir / "scene_graphs.json")

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )

    assert run("--version").returncode == 0
    offline = run("reason", "--scene-graphs", graphs,
                  "--structured", '[["on", "barge"]]')
    assert offline.returncode == 0, offline.stderr
    online = run("reason", "--scene-graphs", graphs, "--online",
                 "--llm-url", "http://chat.invalid/v1",
                 "--prompt", "an object that is on a bench.")
    assert online.returncode == 2
    assert "'online' extra" in online.stderr
    assert "Traceback" not in online.stderr


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, data_dir):
    # String hashing is randomised per process, so dict and set iteration
    # order may differ between runs; no output may follow it.
    graphs = tmp_path / "graphs.json"
    graphs.write_text(
        json.dumps([scene_graph_to_dict(g) for g in random_scene_graphs(30, seed=10)])
    )
    data = tmp_path / "deivg.json"
    assert main(
        ["synth", "--kind", "deivg", "--k", "2", "--n", "12", "--seed", "5",
         "--scene-graphs", str(graphs), "--output", str(data)]
    ) == 0
    program = tmp_path / "program.lp"
    program.write_text(
        "cond1(X):-holding(X,Y),type(Y,umbrella).\n"
        "cond2(X):-near(X,Y),type(Y,person).\n"
        "target(X):-cond1(X),cond2(X).\n"
        "target(X):-on(X,Y),target(Y).\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(deixis.__file__).parents[1]),
                    env.get("PYTHONPATH")) if p
    )
    script = "import sys; from deixis.cli import main; sys.exit(main(sys.argv[1:]))"

    def outputs(hash_seed: str) -> dict[str, bytes]:
        out = tmp_path / f"hash{hash_seed}"
        out.mkdir()
        commands = {
            "eval": ["eval", "--data", str(data), "--scene-graphs", str(graphs),
                     "--seed", "2", "--output", str(out / "report.json")],
            "reason": ["reason", "--scene-graphs", str(graphs),
                       "--program", str(program),
                       "--embeddings", str(data_dir / "embeddings.txt"),
                       "--seed", "3", "--output", str(out / "results.json")],
            "train": ["train", "--data", str(data), "--scene-graphs", str(graphs),
                      "--out-dir", str(out / "train"), "--steps", "5",
                      "--train-n", "6", "--val-n", "3", "--test-n", "3",
                      "--seed", "4"],
        }
        found = {}
        for name, argv in commands.items():
            done = subprocess.run(
                [sys.executable, "-c", script, *argv],
                env={**env, "PYTHONHASHSEED": hash_seed},
                capture_output=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            found[f"{name} stdout"] = done.stdout
        for path in sorted(out.rglob("*")):
            if path.is_file():
                found[str(path.relative_to(out))] = path.read_bytes()
        return found

    first, second = outputs("1"), outputs("2")
    assert sorted(first) == sorted(second) == sorted([
        "eval stdout", "reason stdout", "train stdout",
        "report.json", "report.json.manifest.json",
        "results.json", "results.json.manifest.json",
        "train/checkpoint.json", "train/summary.json",
        "train/summary.json.manifest.json", "train/trace.csv",
    ])
    for name in first:
        assert first[name] == second[name], name


# What the fuzz test puts in place of a value; _DELETE removes the key.
_DELETE = object()
_FUZZ_VALUES = (
    None, True, False, math.nan, math.inf, -math.inf, 2**70, "x", "1", [],
    [1], {}, {"object_id": 1}, _DELETE,
)


def _json_paths(node, path=()):
    """The path of every value below ``node``, a JSON tree."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield path + (key,)
        yield from _json_paths(child, path + (key,))


def _reject_constant(name):
    raise ValueError(f"output holds {name}, which is not JSON")


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_reason_on_a_mutated_scene_graph_exits_0_or_2(tmp_path_factory, data):
    """One or two values of a scene-graph file replaced by a value of
    another type, a non-finite or huge number, or deleted: reason exits 0
    with strict JSON on stdout, or 2, never with an internal error."""
    scenes = [_one_scene(lambda g: g["relations"][0].update(confidence=0.9))]
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        paths = list(_json_paths(scenes))
        if not paths:
            break
        *parents, key = data.draw(st.sampled_from(paths), label="path")
        node = scenes
        for k in parents:
            node = node[k]
        value = data.draw(st.sampled_from(_FUZZ_VALUES), label="value")
        if value is _DELETE:
            del node[key]
        else:
            node[key] = copy.deepcopy(value)
    path = tmp_path_factory.mktemp("fuzz") / "graphs.json"
    path.write_text(json.dumps(scenes))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(
            [
                "reason", "--scene-graphs", str(path),
                "--structured", '[["on", "man"]]',
            ]
        )
    assert code in (0, 2), err.getvalue()
    assert "internal error" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


@settings(max_examples=60, deadline=None)
@given(
    st.data(),
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(),
        st.lists(st.integers(), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(), max_size=1),
    ),
)
def test_a_relation_predicate_that_is_not_a_string_exits_2(
    tmp_path_factory, data, value
):
    """The fuzz above only rules out internal errors; a predicate read as
    ``str(value)`` would exit 0 with a wrongly named relation."""
    relations = [{"subject_id": 2, "predicate": "on", "object_id": 1},
                 {"subject_id": 1, "predicate": "near", "object_id": 2}]
    j = data.draw(st.sampled_from([0, 1]), label="relation")
    relations[j]["predicate"] = value
    scene = _one_scene(lambda g: g.update(relations=relations))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = _reason_on(tmp_path_factory.mktemp("predicate"), scene)
    assert code == 2
    assert err.getvalue() == (
        f"error: $[0].relations[{j}].predicate: must be a string, got {value!r}\n"
    )


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, enabled):
    seen = []

    def load(*args, **kwargs):
        seen.append(gc.isenabled())
        return load_scene_graphs(*args, **kwargs)

    monkeypatch.setattr(cli, "load_scene_graphs", load)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert _reason_on(tmp_path, _one_scene()) == 0
            assert gc.isenabled() == enabled
            bad = _one_scene(lambda g: g["objects"][0].update(w=math.nan))
            assert _reason_on(tmp_path, bad) == 2
            assert gc.isenabled() == enabled
            with pytest.raises(SystemExit):
                main(["--version"])
            assert gc.isenabled() == enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    # The command ran with the collector paused.
    assert seen == [False, False]


# A whole command run with the collector off leaves its reference cycles
# for the next collection: 66-151 objects per command below, and 92-151
# after full-size eval, reason and train runs (about 550 before main freed
# its argument parsers). The bound catches a change that starts making
# cycles in a loop.
UNREACHABLE_BOUND = 2000


def test_commands_leave_few_reference_cycles(tmp_path, data_dir):
    graphs = tmp_path / "graphs.json"
    graphs.write_text(
        json.dumps([scene_graph_to_dict(g) for g in random_scene_graphs(200, seed=3)])
    )
    data = tmp_path / "deivg.json"
    commands = {
        "synth": ["synth", "--kind", "deivg", "--k", "2", "--n", "60", "--seed", "5",
                  "--scene-graphs", str(graphs), "--output", str(data)],
        "eval": ["eval", "--data", str(data), "--scene-graphs", str(graphs),
                 "--output", str(tmp_path / "report.json")],
        "reason": ["reason", "--scene-graphs", str(graphs),
                   "--structured", '[["on", "table"]]',
                   "--embeddings", str(data_dir / "embeddings.txt"),
                   "--output", str(tmp_path / "results.json")],
        "train": ["train", "--data", str(data), "--scene-graphs", str(graphs),
                  "--out-dir", str(tmp_path / "train"), "--steps", "40",
                  "--train-n", "30", "--val-n", "10", "--test-n", "10"],
    }
    was_enabled = gc.isenabled()
    try:
        for name, argv in commands.items():
            gc.collect()
            gc.disable()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, name
            unreachable = gc.collect()
            assert unreachable < UNREACHABLE_BOUND, (name, unreachable)
    finally:
        (gc.enable if was_enabled else gc.disable)()
