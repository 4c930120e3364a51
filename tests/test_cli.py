"""End-to-end command-line pipeline tests (all offline)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import deixis

from deixis.cli import main
from deixis.datasets import load_deiclevr, load_deivg
from deixis.scene import scene_graph_to_dict
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
