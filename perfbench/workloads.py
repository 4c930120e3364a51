"""The four benchmark workloads: seeded inputs, one deixis command each,
and an output check that does not trust the code under test.

Every input is generated from the workload seed before any timing starts,
in a process of its own:

    python3 perfbench/workloads.py WORKLOAD SEED SIZE OUT_DIR

writes the inputs to OUT_DIR and prints their description as JSON. The
command under test receives only those files; it is never passed the
seed, so each command runs at its CLI defaults apart from the sizes below.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

# Input sizes. "full" is what the timed runs use; "smoke" runs every
# workload in seconds for the benchmark's own tests. Each command takes a
# few seconds, so one run repeats it often enough for a steady median:
# train-mixture is the CLI default split and step count scaled by 1/5,
# which keeps its ratio of groundings to reasoner passes; train-steps
# grounds each of 100 examples about once and spends most of its time in
# 2000 taped steps.
SIZES = {
    "full": {
        "corpus_graphs": 3000,
        "eval_instances": 2000,
        "dense_scenes": 40,
        "dense_objects": 128,
        "dense_relations": (448, 640),
        "mixture_split": (240, 80, 80),
        "mixture_steps": 40,
        "steps_split": (100, 10, 10),
        "steps_steps": 2000,
    },
    "smoke": {
        "corpus_graphs": 200,
        "eval_instances": 100,
        "dense_scenes": 4,
        "dense_objects": 64,
        "dense_relations": (224, 320),
        "mixture_split": (40, 20, 20),
        "mixture_steps": 10,
        "steps_split": (20, 10, 10),
        "steps_steps": 200,
    },
}

# Fixed program for reason-dense: a conjunction and a disjunction over
# three conditions. "person" and "barge" never occur in the generated
# scenes, so the unifier has to substitute them.
DENSE_PROGRAM = """\
cond1(X):-holding(X,Y),type(Y,umbrella).
cond2(X):-near(X,Y),type(Y,person).
cond3(X):-on(X,Y),type(Y,barge).
target(X):-cond1(X),cond2(X).
target(X):-cond3(X).
"""

# Word vectors for unification: "barge" lies next to "boat" and "person"
# next to "man"; the other words keep the nearest-neighbour search honest.
EMBEDDINGS = {
    "boat": (0.9, 0.1, 0.0, 0.0),
    "barge": (1.0, 0.0, 0.0, 0.0),
    "man": (0.1, 0.9, 0.1, 0.0),
    "person": (0.0, 1.0, 0.0, 0.0),
    "woman": (0.0, 0.7, 0.0, 0.7),
    "tree": (0.0, 0.0, 1.0, 0.0),
    "umbrella": (0.2, 0.0, 0.3, 0.9),
    "holding": (0.5, 0.5, 0.0, 0.5),
    "carrying": (0.5, 0.4, 0.1, 0.5),
}

# Expected call count of a layer that must run but whose count an
# optimisation may change. Other counts are set by the workload itself,
# mostly its item count, not by how the program is organised.
AT_LEAST_ONE = -1


@dataclass(frozen=True)
class Inputs:
    """Generated files plus the figures the checks need."""

    files: dict[str, Path]
    items: int
    sizes: dict

    def to_json(self) -> str:
        return json.dumps({**asdict(self),
                           "files": {k: str(v) for k, v in self.files.items()}})

    @classmethod
    def from_json(cls, text: str) -> "Inputs":
        data = json.loads(text)
        return cls({k: Path(v) for k, v in data["files"].items()},
                   data["items"], data["sizes"])


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[int, dict, Path], Inputs]
    argv: Callable[[Inputs, Path], list[str]]
    check: Callable[[Inputs, Path, dict], str | None]
    calls: Callable[[Inputs], dict[str, int]]


# --- input generation -------------------------------------------------------


def _dump_graphs(graphs, path: Path) -> None:
    from deixis.scene import scene_graph_to_dict

    with open(path, "w", encoding="utf-8") as fh:
        json.dump([scene_graph_to_dict(sg) for sg in graphs], fh)


def _base_corpus(seed: int, sizes: dict, out: Path, n: int) -> dict[str, Path]:
    """random_scene_graphs(max_objects=12, max_relations=20) plus
    `deixis synth --kind deivg --k 2` mined from it."""
    from deixis import cli
    from deixis.datasets import random_scene_graphs

    graphs = out / "graphs.json"
    data = out / "deivg.json"
    _dump_graphs(
        random_scene_graphs(
            sizes["corpus_graphs"], seed=seed, max_objects=12, max_relations=20
        ),
        graphs,
    )
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([
            "synth", "--kind", "deivg", "--k", "2", "--n", str(n),
            "--seed", str(seed + 1), "--scene-graphs", str(graphs),
            "--output", str(data),
        ])
    if code != 0:
        raise RuntimeError(f"deixis synth exited with {code}")
    with open(data, encoding="utf-8") as fh:
        made = len(json.load(fh))
    if made < n:
        raise RuntimeError(f"synth made {made} instances, need {n}")
    return {"graphs": graphs, "data": data}


def _build_eval(seed: int, sizes: dict, out: Path) -> Inputs:
    files = _base_corpus(seed, sizes, out, sizes["eval_instances"])
    return Inputs(files, sizes["eval_instances"], sizes)


def _build_dense(seed: int, sizes: dict, out: Path) -> Inputs:
    from deixis.datasets import random_scene_graphs

    n = sizes["dense_objects"]
    low, high = sizes["dense_relations"]
    scenes = out / "dense.json"
    _dump_graphs(
        random_scene_graphs(
            sizes["dense_scenes"], seed=seed, min_objects=n, max_objects=n,
            min_relations=low, max_relations=high,
        ),
        scenes,
    )
    program = out / "program.txt"
    program.write_text(DENSE_PROGRAM, encoding="utf-8")
    embeddings = out / "embeddings.txt"
    lines = [f"{len(EMBEDDINGS)} 4"] + [
        " ".join([word, *map(str, vec)]) for word, vec in EMBEDDINGS.items()
    ]
    embeddings.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Inputs(
        {"scenes": scenes, "program": program, "embeddings": embeddings},
        sizes["dense_scenes"],
        sizes,
    )


def _train_builder(prefix: str):
    def build(seed: int, sizes: dict, out: Path) -> Inputs:
        split = sizes[f"{prefix}_split"]
        files = _base_corpus(seed, sizes, out, sum(split))
        steps = sizes[f"{prefix}_steps"]
        # Reasoner passes: test and validation set twice each, one per step.
        items = 2 * split[2] + 2 * split[1] + steps
        return Inputs(files, items, {**sizes, "split": split, "steps": steps})

    return build


# --- commands ---------------------------------------------------------------


def _eval_argv(inputs: Inputs, out: Path) -> list[str]:
    return [
        "eval", "--data", str(inputs.files["data"]),
        "--scene-graphs", str(inputs.files["graphs"]),
        "--output", str(out / "report.json"),
    ]


def _dense_argv(inputs: Inputs, out: Path) -> list[str]:
    return [
        "reason", "--program", str(inputs.files["program"]),
        "--embeddings", str(inputs.files["embeddings"]),
        "--scene-graphs", str(inputs.files["scenes"]),
        "--output", str(out / "results.json"),
    ]


def _train_argv(inputs: Inputs, out: Path) -> list[str]:
    train_n, val_n, test_n = inputs.sizes["split"]
    return [
        "train", "--data", str(inputs.files["data"]),
        "--scene-graphs", str(inputs.files["graphs"]),
        "--out-dir", str(out / "train"),
        "--steps", str(inputs.sizes["steps"]),
        "--train-n", str(train_n), "--val-n", str(val_n),
        "--test-n", str(test_n),
    ]


# --- output checks ----------------------------------------------------------


def _check_eval(inputs: Inputs, out: Path, state: dict) -> str | None:
    # Clean graphs plus the template program recover every answer.
    with open(out / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    if report["map"] != 1.0:
        return f"mAP is {report['map']!r}, expected exactly 1.0"
    if len(report["per_instance"]) != inputs.items:
        return f"report covers {len(report['per_instance'])} instances"
    return None


def _canon_predicate(name: str) -> str:
    joined = "_".join(name.lower().split())
    return "".join(c for c in joined if c.isalnum() or c == "_")


def _canon_constant(name: str) -> str:
    return "".join(c for c in name.lower() if c.isalnum())


_ATOM = re.compile(r"([a-z]\w*)\(([^()]*)\)")


def _parse_rules(text: str) -> list[tuple[tuple, list[tuple]]]:
    rules = []
    for line in text.splitlines():
        if ":-" not in line:
            continue
        head, body = line.split(":-", 1)
        head_atom = _ATOM.search(head)
        atoms = [
            (m.group(1), tuple(a.strip() for a in m.group(2).split(",")))
            for m in _ATOM.finditer(body)
        ]
        rules.append(
            ((head_atom.group(1), tuple(
                a.strip() for a in head_atom.group(2).split(",")
            )), atoms)
        )
    return rules


def _join(atoms, facts, binding):
    if not atoms:
        yield binding
        return
    (pred, args), rest = atoms[0], atoms[1:]
    for fact_args in facts.get(pred, ()):
        b = dict(binding)
        for term, value in zip(args, fact_args):
            if term[0].isupper():
                if b.setdefault(term, value) != value:
                    break
            elif term != value:
                break
        else:
            yield from _join(rest, facts, b)


def boolean_targets(program_text: str, scene: dict) -> set[int]:
    """Object ids that a plain boolean fixpoint of the program derives as
    target/1 in one scene graph given as its JSON dict."""
    const = {
        o["object_id"]: f"obj{i}" for i, o in enumerate(scene["objects"], 1)
    }
    facts: dict[str, set[tuple]] = {}
    for rel in scene["relations"]:
        facts.setdefault(_canon_predicate(rel["predicate"]), set()).add(
            (const[rel["subject_id"]], const[rel["object_id"]])
        )
    for o in scene["objects"]:
        for name in o["names"]:
            facts.setdefault("type", set()).add(
                (const[o["object_id"]], _canon_constant(name))
            )
    rules = _parse_rules(program_text)
    changed = True
    while changed:
        changed = False
        for (pred, args), body in rules:
            derived = facts.setdefault(pred, set())
            for b in list(_join(body, facts, {})):
                head = tuple(b.get(a, a) for a in args)
                if head not in derived:
                    derived.add(head)
                    changed = True
    ids = {c: oid for oid, c in const.items()}
    return {ids[args[0]] for args in facts.get("target", ()) if args[0] in ids}


def _check_dense(inputs: Inputs, out: Path, state: dict) -> str | None:
    if "scenes" not in state:
        with open(inputs.files["scenes"], encoding="utf-8") as fh:
            state["scenes"] = json.load(fh)
    with open(out / "results.json", encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    if len(results) != len(state["scenes"]):
        return f"{len(results)} results for {len(state['scenes'])} scenes"
    for scene, result in zip(state["scenes"], results):
        if result["image_id"] != scene["image_id"]:
            return f"result for image {result['image_id']} out of order"
        predicted = {
            p["object_id"] for p in result["predictions"] if not p["fallback"]
        }
        expected = boolean_targets(result["program"], scene)
        if predicted != expected:
            return (
                f"image {scene['image_id']}: predicted {sorted(predicted)}, "
                f"boolean evaluation gives {sorted(expected)}"
            )
    return None


def _check_train(inputs: Inputs, out: Path, state: dict) -> str | None:
    raw = (out / "train" / "summary.json").read_bytes()
    summary = json.loads(raw)
    if summary["final_test_map"] < summary["init_test_map"]:
        return (
            f"test mAP fell from {summary['init_test_map']} "
            f"to {summary['final_test_map']}"
        )
    weights = summary["weights"]
    if not weights["ground_truth"] > weights["corrupted"]:
        return f"ground_truth weight does not beat corrupted: {weights}"
    # Training is deterministic: every run repeats the first byte for byte.
    first = state.setdefault("summary", raw)
    if raw != first:
        return "summary.json differs from the first run's"
    return None


# --- expected call counts ---------------------------------------------------
# A layer not named in a workload's table must not be called at all.


def _eval_calls(inputs: Inputs) -> dict[str, int]:
    n = inputs.items
    return {
        "cli": 1,
        "scene.load_scene_graphs": 1,
        "datasets.load_deivg": 1,
        "scene.scene_graph_to_facts": n,
        "rulegen.template_rulegen": n,
        "grounding.ground_program": n,
        "grounding.ReasoningGraph": n,
        "reasoner.forward": n,
        "reasoner.extract_targets": n,
        "evaluation.evaluate_instances": 1,
    }


def _dense_calls(inputs: Inputs) -> dict[str, int]:
    n = inputs.items
    return {
        "cli": 1,
        "scene.load_scene_graphs": 1,
        "logic.parse_program": 1,
        "unify.load_word2vec": 1,
        "scene.scene_graph_to_facts": n,
        "unify.unify_program": n,
        "grounding.ground_program": n,
        "grounding.ReasoningGraph": n,
        "reasoner.forward": n,
        "reasoner.extract_targets": n,
    }


def _train_calls(inputs: Inputs) -> dict[str, int]:
    n = inputs.items
    return {
        "cli": 1,
        "scene.load_scene_graphs": 1,
        "datasets.load_deivg": 1,
        "rulegen.template_rulegen": sum(inputs.sizes["split"]),
        "scene.scene_graph_to_facts": AT_LEAST_ONE,
        "training.mixture_facts": AT_LEAST_ONE,
        "grounding.ground_program": AT_LEAST_ONE,
        "grounding.ReasoningGraph": AT_LEAST_ONE,
        "reasoner.forward": n,
        "reasoner.extract_targets": n,
        "reasoner.backward": AT_LEAST_ONE,
        # Test set before and after, validation at the first and last step.
        "training.evaluate_mixture": 4,
        "training.train_mixture": 1,
        "evaluation.evaluate_instances": 4,
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "eval-vg",
            "Many small scenes: per-instance facts, templating, grounding and "
            "graph build dominate, plus the fixed cost of each forward call.",
            _build_eval, _eval_argv, _check_eval, _eval_calls,
        ),
        Workload(
            "reason-dense",
            "Few 128-object scenes: grounding grows with the universe and the "
            "unifier substitutes symbols; forward is about 1% of the time.",
            _build_dense, _dense_argv, _check_dense, _dense_calls,
        ),
        Workload(
            "train-mixture",
            "The default train split scaled by 1/5: evaluate_mixture "
            "re-grounds every example on every call, so grounding once per "
            "run shows here.",
            _train_builder("mixture"), _train_argv, _check_train, _train_calls,
        ),
        Workload(
            "train-steps",
            "Many steps on a small split: each example is grounded about once "
            "and the taped forward, backward and extraction dominate.",
            _train_builder("steps"), _train_argv, _check_train, _train_calls,
        ),
    )
}


if __name__ == "__main__":
    name, seed, size, out = sys.argv[1:]
    inputs = WORKLOADS[name].build(int(seed), SIZES[size], Path(out))
    print(inputs.to_json())
