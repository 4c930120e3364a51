"""The ten go/no-go checks for the whole pipeline, one test each.

Every test is self-contained, states its tolerance inline, and checks its
own runtime budget.  The conftest hook prints one PASS/FAIL line per
criterion at the end of the run.
"""

import json
import math
import time

import numpy as np
import pytest

from deixis.cli import main
from deixis.datasets import (
    clevr_facts,
    clevr_scene_graph,
    corrupt_scene_graph,
    generate_deiclevr,
    random_scene_graphs,
    synthesize_deivg,
)
from deixis.evaluation import EvalConfig, evaluate_instances
from deixis.grounding import build_reasoning_graph
from deixis.logic import (
    Atom,
    FactSet,
    Predicate,
    Program,
    Rule,
    Term,
    parse_program,
    render_program,
)
from deixis.reasoner import ReasonerConfig, extract_targets, forward, softor
from deixis.rulegen import FEW_SHOT, FormatError, template_rulegen, validate_rules
from deixis.scene import Box, scene_graph_to_dict, scene_graph_to_facts
from deixis.training import (
    TrainConfig,
    TrainingExample,
    _ground_example,
    _loss_and_grad,
    evaluate_mixture,
    make_mixture_task,
    sigmoid,
    train_mixture,
)
from deixis.unify import EmbeddingStore, unify_program

from oracles import boolean_rounds, reference_vocabularies

BOAT_PROGRAM = (
    "cond1(X):-on(X,Y),type(Y,boat).\n"
    "cond2(X):-holding(X,Y),type(Y,umbrella).\n"
    "target(X):-cond1(X),cond2(X).\n"
)


# --- 1. boolean-oracle equivalence ----------------------------------------

_PREDS = [Predicate("p", 1), Predicate("q", 2), Predicate("r", 1), Predicate("s", 2)]
_VARS = [Term("X"), Term("Y"), Term("Z")]


def _random_program_and_facts(rng):
    """A random safe program (<= 4 rules) and 0/1 facts over <= 6 objects."""
    n_obj = int(rng.integers(2, 7))
    constants = [Term(f"obj{i + 1}") for i in range(n_obj)]
    facts = FactSet()
    for _ in range(int(rng.integers(2, 9))):
        pred = _PREDS[int(rng.integers(len(_PREDS)))]
        args = tuple(constants[int(rng.integers(n_obj))] for _ in range(pred.arity))
        facts.add(Atom(pred, args))
    while True:
        rules = []
        for _ in range(int(rng.integers(1, 5))):
            body = []
            for _ in range(int(rng.integers(1, 3))):
                pred = _PREDS[int(rng.integers(len(_PREDS)))]
                args = tuple(
                    _VARS[int(rng.integers(3))] if rng.random() < 0.8
                    else constants[int(rng.integers(n_obj))]
                    for _ in range(pred.arity)
                )
                body.append(Atom(pred, args))
            body_vars = [t for a in body for t in a.args if t.is_variable]
            pred = _PREDS[int(rng.integers(len(_PREDS)))]
            head_args = tuple(
                body_vars[int(rng.integers(len(body_vars)))]
                if body_vars and rng.random() < 0.9
                else constants[int(rng.integers(n_obj))]
                for _ in range(pred.arity)
            )
            rules.append(Rule(Atom(pred, head_args), tuple(body)))
        try:
            return Program(tuple(rules)), facts
        except ValueError:
            continue  # alpha-equivalent duplicate rules; redraw


def test_criterion_01_boolean_oracle_equivalence():
    """1000 random programs: {value > 0.5} after two soft rounds equals a
    naive boolean chainer's two-round closure exactly, in under 30 s."""
    rng = np.random.default_rng(101)
    cfg = ReasonerConfig(gamma=0.01, steps=2)
    start = time.perf_counter()
    for _ in range(1000):
        program, facts = _random_program_and_facts(rng)
        program = parse_program(render_program(program))  # exercise the format
        graph = build_reasoning_graph(program, facts)
        v = forward(
            graph,
            np.ones(len(facts)),
            np.ones(len(program.rules)),
            cfg,
        )
        derived = {graph.atoms[i] for i in range(graph.n_atoms) if v[i] > 0.5}
        assert derived == boolean_rounds(program, list(facts), 2)
    assert time.perf_counter() - start < 30.0


# --- 2. softor closed form --------------------------------------------------

def test_criterion_02_softor_closed_form():
    """softor([0.5, 0.5], 0.01) equals 0.5 + 0.01 ln 2 within 1e-12 and a
    single input passes through exactly."""
    assert abs(softor([0.5, 0.5], 0.01) - (0.5 + 0.01 * math.log(2))) < 1e-12
    assert softor([0.7], 0.01) == 0.7
    assert softor([0.0], 0.01) == 0.0


# --- 3. full-pipeline gradient correctness ---------------------------------

def test_criterion_03_pipeline_gradients_match_finite_differences():
    """Analytic loss gradients with respect to the merge weights match
    central finite differences (eps 1e-5) to relative error < 1e-3 on 100
    random mixture instances at gamma 0.1, in under 60 s."""
    start = time.perf_counter()
    graphs = random_scene_graphs(400, seed=71)
    by_id = {g.image_id: g for g in graphs}
    instances = (
        synthesize_deivg(graphs, k=1, n=60, seed=72, strict=True)
        + synthesize_deivg(graphs, k=2, n=40, seed=73, strict=True)
    )
    task = make_mixture_task(("ground_truth", "corrupted"))
    cfg = ReasonerConfig(gamma=0.1, steps=4)
    rng = np.random.default_rng(74)
    eps = 1e-5

    for inst in instances:
        sg = by_id[inst.image_id]
        example = TrainingExample(
            instance=inst,
            program=template_rulegen(inst.structured),
            scene_graphs={
                "ground_truth": sg,
                "corrupted": corrupt_scene_graph(sg, 0.5, 4, seed=inst.image_id),
            },
        )
        grounded = _ground_example(task, example)
        theta = rng.uniform(-1.0, 1.0, size=2)

        def loss_at(point):
            # Fixed fallback seed so every evaluation is the same function.
            return _loss_and_grad(
                grounded, sigmoid(point), cfg, 0.8, np.random.default_rng(0)
            )[0]

        _, analytic = _loss_and_grad(
            grounded, sigmoid(theta), cfg, 0.8, np.random.default_rng(0)
        )
        for j in range(2):
            step = np.zeros(2)
            step[j] = eps
            fd = (loss_at(theta + step) - loss_at(theta - step)) / (2 * eps)
            rel = abs(analytic[j] - fd) / max(abs(analytic[j]), abs(fd), 1e-10)
            assert rel < 1e-3, f"component {j}: analytic {analytic[j]} vs fd {fd}"
    assert time.perf_counter() - start < 60.0


# --- 4. prompt-synthesis self-consistency ----------------------------------

def test_criterion_04_deivg_self_consistency():
    """500 synthesized instances per complexity in {1, 2, 3}, answered by
    the template pipeline over the graphs they came from, score mAP 1.0
    exactly at match threshold 0.9, in under 2 min."""
    start = time.perf_counter()
    graphs = random_scene_graphs(3000, seed=41)
    by_id = {g.image_id: g for g in graphs}
    cfg = ReasonerConfig()
    rng = np.random.default_rng(0)
    for k in (1, 2, 3):
        instances = synthesize_deivg(graphs, k=k, n=500, seed=42 + k, strict=True)
        assert len(instances) == 500
        cases = []
        for inst in instances:
            sg = by_id[inst.image_id]
            program = template_rulegen(inst.structured)
            facts, values = scene_graph_to_facts(sg)
            graph = build_reasoning_graph(program, facts)
            v = forward(
                graph,
                values,
                np.ones(len(program.rules)),
                cfg,
            )
            predictions = extract_targets(graph, v, sg, cfg, rng=rng)
            cases.append(
                (
                    [(p.box, p.score) for p in predictions],
                    [a.box for a in inst.answers],
                )
            )
        report = evaluate_instances(cases, EvalConfig(match_iou=0.9))
        assert report.map == 1.0
    assert time.perf_counter() - start < 120.0


# --- 5. list-operation exactness -------------------------------------------

def test_criterion_05_deiclevr_matches_list_oracle():
    """1000 generated instances per operation: the reasoner's single target
    is the plain-Python list-operation answer every time, in under 2 min."""
    start = time.perf_counter()
    cfg = ReasonerConfig()
    rng = np.random.default_rng(0)
    for operation in ("delete", "sort"):
        for scene, _prompt, answer, program in generate_deiclevr(
            1000, operation, seed=51
        ):
            facts, values = clevr_facts(scene)
            graph = build_reasoning_graph(program, facts)
            v = forward(
                graph,
                values,
                np.array([r.weight for r in program.rules]),
                cfg,
            )
            predictions = extract_targets(
                graph, v, clevr_scene_graph(scene), cfg, rng=rng
            )
            assert len(predictions) == 1 and not predictions[0].fallback
            assert predictions[0].object_id == answer + 1
    assert time.perf_counter() - start < 120.0


# --- 6. mixture-weight learning --------------------------------------------

def test_criterion_06_mixture_learning_beats_uniform_init():
    """Learning merge weights over a clean source and a half-dropped noisy
    source (1200/400/400 split, 200 RMSProp steps at lr 1e-2) ends with the
    clean source weighted higher and test mAP up by at least 20 points over
    the uniform initialization, in under 10 min."""
    start = time.perf_counter()
    graphs = random_scene_graphs(
        4000, seed=61, min_objects=5, max_objects=9,
        min_relations=3, max_relations=9,
    )
    by_id = {g.image_id: g for g in graphs}
    instances = synthesize_deivg(graphs, k=1, n=2000, seed=62, strict=True)
    corrupted = {}
    examples = []
    for inst in instances:
        sg = by_id[inst.image_id]
        if inst.image_id not in corrupted:
            corrupted[inst.image_id] = corrupt_scene_graph(
                sg, drop_rate=0.5, spurious_per_relation=8,
                seed=1 + inst.image_id,
            )
        examples.append(
            TrainingExample(
                instance=inst,
                program=template_rulegen(inst.structured),
                scene_graphs={
                    "ground_truth": sg,
                    "corrupted": corrupted[inst.image_id],
                },
            )
        )
    train, val, test = examples[:1200], examples[1200:1600], examples[1600:2000]

    task = make_mixture_task(("ground_truth", "corrupted"))
    reasoner_cfg = ReasonerConfig()
    eval_cfg = EvalConfig(match_iou=0.9)
    init_map = evaluate_mixture(task, task.params, test, reasoner_cfg, 0, eval_cfg)
    cfg = TrainConfig(lr=1e-2, steps=200, seed=7, iou_threshold=0.8)
    result = train_mixture(task, train, cfg, reasoner_cfg, val_data=val)
    final_map = evaluate_mixture(task, result.theta, test, reasoner_cfg, 0, eval_cfg)

    w_clean, w_noisy = result.weights
    assert w_clean > w_noisy
    assert final_map - init_map >= 0.20, f"{init_map:.4f} -> {final_map:.4f}"
    assert time.perf_counter() - start < 600.0


# --- 7. rule validator fidelity --------------------------------------------

def test_criterion_07_validator_accepts_canon_rejects_malformed(data_dir):
    """The reference program and every few-shot reply validate; all 20
    malformed samples are rejected with the right error category."""
    assert render_program(validate_rules(BOAT_PROGRAM)) == BOAT_PROGRAM.strip()
    for shot in FEW_SHOT:
        validate_rules(shot["assistant"])

    cases = json.loads((data_dir / "malformed_rules.json").read_text())
    assert len(cases) == 20
    for case in cases:
        with pytest.raises(FormatError) as exc:
            validate_rules(case["text"])
        assert case["category"] in exc.value.categories, case["name"]


# --- 8. semantic unification -----------------------------------------------

def _unit(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def _synonym_case(rng, dim=16):
    """Target direction, a synonym at cosine >= 0.9, and 4 distractors at
    cosine <= 0.3 from the synonym."""
    target = _unit(rng, dim)
    spare = _unit(rng, dim)
    orth = spare - (spare @ target) * target
    orth /= np.linalg.norm(orth)
    c = rng.uniform(0.90, 0.98)
    synonym = c * target + math.sqrt(1.0 - c * c) * orth
    distractors = []
    while len(distractors) < 4:
        d = _unit(rng, dim)
        if abs(float(d @ synonym)) <= 0.3:
            distractors.append(d)
    return target, synonym, distractors


def test_criterion_08_unification_resolves_synonyms(data_dir):
    """200 synthetic synonym cases (cosine >= 0.9 to the target, <= 0.3 to
    every distractor) all resolve, for both attribute constants and
    relation predicates; the boat-to-barge fixture resolves too."""
    rng = np.random.default_rng(81)
    for i in range(200):
        t_vec, s_vec, d_vecs = _synonym_case(rng)
        store = EmbeddingStore(16)
        store.add(f"t{i}", t_vec)
        store.add(f"s{i}", s_vec)
        for j, d in enumerate(d_vecs):
            store.add(f"d{i}x{j}", d)
        if i % 2 == 0:
            # Unknown attribute constant in the program.
            program = parse_program(
                f"cond1(X):-on(X,Y),type(Y,s{i}).\ntarget(X):-cond1(X)."
            )
            facts = FactSet()
            facts.add(parse_program(f"on(obj1,obj2).").rules[0].head)
            facts.add(parse_program(f"type(obj2,t{i}).").rules[0].head)
            for j in range(4):
                facts.add(parse_program(f"type(obj{3 + j},d{i}x{j}).").rules[0].head)
            expected = (f"s{i}", f"t{i}", "constant")
        else:
            # Unknown relation predicate in the program.
            program = parse_program(
                f"cond1(X):-s{i}(X,Y),type(Y,box).\ntarget(X):-cond1(X)."
            )
            facts = FactSet()
            facts.add(parse_program(f"t{i}(obj1,obj2).").rules[0].head)
            for j in range(4):
                facts.add(parse_program(f"d{i}x{j}(obj1,obj2).").rules[0].head)
            facts.add(parse_program("type(obj2,box).").rules[0].head)
            expected = (f"s{i}", f"t{i}", "predicate")
        _, report = unify_program(program, reference_vocabularies(facts), store)
        assert report.unresolved == ()
        assert expected in {
            (s.original, s.replacement, s.kind) for s in report.substitutions
        }

    store = EmbeddingStore.load_word2vec(str(data_dir / "embeddings.txt"))
    program = parse_program("cond1(X):-on(X,Y),type(Y,boat).\ntarget(X):-cond1(X).")
    facts = FactSet()
    facts.add(parse_program("on(obj1,obj2).").rules[0].head)
    facts.add(parse_program("type(obj2,barge).").rules[0].head)
    rewritten, report = unify_program(program, reference_vocabularies(facts), store)
    assert ("boat", "barge") in {
        (s.original, s.replacement) for s in report.substitutions
    }
    assert "type(Y,barge)" in render_program(rewritten)


# --- 9. mAP harness ----------------------------------------------------------

def _fixture_cases(fixture):
    cases = []
    for inst in fixture["instances"]:
        cases.append(
            (
                [(Box(*box), score) for box, score in inst["predictions"]],
                [Box(*box) for box in inst["answers"]],
            )
        )
    return cases


def test_criterion_09_map_fixture_and_monotone_invariance(data_dir):
    """The hand-computed 5-instance fixture reproduces to 1e-9, and any
    order-preserving rescaling of the scores leaves mAP bit-identical."""
    fixture = json.loads((data_dir / "map_fixture.json").read_text())
    cfg = EvalConfig(match_iou=fixture["match_iou"])
    report = evaluate_instances(_fixture_cases(fixture), cfg)
    for result, inst in zip(report.per_instance, fixture["instances"]):
        assert abs(result.ap - inst["expected_ap"]) < 1e-9, inst["note"]
    assert abs(report.map - fixture["expected_map"]) < 1e-9

    rng = np.random.default_rng(91)
    for _ in range(25):
        scale = float(rng.uniform(0.1, 3.0))
        shift = float(rng.uniform(-0.5, 0.5))
        transformed = [
            ([(box, scale * score + shift) for box, score in preds], answers)
            for preds, answers in _fixture_cases(fixture)
        ]
        assert evaluate_instances(transformed, cfg).map == report.map


# --- 10. determinism and offline operation ----------------------------------

def test_criterion_10_byte_identical_reruns_offline(tmp_path, no_network):
    """With sockets disabled outright, repeated runs at the same seed write
    byte-identical datasets, predictions, and checkpoints."""
    graphs_file = tmp_path / "graphs.json"
    graphs_file.write_text(
        json.dumps(
            [scene_graph_to_dict(g) for g in random_scene_graphs(30, seed=10)]
        )
    )

    def synth(out, kind, extra=()):
        assert main(
            ["synth", "--kind", kind, "--n", "12", "--seed", "5",
             "--output", str(out), *extra]
        ) == 0

    for kind, extra in (
        ("deivg", ("--k", "2", "--scene-graphs", str(graphs_file))),
        ("deiclevr", ("--operation", "delete")),
    ):
        a, b = tmp_path / f"{kind}_a.json", tmp_path / f"{kind}_b.json"
        synth(a, kind, extra)
        synth(b, kind, extra)
        assert a.read_bytes() == b.read_bytes()

    def reason(out):
        assert main(
            ["reason", "--scene-graphs", str(graphs_file),
             "--structured", '[["on", "tree"]]', "--seed", "3",
             "--output", str(out)]
        ) == 0

    pred_a, pred_b = tmp_path / "pred_a.json", tmp_path / "pred_b.json"
    reason(pred_a)
    reason(pred_b)
    assert pred_a.read_bytes() == pred_b.read_bytes()

    data_file = tmp_path / "train_data.json"
    assert main(
        ["synth", "--kind", "deivg", "--k", "1", "--n", "10", "--seed", "6",
         "--scene-graphs", str(graphs_file), "--output", str(data_file)]
    ) == 0

    def train(out_dir):
        out_dir.mkdir()
        assert main(
            ["train", "--data", str(data_file),
             "--scene-graphs", str(graphs_file), "--out-dir", str(out_dir),
             "--steps", "5", "--train-n", "6", "--val-n", "2", "--test-n", "2",
             "--seed", "4"]
        ) == 0

    run_a, run_b = tmp_path / "run_a", tmp_path / "run_b"
    train(run_a)
    train(run_b)
    for name in ("checkpoint.json", "trace.csv", "summary.json"):
        assert (run_a / name).read_bytes() == (run_b / name).read_bytes()
