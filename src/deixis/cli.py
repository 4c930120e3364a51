"""Command-line pipeline: reason, synth, train, eval.

Every command is deterministic given its seed, runs offline by default
(network access must be opted into with --online), and writes a manifest
(config hash, seed, tool versions, no timestamps) next to any output file
so artifacts can be reproduced exactly.

Settings may come from a JSON config file (--config settings.json) whose
keys are the long option names; explicit flags always win over the file.
Secrets never go in the config: the chat API key is read from the
environment variable named by --llm-key-env.

Exit codes: 0 success; 2 bad input or schema, including an input too large
to ground (grounding would build more bindings than its budget); 3
external-service failure; 4 internal invariant violation or any other
unexpected exception, reported in one line
(``internal error: <Type>: <message>``) without a traceback.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import sys

import numpy as np

from . import __version__
from .datasets import (
    DeicticInstance,
    corrupt_scene_graph,
    generate_deiclevr,
    load_deivg,
    load_predictions,
    random_scene_graphs,
    save_deiclevr,
    save_deivg,
    synthesize_deivg,
)
from .evaluation import EvalConfig, evaluate_instances
from .grounding import build_reasoning_graph
from .logic import Program, parse_program, render_program, render_rule
from .reasoner import (
    DimensionMismatch,
    ReasonerConfig,
    extract_targets,
    forward,
)
from .rulegen import (
    FixtureClient,
    HttpChatClient,
    RulegenConfig,
    ServiceError,
    generate_program,
    template_rulegen,
)
from .scene import (
    SceneGraph, load_scene_graphs, parse_json, read_json, scene_graph_to_facts,
)
from .training import (
    TrainConfig,
    TrainingExample,
    evaluate_mixture,
    make_mixture_task,
    save_checkpoint,
    save_trace,
    train_mixture,
)
from .unify import EmbeddingStore, scene_vocabularies, unify_program


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(output_path: str, command: str, config: dict, seed) -> str:
    """Reproducibility manifest beside an output file (no timestamps)."""
    manifest = {
        "command": command,
        "config": config,
        "config_hash": _config_hash(config),
        "seed": seed,
        "versions": {
            "deixis": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    path = f"{output_path}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return path


def _write_json(data, path: str | None) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_program_for_prompt(args) -> tuple[Program, dict]:
    """Resolve the program from --program, --structured, or --prompt."""
    if args.program:
        with open(args.program, encoding="utf-8") as fh:
            return parse_program(fh.read()), {"source": "program_file"}
    if args.structured:
        pairs = parse_json(args.structured, "--structured")
        if not isinstance(pairs, list):
            raise ValueError(
                "--structured must be a JSON array of [relation, attribute] pairs"
            )
        return template_rulegen(pairs), {"source": "template"}

    # Natural-language prompt: needs a rule generator.
    cfg = RulegenConfig(
        endpoint_url=args.llm_url or "",
        model_name=args.llm_model or "",
        api_key_env_var=args.llm_key_env or "",
        max_retries=args.llm_retries,
    )
    if args.llm_fixture:
        client = FixtureClient.load(args.llm_fixture)
    elif args.online:
        client = HttpChatClient(cfg)
    else:
        raise ValueError(
            "offline mode cannot turn a natural-language prompt into rules; "
            "pass --structured or --program, supply --llm-fixture, or "
            "enable --online with --llm-url"
        )
    program, meta = generate_program(args.prompt, client, cot=args.cot)
    meta["source"] = "generated"
    return program, meta


def cmd_reason(args) -> int:
    scene_graphs = load_scene_graphs(args.scene_graphs)
    program, program_meta = _load_program_for_prompt(args)

    store = None
    if args.embeddings:
        store = EmbeddingStore.load_word2vec(args.embeddings)

    reasoner_cfg = ReasonerConfig(
        gamma=args.gamma,
        steps=args.steps,
        target_threshold=args.threshold,
    )
    rng = np.random.default_rng(args.seed)

    results = []
    for sg in scene_graphs:
        unification = None
        scene_program = program
        if store is not None:
            scene_program, report = unify_program(
                program, scene_vocabularies(sg), store,
                similarity=args.similarity,
            )
            unification = {
                "substitutions": [
                    {
                        "original": s.original,
                        "replacement": s.replacement,
                        "similarity": s.similarity,
                        "kind": s.kind,
                    }
                    for s in report.substitutions
                ],
                "unresolved": list(report.unresolved),
            }
        facts, fact_values = scene_graph_to_facts(sg, scene_program)
        graph = build_reasoning_graph(scene_program, facts)
        v_final, tape = forward(
            graph, fact_values, graph.weights, reasoner_cfg, record=True
        )
        predictions = extract_targets(graph, v_final, sg, reasoner_cfg, rng=rng)

        # A conjunction's value is the product of its body atoms.
        fired = sorted(
            {
                int(r)
                for r, value in zip(graph.conj_rule, tape.rounds[-1].products)
                if value > reasoner_cfg.target_threshold
            }
        )
        results.append(
            {
                "image_id": sg.image_id,
                "program": render_program(scene_program),
                "unification": unification,
                "predictions": [
                    {
                        "object": p.object_constant.name,
                        "object_id": p.object_id,
                        "box": p.box.to_dict(),
                        "score": p.score,
                        "fallback": p.fallback,
                    }
                    for p in predictions
                ],
                "fired_rules": [
                    render_rule(scene_program.rules[r]) for r in fired
                ],
            }
        )

    payload = {
        "program": render_program(program),
        "program_meta": {
            k: v for k, v in program_meta.items() if k != "raw_repair"
        },
        "results": results,
    }
    _write_json(payload, args.output)
    if args.output:
        write_manifest(
            args.output,
            "reason",
            {
                "gamma": args.gamma,
                "steps": args.steps,
                "threshold": args.threshold,
                "similarity": args.similarity,
                "program_source": program_meta.get("source"),
            },
            args.seed,
        )
    return 0


def cmd_synth(args) -> int:
    if args.kind == "deivg":
        if args.scene_graphs:
            graphs = load_scene_graphs(args.scene_graphs)
        else:
            graphs = random_scene_graphs(args.graphs, seed=args.seed + 1)
        instances = synthesize_deivg(
            graphs, k=args.k, n=args.n, seed=args.seed,
            strict=args.strict, style=args.style,
        )
        save_deivg(instances, args.output)
        config = {
            "kind": "deivg",
            "k": args.k,
            "n": args.n,
            "style": args.style,
            "graphs": None if args.scene_graphs else args.graphs,
            "scene_graphs": args.scene_graphs,
        }
    else:
        instances = generate_deiclevr(args.n, args.operation, args.seed)
        save_deiclevr(instances, args.output)
        config = {
            "kind": "deiclevr",
            "operation": args.operation,
            "n": args.n,
        }
    write_manifest(args.output, "synth", config, args.seed)
    print(f"wrote {len(instances)} instances to {args.output}")
    return 0


def _instance_examples(
    instances: list[DeicticInstance],
    graphs_by_image: dict[int, SceneGraph],
    sources: tuple[str, ...],
    drop_rate: float,
    spurious: int,
    corrupt_seed: int,
) -> list[TrainingExample]:
    corrupted_cache: dict[int, SceneGraph] = {}
    examples = []
    for inst in instances:
        if not inst.structured:
            raise ValueError(
                f"instance for image {inst.image_id} has no structured "
                "conditions; cannot rebuild its program offline"
            )
        sg = graphs_by_image.get(inst.image_id)
        if sg is None:
            raise ValueError(
                f"no scene graph for image {inst.image_id} in the corpus"
            )
        if inst.image_id not in corrupted_cache:
            corrupted_cache[inst.image_id] = corrupt_scene_graph(
                sg,
                drop_rate=drop_rate,
                spurious_per_relation=spurious,
                seed=corrupt_seed + inst.image_id,
            )
        examples.append(
            TrainingExample(
                instance=inst,
                program=template_rulegen(inst.structured),
                scene_graphs={
                    sources[0]: sg,
                    sources[1]: corrupted_cache[inst.image_id],
                },
            )
        )
    return examples


def cmd_train(args) -> int:
    for flag, value, least in (
        ("--train-n", args.train_n, 1),
        ("--val-n", args.val_n, 1),
        ("--test-n", args.test_n, 1),
        ("--val-every", args.val_every, 0),
    ):
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, got {value}")
    instances = load_deivg(args.data)
    total_needed = args.train_n + args.val_n + args.test_n
    # Every graph is checked; only those of the split's images are built.
    graphs = load_scene_graphs(
        args.scene_graphs, {inst.image_id for inst in instances[:total_needed]}
    )
    graphs_by_image = {sg.image_id: sg for sg in graphs}

    if len(instances) < total_needed:
        raise ValueError(
            f"need {total_needed} instances for the "
            f"{args.train_n}/{args.val_n}/{args.test_n} split, "
            f"got {len(instances)}"
        )
    sources = ("ground_truth", "corrupted")
    examples = _instance_examples(
        instances[:total_needed], graphs_by_image, sources,
        args.drop_rate, args.spurious, args.corrupt_seed,
    )
    train_set = examples[: args.train_n]
    val_set = examples[args.train_n : args.train_n + args.val_n]
    test_set = examples[args.train_n + args.val_n : total_needed]

    cfg = TrainConfig(
        lr=args.lr,
        steps=args.steps,
        batch_size=args.batch_size,
        iou_threshold=args.iou_threshold,
        seed=args.seed,
    )
    reasoner_cfg = ReasonerConfig(gamma=args.gamma, steps=args.reason_steps)
    task = make_mixture_task(sources)

    init_test_map = evaluate_mixture(
        task, task.params, test_set, reasoner_cfg, args.seed
    )
    result = train_mixture(
        task, train_set, cfg, reasoner_cfg,
        val_data=val_set, val_every=args.val_every,
    )
    final_test_map = evaluate_mixture(
        task, result.theta, test_set, reasoner_cfg, args.seed
    )

    os.makedirs(args.out_dir, exist_ok=True)
    checkpoint_path = f"{args.out_dir}/checkpoint.json"
    trace_path = f"{args.out_dir}/trace.csv"
    summary_path = f"{args.out_dir}/summary.json"
    save_checkpoint(checkpoint_path, result.theta, cfg, cfg.steps)
    save_trace(trace_path, result.trace)
    summary = {
        "sources": list(sources),
        "weights": {s: float(w) for s, w in zip(sources, result.weights)},
        "theta": [float(t) for t in result.theta],
        "init_test_map": init_test_map,
        "final_test_map": final_test_map,
        "split": [args.train_n, args.val_n, args.test_n],
    }
    _write_json(summary, summary_path)
    write_manifest(
        summary_path,
        "train",
        {
            "train": cfg.to_dict(),
            "reasoner": {"gamma": args.gamma, "steps": args.reason_steps},
            "drop_rate": args.drop_rate,
            "spurious": args.spurious,
            "corrupt_seed": args.corrupt_seed,
            "split": [args.train_n, args.val_n, args.test_n],
        },
        args.seed,
    )
    print(
        f"weights: {summary['weights']}  "
        f"test mAP {init_test_map:.4f} -> {final_test_map:.4f}"
    )
    return 0


def _pipeline_predictions(
    inst: DeicticInstance,
    sg: SceneGraph,
    reasoner_cfg: ReasonerConfig,
    seed: int,
) -> list[tuple]:
    program = template_rulegen(inst.structured)
    facts, fact_values = scene_graph_to_facts(sg, program)
    graph = build_reasoning_graph(program, facts)
    v_final = forward(graph, fact_values, graph.weights, reasoner_cfg)
    # A seed, not a Generator: each instance's fallback draws afresh from it.
    predictions = extract_targets(graph, v_final, sg, reasoner_cfg, seed)
    return [(p.box, p.score) for p in predictions]


def cmd_eval(args) -> int:
    instances = load_deivg(args.data)
    answer_sets = [[a.box for a in inst.answers] for inst in instances]

    if args.predictions:
        prediction_sets = load_predictions(args.predictions)
        if len(prediction_sets) != len(instances):
            raise ValueError(
                "predictions file must be a JSON array aligned with the "
                f"data file ({len(instances)} instances)"
            )
    elif args.scene_graphs:
        # Every graph is checked; only those of the instances are built.
        graphs = load_scene_graphs(
            args.scene_graphs, {inst.image_id for inst in instances}
        )
        graphs_by_image = {sg.image_id: sg for sg in graphs}
        reasoner_cfg = ReasonerConfig(gamma=args.gamma, steps=args.steps)
        prediction_sets = []
        for inst in instances:
            if not inst.structured:
                raise ValueError(
                    f"instance for image {inst.image_id} has no structured "
                    "conditions; supply --predictions instead"
                )
            sg = graphs_by_image.get(inst.image_id)
            if sg is None:
                raise ValueError(
                    f"no scene graph for image {inst.image_id} in the corpus"
                )
            prediction_sets.append(
                _pipeline_predictions(inst, sg, reasoner_cfg, args.seed)
            )
    else:
        raise ValueError("eval needs --predictions or --scene-graphs")

    report = evaluate_instances(
        zip(prediction_sets, answer_sets),
        EvalConfig(match_iou=args.match_iou),
    )
    print(report.render_table())
    if args.output:
        _write_json(report.to_dict(), args.output)
        write_manifest(
            args.output,
            "eval",
            {"match_iou": args.match_iou, "mode": "predictions" if args.predictions else "pipeline"},
            args.seed,
        )
    return 0


# Namespace entries that can never come from a config file.
_RESERVED_DESTS = frozenset({"help", "config", "func", "command"})

# Settings each command must end up with, from flags or the config file.
_REQUIRED_SETTINGS = {
    "reason": ("scene_graphs",),
    "synth": ("kind", "n", "output"),
    "train": ("data", "scene_graphs", "out_dir"),
    "eval": ("data",),
}


def load_config_file(path: str) -> dict:
    """Read a JSON object of default settings, normalizing key spelling
    so "reason-steps" and "reason_steps" are the same key."""
    data = read_json(path)
    if not isinstance(data, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return {key.replace("-", "_"): value for key, value in data.items()}


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    config = dict(config or {})
    used_keys: set[str] = set()

    def apply_config(subparser: argparse.ArgumentParser) -> None:
        if not config:
            return
        dests = {a.dest for a in subparser._actions} - _RESERVED_DESTS
        matched = {k: v for k, v in config.items() if k in dests}
        subparser.set_defaults(**matched)
        used_keys.update(matched)

    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS: a subcommand that is not given --config keeps the one
    # given before it.
    common.add_argument(
        "--config",
        default=argparse.SUPPRESS,
        help="JSON file of default settings; explicit flags win",
    )

    parser = argparse.ArgumentParser(
        prog="deixis",
        description="Differentiable scene-graph reasoning pipeline",
        parents=[common],
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    reason = sub.add_parser(
        "reason", help="run a program or prompt against scene graphs",
        parents=[common],
    )
    reason.add_argument("--scene-graphs")
    source = reason.add_mutually_exclusive_group()
    source.add_argument("--prompt", help="natural-language deictic prompt")
    source.add_argument("--program", help="file with rules in the restricted format")
    source.add_argument(
        "--structured", help='JSON [["relation","attribute"], ...] conditions'
    )
    reason.add_argument("--embeddings", help="word2vec text file for unification")
    reason.add_argument(
        "--similarity", choices=("cosine", "dot"), default="cosine"
    )
    reason.add_argument("--gamma", type=float, default=0.01)
    reason.add_argument("--steps", type=int, default=2)
    reason.add_argument("--threshold", type=float, default=0.2)
    reason.add_argument("--seed", type=int, default=0)
    reason.add_argument("--output")
    reason.add_argument("--online", action="store_true",
                        help="allow network calls (off by default)")
    reason.add_argument("--cot", action="store_true",
                        help="two-pass generation: extract predicates first")
    reason.add_argument("--llm-url")
    reason.add_argument("--llm-model")
    reason.add_argument("--llm-key-env")
    reason.add_argument("--llm-fixture",
                        help="recorded request/response JSON (hermetic)")
    reason.add_argument("--llm-retries", type=int, default=2)
    reason.set_defaults(func=cmd_reason)
    apply_config(reason)

    synth = sub.add_parser("synth", help="synthesize datasets",
                           parents=[common])
    synth.add_argument("--kind", choices=("deivg", "deiclevr"))
    synth.add_argument("--n", type=int)
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--output")
    synth.add_argument("--k", type=int, default=1, help="relations per prompt")
    synth.add_argument("--scene-graphs", help="source corpus (JSON)")
    synth.add_argument("--graphs", type=int, default=500,
                       help="random corpus size when no --scene-graphs")
    synth.add_argument("--style", choices=("appc", "s4"), default="appc")
    synth.add_argument("--strict", action="store_true",
                       help="fail when fewer candidates than --n exist")
    synth.add_argument("--operation", choices=("delete", "sort"),
                       default="delete")
    synth.set_defaults(func=cmd_synth)
    apply_config(synth)

    train = sub.add_parser(
        "train", help="learn mixture weights over scene-graph sources",
        parents=[common],
    )
    train.add_argument("--data")
    train.add_argument("--scene-graphs")
    train.add_argument("--out-dir")
    train.add_argument("--lr", type=float, default=1e-2)
    train.add_argument("--steps", type=int, default=200)
    train.add_argument("--batch-size", type=int, default=1)
    train.add_argument("--iou-threshold", type=float, default=0.8)
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--gamma", type=float, default=0.01)
    train.add_argument("--reason-steps", type=int, default=4)
    train.add_argument("--train-n", type=int, default=1200)
    train.add_argument("--val-n", type=int, default=400)
    train.add_argument("--test-n", type=int, default=400)
    train.add_argument("--val-every", type=int, default=0,
                       help="validate every N steps (0: start and end only)")
    train.add_argument("--drop-rate", type=float, default=0.5)
    train.add_argument("--spurious", type=int, default=4,
                       help="rewired relation copies per original relation")
    train.add_argument("--corrupt-seed", type=int, default=1)
    train.set_defaults(func=cmd_train)
    apply_config(train)

    evaluate = sub.add_parser("eval", help="score predictions against answers",
                              parents=[common])
    evaluate.add_argument("--data")
    evaluate.add_argument("--predictions")
    evaluate.add_argument("--scene-graphs",
                          help="run the template pipeline instead of "
                               "reading predictions")
    evaluate.add_argument("--match-iou", type=float, default=0.5)
    evaluate.add_argument("--gamma", type=float, default=0.01)
    evaluate.add_argument("--steps", type=int, default=2)
    evaluate.add_argument("--seed", type=int, default=0)
    evaluate.add_argument("--output")
    evaluate.set_defaults(func=cmd_eval)
    apply_config(evaluate)

    unknown = sorted(set(config) - used_keys)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")
    return parser


def _check_settings(args: argparse.Namespace) -> None:
    """Every required setting is given and every seed is an integer of at
    least 0, whether a value came from a flag or from --config."""
    missing = [
        f"--{dest.replace('_', '-')}"
        for dest in _REQUIRED_SETTINGS[args.command]
        if getattr(args, dest) is None
    ]
    if args.command == "reason" and not (
        args.prompt or args.program or args.structured
    ):
        missing.append("--prompt | --program | --structured")
    if missing:
        raise ValueError(
            "missing required settings: " + ", ".join(missing)
            + " (pass flags or put them in --config)"
        )
    for dest in ("seed", "corrupt_seed"):
        value, flag = getattr(args, dest, 0), f"--{dest.replace('_', '-')}"
        # --config can give any JSON value; null would seed from entropy.
        if value.__class__ is not int:
            raise ValueError(f"{flag} must be an integer, got {value!r}")
        if value < 0:
            raise ValueError(f"{flag} must be at least 0, got {value}")


def main(argv=None) -> int:
    """Run one command; returns its exit code.

    The cyclic garbage collector is paused for the command and left as it
    was found. A command builds many small objects and almost no reference
    cycles, and each full collection would traverse every object still
    alive, the parsed input included.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    """The body of :func:`main`, run with the collector paused."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "config"):
            # The file's values become parser defaults, which flags override.
            config = load_config_file(args.config)
            args = build_parser(config).parse_args(argv)
        _check_settings(args)
        # An argument parser is a web of reference cycles. One pass over
        # the young generation, which holds everything made since the
        # pause began, frees the parsers before the command runs.
        gc.collect(0)
        return args.func(args)
    except DimensionMismatch as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 3
    except (SyntaxError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # Last resort: whatever is not mapped above is a bug, reported in
        # one line rather than a traceback.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
