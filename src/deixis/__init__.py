"""Differentiable first-order reasoning over visual scene graphs.

The pipeline turns a scene graph into weighted ground facts, parses or
generates a small rule program for a deictic prompt, softens the program's
constants against word embeddings, runs differentiable forward chaining on
a bipartite atom/conjunction graph, and reads out scored object boxes.
Training adjusts mixture weights over alternative scene-graph sources by
backpropagating a segmentation loss through the reasoner.
"""

__version__ = "0.1.0"

from .logic import (
    Atom,
    FactSet,
    Predicate,
    Program,
    Rule,
    RuleSyntaxError,
    Term,
    atom,
    parse_program,
    parse_rule,
    render_program,
    render_rule,
)
from .scene import (
    Box,
    DanglingReference,
    SceneGraph,
    SceneObject,
    SceneRelation,
    load_scene_graphs,
    parse_scene_graph,
    scene_graph_to_facts,
)
from .grounding import (
    GroundRule,
    ReasoningGraph,
    UniverseTooLarge,
    build_reasoning_graph,
    ground_program,
    grounding_universe,
)
from .reasoner import (
    DimensionMismatch,
    NoTargetAtoms,
    ReasonerConfig,
    TapeMissing,
    TargetPrediction,
    backward,
    extract_targets,
    forward,
    softor,
)
from .unify import (
    EmbeddingStore,
    HttpEmbeddingStore,
    MissingEmbedding,
    UnificationReport,
    nearest_term,
    unify_program,
)
from .rulegen import (
    FixtureClient,
    FormatError,
    HttpChatClient,
    PromptBundle,
    RulegenConfig,
    ServiceError,
    build_prompt,
    generate_program,
    request_rules,
    template_rulegen,
    validate_rules,
)
from .datasets import (
    AnswerObject,
    ClevrObject,
    ClevrScene,
    DeicticInstance,
    InsufficientCandidates,
    SchemaError,
    clevr_oracle,
    corrupt_scene_graph,
    generate_deiclevr,
    load_deiclevr,
    load_deivg,
    random_scene_graphs,
    render_prompt,
    save_deiclevr,
    save_deivg,
    synthesize_deivg,
)
from .training import (
    MixtureTask,
    TrainConfig,
    TrainResult,
    TrainingExample,
    bce_loss,
    evaluate_mixture,
    label_predictions,
    load_checkpoint,
    make_mixture_task,
    save_checkpoint,
    save_trace,
    specialize_program,
    train_mixture,
)
from .evaluation import (
    EmptyEvaluation,
    EvalConfig,
    EvalReport,
    InstanceResult,
    average_precision,
    evaluate_instances,
    mean_average_precision,
)

__all__ = [
    "__version__",
    # logic
    "Atom", "FactSet", "Predicate", "Program", "Rule", "RuleSyntaxError",
    "Term", "atom", "parse_program", "parse_rule", "render_program",
    "render_rule",
    # scene
    "Box", "DanglingReference", "SceneGraph", "SceneObject", "SceneRelation",
    "load_scene_graphs", "parse_scene_graph", "scene_graph_to_facts",
    # grounding
    "GroundRule", "ReasoningGraph", "UniverseTooLarge",
    "build_reasoning_graph", "ground_program", "grounding_universe",
    # reasoner
    "DimensionMismatch", "NoTargetAtoms", "ReasonerConfig", "TapeMissing",
    "TargetPrediction", "backward", "extract_targets", "forward", "softor",
    # unify
    "EmbeddingStore", "HttpEmbeddingStore", "MissingEmbedding",
    "UnificationReport", "nearest_term", "unify_program",
    # rulegen
    "FixtureClient", "FormatError", "HttpChatClient", "PromptBundle",
    "RulegenConfig", "ServiceError", "build_prompt", "generate_program",
    "request_rules", "template_rulegen", "validate_rules",
    # datasets
    "AnswerObject", "ClevrObject", "ClevrScene", "DeicticInstance",
    "InsufficientCandidates", "SchemaError", "clevr_oracle",
    "corrupt_scene_graph", "generate_deiclevr", "load_deiclevr", "load_deivg",
    "random_scene_graphs", "render_prompt", "save_deiclevr", "save_deivg",
    "synthesize_deivg",
    # training
    "MixtureTask", "TrainConfig", "TrainResult", "TrainingExample",
    "bce_loss", "evaluate_mixture", "label_predictions",
    "load_checkpoint", "make_mixture_task", "save_checkpoint", "save_trace",
    "specialize_program", "train_mixture",
    # evaluation
    "EmptyEvaluation", "EvalConfig", "EvalReport", "InstanceResult",
    "average_precision", "evaluate_instances", "mean_average_precision",
]
