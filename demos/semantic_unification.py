"""Bridge vocabulary gaps between a rule and a scene with embeddings.

Generated rules often mention words the annotators never used: a rule
asks for a "boat" but the scene labels the same object "barge". Grounding
that rule verbatim yields nothing. The demo builds a tiny embedding
store, lets the unifier swap each unmatched constant for its nearest
scene-side neighbour, and then runs the repaired program.
"""

import numpy as np

from deixis import (
    Box,
    EmbeddingStore,
    ReasonerConfig,
    SceneGraph,
    SceneObject,
    SceneRelation,
    build_reasoning_graph,
    extract_targets,
    forward,
    parse_program,
    render_program,
    scene_graph_to_facts,
    scene_vocabularies,
    unify_program,
)

PROGRAM = """\
cond1(X):-on(X,Y),type(Y,boat).
target(X):-cond1(X).
"""

SCENE = SceneGraph(
    image_id=7,
    objects=(
        SceneObject(1, ("woman",), Box(40, 20, 30, 70)),
        SceneObject(2, ("barge",), Box(10, 90, 140, 40)),
        SceneObject(3, ("crate",), Box(60, 70, 25, 20)),
    ),
    relations=(
        SceneRelation(1, "on", 2),
        SceneRelation(3, "on", 2),
    ),
)


def build_store() -> EmbeddingStore:
    # Toy vectors: boat and barge point the same way, crate is orthogonal.
    store = EmbeddingStore(dim=4)
    store.add("boat", np.array([1.0, 0.2, 0.0, 0.0]))
    store.add("barge", np.array([0.9, 0.3, 0.1, 0.0]))
    store.add("crate", np.array([0.0, 0.0, 1.0, 0.3]))
    store.add("woman", np.array([0.0, 1.0, 0.0, 0.2]))
    store.add("on", np.array([0.5, 0.5, 0.5, 0.5]))
    return store


def main() -> None:
    program = parse_program(PROGRAM)
    store = build_store()

    print("original program:")
    print(render_program(program))

    # The scene's relation and attribute vocabularies, read off its
    # canonical rows; no fact is built for them.
    relations, attributes = scene_vocabularies(SCENE)
    print(f"\nscene relations: {sorted(relations)}, attributes: {sorted(attributes)}")
    unified, report = unify_program(program, (relations, attributes), store)
    print("\nsubstitutions:")
    for sub in report.substitutions:
        print(f"  {sub.original} -> {sub.replacement}"
              f"  (cosine {sub.similarity:.3f}, {sub.kind})")
    if report.unresolved:
        print(f"  unresolved: {report.unresolved}")

    print("\nunified program:")
    print(render_program(unified))

    # Facts are built for the unified program, which reads barge facts.
    facts, values = scene_graph_to_facts(SCENE, unified)
    graph = build_reasoning_graph(unified, facts)
    cfg = ReasonerConfig()
    v = forward(graph, graph.initial_valuation(values), graph.weights, cfg)
    predictions = extract_targets(graph, v, SCENE, cfg,
                                  rng=np.random.default_rng(0))
    print("\npredictions:")
    for p in predictions:
        name = SCENE.objects[p.object_id - 1].names[0]
        print(f"  object {p.object_id} ({name}) score {p.score:.4f}")


if __name__ == "__main__":
    main()
