"""Walk the core pipeline by hand: program + scene graph -> target object.

A two-condition program ("the thing that is on a boat and holding an
umbrella") is grounded against a small scene and run through the soft
forward chainer. The demo prints the facts the program can read (the
scene's other facts are never built), the reasoning graph, the valuation
of every derived atom, and the final box prediction.
"""

import numpy as np

from deixis import (
    Box,
    ReasonerConfig,
    SceneGraph,
    SceneObject,
    SceneRelation,
    build_reasoning_graph,
    extract_targets,
    forward,
    ground_program,
    parse_program,
    scene_graph_to_facts,
)

PROGRAM = """\
cond1(X):-on(X,Y),type(Y,boat).
cond2(X):-holding(X,Y),type(Y,umbrella).
target(X):-cond1(X),cond2(X).
"""

SCENE = SceneGraph(
    image_id=1,
    objects=(
        SceneObject(1, ("man",), Box(100, 60, 40, 90), ("man.n.01",)),
        SceneObject(2, ("boat",), Box(80, 140, 160, 50), ("boat.n.01",)),
        SceneObject(3, ("umbrella",), Box(95, 30, 50, 30), ("umbrella.n.01",)),
        SceneObject(4, ("water",), Box(0, 170, 400, 80), ("water.n.06",)),
    ),
    relations=(
        SceneRelation(1, "on", 2),
        SceneRelation(1, "holding", 3),
        SceneRelation(2, "on", 4),
    ),
)


def main() -> None:
    program = parse_program(PROGRAM)
    facts, values = scene_graph_to_facts(SCENE, program)
    print("facts the program can read:")
    for fact, value in zip(facts, values):
        print(f"  {fact}  = {value:.1f}")

    # Variables bind only to constants the facts hold where the body reads
    # them, so grounding the cut facts builds the same rule instances as
    # grounding every fact of the scene.
    print("ground rules:", len(ground_program(program, facts)))
    graph = build_reasoning_graph(program, facts)
    print(f"\n{graph!r}")

    cfg = ReasonerConfig(gamma=0.01, steps=2)
    v = forward(graph, values, graph.weights, cfg)

    print("\nderived atoms after 2 rounds:")
    for i in range(graph.n_facts, graph.n_atoms):
        if v[i] > 1e-6:
            print(f"  {graph.atoms[i]}  = {v[i]:.4f}")

    rng = np.random.default_rng(0)
    predictions = extract_targets(graph, v, SCENE, cfg, rng=rng)
    print("\npredictions:")
    for p in predictions:
        print(f"  object {p.object_id} ({SCENE.objects[p.object_id - 1].names[0]})"
              f" score {p.score:.4f} box {p.box.to_dict()}")


if __name__ == "__main__":
    main()
