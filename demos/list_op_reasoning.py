"""Solve list-manipulation puzzles with the same relational machinery.

Objects lined up left to right form a list; "delete every cyan thing,
what is second?" or "sorted by a fixed color order, what comes third?"
become questions about one target object. Each generated instance
carries a logic program, and this demo checks that forward chaining
lands on the same object as the recorded plain-Python answer.
"""

import numpy as np

from deixis import (
    ReasonerConfig,
    build_reasoning_graph,
    extract_targets,
    forward,
    generate_deiclevr,
)
from deixis.datasets import clevr_facts, clevr_scene_graph


def solve(scene, program) -> int:
    """Run the instance's program through the reasoner, return a 0-based index."""
    facts, values = clevr_facts(scene)
    graph = build_reasoning_graph(program, facts)
    cfg = ReasonerConfig()
    v = forward(graph, graph.initial_valuation(values), graph.weights, cfg)
    predictions = extract_targets(graph, v, clevr_scene_graph(scene), cfg,
                                  rng=np.random.default_rng(0))
    assert len(predictions) == 1 and not predictions[0].fallback
    return predictions[0].object_id - 1


def main() -> None:
    for op in ("delete", "sort"):
        print(f"--- {op} ---")
        for scene, prompt, answer, program in generate_deiclevr(5, op, seed=29):
            lineup = ", ".join(f"{o.color} {o.shape}" for o in scene.objects)
            got = solve(scene, program)
            mark = "ok" if got == answer else "MISMATCH"
            print(f"[{lineup}]")
            print(f"  {prompt}")
            print(f"  reasoner says index {got}, answer key says {answer}  ({mark})")
            assert got == answer
        print()


if __name__ == "__main__":
    main()
