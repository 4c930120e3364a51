"""Differentiate a reasoning outcome with respect to rule weights.

The forward chainer records every softor and product on a tape, so a
loss defined on the final valuation yields exact gradients for the rule
weights: ``backward`` replays the tape given only the loss gradient. The
demo puts two candidate rules in front of the same target, asks for the
wrong one to be suppressed, and confirms that the analytic gradient both
matches finite differences and points the right way.
"""

import numpy as np

from deixis import (
    FactSet,
    ReasonerConfig,
    atom,
    backward,
    build_reasoning_graph,
    forward,
    parse_program,
)

# Rule 0 is supported by the facts below, rule 1 fires on a decoy.
PROGRAM = """\
target(X):-on(X,Y),type(Y,boat).
target(X):-near(X,Y),type(Y,tree).
"""

FACTS = [
    atom("on", "obj1", "obj2"),
    atom("type", "obj2", "boat"),
    atom("near", "obj3", "obj4"),
    atom("type", "obj4", "tree"),
]


def loss_and_grad(graph, fact_values, weights, cfg):
    """Pull target(obj1) toward 1 and target(obj3) toward 0."""
    v, tape = forward(graph, fact_values, weights, cfg, record=True)
    idx_good = graph.atoms.index(atom("target", "obj1"))
    idx_bad = graph.atoms.index(atom("target", "obj3"))
    loss = (v[idx_good] - 1.0) ** 2 + v[idx_bad] ** 2
    loss_grad = np.zeros(graph.n_atoms)
    loss_grad[idx_good] = 2.0 * (v[idx_good] - 1.0)
    loss_grad[idx_bad] = 2.0 * v[idx_bad]
    grad_w, _ = backward(tape, loss_grad)
    return loss, grad_w


def main() -> None:
    program = parse_program(PROGRAM)
    facts = FactSet(FACTS)
    graph = build_reasoning_graph(program, facts)
    cfg = ReasonerConfig(gamma=0.1)
    fact_values = np.ones(len(FACTS))

    weights = np.array([0.6, 0.6])
    loss, grad = loss_and_grad(graph, fact_values, weights, cfg)
    print(f"weights {weights}  loss {loss:.6f}")
    print(f"analytic gradient  {grad}")

    eps = 1e-6
    fd = np.zeros_like(weights)
    for i in range(len(weights)):
        bump = np.zeros_like(weights)
        bump[i] = eps
        up, _ = loss_and_grad(graph, fact_values, weights + bump, cfg)
        down, _ = loss_and_grad(graph, fact_values, weights - bump, cfg)
        fd[i] = (up - down) / (2 * eps)
    print(f"finite differences {fd}")
    print(f"max abs deviation  {np.max(np.abs(grad - fd)):.2e}")

    # One gradient step: the supported rule gains weight, the decoy loses.
    stepped = weights - 0.5 * grad
    new_loss, _ = loss_and_grad(graph, fact_values, stepped, cfg)
    print(f"\nafter one step: weights {stepped}  loss {new_loss:.6f}")
    assert new_loss < loss and stepped[0] > weights[0] > stepped[1]


if __name__ == "__main__":
    main()
