"""Differentiable forward chaining over a grounded reasoning graph.

The reasoner runs a fixed number of message-passing rounds on the bipartite
graph built by :mod:`deixis.grounding`.  The only state a round carries to
the next is the atom valuation.  Each round scores every conjunction as the
product of its body atoms under the previous valuation (a soft AND), then
sets every atom that appears as a rule head to one soft OR of its own fact
value (0 for a derived atom) and its weighted conjunctions, clamped to
[0, 1].

That soft OR is the zero-preserving form of the log-sum-exp relaxation::

    zp(x_1..x_n) = gamma * log(sum_i exp(x_i / gamma) - (n - 1))

For non-negative inputs it never falls below the maximum, it equals the
maximum whenever all inputs but one are 0, and it is exactly 0 when every
input is 0, so an atom with no evidence scores 0 however many rounds run
(∂ILP amalgamates the same way; Evans and Grefenstette, JAIR 2018).  It is
associative, which is why a head takes one soft OR over all its inputs.
The public :func:`softor` keeps the plain closed form
``gamma * log(sum_i exp(x_i / gamma))`` of NEUMANN's γ-soft OR, which
overshoots the maximum by at most ``gamma * log(n)``.

Since a head reads only its fact value and the previous valuation of its
bodies, every atom of an acyclic graph is final once the round count
reaches its proof depth: rounds past it change nothing.  So ``forward``
runs ``min(cfg.steps, graph.depth)`` rounds, and ``cfg.steps`` only on a
graph without a depth bound (a recursive program).

``forward`` takes one value per input fact (the graph's first ``n_facts``
atoms) and starts every other atom at 0.  ``forward(record=True)`` also
returns a tape: the graph, a read-only copy of the weights, and for each
round what the reverse sweep reads.  That is the padded body
values and the products of the soft AND, the clamp mask, and the gradient
shares of the round's soft ORs, which forward takes from the exponentials
it has already computed (each input's shifted exponential over the
total).  ``backward(tape, loss_grad)`` replays the tape with nothing but
the loss gradient and evaluates no soft OR again: the reverse-mode trade
of storing what the reverse sweep needs instead of computing it twice
(Griewank and Walther, *Evaluating Derivatives*, 2008).  It gives exact
gradients of any scalar loss with respect to the rule weights and the
fact values.

Most of the cost of a round is the fixed cost of each numpy call, not
work that grows with the graph, so the round loops keep the call count
low: the per-call index arrays, gathered weights and head fact values are
read once before the loop, and derived atoms are updated in place.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .grounding import ReasoningGraph
from .logic import Term
from .scene import Box, SceneGraph, object_constants, object_positions

# The score range of the random fallback object that stands in when no
# target clears the threshold.
FALLBACK_SCORE_RANGE = (0.1, 0.4)


class DimensionMismatch(ValueError):
    """A valuation or weight vector does not match the graph's shape."""


class NoTargetAtoms(ValueError):
    """The program has no target/1 rule, so there is nothing to extract."""


@dataclass(frozen=True)
class ReasonerConfig:
    """Knobs for the soft forward chainer.

    gamma:  smoothness of the log-sum-exp soft OR.  Smaller is sharper.
    steps:  the most message-passing rounds, a bound on proof depth.
        Rounds past a graph's proof depth change nothing, so forward
        stops there (see ``ReasoningGraph.depth``).
    target_threshold:  minimum score for an object to count as a target.
    """

    gamma: float = 0.01
    steps: int = 2
    target_threshold: float = 0.2

    def __post_init__(self) -> None:
        if not sys.float_info.min <= self.gamma < math.inf:
            raise ValueError(
                f"gamma must be positive and finite, at least "
                f"{sys.float_info.min}, got {self.gamma}"
            )
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")
        if not 0.0 <= self.target_threshold <= 1.0:
            raise ValueError(
                f"target_threshold must be in [0, 1], got {self.target_threshold}"
            )


def softor(values, gamma: float) -> float:
    """Smooth maximum of a non-empty collection of scores.

    Computed as ``gamma * logsumexp(values / gamma)`` with a max shift for
    numerical stability.  Exact for a single input; for n inputs the result
    lies in ``[max, max + gamma * log(n)]``.
    """
    xs = np.asarray(values, dtype=np.float64).ravel()
    if xs.size == 0:
        raise ValueError("softor of an empty collection is undefined")
    if not gamma > 0.0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    m = float(xs.max())
    return m + gamma * float(np.log(np.exp((xs - m) / gamma).sum()))


def _head_softor(
    base: np.ndarray,
    vals: np.ndarray,
    starts: np.ndarray,
    group_of: np.ndarray,
    gamma: float,
    shares: bool,
):
    """Zero-preserving softor of each head's fact value in ``base`` with its
    contiguous non-empty segment of ``vals``; ``group_of`` gives the segment
    of each element.

    Computed with the max shift ``m`` as ``m + gamma * log(exp((base - m) /
    gamma) + sum(exp((vals - m) / gamma) - exp(-m / gamma)))``, so an input
    of 0 adds exactly nothing. Returns the unclamped values and, when
    ``shares`` is true, the gradient share of each base value and of each
    element (else two Nones): its shifted exponential over the total.
    """
    m = np.maximum(base, np.maximum.reduceat(vals, starts))
    floor = np.exp(-m / gamma)
    e_base = np.exp((base - m) / gamma)
    e_vals = np.exp((vals - m[group_of]) / gamma)
    total = e_base + np.add.reduceat(e_vals - floor[group_of], starts)
    value = m + gamma * np.log(total)
    if not shares:
        return value, None, None
    e_base /= total
    e_vals /= total[group_of]
    return value, e_base, e_vals


@dataclass
class _RoundRecord:
    """What backward() reads of one message-passing round.

    ``body_vals``: the body values, padded with the sentinel 1.0;
    ``products``: the soft AND of each conjunction, which is its value;
    ``fact_shares``: the gradient share of each updated atom's fact value
    in its soft OR;
    ``head_shares``: the gradient share of each weighted conjunction in its
    head's soft OR, in grouped order;
    ``unclamped``: whether that soft OR lay in [0, 1], so the clamp passed
    its gradient.
    """

    body_vals: np.ndarray
    products: np.ndarray
    fact_shares: np.ndarray
    head_shares: np.ndarray
    unclamped: np.ndarray


@dataclass
class Tape:
    """Forward-pass recording that backward() replays in reverse: the graph
    it ran on, a read-only copy of its weights, and one
    :class:`_RoundRecord` per round. A round keeps no conjunction state, and
    its record holds the gradient shares of its one soft OR per head, so
    backward evaluates no soft OR again."""

    graph: ReasoningGraph
    weights: np.ndarray
    rounds: list[_RoundRecord] = field(default_factory=list)


def forward(
    graph: ReasoningGraph,
    fact_values,
    weights,
    cfg: ReasonerConfig,
    record: bool = False,
):
    """Run ``min(cfg.steps, graph.depth)`` rounds of soft forward
    chaining, or ``cfg.steps`` when the graph has no depth bound.

    ``fact_values`` holds one value per input fact; every derived atom
    starts at 0.  Returns the final atom valuation, or ``(valuation, tape)``
    when ``record`` is true, the tape holding the rounds that ran.  The
    valuation of an atom is clamped to at most 1.0, and an atom every
    derivation of which has product 0 keeps its fact value, 0 for a
    derived atom.
    """
    fact_values = np.asarray(fact_values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if fact_values.shape != (graph.n_facts,):
        raise DimensionMismatch(
            f"fact values have shape {fact_values.shape}, "
            f"graph has {graph.n_facts} facts"
        )
    if weights.shape != (graph.n_rules,):
        raise DimensionMismatch(
            f"weight vector has shape {weights.shape}, "
            f"graph has {graph.n_rules} rules"
        )
    gamma = cfg.gamma
    n_atoms = graph.n_atoms
    gather = graph.body_gather
    reduce_starts = graph.body_reduce_starts
    grouped = graph.grouped_conj
    group_starts, group_of = graph.group_starts, graph.group_of
    updated = graph.updated_atoms

    # One slot past the atoms holds the sentinel 1.0 that the body gather
    # reads for an empty body (a weighted program fact).
    atoms = np.zeros(n_atoms + 1, dtype=np.float64)
    atoms[: graph.n_facts] = fact_values
    atoms[n_atoms] = 1.0
    # Each head's fact value, 0 for a derived atom, read before any round
    # writes over it.
    base = atoms.take(updated)
    grouped_weights = weights.take(graph.conj_rule).take(grouped)
    if record:
        weights = weights.copy()
        weights.flags.writeable = False
        tape = Tape(graph, weights)

    rounds = cfg.steps if graph.depth is None else min(cfg.steps, graph.depth)
    for _ in range(rounds):
        # Soft AND: each conjunction scores the product of its body atoms
        # under the previous valuation.
        body_vals = atoms[gather]
        products = np.multiply.reduceat(body_vals, reduce_starts)

        # Soft OR: each head atom is the zero-preserving disjunction of its
        # fact value and its weighted conjunctions, clamped to stay a
        # valuation.
        raw, fact_shares, head_shares = _head_softor(
            base,
            grouped_weights * products[grouped],
            group_starts,
            group_of,
            gamma,
            record,
        )
        clamped = np.maximum(raw, 0.0)
        np.minimum(clamped, 1.0, out=clamped)
        atoms[updated] = clamped

        if record:
            tape.rounds.append(
                _RoundRecord(
                    body_vals=body_vals,
                    products=products,
                    fact_shares=fact_shares,
                    head_shares=head_shares,
                    unclamped=clamped == raw,
                )
            )

    valuation = atoms[:n_atoms]
    if record:
        return valuation, tape
    return valuation


def backward(tape: Tape, loss_grad) -> tuple[np.ndarray, np.ndarray]:
    """Exact reverse-mode gradients through a recorded forward pass.

    ``loss_grad`` is d(loss)/d(final valuation).  Returns
    ``(grad_weights, grad_facts)``, the latter with one entry per input
    fact.  Every soft OR's gradient shares come from the tape.
    """
    graph = tape.graph
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    if loss_grad.shape != (graph.n_atoms,):
        raise DimensionMismatch(
            f"loss gradient has shape {loss_grad.shape}, "
            f"graph has {graph.n_atoms} atoms"
        )
    n_conj = graph.n_conj
    updated = graph.updated_atoms
    grouped, group_of = graph.grouped_conj, graph.group_of
    conj_rule = graph.conj_rule
    body_atoms, slot_conj = graph.body_atoms, graph.slot_conj
    conj_weights = tape.weights.take(conj_rule)

    d_atoms = loss_grad.copy()
    d_base = np.zeros(updated.size, dtype=np.float64)
    grad_weights = np.zeros(graph.n_rules, dtype=np.float64)

    for rec in reversed(tape.rounds):
        # atoms[updated] = clamp(raw) overwrote the previous values, and raw
        # reads the heads' fact values instead of them: their gradient
        # restarts at 0, and the fact values take their share.
        d_raw = d_atoms[updated] * rec.unclamped
        d_atoms[updated] = 0.0
        d_base += d_raw * rec.fact_shares

        # raw also reads weights[conj_rule] * products, grouped by head;
        # every conjunction is in exactly one group.
        d_contrib = np.empty(n_conj, dtype=np.float64)
        d_contrib[grouped] = d_raw[group_of] * rec.head_shares
        np.add.at(grad_weights, conj_rule, d_contrib * rec.products)
        d_products = d_contrib * conj_weights

        # products[i] = prod of body values. The leave-one-out product of
        # a slot is the product over the others: with no zero factor it is
        # the product divided by the slot's value, otherwise it comes from
        # the zero count and the product over nonzero factors, so
        # zero-valued factors stay differentiable.
        if np.count_nonzero(rec.body_vals) == rec.body_vals.size:
            loo = rec.products[slot_conj] / rec.body_vals[:-1]
        else:
            loo = _zero_safe_leave_one_out(graph, rec.body_vals)
        np.add.at(d_atoms, body_atoms, d_products[slot_conj] * loo)

    # d_atoms now refers to the starting valuation: the fact values, then
    # derived atoms at the constant 0. A head that is a fact also read its
    # value in every round.
    d_atoms[updated] += d_base
    return grad_weights, d_atoms[: graph.n_facts]


def _zero_safe_leave_one_out(
    graph: ReasoningGraph, body_vals: np.ndarray
) -> np.ndarray:
    """Each body slot's product over the other slots of its conjunction,
    from the padded body values of a round with a zero factor. The
    sentinel 1.0 counts as no zero."""
    zero_mask = body_vals == 0.0
    nonzero_vals = np.where(zero_mask, 1.0, body_vals)
    starts = graph.body_reduce_starts
    zc = np.add.reduceat(zero_mask.astype(np.float64), starts)[graph.slot_conj]
    pnz = np.multiply.reduceat(nonzero_vals, starts)[graph.slot_conj]
    zero_mask = zero_mask[:-1]
    safe = nonzero_vals[:-1]
    return np.where(
        zero_mask,
        np.where(zc == 1.0, pnz, 0.0),
        np.where(zc == 0.0, pnz / safe, 0.0),
    )


@dataclass(frozen=True)
class TargetPrediction:
    """One predicted target object with its score and provenance: the node
    id of its target atom in the graph, or None for a fallback."""

    object_constant: Term
    object_id: int
    box: Box
    score: float
    fallback: bool = False
    node: int | None = None


def extract_targets(
    graph: ReasoningGraph,
    v_final,
    sg: SceneGraph,
    cfg: ReasonerConfig,
    rng: int | np.random.Generator,
) -> list[TargetPrediction]:
    """Read target/1 scores out of a final valuation.

    Objects scoring strictly above ``cfg.target_threshold`` are returned in
    descending score order (ties broken by scene order).  When none clears
    the threshold, including when the program defines target/1 but no
    target atom is derivable, a single uniformly random object with a score
    drawn from ``FALLBACK_SCORE_RANGE`` stands in, flagged as a
    fallback.  ``rng`` is a seed or a ``Generator``, read with
    ``np.random.default_rng`` on that branch only: a seed draws afresh on
    each call, a ``Generator`` advances.  A graph with no target/1 atoms
    whose program has no target/1 rule raises :class:`NoTargetAtoms`.
    """
    v_final = np.asarray(v_final, dtype=np.float64)
    if v_final.shape != (graph.n_atoms,):
        raise DimensionMismatch(
            f"valuation has shape {v_final.shape}, "
            f"graph has {graph.n_atoms} atoms"
        )

    if not graph.target_atoms and not graph.defines_target:
        raise NoTargetAtoms("the program has no target/1 rule")

    positions = object_positions(sg)
    scored = []
    for i in graph.target_atoms:
        constant = graph.atoms[i].args[0]
        position = positions.get(constant.name)
        if position is None:
            continue  # grounding noise, e.g. target(sgg1)
        score = float(v_final[i])
        if score > cfg.target_threshold:
            scored.append((position, constant, score, i))

    if scored:
        scored.sort(key=lambda t: (-t[2], t[0]))
        return [
            TargetPrediction(
                object_constant=constant,
                object_id=sg.objects[position].object_id,
                box=sg.objects[position].box,
                score=score,
                node=i,
            )
            for position, constant, score, i in scored
        ]

    if not sg.objects:
        return []
    rng = np.random.default_rng(rng)
    position = int(rng.integers(len(sg.objects)))
    obj = sg.objects[position]
    score = float(rng.uniform(*FALLBACK_SCORE_RANGE))
    return [
        TargetPrediction(
            object_constant=object_constants(sg)[obj.object_id],
            object_id=obj.object_id,
            box=obj.box,
            score=score,
            fallback=True,
        )
    ]
