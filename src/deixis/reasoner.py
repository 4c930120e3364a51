"""Differentiable forward chaining over a grounded reasoning graph.

The reasoner runs a fixed number of message-passing rounds on the bipartite
graph built by :mod:`deixis.grounding`.  Each round first scores every
conjunction from the previous atom valuation (a soft AND via product, folded
into the running conjunction value with a soft OR), then updates every atom
that appears as a rule head (a soft OR over its weighted incoming
conjunctions, folded into the previous atom value and clamped to 1.0).

All soft ORs use the same log-sum-exp relaxation::

    softor(x_1..x_n) = gamma * log(sum_i exp(x_i / gamma))

which is exact for a single input and otherwise overshoots the maximum by at
most ``gamma * log(n)``.

``forward(record=True)`` returns a tape of per-round intermediates, and
``backward`` replays it to produce exact reverse-mode gradients of any scalar
loss with respect to the rule weights and the initial valuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grounding import ReasoningGraph
from .logic import Term
from .scene import Box, SceneGraph, object_constants


class DimensionMismatch(ValueError):
    """A valuation or weight vector does not match the graph's shape."""


class TapeMissing(RuntimeError):
    """backward() needs a tape recorded by forward(record=True)."""


class NoTargetAtoms(ValueError):
    """The program has no target/1 rule, so there is nothing to extract."""


@dataclass(frozen=True)
class ReasonerConfig:
    """Knobs for the soft forward chainer.

    gamma:  smoothness of the log-sum-exp soft OR.  Smaller is sharper.
    steps:  number of message-passing rounds (the proof-depth bound).
    target_threshold:  minimum score for an object to count as a target.
    fallback_score_range:  score range for the random fallback object used
        when nothing clears the threshold.
    rng_seed:  seed for the fallback draw when no generator is supplied.
    """

    gamma: float = 0.01
    steps: int = 2
    target_threshold: float = 0.2
    fallback_score_range: tuple[float, float] = (0.1, 0.4)
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma < math.inf:
            raise ValueError(
                f"gamma must be positive and finite, got {self.gamma}"
            )
        if self.steps < 1:
            raise ValueError(f"steps must be at least 1, got {self.steps}")
        if not 0.0 <= self.target_threshold <= 1.0:
            raise ValueError(
                f"target_threshold must be in [0, 1], got {self.target_threshold}"
            )
        low, high = self.fallback_score_range
        if not 0.0 <= low <= high <= 1.0:
            raise ValueError(
                f"fallback_score_range must satisfy 0 <= low <= high <= 1, "
                f"got {self.fallback_score_range}"
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


def _pair_softor(x: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    """Elementwise softor of two aligned vectors."""
    m = np.maximum(x, y)
    return m + gamma * np.log(np.exp((x - m) / gamma) + np.exp((y - m) / gamma))


def _pair_softmax(
    x: np.ndarray, y: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Gradient shares of a pairwise softor with respect to each input."""
    m = np.maximum(x, y)
    ex = np.exp((x - m) / gamma)
    ey = np.exp((y - m) / gamma)
    total = ex + ey
    return ex / total, ey / total


def _segment_softor(
    vals: np.ndarray, starts: np.ndarray, sizes: np.ndarray, gamma: float
) -> np.ndarray:
    """Softor within each contiguous non-empty segment of ``vals``."""
    m = np.maximum.reduceat(vals, starts)
    shifted = np.exp((vals - np.repeat(m, sizes)) / gamma)
    return m + gamma * np.log(np.add.reduceat(shifted, starts))


def _segment_softmax(
    vals: np.ndarray, starts: np.ndarray, sizes: np.ndarray, gamma: float
) -> np.ndarray:
    """Per-element gradient shares of a segmentwise softor."""
    m = np.maximum.reduceat(vals, starts)
    shifted = np.exp((vals - np.repeat(m, sizes)) / gamma)
    totals = np.add.reduceat(shifted, starts)
    return shifted / np.repeat(totals, sizes)


@dataclass
class _RoundRecord:
    """Intermediates of one message-passing round, kept for backward()."""

    atoms_prev: np.ndarray
    conj_prev: np.ndarray
    body_vals: np.ndarray
    products: np.ndarray
    conj_new: np.ndarray
    incoming: np.ndarray
    raw: np.ndarray


@dataclass
class Tape:
    """Forward-pass recording that backward() replays in reverse."""

    gamma: float
    steps: int
    n_atoms: int
    n_conj: int
    n_rules: int
    weights: np.ndarray
    rounds: list[_RoundRecord] = field(default_factory=list)


def _check_shapes(
    graph: ReasoningGraph, v0: np.ndarray, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    v0 = np.asarray(v0, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if v0.shape != (graph.n_atoms,):
        raise DimensionMismatch(
            f"initial valuation has shape {v0.shape}, "
            f"graph has {graph.n_atoms} atoms"
        )
    if weights.shape != (graph.n_rules,):
        raise DimensionMismatch(
            f"weight vector has shape {weights.shape}, "
            f"graph has {graph.n_rules} rules"
        )
    return v0, weights


def forward(
    graph: ReasoningGraph,
    v0,
    weights,
    cfg: ReasonerConfig,
    record: bool = False,
):
    """Run ``cfg.steps`` rounds of soft forward chaining.

    Returns the final atom valuation, or ``(valuation, tape)`` when
    ``record`` is true.  The valuation of an atom never decreases across
    rounds and is clamped to at most 1.0.
    """
    v0, weights = _check_shapes(graph, v0, weights)
    gamma = cfg.gamma

    atoms = v0.copy()
    conjs = np.zeros(graph.n_conj, dtype=np.float64)
    tape = Tape(
        gamma=gamma,
        steps=cfg.steps,
        n_atoms=graph.n_atoms,
        n_conj=graph.n_conj,
        n_rules=graph.n_rules,
        weights=weights.copy(),
    )

    for _ in range(cfg.steps):
        atoms_prev = atoms
        conj_prev = conjs

        # Soft AND: each conjunction scores the product of its body atoms
        # under the previous valuation, folded into its running value. The
        # body values end in the sentinel 1.0 that the graph's reduceat plan
        # points empty bodies (weighted program facts) at.
        body_vals = np.empty(graph.body_atoms.size + 1, dtype=np.float64)
        np.take(atoms_prev, graph.body_atoms, out=body_vals[:-1])
        body_vals[-1] = 1.0
        products = np.multiply.reduceat(body_vals, graph.body_reduce_starts)
        conj_new = _pair_softor(conj_prev, products, gamma)

        # Soft OR: each head atom folds in the weighted disjunction of its
        # freshly scored conjunctions, clamped to stay a valuation.
        atoms_new = atoms_prev.copy()
        if graph.n_conj:
            contrib = weights[graph.conj_rule] * conj_new
            incoming = _segment_softor(
                contrib[graph.grouped_conj],
                graph.group_starts,
                graph.group_sizes,
                gamma,
            )
            raw = _pair_softor(atoms_prev[graph.updated_atoms], incoming, gamma)
            atoms_new[graph.updated_atoms] = np.clip(raw, 0.0, 1.0)
        else:
            incoming = np.zeros(0, dtype=np.float64)
            raw = np.zeros(0, dtype=np.float64)

        if record:
            tape.rounds.append(
                _RoundRecord(
                    atoms_prev=atoms_prev,
                    conj_prev=conj_prev,
                    body_vals=body_vals,
                    products=products,
                    conj_new=conj_new,
                    incoming=incoming,
                    raw=raw,
                )
            )
        atoms = atoms_new
        conjs = conj_new

    if record:
        return atoms, tape
    return atoms


def backward(
    graph: ReasoningGraph,
    v0,
    weights,
    cfg: ReasonerConfig,
    loss_grad,
    tape: Tape | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact reverse-mode gradients through the recorded forward pass.

    ``loss_grad`` is d(loss)/d(final valuation).  Returns
    ``(grad_weights, grad_v0)``.  When no tape is supplied the forward pass
    is re-run with recording; a tape whose shape or config does not match
    raises :class:`TapeMissing`.
    """
    v0, weights = _check_shapes(graph, v0, weights)
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    if loss_grad.shape != (graph.n_atoms,):
        raise DimensionMismatch(
            f"loss gradient has shape {loss_grad.shape}, "
            f"graph has {graph.n_atoms} atoms"
        )

    if tape is None:
        _, tape = forward(graph, v0, weights, cfg, record=True)
    if not isinstance(tape, Tape) or not tape.rounds:
        raise TapeMissing("backward() requires a tape from forward(record=True)")
    if (
        tape.n_atoms != graph.n_atoms
        or tape.n_conj != graph.n_conj
        or tape.n_rules != graph.n_rules
        or tape.steps != cfg.steps
        or tape.gamma != cfg.gamma
        or not np.array_equal(tape.weights, weights)
    ):
        raise TapeMissing(
            "tape does not match this graph/config/weights; "
            "re-record with forward(record=True)"
        )

    gamma = cfg.gamma
    d_atoms = loss_grad.copy()
    d_conjs = np.zeros(graph.n_conj, dtype=np.float64)
    grad_weights = np.zeros(graph.n_rules, dtype=np.float64)

    for rec in reversed(tape.rounds):
        d_atoms_prev = d_atoms.copy()
        if graph.n_conj:
            ua = graph.updated_atoms

            # atoms_new[ua] = clip(raw); overwritten entries carry no
            # gradient back to atoms_prev except through the softor below.
            d_raw = d_atoms[ua] * ((rec.raw >= 0.0) & (rec.raw <= 1.0))
            d_atoms_prev[ua] = 0.0

            # raw = softor(atoms_prev[ua], incoming)
            share_prev, share_in = _pair_softmax(
                rec.atoms_prev[ua], rec.incoming, gamma
            )
            d_atoms_prev[ua] += d_raw * share_prev
            d_incoming = d_raw * share_in

            # incoming = segment softor over contrib[grouped_conj]
            contrib = tape.weights[graph.conj_rule] * rec.conj_new
            grouped = contrib[graph.grouped_conj]
            shares = _segment_softmax(
                grouped, graph.group_starts, graph.group_sizes, gamma
            )
            d_contrib = np.zeros(graph.n_conj, dtype=np.float64)
            d_contrib[graph.grouped_conj] = (
                np.repeat(d_incoming, graph.group_sizes) * shares
            )

            # contrib = weights[conj_rule] * conj_new
            np.add.at(
                grad_weights, graph.conj_rule, d_contrib * rec.conj_new
            )
            d_conj_new = d_contrib * tape.weights[graph.conj_rule] + d_conjs

            # conj_new = softor(conj_prev, products)
            share_c, share_p = _pair_softmax(
                rec.conj_prev, rec.products, gamma
            )
            d_conjs = d_conj_new * share_c
            d_products = d_conj_new * share_p

            # products[i] = prod of body values; leave-one-out gradient via
            # the zero count and the product over nonzero factors, so
            # zero-valued factors stay differentiable. The padded values
            # come from the tape; the sentinel 1.0 counts as no zero.
            zero_mask = rec.body_vals == 0.0
            nonzero_vals = np.where(zero_mask, 1.0, rec.body_vals)
            starts = graph.body_reduce_starts
            zc = np.add.reduceat(zero_mask.astype(np.float64), starts)[
                graph.slot_conj
            ]
            pnz = np.multiply.reduceat(nonzero_vals, starts)[graph.slot_conj]
            zero_mask = zero_mask[:-1]
            safe = nonzero_vals[:-1]
            loo = np.where(
                zero_mask,
                np.where(zc == 1.0, pnz, 0.0),
                np.where(zc == 0.0, pnz / safe, 0.0),
            )
            np.add.at(
                d_atoms_prev,
                graph.body_atoms,
                d_products[graph.slot_conj] * loo,
            )
        d_atoms = d_atoms_prev

    # d_conjs now refers to conj round 0, which is the zero constant.
    return grad_weights, d_atoms


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
    rng: np.random.Generator | None = None,
) -> list[TargetPrediction]:
    """Read target/1 scores out of a final valuation.

    Objects scoring strictly above ``cfg.target_threshold`` are returned in
    descending score order (ties broken by scene order).  When none clears
    the threshold, including when the program defines target/1 but no
    target atom is derivable, a single uniformly random object with a score
    drawn from ``cfg.fallback_score_range`` stands in, flagged as a
    fallback.  A graph with no target/1 atoms whose program has no target/1
    rule raises :class:`NoTargetAtoms`.
    """
    v_final = np.asarray(v_final, dtype=np.float64)
    if v_final.shape != (graph.n_atoms,):
        raise DimensionMismatch(
            f"valuation has shape {v_final.shape}, "
            f"graph has {graph.n_atoms} atoms"
        )

    if not graph.target_atoms and not graph.defines_target:
        raise NoTargetAtoms("the program has no target/1 rule")

    constants = object_constants(sg)
    by_constant = {
        constants[obj.object_id].name: (position, obj)
        for position, obj in enumerate(sg.objects)
    }

    scored = []
    for i in graph.target_atoms:
        constant = graph.atoms[i].args[0]
        entry = by_constant.get(constant.name)
        if entry is None:
            continue  # grounding noise, e.g. target(sgg1)
        position, obj = entry
        score = float(v_final[i])
        if score > cfg.target_threshold:
            scored.append((position, obj, constant, score, i))

    if scored:
        scored.sort(key=lambda t: (-t[3], t[0]))
        return [
            TargetPrediction(
                object_constant=constant,
                object_id=obj.object_id,
                box=obj.box,
                score=score,
                node=i,
            )
            for _, obj, constant, score, i in scored
        ]

    if not sg.objects:
        return []
    if rng is None:
        rng = np.random.default_rng(cfg.rng_seed)
    position = int(rng.integers(len(sg.objects)))
    obj = sg.objects[position]
    low, high = cfg.fallback_score_range
    score = float(rng.uniform(low, high))
    return [
        TargetPrediction(
            object_constant=constants[obj.object_id],
            object_id=obj.object_id,
            box=obj.box,
            score=score,
            fallback=True,
        )
    ]
