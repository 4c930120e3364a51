"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: plain loops, plain floats, no
shared code with the package under test beyond its data containers. The
one exception is the reasoner kernel at the end, kept in the numpy form it
had before it was optimized, so the optimized kernel can be held to the
same bits.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

_OBJECT = re.compile(r"^(obj|sgg)\d+$")
_STRUCTURAL = re.compile(r"^(target|targetSgg|cond\d+|type|typeSgg|pos\d+)$")


def oracle_universe(program, facts) -> list[str]:
    """Bindable constants: first args of facts, plus object-pattern
    constants anywhere in facts or the program."""
    names = set()
    for fact in facts:
        if fact.args:
            names.add(fact.args[0].name)
        for term in fact.args[1:]:
            if _OBJECT.match(term.name):
                names.add(term.name)
    for rule in program.rules:
        for a in (rule.head, *rule.body):
            for term in a.args:
                if not term.is_variable and _OBJECT.match(term.name):
                    names.add(term.name)
    return sorted(names)


def reference_universe(program, facts) -> tuple[str, ...]:
    """The grounding universe derived from a full fact set, in first-seen
    order: constants in first argument position, then object-pattern
    constants elsewhere in the facts, then those of the program."""
    seen = {}
    for fact in facts:
        seen.setdefault(fact.args[0].name, None)
    for fact in facts:
        for term in fact.args[1:]:
            if _OBJECT.match(term.name):
                seen.setdefault(term.name, None)
    for rule in program.rules:
        for a in (rule.head, *rule.body):
            for term in a.args:
                if not term.is_variable and _OBJECT.match(term.name):
                    seen.setdefault(term.name, None)
    return tuple(seen)


def reference_vocabularies(facts) -> tuple[set, set]:
    """Relation names and attribute constants of a full fact set: every
    non-structural predicate without the Sgg suffix, and every argument
    after the first that is not object-pattern."""
    relations, attributes = set(), set()
    for fact in facts:
        name = fact.predicate.name
        if not _STRUCTURAL.match(name) and not name.endswith("Sgg"):
            relations.add(name)
        for term in fact.args[1:]:
            if not _OBJECT.match(term.name):
                attributes.add(term.name)
    return relations, attributes


def _substitute(a, binding):
    args = tuple(binding.get(t, t) for t in a.args)
    return type(a)(predicate=a.predicate, args=args)


def boolean_rounds(program, true_facts, rounds: int) -> set:
    """T rounds of naive boolean forward chaining.

    Each round applies every rule against the set from the previous round,
    binding variables over the restricted universe only.
    """
    universe = oracle_universe(program, true_facts)
    from deixis.logic import Term

    constants = [Term(name) for name in universe]
    known = set(true_facts)
    for _ in range(rounds):
        derived = set(known)
        for rule in program.rules:
            variables = sorted(
                {t for a in (rule.head, *rule.body) for t in a.args
                 if t.is_variable},
                key=lambda t: t.name,
            )
            for combo in itertools.product(constants, repeat=len(variables)):
                binding = dict(zip(variables, combo))
                if all(_substitute(b, binding) in known for b in rule.body):
                    derived.add(_substitute(rule.head, binding))
        known = derived
    return known


def boolean_closure(program, facts) -> set:
    """Every atom derivable from the facts, all taken as true: naive
    boolean forward chaining run until a round adds nothing. The universe
    stays the one of the facts, so the rounds restart from them."""
    known = set(facts)
    rounds = 1
    while True:
        derived = boolean_rounds(program, facts, rounds)
        if derived == known:
            return known
        known = derived
        rounds += 1


def oracle_ground(program, facts) -> set:
    """The rule instances that can fire, as (rule_index, head, body).

    Enumerates every substitution of each rule's variables over the
    restricted universe and keeps the instances whose body atoms all lie
    in the boolean closure of the facts.
    """
    universe = oracle_universe(program, list(facts))
    from deixis.logic import Term

    constants = [Term(name) for name in universe]
    closure = boolean_closure(program, list(facts))
    instances = set()
    for index, rule in enumerate(program.rules):
        variables = sorted(
            {t for a in (rule.head, *rule.body) for t in a.args
             if t.is_variable},
            key=lambda t: t.name,
        )
        for combo in itertools.product(constants, repeat=len(variables)):
            binding = dict(zip(variables, combo))
            body = tuple(_substitute(b, binding) for b in rule.body)
            if all(b in closure for b in body):
                instances.add((index, _substitute(rule.head, binding), body))
    return instances


def oracle_softor(values, gamma: float) -> float:
    peak = max(values)
    return peak + gamma * math.log(
        math.fsum(math.exp((v - peak) / gamma) for v in values)
    )


def oracle_iou(a, b) -> float:
    """Intersection over union of two (x, y, w, h) tuples."""
    ax, ay, aw, ah = a
    bx, by, bw, bh = b
    ix = max(0.0, min(ax + aw, bx + bw) - max(ax, bx))
    iy = max(0.0, min(ay + ah, by + bh) - max(ay, by))
    inter = ix * iy
    union = aw * ah + bw * bh - inter
    return inter / union if union > 0 else 0.0


def oracle_average_precision(predictions, answers, match_iou: float) -> float:
    """All-point interpolated AP over (box, score) predictions.

    Greedy one-to-one matching in descending score order (stable for ties),
    each prediction taking the best-IoU unmatched answer when that IoU
    strictly exceeds the threshold.
    """
    if not predictions or not answers:
        return 0.0
    order = sorted(range(len(predictions)),
                   key=lambda i: -predictions[i][1])
    taken = [False] * len(answers)
    hits = []
    for i in order:
        box = predictions[i][0]
        best, best_iou = -1, match_iou
        for j, answer in enumerate(answers):
            if taken[j]:
                continue
            value = oracle_iou(box, answer)
            if value > best_iou:
                best, best_iou = j, value
        if best >= 0:
            taken[best] = True
            hits.append(True)
        else:
            hits.append(False)
    precisions, recalls = [], []
    tp = 0
    for rank, hit in enumerate(hits, start=1):
        tp += int(hit)
        precisions.append(tp / rank)
        recalls.append(tp / len(answers))
    mrec = [0.0] + recalls + [1.0]
    mpre = [0.0] + precisions + [0.0]
    for i in range(len(mpre) - 2, -1, -1):
        mpre[i] = max(mpre[i], mpre[i + 1])
    ap = 0.0
    for i in range(len(mrec) - 1):
        if mrec[i + 1] != mrec[i]:
            ap += (mrec[i + 1] - mrec[i]) * mpre[i + 1]
    return ap


def finite_difference(fn, theta, eps: float = 1e-5):
    """Central-difference gradient of a scalar function of a vector."""
    grad = []
    for i in range(len(theta)):
        hi = list(theta)
        lo = list(theta)
        hi[i] += eps
        lo[i] -= eps
        grad.append((fn(hi) - fn(lo)) / (2.0 * eps))
    return grad


# ---------------------------------------------------------------------------
# Scene-graph JSON: the parser as it was before ingestion learned to skip
# building unreferenced graphs. It builds every graph it checks, with plain
# per-field conversions and eagerly formatted paths.


def _ref_integer(value) -> int:
    if value.__class__ is int:
        return value
    if isinstance(value, bool):
        raise TypeError("a bool is not an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value} is not integral")
    return int(value)


def _ref_field(entry, key, path, convert=float, default=None):
    from deixis.scene import SchemaError

    if key not in entry:
        if default is None:
            raise SchemaError(f"{path}.{key}", f"missing required key {key!r}")
        return default
    try:
        return convert(entry[key])
    except (TypeError, ValueError):
        kind = "an integer" if convert is _ref_integer else "a number"
        raise SchemaError(
            f"{path}.{key}", f"must be {kind}, got {entry[key]!r}"
        ) from None


def _ref_strings(entry, key, path) -> tuple:
    from deixis.scene import SchemaError

    value = entry.get(key, [])
    if isinstance(value, str):
        return (value,)
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise SchemaError(f"{path}.{key}", "must be a string or an array of strings")
    return tuple(value)


def _ref_array(data, key, path) -> list:
    from deixis.scene import SchemaError

    value = data.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{path}.{key}", "must be an array")
    return value


def reference_parse_scene_graph(data, path: str = "$"):
    """Check and build one scene graph from its JSON dict."""
    from deixis.scene import (
        Box, SceneGraph, SceneObject, SceneRelation, SchemaError,
    )

    if not isinstance(data, dict):
        raise SchemaError(path, "scene graph must be an object")
    image_id = 0
    for key in ("image_id", "id", "VG_image_id"):
        if key in data:
            image_id = _ref_field(data, key, path, _ref_integer)
            break
    objects = []
    seen = {}
    for j, entry in enumerate(_ref_array(data, "objects", path)):
        opath = f"{path}.objects[{j}]"
        if not isinstance(entry, dict):
            raise SchemaError(opath, "object must be a JSON object")
        object_id = _ref_field(entry, "object_id", opath, _ref_integer)
        if object_id in seen:
            raise SchemaError(
                f"{opath}.object_id",
                f"duplicate object_id {object_id} (also at {seen[object_id]})",
            )
        seen[object_id] = opath
        x, y = _ref_field(entry, "x", opath), _ref_field(entry, "y", opath)
        w, h = _ref_field(entry, "w", opath), _ref_field(entry, "h", opath)
        try:
            box = Box(x, y, w, h)
        except ValueError as exc:
            raise SchemaError(opath, f"invalid box: {exc}") from exc
        names_key = "name" if "names" not in entry and "name" in entry else "names"
        objects.append(
            SceneObject(
                object_id=object_id,
                names=_ref_strings(entry, names_key, opath),
                box=box,
                synsets=_ref_strings(entry, "synsets", opath),
            )
        )
    relations = []
    relations_key = "relations" if "relations" in data else "relationships"
    for j, entry in enumerate(_ref_array(data, relations_key, path)):
        rpath = f"{path}.{relations_key}[{j}]"
        if not isinstance(entry, dict):
            raise SchemaError(rpath, "relation must be a JSON object")
        predicate = _ref_field(entry, "predicate", rpath, str)
        endpoints = []
        for key in ("subject_id", "object_id"):
            holder, inner, where = entry, key, rpath
            nested = entry.get(key[:-3])
            if key not in entry and isinstance(nested, dict):
                holder, where = nested, f"{rpath}.{key[:-3]}"
                inner = "object_id" if "object_id" in nested else "id"
            endpoint = _ref_field(holder, inner, where, _ref_integer)
            if endpoint not in seen:
                raise SchemaError(
                    f"{where}.{inner}", f"no object has object_id {endpoint}"
                )
            endpoints.append(endpoint)
        key = "confidence" if "confidence" in entry else "score"
        confidence = _ref_field(entry, key, rpath, default=1.0)
        try:
            relations.append(
                SceneRelation(endpoints[0], predicate, endpoints[1], confidence)
            )
        except ValueError as exc:
            raise SchemaError(f"{rpath}.{key}", str(exc)) from exc
    return SceneGraph(image_id, tuple(objects), tuple(relations))


def reference_scene_graphs(data) -> list:
    """Every graph of a loaded scene-graph file, checked and built in order."""
    from deixis.scene import SchemaError

    if isinstance(data, dict):
        return [reference_parse_scene_graph(data)]
    if not isinstance(data, list):
        raise SchemaError("$", "top level must be a scene graph or an array of them")
    return [reference_parse_scene_graph(d, f"$[{i}]") for i, d in enumerate(data)]


# ---------------------------------------------------------------------------
# The soft reasoner's kernel as it was before forward() kept the gradient
# shares on its tape: every round builds a new valuation, and backward()
# computes each soft OR's shares again from the recorded inputs. Same
# graph attributes, same float operations in the same order.


def _ref_pair_softor(x, y, gamma):
    m = np.maximum(x, y)
    return m + gamma * np.log(np.exp((x - m) / gamma) + np.exp((y - m) / gamma))


def _ref_pair_softmax(x, y, gamma):
    m = np.maximum(x, y)
    ex = np.exp((x - m) / gamma)
    ey = np.exp((y - m) / gamma)
    total = ex + ey
    return ex / total, ey / total


def _ref_segment_softor(vals, starts, sizes, gamma):
    m = np.maximum.reduceat(vals, starts)
    shifted = np.exp((vals - np.repeat(m, sizes)) / gamma)
    return m + gamma * np.log(np.add.reduceat(shifted, starts))


def _ref_segment_softmax(vals, starts, sizes, gamma):
    m = np.maximum.reduceat(vals, starts)
    shifted = np.exp((vals - np.repeat(m, sizes)) / gamma)
    totals = np.add.reduceat(shifted, starts)
    return shifted / np.repeat(totals, sizes)


def _ref_group_sizes(graph):
    return np.diff(np.append(graph.group_starts, graph.n_conj))


@dataclass
class ReferenceRound:
    atoms_prev: np.ndarray
    conj_prev: np.ndarray
    body_vals: np.ndarray
    products: np.ndarray
    conj_new: np.ndarray
    incoming: np.ndarray
    raw: np.ndarray


@dataclass
class ReferenceTape:
    graph: object
    cfg: object
    weights: np.ndarray
    rounds: list = field(default_factory=list)


def reference_forward(graph, fact_values, weights, cfg, record=False):
    """``cfg.steps`` rounds of soft forward chaining from one value per
    fact; returns the valuation, or ``(valuation, tape)`` with ``record``."""
    fact_values = np.asarray(fact_values, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    gamma = cfg.gamma
    group_sizes = _ref_group_sizes(graph)

    atoms = np.zeros(graph.n_atoms, dtype=np.float64)
    atoms[: graph.n_facts] = fact_values
    conjs = np.zeros(graph.n_conj, dtype=np.float64)
    if record:
        weights = weights.copy()
        tape = ReferenceTape(graph, cfg, weights)

    for _ in range(cfg.steps):
        atoms_prev = atoms
        conj_prev = conjs

        body_vals = np.empty(graph.body_atoms.size + 1, dtype=np.float64)
        np.take(atoms_prev, graph.body_atoms, out=body_vals[:-1])
        body_vals[-1] = 1.0
        products = np.multiply.reduceat(body_vals, graph.body_reduce_starts)
        conj_new = _ref_pair_softor(conj_prev, products, gamma)

        atoms_new = atoms_prev.copy()
        if graph.n_conj:
            contrib = weights[graph.conj_rule] * conj_new
            incoming = _ref_segment_softor(
                contrib[graph.grouped_conj],
                graph.group_starts,
                group_sizes,
                gamma,
            )
            raw = _ref_pair_softor(atoms_prev[graph.updated_atoms], incoming, gamma)
            atoms_new[graph.updated_atoms] = np.clip(raw, 0.0, 1.0)
        else:
            incoming = np.zeros(0, dtype=np.float64)
            raw = np.zeros(0, dtype=np.float64)

        if record:
            tape.rounds.append(
                ReferenceRound(
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


def reference_backward(tape, loss_grad):
    """Reverse-mode ``(grad_weights, grad_facts)`` through a reference
    tape, given d(loss)/d(final valuation)."""
    graph, gamma, weights = tape.graph, tape.cfg.gamma, tape.weights
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    group_sizes = _ref_group_sizes(graph)

    d_atoms = loss_grad.copy()
    d_conjs = np.zeros(graph.n_conj, dtype=np.float64)
    grad_weights = np.zeros(graph.n_rules, dtype=np.float64)

    for rec in reversed(tape.rounds):
        d_atoms_prev = d_atoms.copy()
        if graph.n_conj:
            ua = graph.updated_atoms

            d_raw = d_atoms[ua] * ((rec.raw >= 0.0) & (rec.raw <= 1.0))
            d_atoms_prev[ua] = 0.0

            share_prev, share_in = _ref_pair_softmax(
                rec.atoms_prev[ua], rec.incoming, gamma
            )
            d_atoms_prev[ua] += d_raw * share_prev
            d_incoming = d_raw * share_in

            contrib = weights[graph.conj_rule] * rec.conj_new
            grouped = contrib[graph.grouped_conj]
            shares = _ref_segment_softmax(
                grouped, graph.group_starts, group_sizes, gamma
            )
            d_contrib = np.zeros(graph.n_conj, dtype=np.float64)
            d_contrib[graph.grouped_conj] = (
                np.repeat(d_incoming, group_sizes) * shares
            )

            np.add.at(
                grad_weights, graph.conj_rule, d_contrib * rec.conj_new
            )
            d_conj_new = d_contrib * weights[graph.conj_rule] + d_conjs

            share_c, share_p = _ref_pair_softmax(
                rec.conj_prev, rec.products, gamma
            )
            d_conjs = d_conj_new * share_c
            d_products = d_conj_new * share_p

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

    return grad_weights, d_atoms[: graph.n_facts]
