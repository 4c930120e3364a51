"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: plain loops, plain floats, no
shared code with the package under test beyond its data containers. The
one exception is the reasoner kernel at the end, written as plain
round-by-round numpy with the package kernel's float operations, so that
kernel can be held to the same bits.
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
    """Every constant of the facts and the program: a range-restricted
    rule's variables bind to no other."""
    names = set()
    for fact in facts:
        names.update(term.name for term in fact.args)
    for rule in program.rules:
        for a in (rule.head, *rule.body):
            names.update(term.name for term in a.args if not term.is_variable)
    return sorted(names)


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
    binding variables over every constant of the facts and the program.
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
    boolean forward chaining run until a round adds nothing."""
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

    Enumerates every substitution of each rule's variables over every
    constant of the facts and the program and keeps the instances whose
    body atoms all lie in the boolean closure of the facts.
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


def _ref_number(value) -> float:
    if isinstance(value, bool):
        raise TypeError("a bool is not a number")
    return float(value)


def _ref_string(value) -> str:
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


def _ref_field(entry, key, path, convert=_ref_number, default=None):
    from deixis.scene import SchemaError

    if key not in entry:
        if default is None:
            raise SchemaError(f"{path}.{key}", f"missing required key {key!r}")
        return default
    try:
        return convert(entry[key])
    except (TypeError, ValueError):
        kind = {_ref_integer: "an integer", _ref_string: "a string"}.get(
            convert, "a number"
        )
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
        predicate = _ref_field(entry, "predicate", rpath, _ref_string)
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
# Template rule generation as it was before it built its rules unchecked:
# every term, predicate, atom, rule and program through its public,
# checking constructor.


def reference_template_rulegen(structured):
    """The template program of (relation, attribute) pairs, every part
    built and checked by the public constructors."""
    from deixis.logic import Atom, Predicate, Program, Rule, Term
    from deixis.scene import canon_constant, canon_predicate

    pairs = list(structured)
    if not pairs:
        raise ValueError("structured prompt must contain at least one condition")
    x, y = Term("X"), Term("Y")
    rules = []
    target_body = []
    for i, pair in enumerate(pairs, start=1):
        if not (
            isinstance(pair, (list, tuple))
            and len(pair) == 2
            and all(isinstance(p, str) for p in pair)
        ):
            raise ValueError(
                f"condition {i}: expected a (relation, attribute) pair of "
                f"strings, got {pair!r}"
            )
        relation, attribute = pair
        rel = canon_predicate(relation)
        attr = canon_constant(attribute)
        if not rel or not attr:
            raise ValueError(
                f"condition {i}: relation/attribute must be non-empty "
                f"after canonicalization, got {(relation, attribute)!r}"
            )
        cond = Predicate(f"cond{i}", 1)
        rules.append(
            Rule(
                head=Atom(cond, (x,)),
                body=(
                    Atom(Predicate(rel, 2), (x, y)),
                    Atom(Predicate("type", 2), (y, Term(attr))),
                ),
            )
        )
        target_body.append(Atom(cond, (x,)))
    rules.append(
        Rule(head=Atom(Predicate("target", 1), (x,)), body=tuple(target_body))
    )
    return Program(tuple(rules))


# ---------------------------------------------------------------------------
# The soft reasoner's kernel in plain round-by-round numpy: every round
# builds a new valuation, and backward() computes each soft OR's shares
# again from the recorded inputs. Same graph attributes, same float
# operations in the same order as the package's kernel.


def _ref_head_exps(base, vals, starts, sizes, gamma):
    """The shift, the shifted exponentials and the total of each head's
    zero-preserving soft OR over its fact value and its segment."""
    m = np.maximum(base, np.maximum.reduceat(vals, starts))
    floor = np.exp(-m / gamma)
    e_base = np.exp((base - m) / gamma)
    e_vals = np.exp((vals - np.repeat(m, sizes)) / gamma)
    total = e_base + np.add.reduceat(e_vals - np.repeat(floor, sizes), starts)
    return m, e_base, e_vals, total


def _ref_head_softor(base, vals, starts, sizes, gamma):
    m, _, _, total = _ref_head_exps(base, vals, starts, sizes, gamma)
    return m + gamma * np.log(total)


def _ref_head_softmax(base, vals, starts, sizes, gamma):
    _, e_base, e_vals, total = _ref_head_exps(base, vals, starts, sizes, gamma)
    return e_base / total, e_vals / np.repeat(total, sizes)


def _ref_group_sizes(graph):
    return np.diff(np.append(graph.group_starts, graph.n_conj))


@dataclass
class ReferenceRound:
    atoms_prev: np.ndarray
    body_vals: np.ndarray
    products: np.ndarray
    raw: np.ndarray


@dataclass
class ReferenceTape:
    graph: object
    cfg: object
    weights: np.ndarray
    base: np.ndarray
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
    # Each head's fact value, 0 for a derived atom.
    base = atoms[graph.updated_atoms]
    if record:
        weights = weights.copy()
        tape = ReferenceTape(graph, cfg, weights, base)

    for _ in range(cfg.steps):
        atoms_prev = atoms

        body_vals = np.empty(graph.body_atoms.size + 1, dtype=np.float64)
        np.take(atoms_prev, graph.body_atoms, out=body_vals[:-1])
        body_vals[-1] = 1.0
        products = np.multiply.reduceat(body_vals, graph.body_reduce_starts)

        atoms_new = atoms_prev.copy()
        if graph.n_conj:
            contrib = weights[graph.conj_rule] * products
            raw = _ref_head_softor(
                base,
                contrib[graph.grouped_conj],
                graph.group_starts,
                group_sizes,
                gamma,
            )
            atoms_new[graph.updated_atoms] = np.clip(raw, 0.0, 1.0)
        else:
            raw = np.zeros(0, dtype=np.float64)

        if record:
            tape.rounds.append(
                ReferenceRound(
                    atoms_prev=atoms_prev,
                    body_vals=body_vals,
                    products=products,
                    raw=raw,
                )
            )
        atoms = atoms_new

    if record:
        return atoms, tape
    return atoms


def reference_backward(tape, loss_grad):
    """Reverse-mode ``(grad_weights, grad_facts)`` through a reference
    tape, given d(loss)/d(final valuation)."""
    graph, gamma, weights = tape.graph, tape.cfg.gamma, tape.weights
    loss_grad = np.asarray(loss_grad, dtype=np.float64)
    group_sizes = _ref_group_sizes(graph)
    ua = graph.updated_atoms

    d_atoms = loss_grad.copy()
    d_base = np.zeros(ua.size, dtype=np.float64)
    grad_weights = np.zeros(graph.n_rules, dtype=np.float64)

    for rec in reversed(tape.rounds):
        d_atoms_prev = d_atoms.copy()
        if graph.n_conj:
            # A head's new value reads its fact value, not its previous
            # value.
            d_raw = d_atoms[ua] * ((rec.raw >= 0.0) & (rec.raw <= 1.0))
            d_atoms_prev[ua] = 0.0

            contrib = weights[graph.conj_rule] * rec.products
            share_base, shares = _ref_head_softmax(
                tape.base,
                contrib[graph.grouped_conj],
                graph.group_starts,
                group_sizes,
                gamma,
            )
            d_base += d_raw * share_base
            d_contrib = np.zeros(graph.n_conj, dtype=np.float64)
            d_contrib[graph.grouped_conj] = (
                np.repeat(d_raw, group_sizes) * shares
            )

            np.add.at(
                grad_weights, graph.conj_rule, d_contrib * rec.products
            )
            d_products = d_contrib * weights[graph.conj_rule]

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

    d_atoms[ua] += d_base
    return grad_weights, d_atoms[: graph.n_facts]
