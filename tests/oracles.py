"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive: plain loops, plain floats, no
shared code with the package under test beyond its data containers.
"""

from __future__ import annotations

import itertools
import math
import re

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
