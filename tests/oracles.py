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
