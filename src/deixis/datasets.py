"""Synthetic dataset builders for deictic segmentation tasks.

Two families:

* visual-genome-style instances: deictic prompts synthesized from scene
  graphs by picking a subject and k of its outgoing whitelisted relations,
  with the answer set restricted to be unambiguous (all satisfying objects
  share a synset);
* abstract list-operation scenes: tiny left-to-right object rows with
  delete/sort questions, an exact list-op oracle, and a hand-templated
  reasoning program per instance.

Both generators are pure functions of their seed.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass

import numpy as np

from .logic import (
    Atom,
    FactSet,
    Predicate,
    Program,
    Rule,
    Term,
    parse_program,
    render_program,
)
from .scene import (
    Box,
    SceneGraph,
    SceneObject,
    SceneRelation,
    SchemaError,
    _new_graph,
    _new_relation,
    canon_constant,
    is_finite_number,
    read_json,
)

# The relation whitelist used when mining prompts from scene graphs.
RELATION_WHITELIST: tuple[str, ...] = (
    "on",
    "wears",
    "has",
    "parked on",
    "behind",
    "holding",
    "against",
    "wearing",
    "near",
    "along",
    "in front of",
    "at",
    "under",
    "sitting on",
    "made of",
    "above",
    "carrying",
    "riding",
    "over",
)
_WHITELIST = frozenset(RELATION_WHITELIST)

# Relations that read as plain verbs; everything else is prefixed with "is".
_BARE_VERBS = frozenset({"has", "wears"})

_VOWELS = frozenset("aeiou")


class InsufficientCandidates(ValueError):
    """Fewer valid prompt candidates exist than were requested."""


class InsufficientCandidatesWarning(UserWarning):
    """Non-strict synthesis returned fewer instances than requested."""


def _article(noun: str) -> str:
    """Indefinite article for a noun phrase; mass/plural nouns (heuristic:
    trailing 's') take none."""
    if noun.endswith("s"):
        return ""
    return "an " if noun[0].lower() in _VOWELS else "a "


def _condition_phrase(relation: str, name: str) -> str:
    verb = relation if relation in _BARE_VERBS else f"is {relation}"
    return f"{verb} {_article(name)}{name}"


def render_prompt(structured, style: str = "appc") -> str:
    """Render (relation, object-name) conditions as a deictic sentence.

    ``appc`` style: "an object that is holding an umbrella, and that is on
    a boat."  ``s4`` style: "An object that has a handle and that is on a
    bench".
    """
    pairs = list(structured)
    if not pairs:
        raise ValueError("structured prompt must contain at least one condition")
    phrases = [_condition_phrase(rel, name) for rel, name in pairs]
    if style == "appc":
        text = f"an object that {phrases[0]}"
        for phrase in phrases[1:-1]:
            text += f", that {phrase}"
        if len(phrases) > 1:
            text += f", and that {phrases[-1]}"
        return text + "."
    if style == "s4":
        return "An object that " + " and that ".join(phrases)
    raise ValueError(f"unknown prompt style {style!r}")


@dataclass(frozen=True)
class AnswerObject:
    """Ground-truth answer annotation for one object."""

    object_id: int
    box: Box
    names: tuple[str, ...]
    synsets: tuple[str, ...] = ()
    merged_object_ids: tuple[int, ...] = ()


@dataclass(frozen=True)
class DeicticInstance:
    """One prompt with its unambiguous answer set.

    ``structured`` holds the (relation, object-name) conditions the prompt
    was rendered from; ``complexity`` is the number of relations.  Loaded
    files may lack the structured form, in which case it is empty and
    complexity stands alone.
    """

    deictic_prompt: str
    answers: tuple[AnswerObject, ...]
    image_id: int
    structured: tuple[tuple[str, str], ...] = ()
    complexity: int = 0

    def __post_init__(self) -> None:
        if not self.deictic_prompt:
            raise ValueError("deictic_prompt must be non-empty")
        if not self.answers:
            raise ValueError("an instance must have at least one answer")
        if self.structured and self.complexity != len(self.structured):
            raise ValueError(
                f"complexity {self.complexity} != "
                f"{len(self.structured)} structured conditions"
            )


def _subject_conditions(sg: SceneGraph) -> dict[int, list[tuple[str, str]]]:
    """Whitelisted outgoing (relation, object-name) pairs per subject."""
    by_subject: dict[int, list[tuple[str, str]]] = {}
    for rel in sg.relations:
        predicate = rel.predicate.strip().lower()
        if predicate not in _WHITELIST:
            continue
        target = sg.object_by_id(rel.object_id)
        name = target.primary_name
        if not name:
            continue
        conditions = by_subject.setdefault(rel.subject_id, [])
        pair = (predicate, name)
        if pair not in conditions:
            conditions.append(pair)
    return by_subject


def _satisfies(sg: SceneGraph, obj: SceneObject, structured) -> bool:
    """Does ``obj`` have every (relation, object-name) edge in ``structured``?

    Name matching is canonical (case/punctuation-insensitive) against all
    names of the relation target, mirroring how facts are built.
    """
    for relation, name in structured:
        want = canon_constant(name)
        hit = False
        for rel in sg.relations:
            if rel.subject_id != obj.object_id:
                continue
            if rel.predicate.strip().lower() != relation:
                continue
            target = sg.object_by_id(rel.object_id)
            if any(canon_constant(n) == want for n in target.names):
                hit = True
                break
        if not hit:
            return False
    return True


def _shared_synset(objects: list[SceneObject]) -> bool:
    shared = set(objects[0].synsets)
    for obj in objects[1:]:
        shared &= set(obj.synsets)
        if not shared:
            return False
    return bool(shared)


def synthesize_deivg(
    scene_graphs,
    k: int,
    n: int,
    seed: int,
    strict: bool = False,
    style: str = "appc",
) -> list[DeicticInstance]:
    """Mine up to ``n`` unambiguous k-relation prompts from scene graphs.

    For every subject with at least k whitelisted outgoing relations, each
    k-subset of its (relation, object-name) pairs becomes a candidate.  A
    candidate survives only if every scene object satisfying all k
    conditions shares a synset (or is unique), so the prompt has one kind
    of answer.  ``n`` instances are then sampled uniformly with the seeded
    RNG.  When fewer candidates exist, strict mode raises
    :class:`InsufficientCandidates`; otherwise all candidates are returned
    under a warning.
    """
    if k not in (1, 2, 3):
        raise ValueError(f"k must be 1, 2, or 3, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")

    candidates: list[DeicticInstance] = []
    seen: set[tuple[int, tuple[tuple[str, str], ...]]] = set()
    for sg in scene_graphs:
        for subject_id, conditions in _subject_conditions(sg).items():
            if len(conditions) < k:
                continue
            for combo in itertools.combinations(conditions, k):
                structured = tuple(combo)
                key = (sg.image_id, structured)
                if key in seen:
                    continue
                seen.add(key)
                satisfying = [o for o in sg.objects if _satisfies(sg, o, structured)]
                if not satisfying:
                    continue
                if len(satisfying) > 1 and not _shared_synset(satisfying):
                    continue
                candidates.append(
                    DeicticInstance(
                        deictic_prompt=render_prompt(structured, style=style),
                        answers=tuple(
                            AnswerObject(
                                object_id=o.object_id,
                                box=o.box,
                                names=o.names,
                                synsets=o.synsets,
                            )
                            for o in satisfying
                        ),
                        image_id=sg.image_id,
                        structured=structured,
                        complexity=k,
                    )
                )

    rng = np.random.default_rng(seed)
    if len(candidates) < n:
        message = (
            f"requested {n} instances for k={k} but only "
            f"{len(candidates)} unambiguous candidates exist"
        )
        if strict:
            raise InsufficientCandidates(message)
        warnings.warn(message, InsufficientCandidatesWarning)
        return candidates
    order = rng.permutation(len(candidates))[:n]
    return [candidates[i] for i in order]


def _answer_to_record(answer: AnswerObject) -> dict:
    record = {
        "names": list(answer.names),
        "h": answer.box.h,
        "synsets": list(answer.synsets),
        "object_id": answer.object_id,
        "w": answer.box.w,
        "y": answer.box.y,
        "x": answer.box.x,
    }
    if answer.merged_object_ids:
        record["merged_object_ids"] = list(answer.merged_object_ids)
    return record


def save_deivg(instances, path: str) -> None:
    """Write instances as a JSON array of prompt/answer records."""
    records = []
    for index, inst in enumerate(instances):
        record = {
            "deictic_prompt": inst.deictic_prompt,
            "answer": [_answer_to_record(a) for a in inst.answers],
            "VG_image_id": inst.image_id,
            "VG_data_index": index,
        }
        if inst.structured:
            record["structured"] = [list(pair) for pair in inst.structured]
            record["complexity"] = inst.complexity
        records.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


def _require(record: dict, key: str, path: str):
    if key not in record:
        raise SchemaError(path, f"missing required key {key!r}")
    return record[key]


def _parse_answer(record, path: str) -> AnswerObject:
    if not isinstance(record, dict):
        raise SchemaError(path, "answer entry must be an object")
    if "names" in record:
        names = record["names"]
        if isinstance(names, str):
            names = [names]
    elif "name" in record:
        names = [record["name"]]
    else:
        raise SchemaError(path, "answer entry needs 'names' or 'name'")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise SchemaError(f"{path}.names", "must be a string or list of strings")
    box = Box.from_dict(record, path)
    object_id = _require(record, "object_id", f"{path}.object_id")
    if not isinstance(object_id, int) or isinstance(object_id, bool):
        raise SchemaError(f"{path}.object_id", "must be an integer")
    merged = record.get("merged_object_ids", [])
    if not isinstance(merged, list) or not all(isinstance(m, int) for m in merged):
        raise SchemaError(f"{path}.merged_object_ids", "must be a list of integers")
    synsets = record.get("synsets", [])
    if not isinstance(synsets, list) or not all(isinstance(s, str) for s in synsets):
        raise SchemaError(f"{path}.synsets", "must be a list of strings")
    return AnswerObject(
        object_id=object_id,
        box=box,
        names=tuple(names),
        synsets=tuple(synsets),
        merged_object_ids=tuple(merged),
    )


def load_deivg(path: str) -> list[DeicticInstance]:
    """Read a JSON instance file, tolerating both answer-name spellings."""
    data = read_json(path)
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise SchemaError("$", "top level must be an array of records")

    instances = []
    for i, record in enumerate(data):
        where = f"$[{i}]"
        if not isinstance(record, dict):
            raise SchemaError(where, "record must be an object")
        prompt = _require(record, "deictic_prompt", f"{where}.deictic_prompt")
        if not isinstance(prompt, str) or not prompt:
            raise SchemaError(f"{where}.deictic_prompt", "must be a non-empty string")
        answers_raw = _require(record, "answer", f"{where}.answer")
        if not isinstance(answers_raw, list) or not answers_raw:
            raise SchemaError(f"{where}.answer", "must be a non-empty array")
        answers = tuple(
            _parse_answer(a, f"{where}.answer[{j}]")
            for j, a in enumerate(answers_raw)
        )
        image_id = record.get("VG_image_id", record.get("image_id"))
        if not isinstance(image_id, int) or isinstance(image_id, bool):
            raise SchemaError(f"{where}.VG_image_id", "must be an integer")
        structured_raw = record.get("structured", [])
        if not isinstance(structured_raw, list):
            raise SchemaError(f"{where}.structured", "must be an array of pairs")
        structured = []
        for j, pair in enumerate(structured_raw):
            if (
                not isinstance(pair, list)
                or len(pair) != 2
                or not all(isinstance(p, str) for p in pair)
            ):
                raise SchemaError(
                    f"{where}.structured[{j}]", "must be a [relation, name] pair"
                )
            structured.append((pair[0], pair[1]))
        complexity = record.get(
            "complexity", len(structured) if structured else 0
        )
        if not isinstance(complexity, int) or isinstance(complexity, bool):
            raise SchemaError(f"{where}.complexity", "must be an integer")
        try:
            instances.append(
                DeicticInstance(
                    deictic_prompt=prompt,
                    answers=answers,
                    image_id=image_id,
                    structured=tuple(structured),
                    complexity=complexity,
                )
            )
        except ValueError as exc:
            raise SchemaError(where, str(exc)) from exc
    return instances


def load_predictions(path: str) -> list[list[tuple[Box, float]]]:
    """Read an ``eval --predictions`` file: one record per data record,
    each with a ``predictions`` array of {"box": {x, y, w, h}, "score"}
    entries. Boxes and scores must be finite numbers."""
    data = read_json(path)
    if not isinstance(data, list):
        raise SchemaError("$", "top level must be an array of records")
    prediction_sets = []
    for i, record in enumerate(data):
        where = f"$[{i}]"
        if not isinstance(record, dict):
            raise SchemaError(where, "record must be an object")
        entries = record.get("predictions", [])
        if not isinstance(entries, list):
            raise SchemaError(f"{where}.predictions", "must be an array")
        predictions = []
        for j, entry in enumerate(entries):
            ppath = f"{where}.predictions[{j}]"
            if not isinstance(entry, dict):
                raise SchemaError(ppath, "prediction must be an object")
            bpath = f"{ppath}.box"
            box = Box.from_dict(_require(entry, "box", bpath), bpath)
            score = _require(entry, "score", f"{ppath}.score")
            if not is_finite_number(score):
                raise SchemaError(f"{ppath}.score", "must be a finite number")
            predictions.append((box, float(score)))
        prediction_sets.append(predictions)
    return prediction_sets


# --- abstract list-operation scenes ---------------------------------------

CLEVR_COLORS: tuple[str, ...] = ("cyan", "gray", "red", "yellow")
CLEVR_SHAPES: tuple[str, ...] = ("sphere", "cube", "cylinder")
CLEVR_MATERIALS: tuple[str, ...] = ("metal", "matte")

_ORDINALS = ("first", "second", "third")


@dataclass(frozen=True)
class ClevrObject:
    """One object in a left-to-right scene row."""

    color: str
    shape: str
    material: str
    box: Box

    def __post_init__(self) -> None:
        if self.color not in CLEVR_COLORS:
            raise ValueError(f"unknown color {self.color!r}")
        if self.shape not in CLEVR_SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.material not in CLEVR_MATERIALS:
            raise ValueError(f"unknown material {self.material!r}")


@dataclass(frozen=True)
class ClevrScene:
    """At most three objects, stored left to right, colors all distinct."""

    objects: tuple[ClevrObject, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.objects) <= 3:
            raise ValueError(
                f"a scene holds 1 to 3 objects, got {len(self.objects)}"
            )
        colors = [o.color for o in self.objects]
        if len(set(colors)) != len(colors):
            raise ValueError(f"duplicate colors in one scene: {colors}")
        xs = [o.box.x for o in self.objects]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("objects must be stored in left-to-right order")


def clevr_oracle(scene: ClevrScene, operation: str, q: int, param: str | None) -> int:
    """Index (into the original scene) of the q-th left-most object after
    the list operation.  This is the plain-Python ground truth the
    reasoner must reproduce."""
    n = len(scene.objects)
    if operation == "delete":
        if param is None:
            raise ValueError("delete needs a color parameter")
        survivors = [i for i, o in enumerate(scene.objects) if o.color != param]
        if len(survivors) == n:
            raise ValueError(f"no {param} object to delete")
        if not 1 <= q <= len(survivors):
            raise ValueError(f"position {q} out of range after deletion")
        return survivors[q - 1]
    if operation == "sort":
        order = sorted(range(n), key=lambda i: scene.objects[i].color)
        if not 1 <= q <= n:
            raise ValueError(f"position {q} out of range")
        return order[q - 1]
    raise ValueError(f"unknown operation {operation!r}")


def render_clevr_prompt(operation: str, q: int, param: str | None) -> str:
    ordinal = _ORDINALS[q - 1]
    if operation == "delete":
        action = f"deleting a {param} object"
    elif operation == "sort":
        action = "sorting the objects by color"
    else:
        raise ValueError(f"unknown operation {operation!r}")
    return f"The {ordinal} left-most object after {action}?"


def clevr_facts(scene: ClevrScene) -> tuple[FactSet, np.ndarray]:
    """Ground facts for a scene: leftof(objI,objJ) for every i<j pair,
    then color(objK,c); all with value 1.0."""
    facts = FactSet()
    n = len(scene.objects)
    leftof = Predicate("leftof", 2)
    color = Predicate("color", 2)
    for i in range(n):
        for j in range(i + 1, n):
            facts.add(Atom(leftof, (Term(f"obj{i + 1}"), Term(f"obj{j + 1}"))))
    for i, obj in enumerate(scene.objects):
        facts.add(Atom(color, (Term(f"obj{i + 1}"), Term(obj.color))))
    return facts, np.ones(len(facts), dtype=np.float64)


def clevr_scene_graph(scene: ClevrScene) -> SceneGraph:
    """Scene-graph view of a row scene, so target extraction can map
    constants back to boxes.  Object ids are 1-based positions."""
    objects = tuple(
        SceneObject(
            object_id=i + 1,
            names=(obj.color,),
            box=obj.box,
            synsets=(f"{obj.color}.n.01",),
        )
        for i, obj in enumerate(scene.objects)
    )
    relations = tuple(
        SceneRelation(subject_id=i + 1, predicate="leftof", object_id=j + 1)
        for i in range(len(scene.objects))
        for j in range(i + 1, len(scene.objects))
    )
    return SceneGraph(image_id=0, objects=objects, relations=relations)


def _position_rules(n: int) -> list[Rule]:
    """posK(X) holds when X is the K-th left-most of n objects, expressed
    through leftof chains."""
    x, y, z = Term("X"), Term("Y"), Term("Z")
    leftof = Predicate("leftof", 2)
    pos = [Predicate(f"pos{k}", 1) for k in range(1, n + 1)]
    if n == 2:
        return [
            Rule(Atom(pos[0], (x,)), (Atom(leftof, (x, y)),)),
            Rule(Atom(pos[1], (x,)), (Atom(leftof, (y, x)),)),
        ]
    if n == 3:
        return [
            Rule(Atom(pos[0], (x,)), (Atom(leftof, (x, y)), Atom(leftof, (y, z)))),
            Rule(Atom(pos[1], (x,)), (Atom(leftof, (y, x)), Atom(leftof, (x, z)))),
            Rule(Atom(pos[2], (x,)), (Atom(leftof, (y, x)), Atom(leftof, (z, y)))),
        ]
    raise ValueError(f"position rules need 2 or 3 objects, got {n}")


def clevr_program(operation: str, q: int, param: str | None, n_objects: int) -> Program:
    """Reasoning program whose target atom is the oracle answer.

    delete: for each position d the deleted object could occupy, a rule
    picks the original position of the q-th survivor (q if d > q, else
    q+1); the color test makes exactly one rule fire.

    sort: for each possible color subset of the scene, one rule binds a
    variable per color and heads the q-th color in alphabetical order;
    exactly one subset matches the scene.
    """
    color = Predicate("color", 2)
    target = Predicate("target", 1)
    if operation == "delete":
        if param is None:
            raise ValueError("delete needs a color parameter")
        if n_objects < 2:
            raise ValueError("deletion needs at least 2 objects")
        if not 1 <= q <= n_objects - 1:
            raise ValueError(f"position {q} invalid for {n_objects} objects")
        rules = _position_rules(n_objects)
        d_var, x = Term("D"), Term("X")
        for d in range(1, n_objects + 1):
            survivor_pos = q + 1 if d <= q else q
            rules.append(
                Rule(
                    Atom(target, (x,)),
                    (
                        Atom(color, (d_var, Term(param))),
                        Atom(Predicate(f"pos{d}", 1), (d_var,)),
                        Atom(Predicate(f"pos{survivor_pos}", 1), (x,)),
                    ),
                )
            )
        return Program(tuple(rules))
    if operation == "sort":
        if not 1 <= q <= n_objects:
            raise ValueError(f"position {q} invalid for {n_objects} objects")
        rules = []
        variables = [Term(f"V{i + 1}") for i in range(n_objects)]
        for subset in itertools.combinations(CLEVR_COLORS, n_objects):
            body = tuple(
                Atom(color, (variables[i], Term(c))) for i, c in enumerate(subset)
            )
            rules.append(Rule(Atom(target, (variables[q - 1],)), body))
        return Program(tuple(rules))
    raise ValueError(f"unknown operation {operation!r}")


def generate_deiclevr(
    n: int, operation: str, seed: int
) -> list[tuple[ClevrScene, str, int, Program]]:
    """Generate ``n`` (scene, prompt, answer_index, program) instances.

    Scenes, positions, and (for delete) the color parameter are drawn
    uniformly; configurations whose position runs past the post-operation
    list are resampled.  ``answer_index`` is 0-based into the scene's
    objects.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if operation not in ("delete", "sort"):
        raise ValueError(f"operation must be 'delete' or 'sort', got {operation!r}")
    rng = np.random.default_rng(seed)
    out: list[tuple[ClevrScene, str, int, Program]] = []
    while len(out) < n:
        n_obj = int(rng.integers(1, 4))
        colors = [CLEVR_COLORS[i] for i in rng.permutation(4)[:n_obj]]
        objects = []
        for i in range(n_obj):
            x = 40 + 150 * i + int(rng.integers(0, 40))
            y = 80 + int(rng.integers(0, 60))
            objects.append(
                ClevrObject(
                    color=colors[i],
                    shape=CLEVR_SHAPES[int(rng.integers(len(CLEVR_SHAPES)))],
                    material=CLEVR_MATERIALS[int(rng.integers(len(CLEVR_MATERIALS)))],
                    box=Box(x=x, y=y, w=50 + int(rng.integers(0, 40)),
                            h=50 + int(rng.integers(0, 40))),
                )
            )
        scene = ClevrScene(tuple(objects))
        q = int(rng.integers(1, 4))
        if operation == "delete":
            param = colors[int(rng.integers(n_obj))]
            remaining = n_obj - 1
        else:
            param = None
            remaining = n_obj
        if q > remaining:
            continue  # position runs past the end; resample
        answer = clevr_oracle(scene, operation, q, param)
        program = clevr_program(operation, q, param, n_obj)
        prompt = render_clevr_prompt(operation, q, param)
        out.append((scene, prompt, answer, program))
    return out


def save_deiclevr(instances, path: str) -> None:
    """Write (scene, prompt, answer_index, program) tuples as JSON."""
    records = []
    for scene, prompt, answer_index, program in instances:
        records.append(
            {
                "objects": [
                    {
                        "color": o.color,
                        "shape": o.shape,
                        "material": o.material,
                        "box": o.box.to_dict(),
                    }
                    for o in scene.objects
                ],
                "prompt": prompt,
                "answer_index": answer_index,
                "program": render_program(program),
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


def load_deiclevr(path: str) -> list[tuple[ClevrScene, str, int, Program]]:
    data = read_json(path)
    if not isinstance(data, list):
        raise SchemaError("$", "top level must be an array of records")
    out = []
    for i, record in enumerate(data):
        where = f"$[{i}]"
        if not isinstance(record, dict):
            raise SchemaError(where, "record must be an object")
        objects_raw = _require(record, "objects", f"{where}.objects")
        if not isinstance(objects_raw, list) or not objects_raw:
            raise SchemaError(f"{where}.objects", "must be a non-empty array")
        objects = []
        for j, obj in enumerate(objects_raw):
            opath = f"{where}.objects[{j}]"
            if not isinstance(obj, dict):
                raise SchemaError(opath, "object must be a JSON object")
            color = _require(obj, "color", f"{opath}.color")
            shape = _require(obj, "shape", f"{opath}.shape")
            material = _require(obj, "material", f"{opath}.material")
            bpath = f"{opath}.box"
            box = Box.from_dict(_require(obj, "box", bpath), bpath)
            try:
                objects.append(ClevrObject(color, shape, material, box))
            except (ValueError, TypeError) as exc:
                raise SchemaError(opath, str(exc)) from exc
        try:
            scene = ClevrScene(tuple(objects))
        except ValueError as exc:
            raise SchemaError(f"{where}.objects", str(exc)) from exc
        prompt = _require(record, "prompt", f"{where}.prompt")
        answer_index = _require(record, "answer_index", f"{where}.answer_index")
        if not isinstance(answer_index, int) or isinstance(answer_index, bool):
            raise SchemaError(f"{where}.answer_index", "must be an integer")
        if not 0 <= answer_index < len(objects):
            raise SchemaError(f"{where}.answer_index", "out of range")
        program_text = _require(record, "program", f"{where}.program")
        try:
            program = parse_program(program_text)
        except SyntaxError as exc:
            raise SchemaError(f"{where}.program", str(exc)) from exc
        out.append((scene, prompt, answer_index, program))
    return out


# --- synthetic corpora and corruption --------------------------------------

_NOUNS: tuple[str, ...] = (
    "man", "woman", "dog", "cat", "tree", "car", "boat", "umbrella", "hat",
    "shirt", "table", "chair", "bench", "wall", "sign", "pole", "street",
    "fence", "building", "window", "door", "bag", "bike", "horse", "cooler",
)


def random_scene_graphs(
    count: int,
    seed: int,
    min_objects: int = 3,
    max_objects: int = 7,
    min_relations: int = 2,
    max_relations: int = 8,
) -> list[SceneGraph]:
    """Small random scene graphs over a fixed noun vocabulary.

    Every object gets one name and the matching synset, so prompt mining
    has unambiguity information to work with.  Relations draw from the
    whitelist; duplicates are dropped.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if not 1 <= min_objects <= max_objects:
        raise ValueError("need 1 <= min_objects <= max_objects")
    rng = np.random.default_rng(seed)
    graphs = []
    for g in range(count):
        n_obj = int(rng.integers(min_objects, max_objects + 1))
        objects = []
        for j in range(n_obj):
            name = _NOUNS[int(rng.integers(len(_NOUNS)))]
            objects.append(
                SceneObject(
                    object_id=j + 1,
                    names=(name,),
                    box=Box(
                        x=int(rng.integers(0, 400)),
                        y=int(rng.integers(0, 400)),
                        w=int(rng.integers(20, 140)),
                        h=int(rng.integers(20, 140)),
                    ),
                    synsets=(f"{name}.n.01",),
                )
            )
        relations = []
        seen = set()
        n_rel = int(rng.integers(min_relations, max_relations + 1))
        for _ in range(n_rel):
            subject = int(rng.integers(n_obj)) + 1
            obj = int(rng.integers(n_obj)) + 1
            if subject == obj:
                continue
            predicate = RELATION_WHITELIST[int(rng.integers(len(RELATION_WHITELIST)))]
            key = (subject, predicate, obj)
            if key in seen:
                continue
            seen.add(key)
            relations.append(
                SceneRelation(subject_id=subject, predicate=predicate, object_id=obj)
            )
        graphs.append(
            SceneGraph(
                image_id=1_000 + g,
                objects=tuple(objects),
                relations=tuple(relations),
            )
        )
    return graphs


def corrupt_scene_graph(
    sg: SceneGraph,
    drop_rate: float = 0.5,
    spurious_per_relation: int = 2,
    seed: int = 0,
) -> SceneGraph:
    """Simulate a noisy scene-graph source.

    Each relation is dropped independently with ``drop_rate``, and for
    every original relation ``spurious_per_relation`` rewired copies are
    attempted (same predicate and object, random other subject), modeling
    the hallucinated edges of an imperfect generator.  Objects are kept
    as-is.
    """
    if not 0.0 <= drop_rate <= 1.0:
        raise ValueError(f"drop_rate must be in [0, 1], got {drop_rate}")
    if spurious_per_relation < 0:
        raise ValueError(
            f"spurious_per_relation must be >= 0, got {spurious_per_relation}"
        )
    rng = np.random.default_rng(seed)
    object_ids = [o.object_id for o in sg.objects]
    original = {(r.subject_id, r.predicate, r.object_id) for r in sg.relations}

    kept = [r for r in sg.relations if float(rng.random()) >= drop_rate]
    spurious: list[SceneRelation] = []
    seen = {(r.subject_id, r.predicate, r.object_id) for r in kept}
    for rel in sg.relations:
        for _ in range(spurious_per_relation):
            subject = object_ids[int(rng.integers(len(object_ids)))]
            if subject in (rel.subject_id, rel.object_id):
                continue
            key = (subject, rel.predicate, rel.object_id)
            if key in original or key in seen:
                continue
            seen.add(key)
            spurious.append(_new_relation(subject, rel.predicate, rel.object_id, 1.0))
    # Every endpoint is an object of the checked graph ``sg``, so neither
    # the rewired relations nor the graph need checking again.
    return _new_graph(sg.image_id, sg.objects, tuple(kept + spurious))
