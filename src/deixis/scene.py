"""Scene graphs: boxes, VG-style JSON ingestion, and conversion to facts.

Objects become dense constants ``obj1, obj2, ...`` in listing order; each
relation ``(s, e, o)`` becomes a binary fact ``e(obj_s, obj_o)`` and each
object name becomes a fact ``type(obj_i, name)`` over the canonicalized
name.

One canonical pass per scene graph (:func:`scene_rows`, kept on the graph)
turns it into plain rows ``(predicate, argument names, value)`` in fact
order, without building a term or an atom. Two things are read off the
rows:

- the facts: :func:`scene_graph_to_facts` given a program builds atoms only
  for the rows that one of its body atoms can read. This is magic sets
  applied to the fact side (Bancilhon, Maier, Sagiv and Ullman, PODS 1986;
  Beeri and Ramakrishnan, J. Logic Programming 1991). Grounding binds
  variables only to constants of atoms a body atom matches, and the cut
  keeps those atoms in their order, so the program grounds as over the
  full facts;
- the unifier's vocabularies (``unify.scene_vocabularies``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import Container

import numpy as np

from .logic import Atom, FactSet, Predicate, Program, Term, _unchecked

__all__ = [
    "Box",
    "SceneObject",
    "SceneRelation",
    "SceneGraph",
    "DanglingReference",
    "SchemaError",
    "parse_json",
    "read_json",
    "canon_constant",
    "canon_predicate",
    "object_constants",
    "object_positions",
    "scene_rows",
    "scene_graph_to_facts",
    "tagged_predicate",
    "parse_scene_graph",
    "load_scene_graphs",
]


class DanglingReference(ValueError):
    """A relation endpoint does not reference an existing object."""


class SchemaError(ValueError):
    """An input file does not match the expected JSON shape."""

    def __init__(self, path: str, message: str) -> None:
        self.json_path = path
        super().__init__(f"{path}: {message}")


def parse_json(text: str, where: str):
    """Decode JSON text; a syntax error raises :class:`SchemaError` as
    ``<where>: not valid JSON: <decoder message>``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(where, f"not valid JSON: {exc}") from exc


def read_json(path: str):
    """Decode a JSON file; a syntax error names the file."""
    with open(path, encoding="utf-8") as fh:
        return parse_json(fh.read(), path)


def _check_box(x: float, y: float, w: float, h: float) -> None:
    """Raise ValueError unless (x, y, w, h) is a valid box."""
    isfinite = math.isfinite
    if not (isfinite(x) and isfinite(y) and isfinite(w) and isfinite(h)):
        raise ValueError(
            f"box coordinates must be finite: x={x}, y={y}, w={w}, h={h}"
        )
    if w <= 0 or h <= 0:
        raise ValueError(f"box size must be positive: w={w}, h={h}")
    if x < 0 or y < 0:
        raise ValueError(f"box corner must be non-negative: x={x}, y={y}")


@dataclass(frozen=True, order=True)
class Box:
    """Axis-aligned pixel box with top-left corner (x, y) and size (w, h)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        _check_box(self.x, self.y, self.w, self.h)

    @property
    def area(self) -> float:
        return self.w * self.h

    def iou(self, other: "Box") -> float:
        ix = min(self.x + self.w, other.x + other.w) - max(self.x, other.x)
        iy = min(self.y + self.h, other.y + other.h) - max(self.y, other.y)
        if ix <= 0 or iy <= 0:
            return 0.0
        inter = ix * iy
        union = self.area + other.area - inter
        return inter / union

    def to_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "w": self.w, "h": self.h}

    @classmethod
    def from_dict(cls, d, path: str = "box") -> "Box":
        """A Box from the numeric x, y, w, h keys of the object ``d``.

        Raises :class:`SchemaError` naming ``path`` (or the key under it)
        when ``d`` is not such an object; numbers are taken as they are,
        nothing is converted.
        """
        if not isinstance(d, dict):
            raise SchemaError(path, "must be an {x, y, w, h} object")
        coords = []
        for key in ("x", "y", "w", "h"):
            if key not in d:
                raise SchemaError(f"{path}.{key}", f"missing required key {key!r}")
            value = d[key]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SchemaError(f"{path}.{key}", "must be a number")
            coords.append(value)
        try:
            return cls(*coords)
        except ValueError as exc:
            raise SchemaError(path, f"invalid box: {exc}") from exc


@dataclass(frozen=True)
class SceneObject:
    object_id: int
    names: tuple[str, ...]
    box: Box
    synsets: tuple[str, ...] = ()

    @property
    def primary_name(self) -> str:
        return self.names[0] if self.names else ""


def _clip_confidence(c: float) -> float:
    """A finite confidence clipped to [0, 1]; ValueError if not finite."""
    if not math.isfinite(c):
        raise ValueError(f"relation confidence must be finite, got {c}")
    return min(max(c, 0.0), 1.0)


@dataclass(frozen=True)
class SceneRelation:
    """A directed relation; a finite confidence is clipped to [0, 1]."""

    subject_id: int
    predicate: str
    object_id: int
    confidence: float = 1.0

    def __post_init__(self):
        c = self.confidence
        if not 0.0 <= c <= 1.0:
            object.__setattr__(self, "confidence", _clip_confidence(c))


@dataclass(frozen=True)
class SceneGraph:
    image_id: int
    objects: tuple[SceneObject, ...]
    relations: tuple[SceneRelation, ...]

    def __post_init__(self):
        ids = [o.object_id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate object_id in scene {self.image_id}")
        known = set(ids)
        for r in self.relations:
            for endpoint in (r.subject_id, r.object_id):
                if endpoint not in known:
                    raise DanglingReference(
                        f"relation '{r.predicate}' references unknown object "
                        f"{endpoint} in scene {self.image_id}"
                    )

    def object_by_id(self, object_id: int) -> SceneObject:
        for o in self.objects:
            if o.object_id == object_id:
                return o
        raise DanglingReference(f"unknown object {object_id} in scene {self.image_id}")


def canon_constant(name: str) -> str:
    """Canonicalize an object/attribute name: lowercase, alphanumerics only.

    "white line" -> "whiteline", "Stop Sign" -> "stopsign". Idempotent.
    """
    return "".join(c for c in name.lower() if c.isalnum())


def canon_predicate(name: str) -> str:
    """Canonicalize a relation name: lowercase, spaces become underscores.

    "parked on" -> "parked_on", "in front of" -> "in_front_of". Idempotent.
    """
    joined = "_".join(name.lower().split())
    return "".join(c for c in joined if c.isalnum() or c == "_")


# Each distinct raw name is canonicalised once, and each distinct constant
# or predicate is validated once; terms and predicates are immutable, so
# facts share them.
_canon_constant = lru_cache(maxsize=1 << 16)(canon_constant)
_canon_predicate = lru_cache(maxsize=1 << 16)(canon_predicate)
_term = lru_cache(maxsize=1 << 16)(Term)
_predicate = lru_cache(maxsize=1 << 12)(Predicate)
_new_atom = _unchecked(Atom)


def object_constants(sg: SceneGraph) -> dict[int, Term]:
    """Map object_id -> dense constant obj1, obj2, ... in listing order."""
    return {o.object_id: _term(f"obj{i}") for i, o in enumerate(sg.objects, start=1)}


def object_positions(sg: SceneGraph) -> dict[str, int]:
    """Map the name of each object constant to the position of its object
    in ``sg.objects`` (``obj1`` -> 0), built on first use and kept on
    ``sg``."""
    positions = sg.__dict__.get("_positions")
    if positions is None:
        positions = {
            constant.name: position
            for position, constant in enumerate(object_constants(sg).values())
        }
        object.__setattr__(sg, "_positions", positions)
    return positions


def tagged_predicate(name: str) -> str:
    """The name of a scene predicate in a mixture, where it carries a
    trailing source argument: ``on`` -> ``onSgg``. Idempotent."""
    return name if name.endswith("Sgg") else f"{name}Sgg"


def scene_rows(sg: SceneGraph) -> tuple[tuple[str, tuple[str, str], float], ...]:
    """The facts of ``sg`` as plain rows from one canonical pass, built on
    first use and kept on ``sg``.

    Each row is ``(predicate, (subject, object), value)``, in fact order:
    the relations in listing order, then one ``type`` row per object name.
    A duplicate row keeps its first position and its maximum value, and a
    name that canonicalises to nothing gives no row.
    """
    rows = sg.__dict__.get("_rows")
    if rows is not None:
        return rows
    consts = {o.object_id: f"obj{i}" for i, o in enumerate(sg.objects, start=1)}
    # (predicate, args) -> value; a repeat keeps its position and the
    # larger value (values lie in [0, 1]).
    values: dict[tuple[str, tuple[str, str]], float] = {}
    for rel in sg.relations:
        name = _canon_predicate(rel.predicate)
        if name:
            key = (name, (consts[rel.subject_id], consts[rel.object_id]))
            value = float(rel.confidence)
            if values.get(key, -1.0) < value:
                values[key] = value
    for o in sg.objects:
        subject = consts[o.object_id]
        for raw in o.names:
            name = _canon_constant(raw)
            if name:
                key = ("type", (subject, name))
                if values.get(key, -1.0) < 1.0:
                    values[key] = 1.0
    rows = tuple((name, args, v) for (name, args), v in values.items())
    object.__setattr__(sg, "_rows", rows)
    return rows


def _demand(program: Program, arity: int) -> dict[str, list]:
    """Predicate name -> the constant patterns of the program's body atoms
    of ``arity``, each a tuple of (position, constant) pairs. A body atom
    without constants reads every fact of its predicate, whose list of
    patterns is then empty."""
    demand: dict[str, list] = {}
    reads_all: set[str] = set()
    for rule in program.rules:
        for a in rule.body:
            if a.predicate.arity == arity:
                pattern = tuple(
                    (i, t.name) for i, t in enumerate(a.args) if t.is_constant
                )
                demand.setdefault(a.predicate.name, []).append(pattern)
                if not pattern:
                    reads_all.add(a.predicate.name)
    for name in reads_all:
        demand[name] = []
    return demand


def scene_graph_to_facts(
    sg: SceneGraph,
    program: Program | None = None,
    *,
    tag: str | None = None,
) -> tuple[FactSet, np.ndarray]:
    """Convert a scene graph to (facts, valuation).

    Relation facts come first, then one ``type`` fact per object name, in
    listing order. Valuations are the relations' carried confidences (1.0 by
    default) and 1.0 for type facts. Duplicate atoms keep their maximum
    confidence. Names that canonicalize to nothing are skipped.

    With a ``tag``, every fact carries it as a trailing argument and its
    predicate is renamed by :func:`tagged_predicate`, the form a mixture
    uses. With a ``program``, only the facts that one of its body atoms can
    read are built: same predicate and arity, and the atom's constants at
    their positions (``type(Y,umbrella)`` reads only umbrella type facts).
    They keep their relative order and values. Grounding reads nothing
    else, so the program grounds to the same rule instances, in the same
    order, as over the full facts.
    """
    # Every row has two arguments, three with a tag.
    demand = None if program is None else _demand(program, 2 + (tag is not None))
    # The rows are distinct, and each predicate is made with its rows'
    # arity, so the atoms and the store are built without a check. Their
    # groundness is tested on the strings: a row's subject is an object
    # constant, so only its second argument (a type row's name) or the tag
    # can read as a variable, since some letters, such as 'ℭ', stay
    # uppercase when lowercased.
    atoms: list[Atom] = []
    values: list[float] = []
    for name, args, value in scene_rows(sg):
        if tag is not None:
            name, args = tagged_predicate(name), (*args, tag)
        if demand is not None:
            patterns = demand.get(name)
            if patterns is None or patterns and not any(
                all(args[i] == c for i, c in p) for p in patterns
            ):
                continue
        atom = _new_atom(_predicate(name, len(args)), tuple(map(_term, args)))
        if args[1][0].isupper() or args[-1][0].isupper():
            raise ValueError(f"non-ground fact: {atom}")
        atoms.append(atom)
        values.append(value)
    return FactSet._of_distinct(atoms), np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# JSON ingestion (tolerant of raw Visual Genome exports)
#
# One reader checks every graph, in one pass, and builds only the ones
# asked for. It runs one flat loop over a graph's objects and one over its
# relations, and on the well-formed path it calls no checking helper per
# element. Each field is first read by an exact-type test for the
# form that corpus writers emit: an int or float coordinate or confidence,
# an int id, a str predicate, a list of str names. A box is tested inline
# (a comparison with NaN is false, so NaN fails it too). Any other form,
# and any failed test, takes the slow branch (the helpers below), which
# accepts the lenient forms or raises naming the JSON path; a path is
# formatted only there. What the reader has checked it builds without a
# second check: boxes, relations and graphs come from the unchecked
# constructors (``logic._unchecked``), since ``SceneGraph.__post_init__``
# would only test again the ids and endpoints tested here.


# The exact types of a JSON number; a bool is neither.
_NUMBER = (float, int)
_INF = math.inf
_new_box = _unchecked(Box)
_new_relation = _unchecked(SceneRelation)
_new_graph = _unchecked(SceneGraph)


def _integer(value) -> int:
    """An integer JSON value: an int, an integral float or a numeric string;
    never a bool."""
    if value.__class__ is int:
        return value
    if isinstance(value, bool):
        raise TypeError("a bool is not an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value} is not integral")
    return int(value)


def _number(value) -> float:
    """A number JSON value: an int, a float or a numeric string; never a
    bool."""
    if isinstance(value, bool):
        raise TypeError("a bool is not a number")
    return float(value)


def _string(value) -> str:
    """A string JSON value, nothing converted."""
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


_KINDS = {_integer: "an integer", _number: "a number", _string: "a string"}


def _strings(entry: dict, key: str, path: str) -> tuple[str, ...]:
    """``entry[key]`` as a tuple of strings; a lone string is one entry."""
    value = entry.get(key, [])
    if isinstance(value, str):
        return (value,)
    if not isinstance(value, list) or not all(map(isinstance, value, repeat(str))):
        raise SchemaError(f"{path}.{key}", "must be a string or an array of strings")
    return tuple(value)


def _field(entry: dict, key: str, path: str, convert=_number, default=None):
    """``entry[key]`` passed through ``convert``; a missing key without a
    default or an unconvertible value names ``path.key``."""
    if key not in entry:
        if default is None:
            raise SchemaError(f"{path}.{key}", f"missing required key {key!r}")
        return default
    try:
        return convert(entry[key])
    except (TypeError, ValueError):
        raise SchemaError(
            f"{path}.{key}", f"must be {_KINDS[convert]}, got {entry[key]!r}"
        ) from None


def _image_id(data: dict, path: str) -> int:
    """The graph's image id: ``image_id``, ``id`` or ``VG_image_id``, else 0."""
    for key in ("image_id", "id", "VG_image_id"):
        if key in data:
            return _field(data, key, path, _integer)
    return 0


def _endpoint(entry: dict, key: str, path: str, known: dict) -> int:
    """A relation endpoint: ``entry[key]``, or the ``object_id`` (or ``id``)
    of a nested ``subject``/``object`` dict; it must name a known object."""
    nested = entry.get(key[:-3])  # "subject_id" -> nested "subject"
    if key not in entry and isinstance(nested, dict):
        entry, path = nested, f"{path}.{key[:-3]}"
        key = "object_id" if "object_id" in nested else "id"
    endpoint = _field(entry, key, path, _integer)
    if endpoint not in known:
        raise SchemaError(f"{path}.{key}", f"no object has object_id {endpoint}")
    return endpoint


def _at(path: str, array: str, j: int) -> str:
    """The JSON path of entry ``j`` of an array below ``path``."""
    return f"{path}.{array}[{j}]"


def _array(data: dict, key: str, path: str) -> list:
    value = data.get(key, [])
    if not isinstance(value, list):
        raise SchemaError(f"{path}.{key}", "must be an array")
    return value


def _read_scene_graph(
    data: dict, path: str, image_ids: Container[int] | None
) -> SceneGraph | None:
    """Check one scene graph; build it when ``image_ids`` is None or holds
    its image id, and return None otherwise."""
    if not isinstance(data, dict):
        raise SchemaError(path, "scene graph must be an object")
    image_id = data.get("image_id")
    if image_id.__class__ is not int:
        image_id = _image_id(data, path)
    build = image_ids is None or image_id in image_ids
    objects = []
    seen: dict[int, int] = {}  # object_id -> its index in "objects"
    for j, entry in enumerate(_array(data, "objects", path)):
        if not isinstance(entry, dict):
            raise SchemaError(_at(path, "objects", j), "object must be a JSON object")
        object_id = entry.get("object_id")
        if object_id.__class__ is not int:
            object_id = _field(entry, "object_id", _at(path, "objects", j), _integer)
        if object_id in seen:
            raise SchemaError(
                _at(path, "objects", j) + ".object_id",
                f"duplicate object_id {object_id} "
                f"(also at {_at(path, 'objects', seen[object_id])})",
            )
        seen[object_id] = j
        x, y, w, h = entry.get("x"), entry.get("y"), entry.get("w"), entry.get("h")
        if (
            x.__class__ in _NUMBER and y.__class__ in _NUMBER
            and w.__class__ in _NUMBER and h.__class__ in _NUMBER
        ):
            x, y, w, h = float(x), float(y), float(w), float(h)
        else:
            where = _at(path, "objects", j)
            x, y = _field(entry, "x", where), _field(entry, "y", where)
            w, h = _field(entry, "w", where), _field(entry, "h", where)
        if not (
            0.0 <= x < _INF and 0.0 <= y < _INF and 0.0 < w < _INF and 0.0 < h < _INF
        ):
            # The same test as _check_box, which words the error.
            try:
                _check_box(x, y, w, h)
            except ValueError as exc:
                raise SchemaError(
                    _at(path, "objects", j), f"invalid box: {exc}"
                ) from exc
        names = entry.get("names")
        if names.__class__ is not list or not all(map(isinstance, names, repeat(str))):
            key = "name" if "names" not in entry and "name" in entry else "names"
            names = _strings(entry, key, _at(path, "objects", j))
        synsets = entry.get("synsets")
        if synsets.__class__ is not list or not all(
            map(isinstance, synsets, repeat(str))
        ):
            synsets = _strings(entry, "synsets", _at(path, "objects", j))
        if build:
            box = _new_box(x, y, w, h)
            objects.append(SceneObject(object_id, tuple(names), box, tuple(synsets)))
    relations = []
    array = "relations" if "relations" in data else "relationships"
    for j, entry in enumerate(_array(data, array, path)):
        if not isinstance(entry, dict):
            raise SchemaError(_at(path, array, j), "relation must be a JSON object")
        predicate = entry.get("predicate")
        if predicate.__class__ is not str:
            predicate = _field(entry, "predicate", _at(path, array, j), _string)
        subject = entry.get("subject_id")
        if subject.__class__ is not int or subject not in seen:
            subject = _endpoint(entry, "subject_id", _at(path, array, j), seen)
        object_ = entry.get("object_id")
        if object_.__class__ is not int or object_ not in seen:
            object_ = _endpoint(entry, "object_id", _at(path, array, j), seen)
        key = "confidence" if "confidence" in entry else "score"
        confidence = entry.get(key, 1.0)
        if confidence.__class__ in _NUMBER:
            confidence = float(confidence)
        else:
            confidence = _field(entry, key, _at(path, array, j), default=1.0)
        if not 0.0 <= confidence <= 1.0:
            try:
                confidence = _clip_confidence(confidence)
            except ValueError as exc:
                raise SchemaError(f"{_at(path, array, j)}.{key}", str(exc)) from exc
        if build:
            relations.append(_new_relation(subject, predicate, object_, confidence))
    if not build:
        return None
    # The ids are distinct and every endpoint names an object: both were
    # tested above.
    return _new_graph(image_id, tuple(objects), tuple(relations))


def parse_scene_graph(data: dict, path: str = "$") -> SceneGraph:
    """Build a SceneGraph from a JSON dict.

    Accepts ``relations`` or ``relationships``, ``names`` or ``name`` (a
    string or an array of strings), and nested subject/object dicts;
    unknown keys are ignored. Malformed entries, duplicate object ids and
    relation endpoints that name no object raise :class:`SchemaError`
    naming their JSON path below ``path``.
    """
    return _read_scene_graph(data, path, None)


def scene_graph_to_dict(sg: SceneGraph) -> dict:
    return {
        "image_id": sg.image_id,
        "objects": [
            {
                "object_id": o.object_id,
                "names": list(o.names),
                "synsets": list(o.synsets),
                **o.box.to_dict(),
            }
            for o in sg.objects
        ],
        "relations": [
            {
                "subject_id": r.subject_id,
                "predicate": r.predicate,
                "object_id": r.object_id,
                **({"confidence": r.confidence} if r.confidence != 1.0 else {}),
            }
            for r in sg.relations
        ],
    }


def load_scene_graphs(
    path: str, image_ids: Container[int] | None = None
) -> list[SceneGraph]:
    """Load one scene graph or a list of them from a JSON file.

    Every graph is checked, in file order, and the first malformed one
    raises :class:`SchemaError` naming its JSON path. Only the graphs whose
    image id is in ``image_ids`` are built and returned, in file order; all
    of them when ``image_ids`` is None.
    """
    data = read_json(path)
    if isinstance(data, dict):
        graphs = [_read_scene_graph(data, "$", image_ids)]
    elif isinstance(data, list):
        graphs = [
            _read_scene_graph(d, f"$[{i}]", image_ids) for i, d in enumerate(data)
        ]
    else:
        raise SchemaError("$", "top level must be a scene graph or an array of them")
    return [sg for sg in graphs if sg is not None]
