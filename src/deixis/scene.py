"""Scene graphs: boxes, VG-style JSON ingestion, and conversion to facts.

Objects become dense constants ``obj1, obj2, ...`` in listing order; each
relation ``(s, e, o)`` becomes a binary fact ``e(obj_s, obj_o)`` and each
object name becomes a unary-style fact ``type(obj_i, name)`` over the
canonicalized name.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .logic import Atom, FactSet, Predicate, Term

__all__ = [
    "Box",
    "SceneObject",
    "SceneRelation",
    "SceneGraph",
    "DanglingReference",
    "canon_constant",
    "canon_predicate",
    "object_constants",
    "objects_by_constant",
    "scene_graph_to_facts",
    "parse_scene_graph",
    "load_scene_graphs",
]


class DanglingReference(ValueError):
    """A relation endpoint does not reference an existing object."""


@dataclass(frozen=True, order=True)
class Box:
    """Axis-aligned pixel box with top-left corner (x, y) and size (w, h)."""

    x: float
    y: float
    w: float
    h: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.w, self.h)):
            raise ValueError(
                f"box coordinates must be finite: "
                f"x={self.x}, y={self.y}, w={self.w}, h={self.h}"
            )
        if self.w <= 0 or self.h <= 0:
            raise ValueError(f"box size must be positive: w={self.w}, h={self.h}")
        if self.x < 0 or self.y < 0:
            raise ValueError(f"box corner must be non-negative: x={self.x}, y={self.y}")

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
    def from_dict(cls, d: dict) -> "Box":
        return cls(float(d["x"]), float(d["y"]), float(d["w"]), float(d["h"]))


@dataclass(frozen=True)
class SceneObject:
    object_id: int
    names: tuple[str, ...]
    box: Box
    synsets: tuple[str, ...] = ()

    @property
    def primary_name(self) -> str:
        return self.names[0] if self.names else ""


@dataclass(frozen=True)
class SceneRelation:
    subject_id: int
    predicate: str
    object_id: int
    confidence: float = 1.0


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


def object_constants(sg: SceneGraph) -> dict[int, Term]:
    """Map object_id -> dense constant obj1, obj2, ... in listing order."""
    return {o.object_id: Term(f"obj{i}") for i, o in enumerate(sg.objects, start=1)}


def objects_by_constant(sg: SceneGraph) -> dict[str, SceneObject]:
    """Map constant name ("obj1") back to the scene object it denotes."""
    return {f"obj{i}": o for i, o in enumerate(sg.objects, start=1)}


def scene_graph_to_facts(sg: SceneGraph) -> tuple[FactSet, np.ndarray]:
    """Convert a scene graph to (facts, valuation).

    Relation facts come first, then one ``type`` fact per object name, in
    listing order. Valuations are the relations' carried confidences (1.0 by
    default) and 1.0 for type facts. Duplicate atoms keep their maximum
    confidence. Names that canonicalize to nothing are skipped.
    """
    consts = object_constants(sg)
    facts = FactSet()
    values: list[float] = []

    def put(a: Atom, v: float) -> None:
        pos = facts.add(a)
        if pos == len(values):
            values.append(v)
        else:
            values[pos] = max(values[pos], v)

    for rel in sg.relations:
        name = canon_predicate(rel.predicate)
        if not name:
            continue
        subj = consts.get(rel.subject_id)
        obj = consts.get(rel.object_id)
        if subj is None or obj is None:
            raise DanglingReference(
                f"relation '{rel.predicate}' references unknown object in scene "
                f"{sg.image_id}"
            )
        put(Atom(Predicate(name, 2), (subj, obj)), float(rel.confidence))

    type_pred = Predicate("type", 2)
    for o in sg.objects:
        for raw in o.names:
            name = canon_constant(raw)
            if not name:
                continue
            put(Atom(type_pred, (consts[o.object_id], Term(name))), 1.0)

    return facts, np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# JSON ingestion (tolerant of raw Visual Genome exports)


def _as_names(entry: dict) -> tuple[str, ...]:
    if "names" in entry:
        return tuple(str(n) for n in entry["names"])
    if "name" in entry:
        return (str(entry["name"]),)
    return ()


def _endpoint(entry: dict, key: str) -> int:
    value = entry.get(key)
    if value is None and key[:-3] in entry:  # "subject_id" -> nested "subject"
        nested = entry[key[:-3]]
        if isinstance(nested, dict):
            value = nested.get("object_id", nested.get("id"))
    if value is None:
        raise ValueError(f"relation missing '{key}'")
    return int(value)


def parse_scene_graph(data: dict) -> SceneGraph:
    """Build a SceneGraph from a JSON dict.

    Accepts ``relations`` or ``relationships``, ``names`` or ``name``, and
    nested subject/object dicts; unknown keys are ignored.
    """
    image_id = int(data.get("image_id", data.get("id", data.get("VG_image_id", 0))))
    objects = []
    for entry in data.get("objects", ()):
        if "object_id" not in entry:
            raise ValueError("scene object missing 'object_id'")
        objects.append(
            SceneObject(
                object_id=int(entry["object_id"]),
                names=_as_names(entry),
                box=Box(
                    float(entry["x"]),
                    float(entry["y"]),
                    float(entry["w"]),
                    float(entry["h"]),
                ),
                synsets=tuple(str(s) for s in entry.get("synsets", ())),
            )
        )
    relations = []
    for entry in data.get("relations", data.get("relationships", ())):
        relations.append(
            SceneRelation(
                subject_id=_endpoint(entry, "subject_id"),
                predicate=str(entry["predicate"]),
                object_id=_endpoint(entry, "object_id"),
                confidence=float(entry.get("confidence", entry.get("score", 1.0))),
            )
        )
    return SceneGraph(image_id, tuple(objects), tuple(relations))


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


def load_scene_graphs(path: str) -> list[SceneGraph]:
    """Load one scene graph or a list of them from a JSON file."""
    with open(path, "r", encoding="utf-8") as f:
        data = json.load(f)
    if isinstance(data, dict):
        data = [data]
    return [parse_scene_graph(d) for d in data]
