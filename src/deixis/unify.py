"""Embedding-based semantic unification of programs against scene facts.

Generated rules often mention relations or attributes in words the scene
graph does not use ("barge" where the scene says "boat").  Rather than fail,
each out-of-scene symbol is swapped for its nearest scene symbol in an
embedding space, and the swap is reported with its similarity so callers can
audit or veto it.
"""

from __future__ import annotations

import re
from collections.abc import Set
from dataclasses import dataclass

import numpy as np

from .logic import Atom, Predicate, Program, Rule, Term
from .scene import SceneGraph, canon_constant, scene_rows

# Symbols with structural meaning are never rewritten: the rule scaffold
# (target, condN), the typing predicate, positional helpers, and anything
# carrying a scene-graph tag.
_STRUCTURAL = re.compile(r"^(target|targetSgg|cond\d+|type|typeSgg|pos\d+)$")

# Object constants are never rewritten either: ``obj<N>`` from scene graphs
# and ``sgg<N>`` for the per-source objects of a scene-graph mixture.
_OBJECT_CONSTANT = re.compile(r"^(?:obj|sgg)\d+$")


class MissingEmbedding(KeyError):
    """A word has no vector in the store."""


class EmbeddingStore:
    """Word vectors with case- and punctuation-insensitive lookup.

    Keys are canonicalized the same way scene names are (lowercased,
    non-alphanumerics dropped), so "White Line", "white_line", and
    "whiteline" all resolve to one entry.  The first vector loaded for a
    canonical key wins.
    """

    def __init__(self, dim: int) -> None:
        if dim < 1:
            raise ValueError(f"embedding dimension must be positive, got {dim}")
        self.dim = dim
        self._vectors: dict[str, np.ndarray] = {}

    @staticmethod
    def canon(word: str) -> str:
        return canon_constant(word)

    def add(self, word: str, vector) -> None:
        vec = np.asarray(vector, dtype=np.float64).ravel()
        if vec.shape != (self.dim,):
            raise ValueError(
                f"vector for {word!r} has shape {vec.shape}, expected ({self.dim},)"
            )
        key = self.canon(word)
        if not key:
            raise ValueError(f"word {word!r} canonicalizes to an empty key")
        self._vectors.setdefault(key, vec)

    def __contains__(self, word: str) -> bool:
        return self.canon(word) in self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def vector(self, word: str) -> np.ndarray:
        key = self.canon(word)
        try:
            return self._vectors[key]
        except KeyError:
            raise MissingEmbedding(word) from None

    @classmethod
    def load_word2vec(cls, path: str) -> "EmbeddingStore":
        """Read text-format word2vec: optional "count dim" header, then one
        "word v1 v2 ... vd" line per entry."""
        store: EmbeddingStore | None = None
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                parts = line.rstrip("\n").split(" ")
                parts = [p for p in parts if p]
                if not parts:
                    continue
                if store is None and len(parts) == 2:
                    # "vocab_size dim" header
                    store = cls(dim=int(parts[1]))
                    continue
                word, values = parts[0], parts[1:]
                if store is None:
                    store = cls(dim=len(values))
                try:
                    vec = np.array([float(v) for v in values], dtype=np.float64)
                except ValueError as exc:
                    raise ValueError(
                        f"{path}:{line_no}: malformed embedding line"
                    ) from exc
                if not np.isfinite(vec).all():
                    raise ValueError(
                        f"{path}:{line_no}: embedding values must be finite"
                    )
                store.add(word, vec)
        if store is None or len(store) == 0:
            raise ValueError(f"{path}: no embeddings found")
        return store


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(a @ b) / (na * nb)


def _check_similarity(similarity: str) -> None:
    if similarity not in ("cosine", "dot"):
        raise ValueError(f"unsupported similarity {similarity!r}")


def nearest_term(
    word: str,
    vocabulary,
    store: EmbeddingStore,
    similarity: str = "cosine",
) -> tuple[str, float]:
    """The vocabulary word most similar to ``word`` in the store.

    ``similarity`` is "cosine" (normalize, then dot — the default, since
    raw magnitudes of off-the-shelf embeddings are uninformative) or "dot"
    (the raw inner product).  Ties break toward the lexicographically
    smallest candidate.  Raises :class:`MissingEmbedding` when the query
    word or the whole vocabulary lacks vectors; an empty vocabulary is a
    ValueError.
    """
    _check_similarity(similarity)
    vocab = sorted(set(vocabulary))
    if not vocab:
        raise ValueError("vocabulary is empty")
    query = store.vector(word)  # raises MissingEmbedding
    best: tuple[str, float] | None = None
    found = False
    for candidate in vocab:
        if candidate not in store:
            continue
        found = True
        other = store.vector(candidate)
        if similarity == "cosine":
            sim = _cosine(query, other)
        else:
            sim = float(query @ other)
        if best is None or sim > best[1]:
            best = (candidate, sim)
    if not found:
        raise MissingEmbedding(
            f"no vocabulary word has an embedding (tried {len(vocab)})"
        )
    assert best is not None
    return best


@dataclass(frozen=True)
class Substitution:
    """One symbol rewrite performed by the unifier."""

    original: str
    replacement: str
    similarity: float
    kind: str  # "predicate" or "constant"


@dataclass
class UnificationReport:
    """What the unifier changed and what it had to leave alone."""

    substitutions: tuple[Substitution, ...] = ()
    unresolved: tuple[str, ...] = ()


def scene_vocabularies(sg: SceneGraph) -> tuple[frozenset[str], frozenset[str]]:
    """The relation names and attribute constants of a scene, read off its
    canonical rows: every non-structural predicate, and every fact
    argument after the first that is not an object constant."""
    rows = scene_rows(sg)
    relations = frozenset(
        name for name in {name for name, _, _ in rows}
        if not _STRUCTURAL.match(name) and not name.endswith("Sgg")
    )
    attributes = frozenset(
        name for name in {args[1] for _, args, _ in rows}
        if not _OBJECT_CONSTANT.match(name)
    )
    return relations, attributes


def unify_program(
    program: Program,
    vocabularies: tuple[Set[str], Set[str]],
    store: EmbeddingStore,
    similarity: str = "cosine",
) -> tuple[Program, UnificationReport]:
    """Rewrite out-of-scene symbols in ``program`` to their nearest scene
    counterparts.

    ``vocabularies`` is the scene's (relations, attributes) pair, as
    :func:`scene_vocabularies` gives it.  Relation predicates are matched
    against the relation vocabulary and attribute constants against the
    attribute vocabulary.  Structural
    symbols (target, condN, type, variables, object constants) are left
    untouched.  Any symbol that cannot be resolved (no embedding, or an
    empty usable vocabulary) is reported as unresolved and kept verbatim,
    so unification is total: it never raises on ordinary inputs.  An
    unknown ``similarity`` raises ValueError before any symbol is looked at.
    """
    _check_similarity(similarity)
    relation_vocab, attribute_vocab = vocabularies
    intensional = {p.name for p in program.intensional_predicates}

    substitutions: list[Substitution] = []
    unresolved: list[str] = []
    predicate_map: dict[str, str] = {}
    constant_map: dict[str, str] = {}

    def resolve(
        name: str, vocab: Set[str], cache: dict[str, str], kind: str
    ) -> str:
        if name in vocab:
            return name
        if name in cache:
            return cache[name]
        usable = {v for v in vocab if v in store}
        if usable and name in store:
            replacement, sim = nearest_term(name, usable, store, similarity)
            substitutions.append(
                Substitution(
                    original=name,
                    replacement=replacement,
                    similarity=sim,
                    kind=kind,
                )
            )
        else:
            replacement = name
            unresolved.append(name)
        cache[name] = replacement
        return replacement

    def rewrite_atom(atom_: Atom) -> Atom:
        name = atom_.predicate.name
        if (
            name not in intensional
            and not _STRUCTURAL.match(name)
            and not name.endswith("Sgg")
            and name not in relation_vocab
        ):
            name = resolve(name, relation_vocab, predicate_map, "predicate")
        args = []
        for arg in atom_.args:
            if (
                arg.is_variable
                or _OBJECT_CONSTANT.match(arg.name)
                or arg.name in attribute_vocab
            ):
                args.append(arg)
            else:
                args.append(
                    Term(resolve(arg.name, attribute_vocab, constant_map, "constant"))
                )
        return Atom(Predicate(name, atom_.predicate.arity), tuple(args))

    rules = []
    for rule in program.rules:
        rules.append(
            Rule(
                head=rewrite_atom(rule.head),
                body=tuple(rewrite_atom(b) for b in rule.body),
                weight=rule.weight,
            )
        )
    report = UnificationReport(tuple(substitutions), tuple(unresolved))
    return Program(tuple(rules)), report
