"""Embedding store and semantic unification of rule constants."""

import numpy as np
import pytest

from deixis.logic import FactSet, atom, parse_program, render_program
from deixis.unify import (
    EmbeddingStore,
    MissingEmbedding,
    nearest_term,
    unify_program,
)

from oracles import reference_vocabularies


def store_from(pairs) -> EmbeddingStore:
    dim = len(next(iter(pairs.values())))
    store = EmbeddingStore(dim)
    for word, vec in pairs.items():
        store.add(word, np.asarray(vec, dtype=np.float64))
    return store


def test_store_basics():
    store = store_from({"boat": [1.0, 0.0], "tree": [0.0, 1.0]})
    assert "boat" in store and len(store) == 2
    np.testing.assert_array_equal(store.vector("boat"), [1.0, 0.0])
    with pytest.raises(MissingEmbedding):
        store.vector("car")
    with pytest.raises(ValueError):
        store.add("bad", np.zeros(3))


def test_store_canonicalizes_keys():
    store = store_from({"Traffic Light": [1.0, 0.0]})
    assert "trafficlight" in store
    assert "traffic light" in store  # canonicalized lookup


def test_load_word2vec_with_and_without_header(tmp_path, data_dir):
    store = EmbeddingStore.load_word2vec(str(data_dir / "embeddings.txt"))
    assert len(store) == 10 and store.dim == 4

    bare = tmp_path / "bare.txt"
    bare.write_text("alpha 1 0\nbeta 0 1\n")
    store2 = EmbeddingStore.load_word2vec(str(bare))
    assert store2.dim == 2 and len(store2) == 2

    ragged = tmp_path / "ragged.txt"
    ragged.write_text("alpha 1 0\nbeta 0 1 2\n")
    with pytest.raises(ValueError):
        EmbeddingStore.load_word2vec(str(ragged))


def test_nearest_term_picks_highest_cosine(data_dir):
    store = EmbeddingStore.load_word2vec(str(data_dir / "embeddings.txt"))
    word, score = nearest_term(
        "boat", ["barge", "ship", "person", "tree"], store
    )
    assert word == "barge"
    assert score == pytest.approx(0.95, abs=1e-6)


def test_nearest_term_tie_breaks_lexicographically():
    store = store_from(
        {"query": [1.0, 0.0], "zeta": [1.0, 0.0], "alpha": [1.0, 0.0]}
    )
    word, score = nearest_term("query", ["zeta", "alpha"], store)
    assert word == "alpha"
    assert score == pytest.approx(1.0)


def test_nearest_term_dot_differs_from_cosine():
    store = store_from(
        {"query": [1.0, 0.0], "small": [0.9, 0.0], "big": [2.0, 1.0]}
    )
    by_cos, _ = nearest_term("query", ["small", "big"], store)
    by_dot, _ = nearest_term("query", ["small", "big"], store,
                             similarity="dot")
    assert by_cos == "small"
    assert by_dot == "big"


def test_nearest_term_needs_embedded_candidate():
    store = store_from({"query": [1.0, 0.0]})
    with pytest.raises(MissingEmbedding):
        nearest_term("query", ["unknown"], store)
    with pytest.raises(ValueError):
        nearest_term("query", [], store)


def boat_to_barge_setup(data_dir):
    store = EmbeddingStore.load_word2vec(str(data_dir / "embeddings.txt"))
    program = parse_program(
        "cond1(X):-on(X,Y),type(Y,boat).\n"
        "cond2(X):-carrying(X,Y),type(Y,umbrella).\n"
        "target(X):-cond1(X),cond2(X).\n"
    )
    facts = FactSet(
        [
            atom("on", "obj1", "obj2"),
            atom("holding", "obj1", "obj3"),
            atom("type", "obj1", "man"),
            atom("type", "obj2", "barge"),
            atom("type", "obj3", "umbrella"),
        ]
    )
    return store, program, facts


def test_unify_program_rewrites_unmatched_terms(data_dir):
    store, program, facts = boat_to_barge_setup(data_dir)
    unified, report = unify_program(program, reference_vocabularies(facts), store)
    text = render_program(unified)
    assert "type(Y,barge)" in text
    assert "carrying" not in text and "holding(X,Y)" in text
    assert "type(Y,umbrella)" in text  # already matches, untouched
    kinds = {(s.original, s.replacement, s.kind) for s in report.substitutions}
    assert ("boat", "barge", "constant") in kinds
    assert ("carrying", "holding", "predicate") in kinds
    assert report.unresolved == ()


def test_unify_program_is_idempotent(data_dir):
    store, program, facts = boat_to_barge_setup(data_dir)
    once, _ = unify_program(program, reference_vocabularies(facts), store)
    twice, report = unify_program(once, reference_vocabularies(facts), store)
    assert render_program(twice) == render_program(once)
    assert report.substitutions == ()


def test_unify_program_keeps_structural_predicates(data_dir):
    store, _, facts = boat_to_barge_setup(data_dir)
    program = parse_program("target(X):-cond1(X).\ncond1(X):-on(X,Y),type(Y,boat).")
    unified, _ = unify_program(program, reference_vocabularies(facts), store)
    names = {r.head.predicate.name for r in unified.rules}
    assert names == {"target", "cond1"}


def test_unify_program_degrades_to_unresolved():
    store = store_from({"boat": [1.0, 0.0]})  # no scene vocabulary at all
    program = parse_program("target(X):-on(X,Y),type(Y,boat).")
    facts = FactSet([atom("on", "obj1", "obj2"), atom("type", "obj2", "xyzzy")])
    unified, report = unify_program(program, reference_vocabularies(facts), store)
    assert "boat" in report.unresolved
    assert "type(Y,boat)" in render_program(unified)  # left as written


@pytest.mark.parametrize("program_text", [
    "target(X):-on(X,Y),type(Y,barge).",  # barge needs resolving
    "target(X):-on(X,Y),type(Y,boat).",  # nothing to resolve
])
def test_unify_program_rejects_an_unknown_similarity(program_text):
    store = store_from({"boat": [1.0, 0.0], "barge": [0.9, 0.1]})
    facts = FactSet([atom("on", "obj1", "obj2"), atom("type", "obj2", "boat")])
    with pytest.raises(ValueError, match="unsupported similarity 'euclid'"):
        unify_program(
            parse_program(program_text), reference_vocabularies(facts), store,
            similarity="euclid",
        )
