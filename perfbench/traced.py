"""Run one deixis command with a span around every call into each layer.

Usage: python3 traced.py OUT.json RUN_ID -- <deixis arguments>

The public functions of each layer are rebound, from outside the package,
in every deixis module that holds them; nothing inside src/deixis is
changed. Spans (name, start, end, parent, run id) stay in memory and are
written to OUT.json when the command ends, together with counters taken
from the layers' public return values. Counter work is itself recorded as
a "trace.counters" span so that it never counts as a layer's self time.
"""

from __future__ import annotations

import inspect
import json
import sys
import time

import numpy as np

# Span name -> (module, attribute path) of the wrapped callable.
TARGETS = {
    "scene.load_scene_graphs": ("deixis.scene", "load_scene_graphs"),
    "datasets.load_deivg": ("deixis.datasets", "load_deivg"),
    "scene.scene_graph_to_facts": ("deixis.scene", "scene_graph_to_facts"),
    "training.mixture_facts": ("deixis.training", "mixture_facts"),
    "rulegen.template_rulegen": ("deixis.rulegen", "template_rulegen"),
    "logic.parse_program": ("deixis.logic", "parse_program"),
    "unify.load_word2vec": ("deixis.unify", "EmbeddingStore.load_word2vec"),
    "unify.unify_program": ("deixis.unify", "unify_program"),
    "grounding.ground_program": ("deixis.grounding", "ground_program"),
    "grounding.ReasoningGraph": ("deixis.grounding", "ReasoningGraph.__init__"),
    "reasoner.forward": ("deixis.reasoner", "forward"),
    "reasoner.backward": ("deixis.reasoner", "backward"),
    "reasoner.extract_targets": ("deixis.reasoner", "extract_targets"),
    "training.evaluate_mixture": ("deixis.training", "evaluate_mixture"),
    "training.train_mixture": ("deixis.training", "train_mixture"),
    "evaluation.evaluate_instances": ("deixis.evaluation", "evaluate_instances"),
}

COUNTERS = (
    "grounding.universe",
    "grounding.atoms",
    "grounding.conj",
    "grounding.max_fan_in",
    "grounding.dead_conj",
    "grounding.live_conj",
    "grounding.calls",
    "grounding.distinct_examples",
    "reasoner.predictions",
    "reasoner.fallbacks",
    "unify.substitutions",
)


def live_conjunctions(graph) -> int:
    """Conjunctions that can fire: a boolean presence fixpoint in which the
    input facts are present and a conjunction is live once all its body
    atoms are present, making its head present."""
    if graph.n_conj == 0:
        return 0
    present = np.zeros(graph.n_atoms, dtype=bool)
    present[: graph.n_facts] = True
    body_counts = np.asarray(graph.body_counts)
    owner = np.repeat(np.arange(graph.n_conj), body_counts)
    body_atoms = np.asarray(graph.body_atoms)
    heads = np.asarray(graph.conj_head)
    while True:
        missing = np.bincount(
            owner[~present[body_atoms]], minlength=graph.n_conj
        )
        live = missing == 0
        if present[heads[live]].all():
            return int(live.sum())
        present[heads[live]] = True


def universe_size(facts) -> int:
    """Constants a variable may bind to: every fact argument except the
    attribute of a type fact (type(obj1, boat), typeSgg(obj1, boat, sgg1))."""
    seen = set()
    for fact in facts:
        is_type = fact.predicate.name in ("type", "typeSgg")
        for position, term in enumerate(fact.args):
            if not (is_type and position == 1):
                seen.add(term.name)
    return len(seen)


class Tracer:
    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.examples: set = set()

    def span(self, name: str, fn, observe=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                      self.run_id]
            self.spans.append(record)
            self.stack.append(index)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if observe is not None:
                self.span("trace.counters", observe)(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # Observers: counters from each layer's arguments and return values.

    def observe_grounding(self, signature):
        def observe(args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            program, facts = bound["program"], bound["facts"]
            c = self.counters
            c["grounding.calls"] += 1
            c["grounding.universe"] += universe_size(facts)
            self.examples.add((tuple(program.rules), tuple(facts)))
            c["grounding.distinct_examples"] = len(self.examples)

        return observe

    def observe_graph(self, args, kwargs, result):
        graph = args[0]
        c = self.counters
        c["grounding.atoms"] += graph.n_atoms
        c["grounding.conj"] += graph.n_conj
        if graph.n_conj:
            fan_in = int(np.bincount(np.asarray(graph.conj_head)).max())
            c["grounding.max_fan_in"] = max(c["grounding.max_fan_in"], fan_in)
        live = live_conjunctions(graph)
        c["grounding.live_conj"] += live
        c["grounding.dead_conj"] += graph.n_conj - live

    def observe_targets(self, args, kwargs, result):
        self.counters["reasoner.predictions"] += len(result)
        self.counters["reasoner.fallbacks"] += sum(p.fallback for p in result)

    def observe_unify(self, args, kwargs, result):
        _, report = result
        self.counters["unify.substitutions"] += len(report.substitutions)

    def install(self) -> None:
        """Rebind every target in each deixis module that imported it."""
        observers = {
            "grounding.ReasoningGraph": self.observe_graph,
            "reasoner.extract_targets": self.observe_targets,
            "unify.unify_program": self.observe_unify,
        }
        modules = [m for n, m in sys.modules.items()
                   if n == "deixis" or n.startswith("deixis.")]
        for name, (module_name, path) in TARGETS.items():
            owner_name, _, attr = path.rpartition(".")
            owner = sys.modules.get(module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            if not hasattr(owner, attr):
                continue  # the layer is gone; its spans will be missing
            original = getattr(owner, attr)
            observe = observers.get(name)
            if name == "grounding.ground_program":
                observe = self.observe_grounding(inspect.signature(original))
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr,
                            classmethod(self.span(name, raw.__func__, observe)))
                else:
                    setattr(owner, attr, self.span(name, raw, observe))
                continue
            wrapped = self.span(name, original, observe)
            for m in modules:
                if getattr(m, attr, None) is original:
                    setattr(m, attr, wrapped)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def main() -> int:
    out, run_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: traced.py OUT.json RUN_ID -- ARGS...")
    from deixis import cli

    tracer = Tracer(int(run_id))
    tracer.install()
    try:
        code = tracer.span("cli", cli.main)(argv)
    finally:
        tracer.dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
