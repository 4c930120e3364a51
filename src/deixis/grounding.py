"""Rule grounding over scene constants and reasoning-graph construction.

The grounding universe contains the constants that denote objects: constants
in the first (subject) argument position of any fact plus constants matching
``obj<N>``/``sgg<N>`` anywhere in the facts or the program. Attribute
constants inside rules (``boat``, ``cyan``) are never substituted.

Grounding is bottom-up evaluation over atom presence (Abiteboul, Hull and
Vianu, *Foundations of Databases*, the chapter on Datalog evaluation): the
input facts are present whatever their values, and a rule instance is built
only when every body atom is a fact or the head of an instance built before
it. Instances that could never fire, and the atoms only they mention, never
enter the graph, so the reasoner gives no score to an atom without a
derivation. Facts keep their nodes even at value 0, so gradients reach
every fact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .logic import Atom, FactSet, Predicate, Program, Term

__all__ = [
    "GroundRule",
    "ReasoningGraph",
    "UniverseTooLarge",
    "grounding_universe",
    "ground_program",
    "build_reasoning_graph",
]

_OBJECT_PATTERN = re.compile(r"^(?:obj|sgg)\d+$")
_TARGET = Predicate("target", 1)


class UniverseTooLarge(RuntimeError):
    """The candidate grounding space exceeds the configured cap."""


@dataclass(frozen=True)
class GroundRule:
    head: Atom
    body: tuple[Atom, ...]
    rule_index: int


def grounding_universe(program: Program, facts: FactSet) -> tuple[Term, ...]:
    """Constants eligible for variable substitution, in first-seen order."""
    seen: dict[Term, None] = {}
    for fact in facts:
        first = fact.args[0]
        if first.is_constant:
            seen.setdefault(first, None)
    for fact in facts:
        for t in fact.args[1:]:
            if t.is_constant and _OBJECT_PATTERN.match(t.name):
                seen.setdefault(t, None)
    for rule in program:
        for a in (rule.head, *rule.body):
            for t in a.args:
                if t.is_constant and _OBJECT_PATTERN.match(t.name):
                    seen.setdefault(t, None)
    return tuple(seen)


class _Step:
    """One body atom of a rule's join plan.

    ``key`` lists, for each bound argument position, either a constant name
    or the slot of an already-bound variable. ``binds`` are the (position,
    slot) pairs whose variables this atom binds first, and ``checks`` are
    (position, earlier position) pairs for a variable repeated inside the
    atom. ``order`` lists indices into ``binds`` sorted by variable name.
    ``slots`` maps variable names to slots and gains this atom's variables.
    """

    __slots__ = ("predicate", "positions", "key", "binds", "checks", "order")

    def __init__(self, body_atom: Atom, slots: dict[str, int]):
        self.predicate = body_atom.predicate
        positions: list[int] = []
        key: list[str | int] = []
        checks: list[tuple[int, int]] = []
        first: dict[str, int] = {}
        for pos, t in enumerate(body_atom.args):
            name = t.name
            if not t.is_variable:
                positions.append(pos)
                key.append(name)
            elif name in slots:
                positions.append(pos)
                key.append(slots[name])
            elif name in first:
                checks.append((pos, first[name]))
            else:
                first[name] = pos
        binds = []
        for name, pos in first.items():
            slots[name] = len(slots)
            binds.append((pos, slots[name]))
        self.positions = tuple(positions)
        self.key = tuple(key)
        self.binds = tuple(binds)
        self.checks = tuple(checks)
        names = list(first)
        self.order = tuple(sorted(range(len(names)), key=names.__getitem__))


def _strata(program: Program) -> list[tuple[list[int], bool]]:
    """Rule indices grouped by the strongly connected components of the
    predicate dependency graph, dependencies first, each with a flag that
    says whether the component is recursive (Tarjan's algorithm)."""
    ids: dict[Predicate, int] = {}
    rules_of: list[list[int]] = []
    heads: list[int] = []
    for i, rule in enumerate(program):
        k = ids.setdefault(rule.head.predicate, len(ids))
        if k == len(rules_of):
            rules_of.append([])
        rules_of[k].append(i)
        heads.append(k)
    depends: list[list[int]] = [[] for _ in rules_of]
    for k, rule in zip(heads, program):
        for b in rule.body:
            j = ids.get(b.predicate)
            if j is not None and j not in depends[k]:
                depends[k].append(j)

    n = len(rules_of)
    order = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    strata: list[tuple[list[int], bool]] = []

    def visit(p: int) -> None:
        order[p] = low[p] = n - order.count(-1)  # predicates visited so far
        stack.append(p)
        on_stack[p] = True
        for q in depends[p]:
            if order[q] < 0:
                visit(q)
                low[p] = min(low[p], low[q])
            elif on_stack[q]:
                low[p] = min(low[p], order[q])
        if low[p] == order[p]:
            component = []
            while True:
                q = stack.pop()
                on_stack[q] = False
                component.append(q)
                if q == p:
                    break
            recursive = len(component) > 1 or p in depends[p]
            strata.append(
                (sorted(i for q in component for i in rules_of[q]), recursive)
            )

    for p in range(n):
        if order[p] < 0:
            visit(p)
    return strata


def ground_program(
    program: Program,
    facts: FactSet,
    *,
    max_groundings: int = 10**7,
) -> list[GroundRule]:
    """Ground the rule instances that can fire.

    A bottom-up boolean fixpoint over atom *presence*: the input facts are
    present whatever their values, and the head of an instance whose body
    atoms are all present becomes present. Rules are evaluated stratum by
    stratum in dependency order; a non-recursive stratum takes one pass and
    a recursive one re-joins until no new head appears. Each body atom
    joins, through a hash index on its bound argument positions, against
    the facts plus the heads derived so far, binding variables only to
    constants of the grounding universe.

    The result holds every instance over the universe whose body atoms are
    all present, ordered by rule index and then by join order: extensional
    body atoms first, each taking its matching facts in fact-store order,
    then intensional ones, whose new bindings follow universe order. Raises
    :class:`UniverseTooLarge` when a rule's candidate substitution space or
    an intermediate join exceeds ``max_groundings``.
    """
    universe = grounding_universe(program, facts)
    for rule_index, rule in enumerate(program):
        n_vars = len(rule.variables)
        if n_vars and len(universe) ** n_vars > max_groundings:
            raise UniverseTooLarge(
                f"rule {rule_index}: {len(universe)}^{n_vars} candidate "
                f"substitutions exceed the cap of {max_groundings}"
            )
    rank = {t.name: i for i, t in enumerate(universe)}
    intensional = program.intensional_predicates

    # Present atoms by predicate, keyed by argument names: the facts in
    # fact-store order, then derived heads in derivation order.
    present: dict[Predicate, dict[tuple[str, ...], Atom]] = {}
    for f in facts:
        present.setdefault(f.predicate, {})[tuple(t.name for t in f.args)] = f
    # (predicate, bound positions) -> bound argument names -> atoms.
    indexes: dict[tuple[Predicate, tuple[int, ...]], dict[tuple, list[Atom]]] = {}

    def candidates(step: _Step, key: tuple[str, ...]):
        atoms = present.get(step.predicate)
        if not atoms:
            return ()
        if len(step.positions) == step.predicate.arity:
            hit = atoms.get(key)
            return () if hit is None else (hit,)
        if not step.positions:
            return atoms.values()
        index = indexes.get((step.predicate, step.positions))
        if index is None:
            index = {}
            for a in atoms.values():
                args = a.args
                index.setdefault(
                    tuple(args[p].name for p in step.positions), []
                ).append(a)
            indexes[(step.predicate, step.positions)] = index
        return index.get(key, ())

    def join(rule_index: int) -> list[GroundRule]:
        rule = program.rules[rule_index]
        ordered = sorted(
            range(len(rule.body)),
            key=lambda i: (rule.body[i].predicate in intensional, i),
        )
        slots: dict[str, int] = {}
        steps = [_Step(rule.body[i], slots) for i in ordered]

        # A binding is (bound terms by slot, matched atoms by step).
        bindings: list[tuple[tuple[Term, ...], tuple[Atom, ...]]] = [((), ())]
        for i, step in zip(ordered, steps):
            sort_new = (
                rule.body[i].predicate in intensional and len(step.binds) > 0
            )
            extended = []
            for terms, matched in bindings:
                key = tuple(
                    k if k.__class__ is str else terms[k].name
                    for k in step.key
                )
                found = []
                for a in candidates(step, key):
                    args = a.args
                    if any(args[p].name != args[q].name for p, q in step.checks):
                        continue
                    new = tuple(args[p] for p, _ in step.binds)
                    if all(t.name in rank for t in new):
                        found.append((terms + new, matched + (a,)))
                if sort_new and len(found) > 1:
                    # Same order as enumerating the new variables, sorted by
                    # name, over the universe.
                    n_old = len(terms)
                    found.sort(key=lambda b: tuple(
                        rank[b[0][n_old + j].name] for j in step.order
                    ))
                extended.extend(found)
            bindings = extended
            if len(bindings) > max_groundings:
                raise UniverseTooLarge(
                    f"rule {rule_index}: join produced more than "
                    f"{max_groundings} bindings"
                )
            if not bindings:
                return []

        head = rule.head
        head_slots = [
            slots[t.name] if t.is_variable else None for t in head.args
        ]
        body_at = [ordered.index(i) for i in range(len(rule.body))]
        out = []
        for terms, matched in bindings:
            args = tuple(
                t if s is None else terms[s] for t, s in zip(head.args, head_slots)
            )
            out.append(
                GroundRule(
                    Atom(head.predicate, args),
                    tuple(matched[j] for j in body_at),
                    rule_index,
                )
            )
        return out

    per_rule: list[list[GroundRule]] = [[] for _ in program.rules]
    for indices, recursive in _strata(program):
        while True:
            new_heads: dict[tuple[Predicate, tuple[str, ...]], Atom] = {}
            for rule_index in indices:
                per_rule[rule_index] = join(rule_index)
                for gr in per_rule[rule_index]:
                    key = tuple(t.name for t in gr.head.args)
                    if key not in present.get(gr.head.predicate, ()):
                        new_heads.setdefault((gr.head.predicate, key), gr.head)
            for (pred, key), a in new_heads.items():
                present.setdefault(pred, {})[key] = a
                for (p, positions), index in indexes.items():
                    if p == pred:
                        index.setdefault(
                            tuple(a.args[q].name for q in positions), []
                        ).append(a)
            if not (recursive and new_heads):
                break

    return [gr for instances in per_rule for gr in instances]


class ReasoningGraph:
    """Bipartite graph of ground atom nodes and conjunction nodes.

    One conjunction node per ground rule; each has one or more body atoms
    (atom -> conj edges) and exactly one head atom (conj -> atom edge).
    The first ``n_facts`` atom nodes are the input facts in fact-store
    order, so fact valuations align with atom node ids. ``defines_target``
    records whether the program has a target/1 rule, which a graph without
    target/1 atoms cannot show. Immutable after construction.
    """

    def __init__(
        self,
        ground_rules: list[GroundRule],
        facts: FactSet,
        n_rules: int | None = None,
        defines_target: bool = False,
    ):
        atoms: list[Atom] = list(facts)
        index: dict[Atom, int] = {a: i for i, a in enumerate(atoms)}

        def intern(a: Atom) -> int:
            i = index.get(a)
            if i is None:
                i = len(atoms)
                atoms.append(a)
                index[a] = i
            return i

        head_idx = []
        rule_idx = []
        body_counts = []
        body_flat: list[int] = []
        for gr in ground_rules:
            head_idx.append(intern(gr.head))
            rule_idx.append(gr.rule_index)
            body_counts.append(len(gr.body))
            body_flat.extend(intern(a) for a in gr.body)

        self.atoms: tuple[Atom, ...] = tuple(atoms)
        self.atom_index: dict[Atom, int] = index
        self.n_facts: int = len(facts)
        self.n_atoms: int = len(atoms)
        self.n_conj: int = len(ground_rules)
        if n_rules is None:
            n_rules = max(rule_idx) + 1 if rule_idx else 0
        self.n_rules: int = n_rules
        self.defines_target: bool = defines_target

        self.conj_head = np.asarray(head_idx, dtype=np.int64)
        self.conj_rule = np.asarray(rule_idx, dtype=np.int64)
        self.body_counts = np.asarray(body_counts, dtype=np.int64)
        self.body_atoms = np.asarray(body_flat, dtype=np.int64)
        # Segment starts into body_atoms, one per conjunction node.
        self.body_starts = np.zeros(self.n_conj, dtype=np.int64)
        if self.n_conj:
            np.cumsum(self.body_counts[:-1], out=self.body_starts[1:])

        # Which conjunction each body slot belongs to.
        self.slot_conj = np.repeat(np.arange(self.n_conj), self.body_counts)

        # Conjunctions grouped by head atom for the disjunctive update.
        order = np.argsort(self.conj_head, kind="stable")
        self.grouped_conj = order
        grouped_heads = self.conj_head[order]
        if self.n_conj:
            boundary = np.flatnonzero(
                np.diff(grouped_heads, prepend=grouped_heads[0] - 1)
            )
            self.updated_atoms = grouped_heads[boundary]
            self.group_starts = boundary
            self.group_sizes = np.diff(
                np.append(boundary, self.n_conj)
            )
        else:
            self.updated_atoms = np.zeros(0, dtype=np.int64)
            self.group_starts = np.zeros(0, dtype=np.int64)
            self.group_sizes = np.zeros(0, dtype=np.int64)

    def initial_valuation(self, fact_values: np.ndarray) -> np.ndarray:
        """Embed a fact valuation into a full atom-node valuation vector."""
        fact_values = np.asarray(fact_values, dtype=float)
        if fact_values.shape != (self.n_facts,):
            raise ValueError(
                f"expected {self.n_facts} fact values, got {fact_values.shape}"
            )
        v0 = np.zeros(self.n_atoms, dtype=float)
        v0[: self.n_facts] = fact_values
        return v0

    def to_debug_dict(self) -> dict:
        """Structured dump of nodes and edges for inspection."""
        return {
            "atoms": [str(a) for a in self.atoms],
            "n_facts": self.n_facts,
            "conjunctions": [
                {
                    "head": int(self.conj_head[i]),
                    "body": [
                        int(b)
                        for b in self.body_atoms[
                            self.body_starts[i] : self.body_starts[i]
                            + self.body_counts[i]
                        ]
                    ],
                    "rule_index": int(self.conj_rule[i]),
                }
                for i in range(self.n_conj)
            ],
        }

    def __repr__(self) -> str:
        return (
            f"ReasoningGraph({self.n_atoms} atoms, {self.n_conj} conjunctions, "
            f"{self.n_facts} facts)"
        )


def build_reasoning_graph(
    program: Program,
    facts: FactSet,
    *,
    max_groundings: int = 10**7,
) -> ReasoningGraph:
    """Ground a program against facts and pack it into a ReasoningGraph.

    Atom nodes are deduplicated; every input fact has a node even when no
    rule touches it. The graph's rule-weight vector is sized by the
    program, so rules without groundings still own a weight slot, and the
    graph records whether the program defines target/1 even when no
    target atom is derivable.
    """
    ground_rules = ground_program(program, facts, max_groundings=max_groundings)
    return ReasoningGraph(
        ground_rules,
        facts,
        n_rules=len(program.rules),
        defines_target=_TARGET in program.intensional_predicates,
    )
