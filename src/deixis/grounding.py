"""Rule grounding over scene constants and reasoning-graph construction.

The grounding universe holds the constants that denote objects, in
first-seen order: the constants in first argument position, then the
object-like constants (``obj<N>``/``sgg<N>``) elsewhere in the facts and in
the program. It is the active domain of the facts (Abiteboul, Hull and
Vianu, *Foundations of Databases*, 1995), read first from the argument
names a fact set records of the full facts it was cut from
(:class:`logic.FactSet`), then from its own facts. Facts cut down to what
the program reads therefore ground over the same universe as the full
facts. Attribute constants inside rules (``boat``, ``cyan``) are never
substituted.

Grounding is bottom-up evaluation over atom presence (the same book, the
chapter on Datalog evaluation): the input facts are present whatever their
values, and a rule instance is built only when every body atom is a fact or
the head of an instance built before it. Instances that could never fire,
and the atoms only they mention, never enter the graph, so the reasoner
gives no score to an atom without a derivation. Facts keep their nodes even
at value 0, so gradients reach every fact.

What grounding does with a program depends only on its shape: the
predicates numbered by first appearance, the variable names, and where the
constants stand. Templated prompts give many programs of one shape that
differ only in names. A :class:`_Plan`, compiled once per shape and kept in
a bounded cache, holds the strata and each rule's join plan (a compiled
relational plan, as in Jordan, Scholz and Subotić, "Soufflé", CAV 2016);
each call reads the predicates and constants off its program and runs the
joins.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .logic import Atom, FactSet, Predicate, Program, Term
from .scene import _object_like

__all__ = [
    "GroundRule",
    "ReasoningGraph",
    "UniverseTooLarge",
    "grounding_universe",
    "ground_program",
    "build_reasoning_graph",
]

_TARGET = Predicate("target", 1)


class UniverseTooLarge(RuntimeError):
    """The candidate grounding space exceeds the configured cap."""


@dataclass(frozen=True)
class GroundRule:
    head: Atom
    body: tuple[Atom, ...]
    rule_index: int


def _universe(program: Program, facts: FactSet) -> tuple[str, ...]:
    """The names of :func:`grounding_universe`."""
    seen = dict.fromkeys(facts.leads)
    seen.update(dict.fromkeys(fact.args[0].name for fact in facts))
    for names in (facts.later, (t.name for fact in facts for t in fact.args[1:])):
        seen.update((name, None) for name in names if _object_like(name))
    for rule in program.rules:
        for a in (rule.head, *rule.body):
            for t in a.args:
                if t.is_constant and _object_like(t.name):
                    seen.setdefault(t.name)
    return tuple(seen)


def grounding_universe(program: Program, facts: FactSet) -> tuple[Term, ...]:
    """Constants eligible for variable substitution, in first-seen order:
    the first arguments of the facts, then their other object-like
    arguments, then the object-like constants of the program. The names a
    fact set records of the full facts it was cut from come before its own
    at each step."""
    return tuple(Term(name) for name in _universe(program, facts))


def _shape(program: Program) -> tuple[tuple, tuple[Predicate, ...]]:
    """The program's shape and its predicates by number. Each rule is a
    tuple of atoms, head first, and each atom is (predicate number,
    arguments), with a variable's name and None for a constant."""
    numbers: dict[Predicate, int] = {}
    shape = tuple(
        tuple(
            (
                numbers.setdefault(a.predicate, len(numbers)),
                tuple(t.name if t.is_variable else None for t in a.args),
            )
            for a in (rule.head, *rule.body)
        )
        for rule in program.rules
    )
    return shape, tuple(numbers)


class _Plan:
    """How to ground every program of one shape.

    ``strata`` lists rule indices grouped by the strongly connected
    components of the predicate dependency graph, dependencies first, each
    with a flag that says whether the component is recursive (Tarjan's
    algorithm). ``n_vars`` gives each rule's variable count. ``joins``
    gives each rule's body atoms in join order, extensional ones first, as
    steps ``(body index, predicate number, positions, key, binds, checks,
    order, sort_new)``:

    - ``positions`` are the bound argument positions, and ``key`` gives
      for each either the slot of an already-bound variable or None for a
      constant, read from the program at that position;
    - ``binds`` are the (position, slot) pairs whose variables the atom
      binds first, and ``checks`` (position, earlier position) pairs for a
      variable repeated inside the atom;
    - ``order`` lists indices into ``binds`` sorted by variable name, and
      ``sort_new`` says whether new bindings are sorted that way (an
      intensional atom that binds a variable).

    ``head_slots`` gives each rule's head arguments as slots, None for a
    constant, and ``body_at`` each body atom's place in join order.
    """

    __slots__ = ("strata", "n_vars", "joins", "head_slots", "body_at")

    def __init__(self, shape: tuple) -> None:
        intensional = {rule[0][0] for rule in shape}
        n_vars, joins, head_slots, body_at = [], [], [], []
        for (_, head_args), *body in shape:
            ordered = sorted(
                range(len(body)), key=lambda i: (body[i][0] in intensional, i)
            )
            slots: dict[str, int] = {}
            steps = []
            for i in ordered:
                p, args = body[i]
                positions: list[int] = []
                key: list[int | None] = []
                checks: list[tuple[int, int]] = []
                first: dict[str, int] = {}
                for pos, name in enumerate(args):
                    if name is None:
                        positions.append(pos)
                        key.append(None)
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
                names = list(first)
                steps.append((
                    i, p, tuple(positions), tuple(key), tuple(binds),
                    tuple(checks),
                    tuple(sorted(range(len(names)), key=names.__getitem__)),
                    p in intensional and len(binds) > 0,
                ))
            n_vars.append(len(slots))
            joins.append(tuple(steps))
            head_slots.append(
                tuple(None if name is None else slots[name] for name in head_args)
            )
            body_at.append(tuple(ordered.index(i) for i in range(len(body))))
        self.strata = self._stratify(shape)
        self.n_vars = tuple(n_vars)
        self.joins = tuple(joins)
        self.head_slots = tuple(head_slots)
        self.body_at = tuple(body_at)

    @staticmethod
    def _stratify(shape: tuple) -> tuple[tuple[tuple[int, ...], bool], ...]:
        """The rule strata of a shape, dependencies first."""
        ids: dict[int, int] = {}
        rules_of: list[list[int]] = []
        heads: list[int] = []
        for i, rule in enumerate(shape):
            k = ids.setdefault(rule[0][0], len(ids))
            if k == len(rules_of):
                rules_of.append([])
            rules_of[k].append(i)
            heads.append(k)
        depends: list[list[int]] = [[] for _ in rules_of]
        for k, rule in zip(heads, shape):
            for p, _ in rule[1:]:
                j = ids.get(p)
                if j is not None and j not in depends[k]:
                    depends[k].append(j)

        n = len(rules_of)
        order = [-1] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        strata: list[tuple[tuple[int, ...], bool]] = []

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
                rules = sorted(i for q in component for i in rules_of[q])
                strata.append((tuple(rules), recursive))

        for p in range(n):
            if order[p] < 0:
                visit(p)
        return tuple(strata)


_plan = lru_cache(maxsize=256)(_Plan)


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
    a recursive one re-joins until no new head appears. The strata and
    join orders come from the plan cached for the program's shape. Each
    body atom joins, through a hash index on its bound argument positions,
    against the facts plus the heads derived so far, binding variables only
    to constants of :func:`grounding_universe`.

    The result holds every instance over the universe whose body atoms are
    all present, ordered by rule index and then by join order: extensional
    body atoms first, each taking its matching facts in fact-store order,
    then intensional ones, whose new bindings follow universe order. Raises
    :class:`UniverseTooLarge` when a rule's candidate substitution space or
    an intermediate join exceeds ``max_groundings``.
    """
    shape, predicates = _shape(program)
    plan = _plan(shape)
    universe = _universe(program, facts)
    for rule_index, n_vars in enumerate(plan.n_vars):
        if n_vars and len(universe) ** n_vars > max_groundings:
            raise UniverseTooLarge(
                f"rule {rule_index}: {len(universe)}^{n_vars} candidate "
                f"substitutions exceed the cap of {max_groundings}"
            )
    rank = {name: i for i, name in enumerate(universe)}

    # Present atoms by predicate, keyed by argument names: the facts in
    # fact-store order, then derived heads in derivation order.
    present: dict[Predicate, dict[tuple[str, ...], Atom]] = {}
    for f in facts:
        present.setdefault(f.predicate, {})[tuple(t.name for t in f.args)] = f
    # (predicate, bound positions) -> bound argument names -> atoms.
    indexes: dict[tuple[Predicate, tuple[int, ...]], dict[tuple, list[Atom]]] = {}

    def candidates(predicate: Predicate, positions: tuple[int, ...], key: tuple):
        atoms = present.get(predicate)
        if not atoms:
            return ()
        if len(positions) == predicate.arity:
            hit = atoms.get(key)
            return () if hit is None else (hit,)
        if not positions:
            return atoms.values()
        index = indexes.get((predicate, positions))
        if index is None:
            index = {}
            for a in atoms.values():
                args = a.args
                index.setdefault(tuple(args[p].name for p in positions), []).append(a)
            indexes[(predicate, positions)] = index
        return index.get(key, ())

    def join(rule_index: int) -> list[GroundRule]:
        rule = program.rules[rule_index]
        # A binding is (bound terms by slot, matched atoms by step).
        bindings: list[tuple[tuple[Term, ...], tuple[Atom, ...]]] = [((), ())]
        for i, p, positions, key_slots, binds, checks, order, sort_new in (
            plan.joins[rule_index]
        ):
            predicate = predicates[p]
            args_i = rule.body[i].args
            # The constants of this program fill the key's blanks.
            key_spec = tuple(
                args_i[q].name if k is None else k
                for q, k in zip(positions, key_slots)
            )
            extended = []
            for terms, matched in bindings:
                key = tuple(
                    k if k.__class__ is str else terms[k].name for k in key_spec
                )
                found = []
                for a in candidates(predicate, positions, key):
                    args = a.args
                    if any(args[q].name != args[r].name for q, r in checks):
                        continue
                    new = tuple(args[q] for q, _ in binds)
                    if all(t.name in rank for t in new):
                        found.append((terms + new, matched + (a,)))
                if sort_new and len(found) > 1:
                    # Same order as enumerating the new variables, sorted by
                    # name, over the universe.
                    n_old = len(terms)
                    found.sort(key=lambda b: tuple(
                        rank[b[0][n_old + j].name] for j in order
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
        head_slots = plan.head_slots[rule_index]
        body_at = plan.body_at[rule_index]
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
    for indices, recursive in plan.strata:
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
    order, so fact valuations align with atom node ids. ``weights`` holds
    the program's rule weights (read-only), one per rule, and
    ``target_atoms`` the node ids of the target/1 atoms, facts included,
    in node order. ``defines_target`` records whether the program has a
    target/1 rule, which a graph without target/1 atoms cannot show.
    Immutable after construction.
    """

    def __init__(
        self,
        ground_rules: list[GroundRule],
        facts: FactSet,
        weights,
        defines_target: bool,
    ):
        atoms: list[Atom] = list(facts)
        index: dict[Atom, int] = dict(facts._index)

        def intern(a: Atom) -> int:
            i = index.get(a)
            if i is None:
                i = len(atoms)
                atoms.append(a)
                index[a] = i
            return i

        head_idx = []
        rule_idx = []
        body_starts = []
        body_counts = []
        body_flat: list[int] = []
        for gr in ground_rules:
            head_idx.append(intern(gr.head))
            rule_idx.append(gr.rule_index)
            body_starts.append(len(body_flat))
            body_counts.append(len(gr.body))
            body_flat.extend(intern(a) for a in gr.body)
        # The reduceat plan over body values padded with one sentinel slot
        # past the end: reduceat cannot express an empty segment, so an
        # empty body (a weighted program fact) starts at the sentinel. The
        # sentinel also pads the final segment, where it is a no-op.
        sentinel = len(body_flat)
        reduce_starts = [
            start if n else sentinel for start, n in zip(body_starts, body_counts)
        ]
        # Which conjunction each body slot belongs to.
        slot_conj = [c for c, n in enumerate(body_counts) for _ in range(n)]

        # Conjunctions grouped by head atom for the disjunctive update, in
        # a stable order.
        grouped = sorted(range(len(head_idx)), key=head_idx.__getitem__)
        updated: list[int] = []
        group_starts: list[int] = []
        group_of: list[int] = []
        for g, c in enumerate(grouped):
            if not updated or head_idx[c] != updated[-1]:
                updated.append(head_idx[c])
                group_starts.append(g)
            group_of.append(len(updated) - 1)

        weights = np.array(weights, dtype=np.float64)
        weights.flags.writeable = False

        self.atoms: tuple[Atom, ...] = tuple(atoms)
        self.n_facts: int = len(facts)
        self.n_atoms: int = len(atoms)
        self.n_conj: int = len(ground_rules)
        self.weights: np.ndarray = weights
        self.n_rules: int = len(weights)
        self.defines_target: bool = defines_target
        self.target_atoms: tuple[int, ...] = tuple(
            i
            for i, a in enumerate(atoms)
            if a.predicate.name == "target" and a.predicate.arity == 1
        )

        self.conj_head = np.array(head_idx, dtype=np.int64)
        self.conj_rule = np.array(rule_idx, dtype=np.int64)
        self.body_counts = np.array(body_counts, dtype=np.int64)
        # The body atoms followed by one atom slot past the graph's atoms,
        # where the reasoner keeps the sentinel 1.0: gathering the
        # valuation through it gives the padded body values at once.
        self.body_gather = np.array(body_flat + [len(atoms)], dtype=np.int64)
        self.body_atoms = self.body_gather[:-1]
        # Segment starts into body_atoms, one per conjunction node.
        self.body_starts = np.array(body_starts, dtype=np.int64)
        self.slot_conj = np.array(slot_conj, dtype=np.int64)
        self.body_reduce_starts = np.array(reduce_starts, dtype=np.int64)
        self.grouped_conj = np.array(grouped, dtype=np.int64)
        self.updated_atoms = np.array(updated, dtype=np.int64)
        self.group_starts = np.array(group_starts, dtype=np.int64)
        # The group, an index into updated_atoms, of each grouped
        # conjunction.
        self.group_of = np.array(group_of, dtype=np.int64)

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
    rule touches it. The graph carries the program's rule weights, so rules
    without groundings still own a weight slot, and records whether the
    program defines target/1 even when no target atom is derivable.
    """
    ground_rules = ground_program(program, facts, max_groundings=max_groundings)
    return ReasoningGraph(
        ground_rules,
        facts,
        weights=[r.weight for r in program.rules],
        defines_target=_TARGET in program.intensional_predicates,
    )
