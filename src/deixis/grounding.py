"""Rule grounding over scene constants and reasoning-graph construction.

Grounding is bottom-up evaluation over atom presence (Abiteboul, Hull and
Vianu, *Foundations of Databases*, 1995, the chapter on Datalog
evaluation): the input facts are present whatever their values, and a rule
instance is built only when every body atom is a fact or the head of an
instance built before it. A variable binds to whatever constant a present
atom holds at its position, attribute constants included. Instances that
could never fire, and the atoms only they mention, never enter the graph,
so the reasoner gives no score to an atom without a derivation. Facts keep
their nodes even at value 0, so gradients reach every fact.

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

import gc
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .logic import Atom, FactSet, Predicate, Program, Term, render_rule

__all__ = [
    "GroundRule",
    "Grounding",
    "ReasoningGraph",
    "GroundingTooLarge",
    "ground_program",
    "build_reasoning_graph",
]

_TARGET = Predicate("target", 1)

# The most bindings one ground_program call may build. A binding costs
# about 200 bytes, so this keeps grounding's memory near 200 MB.
BINDING_BUDGET = 10**6


class GroundingTooLarge(ValueError):
    """Grounding would build more bindings than BINDING_BUDGET."""


@dataclass(frozen=True)
class GroundRule:
    head: Atom
    body: tuple[Atom, ...]
    rule_index: int


class Grounding(list):
    """The ground rules of one :func:`ground_program` call, in order, and
    the proof depth of the program's shape (see :class:`_Plan`)."""

    __slots__ = ("depth",)

    def __init__(self, rules, depth: int | None) -> None:
        super().__init__(rules)
        self.depth = depth


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
    algorithm). ``joins`` gives each rule's body atoms in join order,
    extensional ones first, as steps ``(body index, predicate number,
    positions, key, binds, checks)``:

    - ``positions`` are the bound argument positions, and ``key`` gives
      for each either the slot of an already-bound variable or None for a
      constant, read from the program at that position;
    - ``binds`` are the (position, slot) pairs whose variables the atom
      binds first, and ``checks`` (position, earlier position) pairs for a
      variable repeated inside the atom.

    ``head_slots`` gives each rule's head arguments as slots, None for a
    constant, and ``body_at`` each body atom's place in join order.

    ``depth`` is the program's proof depth in rounds: an extensional
    predicate sits at 0 and a head one above its deepest body predicate.
    It bounds the height of every ground atom, so the reasoner's rounds
    past it change nothing. It is None when a stratum is recursive.
    """

    __slots__ = ("strata", "joins", "head_slots", "body_at", "depth")

    def __init__(self, shape: tuple) -> None:
        intensional = {rule[0][0] for rule in shape}
        joins, head_slots, body_at = [], [], []
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
                steps.append((
                    i, p, tuple(positions), tuple(key), tuple(binds),
                    tuple(checks),
                ))
            joins.append(tuple(steps))
            head_slots.append(
                tuple(None if name is None else slots[name] for name in head_args)
            )
            body_at.append(tuple(ordered.index(i) for i in range(len(body))))
        self.strata = self._stratify(shape)
        self.joins = tuple(joins)
        self.head_slots = tuple(head_slots)
        self.body_at = tuple(body_at)
        self.depth = self._depth(shape, self.strata)

    @staticmethod
    def _depth(shape: tuple, strata: tuple) -> int | None:
        """The proof depth of a shape, None if it has a recursive stratum.
        Strata come dependencies first, so each body predicate's depth is
        known before its heads'."""
        depth: dict[int, int] = {}
        for rules, recursive in strata:
            if recursive:
                return None
            for i in rules:
                (head, _), *body = shape[i]
                d = 1 + max((depth.get(p, 0) for p, _ in body), default=0)
                depth[head] = max(depth.get(head, 0), d)
        return max(depth.values(), default=0)

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


def ground_program(program: Program, facts: FactSet) -> Grounding:
    """Ground the rule instances that can fire.

    A bottom-up boolean fixpoint over atom *presence*: the input facts are
    present whatever their values, and the head of an instance whose body
    atoms are all present becomes present. Rules are evaluated stratum by
    stratum in dependency order; a non-recursive stratum takes one pass and
    a recursive one re-joins until no new head appears. The strata and
    join orders come from the plan cached for the program's shape. Each
    body atom joins, through a hash index on its bound argument positions,
    against the facts plus the heads derived so far, and binds its new
    variables to the constants the matching atom holds.

    The result holds every instance whose body atoms are all present,
    ordered by rule index and then by join order: extensional body atoms
    first, then intensional ones, each taking its matches in store order
    (the facts in fact-store order, then derived heads in derivation
    order). It carries the program's proof depth, read off the same plan.

    The call counts the bindings it builds over all rules, join steps and
    re-joins: the empty binding each join starts from, and each extension
    of a binding by a body atom. Once the count passes
    :data:`BINDING_BUDGET`, it raises :class:`GroundingTooLarge`.

    The cyclic garbage collector is paused for the call. Grounding builds
    up to millions of tuples and no reference cycles, and each collection
    would traverse every tuple still alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _ground(program, facts)
    finally:
        if enabled:
            gc.enable()


def _ground(program: Program, facts: FactSet) -> Grounding:
    """The body of :func:`ground_program`, run with the collector paused."""
    shape, predicates = _shape(program)
    plan = _plan(shape)
    budget = BINDING_BUDGET
    built = 0

    def too_large(rule_index: int) -> GroundingTooLarge:
        return GroundingTooLarge(
            f"rule {rule_index} ({render_rule(program.rules[rule_index])}): "
            f"grounding passed its budget of {budget} bindings"
        )

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
        nonlocal built
        rule = program.rules[rule_index]
        # A binding is (bound terms by slot, matched atoms by step).
        bindings: list[tuple[tuple[Term, ...], tuple[Atom, ...]]] = [((), ())]
        built += 1
        if built > budget:
            raise too_large(rule_index)
        for i, p, positions, key_slots, binds, checks in plan.joins[rule_index]:
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
                before = len(extended)
                for a in candidates(predicate, positions, key):
                    args = a.args
                    if any(args[q].name != args[r].name for q, r in checks):
                        continue
                    extended.append(
                        (terms + tuple(args[q] for q, _ in binds), matched + (a,))
                    )
                built += len(extended) - before
                if built > budget:
                    raise too_large(rule_index)
            bindings = extended
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

    return Grounding(
        (gr for instances in per_rule for gr in instances), plan.depth
    )


class ReasoningGraph:
    """Bipartite graph of ground atom and conjunction nodes as index arrays.

    One conjunction node per ground rule; each has one or more body atoms
    (atom -> conj edges) and exactly one head atom (conj -> atom edge).
    The first ``n_facts`` atom nodes are the input facts in fact-store
    order, so fact valuations align with atom node ids. ``weights`` holds
    the program's rule weights (read-only), one per rule, and
    ``target_atoms`` the node ids of the target/1 atoms, facts included,
    in node order. ``defines_target`` records whether the program has a
    target/1 rule, which a graph without target/1 atoms cannot show.
    ``depth`` bounds the height of every atom in rounds (see
    :class:`_Plan`), or is None for a recursive program. The constructor
    interns atoms into node ids, and one core, :meth:`_build`, derives
    every array from those ids, for :meth:`cut` too. Immutable after
    construction.
    """

    def __init__(
        self,
        ground_rules: list[GroundRule],
        facts: FactSet,
        weights,
        defines_target: bool,
        depth: int | None,
    ):
        # Node ids in interning order, the facts first at their positions.
        index: dict[Atom, int] = dict(facts._index)
        heads, body_counts, body_flat = [], [], []
        for gr in ground_rules:
            heads.append(index.setdefault(gr.head, len(index)))
            body_counts.append(len(gr.body))
            body_flat.extend(index.setdefault(a, len(index)) for a in gr.body)
        atoms = tuple(index)
        self._build(
            atoms, len(facts), heads, [gr.rule_index for gr in ground_rules],
            body_flat, body_counts, weights, defines_target, depth,
            tuple(
                i for i, a in enumerate(atoms)
                if a.predicate.name == "target" and a.predicate.arity == 1
            ),
        )

    def _build(
        self, atoms, n_facts, heads, rules, body_flat, body_counts,
        weights, defines_target, depth, target_atoms,
    ) -> None:
        """Fill the graph from integer data: per conjunction its head atom,
        rule index and body count (lists), and its body atoms flat."""
        body_starts = list(accumulate(body_counts, initial=0))[:-1]
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
        grouped = sorted(range(len(heads)), key=heads.__getitem__)
        updated: list[int] = []
        group_starts: list[int] = []
        group_of: list[int] = []
        for g, c in enumerate(grouped):
            if not updated or heads[c] != updated[-1]:
                updated.append(heads[c])
                group_starts.append(g)
            group_of.append(len(updated) - 1)

        weights = np.array(weights, dtype=np.float64)
        weights.flags.writeable = False

        self.atoms: tuple[Atom, ...] = atoms
        self.n_facts: int = n_facts
        self.n_atoms: int = len(atoms)
        self.n_conj: int = len(heads)
        self.weights: np.ndarray = weights
        self.n_rules: int = len(weights)
        self.defines_target: bool = defines_target
        self.depth: int | None = depth
        self.target_atoms: tuple[int, ...] = target_atoms

        self.conj_head = np.array(heads, dtype=np.int64)
        self.conj_rule = np.array(rules, dtype=np.int64)
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

    def cut(self, conj_ids) -> tuple[ReasoningGraph, np.ndarray]:
        """The conjunctions ``conj_ids``, in order, as a graph one round
        deep, and the node ids here of its facts: their body atoms in
        first-use order, the heads following. Rule indices, weight slots
        and target atoms carry over. Raises ValueError if a head is also a
        body atom, which one round would not reach."""
        starts, counts = self.body_starts.tolist(), self.body_counts.tolist()
        body_atoms, heads = self.body_atoms.tolist(), self.conj_head.tolist()
        rules = self.conj_rule.tolist()
        new: dict[int, int] = {}  # node id here -> node id in the cut
        body_flat = [
            new.setdefault(a, len(new))
            for c in conj_ids
            for a in body_atoms[starts[c] : starts[c] + counts[c]]
        ]
        n_facts = len(new)
        cut_heads = [new.setdefault(heads[c], len(new)) for c in conj_ids]
        for c, h in zip(conj_ids, cut_heads):
            if h < n_facts:
                raise ValueError(f"conjunction {c} derives a body atom of the cut")
        ids, targets = list(new), set(self.target_atoms)
        graph = ReasoningGraph.__new__(ReasoningGraph)
        graph._build(
            tuple(self.atoms[i] for i in ids), n_facts, cut_heads,
            [rules[c] for c in conj_ids], body_flat,
            [counts[c] for c in conj_ids], self.weights, self.defines_target,
            1, tuple(j for j, i in enumerate(ids) if i in targets),
        )
        return graph, np.array(ids[:n_facts], dtype=np.int64)

    def __repr__(self) -> str:
        return (
            f"ReasoningGraph({self.n_atoms} atoms, {self.n_conj} conjunctions, "
            f"{self.n_facts} facts)"
        )


def build_reasoning_graph(program: Program, facts: FactSet) -> ReasoningGraph:
    """Ground a program against facts and pack it into a ReasoningGraph.

    Atom nodes are deduplicated; every input fact has a node even when no
    rule touches it. The graph carries the program's rule weights, so rules
    without groundings still own a weight slot, and records whether the
    program defines target/1 even when no target atom is derivable, and
    the program's proof depth.
    """
    ground_rules = ground_program(program, facts)
    return ReasoningGraph(
        ground_rules,
        facts,
        weights=[r.weight for r in program.rules],
        defines_target=_TARGET in program.intensional_predicates,
        depth=ground_rules.depth,
    )
