"""Worst-case-optimal multiway joins: leapfrog triejoin over α-memories.

The pairwise join step probes one memory at a time, so cyclic or
many-variable conditions (triangles, diamonds, stars with cross links)
degrade superlinearly no matter which seek order the planner picks: some
intermediate chain enumerates combinations the remaining conjuncts will
reject.  This module implements the alternative TREAT join step the
:class:`~repro.core.join_planner.JoinPlanner` selects for such rules — a
leapfrog triejoin (Veldhuizen) walked incrementally per token (Rete
keeps its pairwise β chain):

* the rule's equi-join conjuncts are closed into **join classes** —
  connected components of (variable, attribute-position) endpoints; a
  class is one trie attribute, and fixing its value enforces every
  conjunct inside it by transitivity;
* a token seeds the walk by fixing the classes its own positions belong
  to, exactly like the paper's §4.2 constant substitution, but for *all*
  of the seed's join attributes at once;
* each remaining class is one **leapfrog level**: every participating
  memory exposes a sorted distinct-key view, grouped once per seek from
  its entries under the classes already fixed (a join-index probe or a
  sharpened virtual scan), or from the whole memory when none is, and
  the leapfrog intersection of those views — galloped with
  ``seek(key)`` bisection — enumerates exactly the values every memory
  can extend;
* complete combinations are emitted in the rule's variable order with
  the non-equi residue evaluated as early as its variables are bound, so
  P-node contents, insertion stamps (one per complete combination) and
  hence agenda recency are identical to the pairwise step's.

Null and NaN values never satisfy an equi-join conjunct under
three-valued logic: a seed holding one joins nothing, and grouping
leaves them out of every view — the rule every join-index and storage
index applies to the keys it holds.
"""

from __future__ import annotations

from bisect import bisect_left

from repro.core.alpha import MemoryEntry
from repro.core.pnode import Match
from repro.lang.expr import Bindings

__all__ = [
    "JoinClass", "LevelVar", "Level", "MultiwayPlan",
    "build_join_classes", "equijoin_graph_is_cyclic", "build_plan",
    "leapfrog_intersection", "multiway_seek",
]


class JoinClass:
    """One equivalence class of equi-joined (variable, position) pairs.

    All member attributes must hold one shared value in any match; a
    variable appearing at several positions of one class additionally
    requires intra-tuple equality among those positions.
    """

    __slots__ = ("index", "positions")

    def __init__(self, index: int,
                 positions: dict[str, tuple[int, ...]]):
        self.index = index
        #: variable -> its attribute positions inside this class
        self.positions = positions

    def __repr__(self) -> str:
        members = ", ".join(
            f"{var}[{','.join(map(str, positions))}]"
            for var, positions in sorted(self.positions.items()))
        return f"JoinClass({self.index}: {members})"


def build_join_classes(rule) -> list[JoinClass]:
    """Union-find the rule's equi-join endpoints into join classes.

    Deterministic: classes are ordered by their smallest (var, position)
    member, and each class's position lists are sorted.
    """
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(node):
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    def union(a, b):
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for conjunct in rule.joins:
        equi = conjunct.equijoin
        if equi is None:
            continue
        union((equi.left_var, equi.left_position),
              (equi.right_var, equi.right_position))

    groups: dict[tuple[str, int], list[tuple[str, int]]] = {}
    for node in parent:
        groups.setdefault(find(node), []).append(node)
    classes = []
    for members in sorted(groups.values(), key=min):
        positions: dict[str, list[int]] = {}
        for var, position in sorted(members):
            positions.setdefault(var, []).append(position)
        classes.append(JoinClass(
            len(classes),
            {var: tuple(plist) for var, plist in positions.items()}))
    return classes


def equijoin_graph_is_cyclic(rule) -> bool:
    """Does the rule's equi-join graph (variables as nodes, one edge
    per joined variable *pair*) contain a cycle?  Parallel conjuncts
    between the same pair count as one edge — pairwise handles those
    with a probe plus a filter just fine; a genuine cycle is what makes
    every pairwise order enumerate a superlinear intermediate."""
    edges = set()
    for conjunct in rule.joins:
        equi = conjunct.equijoin
        if equi is not None:
            edges.add(frozenset((equi.left_var, equi.right_var)))
    parent: dict[str, str] = {}

    def find(node):
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    for edge in sorted(tuple(sorted(e)) for e in edges):
        a, b = edge
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra == rb:
            return True
        parent[rb] = ra
    return False


class LevelVar:
    """One memory's participation in a leapfrog level."""

    __slots__ = ("var", "positions", "constraints")

    def __init__(self, var: str, positions: tuple[int, ...],
                 constraints: tuple):
        self.var = var
        #: this variable's positions inside the level's class (the view
        #: groups on the first; extras demand intra-tuple equality)
        self.positions = positions
        #: ``(class_index, positions)`` pairs already fixed when this
        #: level runs — the equality restrictions to probe/filter with
        self.constraints = constraints


class Level:
    """One trie level: the leapfrog intersection for one join class."""

    __slots__ = ("class_index", "vars")

    def __init__(self, class_index: int, level_vars: tuple[LevelVar, ...]):
        self.class_index = class_index
        self.vars = level_vars


class MultiwayPlan:
    """A compiled leapfrog trie walk for one rule from one seed
    variable: the walk a token entering ``seed_var``'s memory runs."""

    __slots__ = ("rule_name", "seed_var", "n_classes", "seed_positions",
                 "levels", "prefixed", "emit_order", "residual_schedule")

    def __init__(self, rule_name, seed_var, n_classes, seed_positions,
                 levels, prefixed, emit_order, residual_schedule):
        self.rule_name = rule_name
        self.seed_var = seed_var
        self.n_classes = n_classes
        #: (class_index, seed positions) for classes the seed fixes
        self.seed_positions = seed_positions
        self.levels = levels
        #: (var, constraints) for non-seed variables all of whose
        #: classes are seed-fixed: restricted once, before the walk
        self.prefixed = prefixed
        #: non-seed variables in the rule's canonical order
        self.emit_order = emit_order
        #: per emit depth, the non-equi conjuncts first fully bound there
        self.residual_schedule = residual_schedule


def build_plan(rule, seed_var: str, classes: list[JoinClass],
               class_order: list[int]) -> MultiwayPlan:
    """Compile the trie walk: which classes the seed fixes, the level
    sequence for the rest (in the planner-chosen ``class_order``), each
    participant's accumulated equality constraints, and the residual
    conjunct schedule for emission."""
    seed_positions = []
    fixed_of: dict[str, list] = {}
    for cls in classes:
        if seed_var in cls.positions:
            seed_positions.append((cls.index, cls.positions[seed_var]))
            for var, positions in cls.positions.items():
                if var != seed_var:
                    fixed_of.setdefault(var, []).append(
                        (cls.index, positions))
    levels = []
    in_levels: set[str] = set()
    for class_index in class_order:
        cls = classes[class_index]
        level_vars = []
        for var in sorted(cls.positions):
            level_vars.append(LevelVar(
                var, cls.positions[var],
                tuple(fixed_of.get(var, ()))))
        levels.append(Level(class_index, tuple(level_vars)))
        for var in cls.positions:
            in_levels.add(var)
            fixed_of.setdefault(var, []).append(
                (class_index, cls.positions[var]))
    prefixed = tuple(
        (var, tuple(fixed_of[var]))
        for var in rule.variables
        if var != seed_var and var not in in_levels and var in fixed_of)
    emit_order = tuple(var for var in rule.variables if var != seed_var)
    residuals = [j for j in rule.joins if j.equijoin is None]
    bound = {seed_var}
    schedule = []
    for var in emit_order:
        bound.add(var)
        due = tuple(j for j in residuals if j.variables <= bound)
        residuals = [j for j in residuals if not j.variables <= bound]
        schedule.append(due)
    return MultiwayPlan(rule.name, seed_var, len(classes),
                        tuple(seed_positions), tuple(levels), prefixed,
                        emit_order, tuple(schedule))


# ----------------------------------------------------------------------
# the leapfrog intersection
# ----------------------------------------------------------------------

def leapfrog_intersection(key_lists, seek_counter: list):
    """Yield the values common to every sorted distinct-key list.

    The classic leapfrog: iterators are kept sorted by current key; the
    smallest repeatedly ``seek``\\ s (bisection, galloping past runs of
    non-matching keys) to the largest's key, and a full agreement emits
    the value.  ``seek_counter[0]`` accumulates the number of seeks
    performed (the ``joins.leapfrog_seeks`` engine counter).
    """
    for keys in key_lists:
        if not keys:
            return
    if len(key_lists) == 1:
        yield from key_lists[0]
        return
    iters = [[keys, 0, len(keys)] for keys in key_lists]
    iters.sort(key=lambda it: it[0][0])
    count = len(iters)
    at = 0
    largest = iters[-1][0][0]
    while True:
        it = iters[at]
        keys, i, n = it
        if keys[i] == largest:
            yield largest
            i += 1
        else:
            i = bisect_left(keys, largest, i + 1, n)
            seek_counter[0] += 1
        if i >= n:
            return
        it[1] = i
        largest = keys[i]
        at += 1
        if at == count:
            at = 0


# ----------------------------------------------------------------------
# the trie walk
# ----------------------------------------------------------------------

def multiway_seek(network, rule, plan: MultiwayPlan,
                  seed_entry: MemoryEntry, pending_vars, token) -> bool:
    """Run one multiway join step — the TREAT seek for one token —
    finding every new complete combination containing ``seed_entry``;
    returns True when the P-node gained at least one match.  Stamp
    discipline matches the pairwise step exactly: the network stamp
    advances once per complete combination reaching the P-node.
    """
    fixed: list = [None] * plan.n_classes
    values = seed_entry.values
    for class_index, positions in plan.seed_positions:
        value = values[positions[0]]
        if value is None or value != value:
            return False      # null/NaN never equi-joins
        for position in positions[1:]:
            if values[position] != value:
                return False
        fixed[class_index] = value
    walk = _Walk(network, rule, plan, seed_entry, pending_vars, token,
                 fixed)
    for var, constraints in plan.prefixed:
        entries = walk.restricted_entries(var, constraints)
        if not entries:
            break
        walk.refined[var] = entries
    else:
        walk.walk(0)
    if walk.seeks[0] and network.stats.enabled:
        network.stats.bump("joins.leapfrog_seeks", walk.seeks[0])
    return walk.matched


class _Walk:
    """The state of one multiway seek: the class values fixed so far,
    the bound entries, and the per-seek caches.  Its methods recurse
    through the levels; it holds no reference to itself, so a seek
    leaves no reference cycle for the collector."""

    __slots__ = ("network", "rule", "plan", "pnode", "pending_vars",
                 "token", "fixed", "partial", "bindings", "entry_cache",
                 "view_cache", "seeks", "refined", "matched")

    def __init__(self, network, rule, plan, seed_entry, pending_vars,
                 token, fixed):
        self.network = network
        self.rule = rule
        self.plan = plan
        self.pnode = network._pnodes[rule.name]
        self.pending_vars = pending_vars
        self.token = token
        self.fixed = fixed
        self.partial: dict[str, MemoryEntry] = {plan.seed_var: seed_entry}
        self.bindings = Bindings()
        _bind(self.bindings, plan.seed_var, seed_entry)
        self.entry_cache: dict = {}
        self.view_cache: dict = {}
        self.seeks = [0]
        self.refined: dict[str, list] = {}
        self.matched = False

    def restricted_entries(self, var: str, constraints) -> list:
        """The var's memory contents under the already-fixed equality
        constraints — probed through the hash join-index or the
        sharpened virtual scan, then filtered.  Memoized per seek."""
        fixed = self.fixed
        flat = []
        for class_index, positions in constraints:
            value = fixed[class_index]
            for position in positions:
                flat.append((position, value))
        cache_key = (var, tuple(flat))
        cached = self.entry_cache.get(cache_key)
        if cached is not None:
            return cached
        network = self.network
        memory = network._memories[(self.rule.name, var)]
        equality = flat[0] if flat else None
        if memory.is_virtual:
            entries = network._virtual_entries(
                memory, var, self.partial, equality, self.pending_vars,
                self.token)
        elif flat:
            entries = memory.join_probe(*equality)
        else:
            entries = memory.entries()
        rest = flat[1:]
        if rest:
            out = [entry for entry in entries
                   if all(entry.values[p] == v for p, v in rest)]
        else:
            out = list(entries)
        self.entry_cache[cache_key] = out
        return out

    def level_view(self, level_var: LevelVar):
        """The participant's sorted distinct-key view for one level:
        ``(keys, groups)`` where ``groups[key]`` lists the entries
        carrying that key, grouped from the restricted entries and
        memoized per seek."""
        var = level_var.var
        positions = level_var.positions
        constraints = level_var.constraints
        key_values = tuple(self.fixed[ci] for ci, _ in constraints)
        cache_key = (var, positions, key_values)
        view = self.view_cache.get(cache_key)
        if view is not None:
            return view
        first = positions[0]
        rest = positions[1:]
        groups: dict = {}
        for entry in self.restricted_entries(var, constraints):
            value = entry.values[first]
            if value is None or value != value:
                continue
            if rest and any(entry.values[p] != value for p in rest):
                continue
            group = groups.get(value)
            if group is None:
                groups[value] = [entry]
            else:
                group.append(entry)
        view = (sorted(groups), groups)
        self.view_cache[cache_key] = view
        return view

    def emit(self, depth: int) -> None:
        """Bind the emit-order variable at ``depth`` to each refined
        entry passing its residual conjuncts; a complete combination
        goes to the P-node."""
        plan, partial = self.plan, self.partial
        if depth == len(plan.emit_order):
            network = self.network
            network._stamp += 1
            if self.pnode.insert(Match.of(dict(partial)), network._stamp):
                network._matches_added += 1
                self.matched = True
            return
        var = plan.emit_order[depth]
        conjuncts = plan.residual_schedule[depth]
        bindings = self.bindings
        for entry in self.refined[var]:
            _bind(bindings, var, entry)
            if all(j.evaluate(bindings) is True for j in conjuncts):
                partial[var] = entry
                self.emit(depth + 1)
                del partial[var]
            _unbind(bindings, var)

    def walk(self, level_index: int) -> None:
        """Intersect one level's views, fixing its class to each common
        value in turn, then walk the next level (emit after the last)."""
        levels = self.plan.levels
        if level_index == len(levels):
            self.emit(0)
            return
        level = levels[level_index]
        views = []
        for level_var in level.vars:
            keys, groups = self.level_view(level_var)
            if not keys:
                return
            views.append((level_var.var, keys, groups))
        class_index = level.class_index
        refined = self.refined
        for value in leapfrog_intersection([v[1] for v in views],
                                           self.seeks):
            self.fixed[class_index] = value
            for var, _, groups in views:
                refined[var] = groups[value]
            self.walk(level_index + 1)


def _bind(bindings: Bindings, var: str, entry: MemoryEntry) -> None:
    bindings.current[var] = entry.values
    if entry.old_values is not None:
        bindings.previous[var] = entry.old_values


def _unbind(bindings: Bindings, var: str) -> None:
    bindings.current.pop(var, None)
    bindings.previous.pop(var, None)
