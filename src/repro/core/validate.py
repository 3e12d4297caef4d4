"""Network self-check: verify the discrimination network against the data.

An fsck for the rule system.  :func:`check_network` recomputes, from the
base relations alone, what every *persistent* structure should contain —

* each stored pattern α-memory = the tuples satisfying its selection
  predicate;
* each pattern rule's P-node = the join of its (conceptual) α-memory
  contents under the rule's join predicates;
* (Rete) each level of a pattern rule's β chain = the join of the
  chain's prefix up to that level, under the conjuncts it binds;
* the selection index = exactly one registration per α-memory;
* each relation's token routers = what its memories compile to now —

and reports every divergence.  Dynamic (event/transition/new) memories
are transient by design and are only checked for emptiness *between*
transitions — as is everything they feed: the P-node of a rule with a
dynamic variable, and (Rete) any β partial binding one.  Used by the
test suite after stress workloads and available
to applications as ``check_network(db)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.expr import Bindings


@dataclass(frozen=True)
class Inconsistency:
    """One divergence between the network and the data."""

    rule_name: str
    kind: str          # 'alpha-extra' | 'alpha-missing' | 'pnode-extra'
                       # | 'pnode-missing' | 'beta-extra' | 'beta-missing'
                       # | 'index' | 'router' | 'dynamic-not-empty'
                       # | 'dynamic-pnode-not-empty'
                       # | 'dynamic-beta-not-empty'
    detail: str

    def __str__(self) -> str:
        return f"[{self.rule_name}] {self.kind}: {self.detail}"


def check_network(db, between_transitions: bool = True
                  ) -> list[Inconsistency]:
    """Validate every active rule's network state; returns divergences
    (empty list = consistent).

    ``between_transitions`` should be True when no transition is in
    flight (the normal case): dynamic memories must then be empty.
    """
    out: list[Inconsistency] = []
    network = db.network
    for name, rule in network.rules.items():
        conceptual: dict[str, dict] = {}
        for var in rule.variables:
            spec = rule.specs[var]
            memory = network.memory(name, var)
            expected = {
                stored.tid: stored.values
                for stored in db.catalog.relation(spec.relation).scan()
                if spec.selection_matches(stored.values, None)}
            if spec.is_dynamic:
                conceptual[var] = {}
                if between_transitions and len(memory) != 0:
                    out.append(Inconsistency(
                        name, "dynamic-not-empty",
                        f"{var}: {len(memory)} entries after flush"))
                continue
            conceptual[var] = expected
            if memory.is_virtual or spec.is_simple:
                continue
            actual = {e.tid: e.values for e in memory.entries()}
            for tid in actual.keys() - expected.keys():
                out.append(Inconsistency(
                    name, "alpha-extra", f"{var}: {tid}"))
            for tid in expected.keys() - actual.keys():
                out.append(Inconsistency(
                    name, "alpha-missing", f"{var}: {tid}"))
            for tid in actual.keys() & expected.keys():
                if actual[tid] != expected[tid]:
                    out.append(Inconsistency(
                        name, "alpha-extra",
                        f"{var}: {tid} stale values"))
        if not rule.has_dynamic_variable:
            out.extend(_check_pnode(db, rule, conceptual))
            out.extend(_check_beta(network, rule, conceptual))
        elif between_transitions:
            out.extend(_check_flushed(network, rule))
    out.extend(_check_selection_index(db))
    return out


def _join(rule, conceptual, variables) -> set[tuple]:
    """The tid tuples (in ``variables`` order) of a from-scratch
    nested-loop join of those variables' conceptual α contents under
    every join conjunct they bind."""
    out: set[tuple] = set()
    partial: dict = {}

    def recurse(i):
        if i == len(variables):
            out.add(tuple(partial[v][0] for v in variables))
            return
        var = variables[i]
        for tid, values in conceptual[var].items():
            partial[var] = (tid, values)
            bindings = Bindings({v: vals
                                 for v, (_, vals) in partial.items()})
            ok = True
            bound = set(partial)
            for conjunct in rule.joins:
                if conjunct.variables <= bound:
                    try:
                        if conjunct.evaluate(bindings) is not True:
                            ok = False
                            break
                    except KeyError:
                        ok = False
                        break
            if ok:
                recurse(i + 1)
            del partial[var]

    recurse(0)
    return out


def _check_pnode(db, rule, conceptual) -> list[Inconsistency]:
    """Recompute the P-node for a pure pattern rule and compare.

    The comparison is modulo consumed firings: matches the network holds
    must be a subset of the true join (soundness) — set-oriented firing
    legitimately drains true matches, so completeness is only asserted
    when firing has been suspended (``db._rules_suspended``).
    """
    out: list[Inconsistency] = []
    variables = rule.variables
    expected = {tuple(zip(variables, tids))
                for tids in _join(rule, conceptual, variables)}
    actual = {
        tuple((v, match.entry(v).tid) for v in variables)
        for match in db.network.pnode(rule.name).matches()}
    for extra in actual - expected:
        out.append(Inconsistency(rule.name, "pnode-extra", str(extra)))
    if getattr(db, "_rules_suspended", False):
        for missing in expected - actual:
            out.append(Inconsistency(rule.name, "pnode-missing",
                                     str(missing)))
    return out


def _check_beta(network, rule, conceptual) -> list[Inconsistency]:
    """Recompute every level of a pure pattern rule's β chain (Rete)
    and compare both ways: β partials are never consumed by firing."""
    chain = network.beta_chain(rule.name)
    if chain is None or len(chain) == 1:
        return []
    out: list[Inconsistency] = []
    actual: list[set] = [set() for _ in chain]
    for partial in network.beta_partials(rule.name):
        level = len(partial) - 1
        actual[level].add(tuple(partial[v].tid for v in chain[:level + 1]))
    for level, held in enumerate(actual):
        prefix = chain[:level + 1]
        expected = _join(rule, conceptual, prefix)
        for extra in held - expected:
            out.append(Inconsistency(rule.name, "beta-extra",
                                     f"{prefix}: {extra}"))
        for missing in expected - held:
            out.append(Inconsistency(rule.name, "beta-missing",
                                     f"{prefix}: {missing}"))
    return out


def _check_flushed(network, rule) -> list[Inconsistency]:
    """Between transitions nothing may still bind a dynamic variable:
    a single-variable event rule is simple-α (no memory contents to
    check), so a missed flush only shows in its P-node."""
    out: list[Inconsistency] = []
    matches = len(network.pnode(rule.name))
    if matches:
        out.append(Inconsistency(
            rule.name, "dynamic-pnode-not-empty",
            f"{matches} match(es) after flush"))
    dynamic = rule.dynamic_variables
    stale = sum(1 for partial in network.beta_partials(rule.name)
                if any(var in partial for var in dynamic))
    if stale:
        out.append(Inconsistency(
            rule.name, "dynamic-beta-not-empty",
            f"{stale} β partial(s) bind {dynamic} after flush"))
    return out


def _check_selection_index(db) -> list[Inconsistency]:
    out: list[Inconsistency] = []
    network = db.network
    expected = sum(len(r.variables) for r in network.rules.values())
    actual = len(network.selection_index)
    if actual != expected:
        out.append(Inconsistency(
            "*", "index",
            f"selection index holds {actual} registrations, "
            f"expected {expected}"))
    for relation in network.stale_routes():
        out.append(Inconsistency(
            "*", "router", f"{relation}: routers not rebuilt"))
    return out


def assert_consistent(db, between_transitions: bool = True) -> None:
    """Raise AssertionError with a readable report on any divergence."""
    problems = check_network(db, between_transitions)
    if problems:
        report = "\n".join(str(p) for p in problems[:20])
        raise AssertionError(
            f"network inconsistent ({len(problems)} problem(s)):\n"
            f"{report}")
