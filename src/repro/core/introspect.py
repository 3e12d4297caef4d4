"""Rule and network introspection: human-readable descriptions.

Renders what the paper's figures show — the discrimination network built
for a rule (Figures 3/4: α-memory kinds, selection predicates, join
predicates, the P-node) and the modified rule action (Figure 7) — for
debugging, the CLI's ``\\rule`` command, and tests.
"""

from __future__ import annotations

from repro.core.action_planner import modified_action_text
from repro.core.manager import RuleManager
from repro.core.rules import CompiledRule
from repro.lang.ast_nodes import deparse


def describe_rule(manager: RuleManager, name: str) -> str:
    """A multi-line description of one rule and its network structures."""
    record = manager.rule(name)
    lines = [f"rule {name}"]
    ruleset = record.definition.ruleset or "default_rules"
    lines.append(f"  ruleset:  {ruleset}")
    lines.append(f"  priority: {record.definition.priority!r}")
    lines.append(f"  status:   "
                 f"{'active' if record.active else 'installed'}")
    if record.definition.event is not None:
        event = record.definition.event
        text = f"on {event.kind.value} {event.relation}"
        if event.attributes:
            text += f" ({', '.join(event.attributes)})"
        lines.append(f"  event:    {text}")
    if record.definition.condition is not None:
        lines.append(f"  if:       "
                     f"{deparse(record.definition.condition)}")
    if not record.active:
        lines.append(f"  then:     {deparse(record.definition.action)}")
        return "\n".join(lines)

    rule = record.compiled
    lines.append("  network:")
    for var in rule.variables:
        lines.append("    " + _describe_memory(manager, rule, var))
    if rule.joins:
        joins = " and ".join(deparse(j.expr) for j in rule.joins)
        lines.append(f"    joins: {joins}")
    pnode = manager.network.pnode(name)
    lines.append(f"    P-node: {len(pnode)} match(es)")
    lines.append("  modified action (query modification):")
    for line in modified_action_text(rule).splitlines():
        lines.append(f"    {line}")
    return "\n".join(lines)


def _describe_memory(manager: RuleManager, rule: CompiledRule,
                     var: str) -> str:
    spec = rule.specs[var]
    memory = manager.network.memory(rule.name, var)
    parts = [f"{var} in {spec.relation}: {memory.kind_name}"]
    anchor = spec.analysis.anchor if spec.analysis else None
    if anchor is not None:
        parts.append(f"anchor {anchor.attr} in {anchor.interval}")
    if spec.analysis and spec.analysis.residual is not None:
        parts.append(f"residual [{deparse(spec.analysis.residual)}]")
    if not memory.is_virtual and not spec.is_simple:
        parts.append(f"{len(memory)} entries")
    return ", ".join(parts)


def describe_join_plan(manager: RuleManager, name: str) -> str:
    """The adaptive join plan of one active rule (the CLI's ``\\plan``):
    per-memory storage decision and join-index set, plus the planner's
    seek plan from every seed variable (TREAT) or the β chain (Rete)."""
    record = manager.rule(name)
    if not record.active:
        return f"rule {name} is not active (no join plan)"
    return manager.network.join_planner.describe(record.compiled)


def probe_tuple(manager: RuleManager, relation: str,
                values: tuple, old_values: tuple | None = None) -> list:
    """Dry-run the selection layer: which rule memories would a tuple
    with these values satisfy?

    Returns ``(rule_name, var, kind_name)`` triples for every α-memory
    whose full selection predicate the values pass — without generating
    tokens or touching any state.  A debugging aid: "why did (or didn't)
    this update wake rule X?".
    """
    manager.catalog.relation(relation).schema.coerce_values(values)
    out = []
    for memory in manager.network.selection_index.probe(relation, values):
        spec = memory.spec
        if spec.selection_matches(values, old_values):
            out.append((memory.rule_name, spec.var, memory.kind_name))
    return sorted(out)


def explain_probe(manager: RuleManager, relation: str,
                  values: tuple, old_values: tuple | None = None) -> str:
    """Human-readable form of :func:`probe_tuple`."""
    hits = probe_tuple(manager, relation, values, old_values)
    if not hits:
        return (f"a {relation} tuple {values!r} satisfies no rule "
                f"selection predicate")
    lines = [f"a {relation} tuple {values!r} satisfies:"]
    for rule_name, var, kind in hits:
        lines.append(f"  {rule_name}/{var} ({kind})")
    return "\n".join(lines)


def network_summary(manager: RuleManager) -> str:
    """A table of every installed rule and top-level network statistics."""
    network = manager.network
    lines = [f"network: {network.network_name}"]
    lines.append(
        f"selection index: {network.selection_index.anchored_count()} "
        f"anchored predicate(s), "
        f"{network.selection_index.unanchored_count()} unanchored")
    lines.append(f"tokens processed: {network.tokens_processed}")
    records = manager.installed_rules()
    if not records:
        lines.append("no rules installed")
        return "\n".join(lines)
    lines.append(f"{'rule':<24} {'status':<9} {'priority':>8} "
                 f"{'vars':>4} {'α entries':>9} {'P-node':>6}")
    for record in sorted(records, key=lambda r: r.name):
        if record.active:
            rule = record.compiled
            entries = network.memory_entry_count(record.name)
            pnode = len(network.pnode(record.name))
            lines.append(
                f"{record.name:<24} {'active':<9} "
                f"{record.definition.priority:>8} "
                f"{len(rule.variables):>4} {entries:>9} {pnode:>6}")
        else:
            lines.append(
                f"{record.name:<24} {'installed':<9} "
                f"{record.definition.priority:>8} "
                f"{'-':>4} {'-':>9} {'-':>6}")
    return "\n".join(lines)
