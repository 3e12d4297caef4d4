"""Test harness: a minimal engine (no rule system) for planner/executor
tests, shared schema builders for the paper's example relations, and
databases under an α-memory storage budget."""

from __future__ import annotations

import math

from repro import Database
from repro.catalog.catalog import Catalog
from repro.catalog.schema import Schema
from repro.core.memory_optimizer import optimize_memories
from repro.executor.executor import ExecutionContext, Executor
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_command
from repro.lang.semantic import SemanticAnalyzer
from repro.planner.optimizer import Optimizer

#: the storage budgets the property axes draw, named by how often they
#: leave a pattern memory virtual: never (∞, TREAT), always (0), and
#: auto — a finite budget the knapsack spends on some memories and not
#: others (the worthy ones on small relations, indexed ones on empty)
BUDGETS = {"never": math.inf, "always": 0, "auto": 40}


def budgeted(budget, **kwargs) -> Database:
    """A Database whose rules plan their pattern α-memories under
    ``budget`` stored entries (a :data:`BUDGETS` name or a number)."""
    db = Database(**kwargs)
    optimize_memories(db, BUDGETS.get(budget, budget))
    return db


class MiniEngine:
    """Parse/analyze/plan/execute pipeline without rules or transitions."""

    def __init__(self):
        self.catalog = Catalog()
        self.analyzer = SemanticAnalyzer(self.catalog)
        self.optimizer = Optimizer(self.catalog)
        self.context = ExecutionContext(self.catalog)
        self.executor = Executor(self.context)

    def run(self, text: str):
        command = self.analyzer.analyze(parse_command(text))
        return self.run_ast(command)

    def run_ast(self, command: ast.Command):
        if isinstance(command, ast.CreateRelation):
            schema = Schema.of(**{c.name: c.type_name
                                  for c in command.columns})
            return self.catalog.create_relation(command.name, schema)
        if isinstance(command, ast.DestroyRelation):
            return self.catalog.destroy_relation(command.name)
        if isinstance(command, ast.DefineIndex):
            return self.catalog.create_index(
                command.name, command.relation, command.attribute,
                command.kind)
        if isinstance(command, ast.RemoveIndex):
            return self.catalog.destroy_index(command.name)
        if isinstance(command, ast.Block):
            results = [self.run_ast(c) for c in command.commands]
            return results[-1]
        planned = self.optimizer.plan_command(command)
        return self.executor.run(planned)

    def plan(self, text: str):
        command = self.analyzer.analyze(parse_command(text))
        return self.optimizer.plan_command(command)


def paper_engine() -> MiniEngine:
    """An engine loaded with the paper's emp/dept/job example schema and
    a small data set (the paper used 25/7/5 tuples; we use a comparable
    deterministic set)."""
    engine = MiniEngine()
    engine.run("create emp (name = text, age = int4, sal = float8, "
               "dno = int4, jno = int4)")
    engine.run("create dept (dno = int4, name = text, building = text)")
    engine.run("create job (jno = int4, title = text, paygrade = int4)")
    depts = [(1, "Toy", "A"), (2, "Sales", "B"), (3, "Research", "C"),
             (4, "Shipping", "A"), (5, "Accounting", "B"),
             (6, "Security", "C"), (7, "Cafeteria", "A")]
    for dno, name, building in depts:
        engine.run(f'append dept(dno={dno}, name="{name}", '
                   f'building="{building}")')
    jobs = [(1, "Clerk", 3), (2, "Engineer", 6), (3, "Manager", 8),
            (4, "Guard", 2), (5, "Cook", 1)]
    for jno, title, paygrade in jobs:
        engine.run(f'append job(jno={jno}, title="{title}", '
                   f'paygrade={paygrade})')
    for i in range(25):
        engine.run(f'append emp(name="emp{i:02d}", age={20 + i % 40}, '
                   f'sal={20000 + 2000 * i}, dno={1 + i % 7}, '
                   f'jno={1 + i % 5})')
    return engine
