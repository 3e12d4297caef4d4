"""The four request workloads: schema + rule base + a seeded op stream.

A workload owns everything the system under test is given: ``build(db)``
creates the schema, loads the rows and defines (and thereby primes) the
standing rules; ``statements`` are the texts a caller prepares; and
``stream(client)`` is an endless, deterministic generator of *ops* — one
op is one client-visible statement including everything it triggers.

An op is a tuple ``(verb, a, b, expect)``:

* ``("exec", statement_name, params, expect)`` — a prepared execution;
* ``("text", command_text, None, expect)`` — ad-hoc text;
* ``("bulk", relation, rows, expect)`` — ``Database.bulk_append``.

``expect`` is what the reply must be: ``None`` (anything), an ``int``
(affected-tuple / result-row count) or a list of row tuples.  The
generators keep their own model of the data (live id window, each live
tuple's salary), so the expected reply is known without asking the
engine, and relation sizes are held flat by sliding-window deletes: rule
firings are logged under the *epoch* (op number // ``epoch_ops``) of the
tuple that caused them and every ``epoch_ops``-th op deletes the log rows
two epochs back.  Appends and deletes of the main relation alternate, so
its size never moves by more than one row.

Everything random derives from ``--seed``; the same seed gives the same
rows, rules and op stream.
"""

from __future__ import annotations

import random

def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, int(round(n * scale)))


class _Workload:
    clients = 1
    served = False

    def __init__(self, seed: int, scale: float = 1.0):
        self.seed = seed
        self.scale = scale
        self._size(scale)


class OltpPrepared(_Workload):
    """Prepared statements against many single-variable range rules.

    Why: the per-statement hot path (executor -> token -> selection stab
    -> P-node -> agenda -> action) at the paper's largest rule count
    (Fig 9 shape); ``lang``/``planner`` do almost nothing, and any
    O(rules) work per transition shows.
    """

    name = "oltp_prepared"
    chunk_ops = 1000
    warmup_ops = 1000
    #: ops of the differential run against the reference configuration
    differential_ops = 1500
    #: one op in ``epoch_ops`` trims the log: 1.6 % of the ops, so that
    #: p99 falls inside this (dense) class of set-oriented deletes and
    #: not on the sparse upper tail of the single-tuple statements
    epoch_ops = 64
    #: relation -> how far (as a share of its size when measuring
    #: starts) its size may be from there when measuring ends; the log
    #: holds between one and two epochs of firings at any moment
    flat_relations = {"emp": 0.05, "log": 1.0}

    statements = {
        "get": "retrieve (e.name, e.sal) from e in emp where e.id = $id",
        "rep": "replace e (sal = $sal, ver = $ver) from e in emp "
               "where e.id = $id",
        "app": "append emp(id = $id, name = $name, sal = $sal, "
               "ver = $ver)",
        "del": "delete e from e in emp where e.id = $id",
        "trim": "delete l from l in log where l.ver = $ver",
    }

    def _size(self, scale: float) -> None:
        self.rows = _scaled(5000, scale, 200)
        #: half pattern-based, half ``on replace`` event-based
        self.rules = 2 * _scaled(100, scale, 4)
        self.sal_range = 1000.0 * (self.rules // 2)
        # seeded by family, not name: served_durable loads the same rows
        rng = random.Random(f"{self.seed}/oltp/rows")
        self.initial_sal = [round(rng.uniform(0.0, self.sal_range), 2)
                            for _ in range(self.rows)]

    def build(self, db) -> None:
        db.execute_script("""
            create emp (id = int4, name = text, sal = float8, ver = int4)
            create log (id = int4, ver = int4, tag = text)
            define index emp_id on emp (id) using hash
            define index log_ver on log (ver) using hash
        """)
        db.bulk_append("emp", [(i, f"e{i}", sal, 0)
                               for i, sal in enumerate(self.initial_sal)])
        action = "append to log(id = emp.id, ver = emp.ver, tag = "
        for i in range(self.rules // 2):
            low = 1000 * i
            db.execute(
                f"define rule pat{i} "
                f"if {low} < emp.sal and emp.sal <= {low + 800} "
                f'then {action}"pat{i}")')
            db.execute(
                f"define rule evt{i} on replace emp(sal) "
                f"if {low + 100} < emp.sal and emp.sal <= {low + 900} "
                f'then {action}"evt{i}")')
        # priming fired every pattern rule over the loaded rows
        db.execute("delete log")

    def stream(self, client: int = 0):
        """Client ``client``'s ops; ids are partitioned ``id % clients``
        so concurrent callers never touch each other's tuples and every
        reply stays predictable."""
        step = self.clients
        rng = random.Random(f"{self.seed}/oltp/ops/{client}")
        sal = {i: s for i, s in enumerate(self.initial_sal)
               if i % step == client}
        low = client                       # oldest live id
        high = max(sal) + step             # next id to append
        append_next = True
        n = 0
        while True:
            n += 1
            epoch = client * 1_000_000 + n // self.epoch_ops
            if n % self.epoch_ops == 0:
                yield ("exec", "trim", {"ver": epoch - 2}, None)
                continue
            draw = rng.random()
            if draw < 0.8:
                i = low + step * rng.randrange((high - low) // step)
                if draw < 0.5:
                    yield ("exec", "get", {"id": i},
                           [(f"e{i}", sal[i])])
                else:
                    sal[i] = round(rng.uniform(0.0, self.sal_range), 2)
                    yield ("exec", "rep",
                           {"id": i, "sal": sal[i], "ver": epoch}, 1)
            elif append_next:
                sal[high] = round(rng.uniform(0.0, self.sal_range), 2)
                yield ("exec", "app",
                       {"id": high, "name": f"e{high}",
                        "sal": sal[high], "ver": epoch}, 1)
                high += step
                append_next = False
            else:
                del sal[low]
                yield ("exec", "del", {"id": low}, 1)
                low += step
                append_next = True


class ServedDurable(OltpPrepared):
    """The ``oltp_prepared`` rule base and op stream, sent as
    ``exec_prepared`` over two closed-loop TCP connections to a
    ``RuleServer`` child process on a durable database (default
    ``fsync="commit"``, ``checkpoint_every=1000``).

    Why: ``serve.*`` and ``txn.wal``/``txn.durability`` only run here,
    and because the stream equals ``oltp_prepared``'s, served minus
    in-process is a subtraction, not a guess.
    """

    name = "served_durable"
    clients = 2
    served = True
    chunk_ops = 500          # per client per round
    warmup_ops = 500         # per client
    differential_ops = 1000


class _Company(_Workload):
    """The emp/dept/job schema of the paper's Figs 10/11, shared by the
    two workloads that join."""

    depts = 40
    jobs = 10
    #: standing rules per type (1, 2 and 3 tuple variables)
    per_type: int
    emp_rows: int

    def _emp_row(self, rng, i: int, ver: int = 0) -> tuple:
        return (i, f"e{i}", round(rng.uniform(0.0, self.sal_range), 2),
                rng.randrange(self.depts), rng.randrange(self.jobs), ver)

    @property
    def sal_range(self) -> float:
        return 1000.0 * self.per_type

    def _build_company(self, db) -> None:
        db.execute_script("""
            create emp (id = int4, name = text, sal = float8,
                        dno = int4, jno = int4, ver = int4)
            create dept (dno = int4, name = text, building = text)
            create job (jno = int4, title = text, paygrade = int4)
            create log (name = text, tag = int4, sal = float8,
                        ver = int4)
            define index emp_id on emp (id) using btree
            define index emp_dno on emp (dno) using hash
            define index dept_dno on dept (dno) using hash
            define index job_jno on job (jno) using hash
        """)
        db.bulk_append("dept", [(i, f"d{i}", "b0")
                                for i in range(self.depts)])
        db.bulk_append("job", [(i, f"j{i}", i)
                               for i in range(self.jobs)])
        rng = random.Random(f"{self.seed}/{self.name}/rows")
        db.bulk_append("emp", [self._emp_row(rng, i)
                               for i in range(self.emp_rows)])
        for variables in (1, 2, 3):
            for i in range(self.per_type):
                db.execute(self.rule_text(
                    f"std{variables}_{i}", variables, 1000 * i, 800,
                    "log", 100 * variables + i))

    @staticmethod
    def rule_text(name: str, variables: int, low: float, width: float,
                  target: str, tag: int) -> str:
        """A Fig 9/10/11-shaped rule with 1, 2 or 3 tuple variables."""
        condition = f"{low} < emp.sal and emp.sal <= {low + width}"
        if variables >= 2:
            condition += " and emp.dno = dept.dno"
        if variables >= 3:
            condition += " and emp.jno = job.jno"
        return (f"define rule {name} if {condition} then append to "
                f"{target}(name = emp.name, tag = {tag}, sal = emp.sal, "
                f"ver = emp.ver)")


class DeltaJoins(_Company):
    """Many tokens per transition through join rules.

    Why: ``core.alpha`` / ``core.join_planner`` / ``core.leapfrog`` /
    batch routing / set-oriented action execution do most of the work
    and statement handling almost none; it drives ``core.network`` with
    Δ-set batches and − tokens where ``oltp_prepared`` sends single +
    tokens.
    """

    name = "delta_joins"
    chunk_ops = 40
    warmup_ops = 24
    differential_ops = 120
    flat_relations = {"emp": 0.05, "r": 0.05, "s": 0.05, "t": 0.05}
    #: (relation, windowed key column, other column) of the triangle
    triangle = (("r", "a", "b"), ("s", "b", "c"), ("t", "c", "a"))
    bulk_rows = 64
    #: ops per cycle; each cycle holds every op kind in seeded order
    cycle = ("bulk", "bulk", "window", "window", "rep_emp", "rep_dept",
             "block", "trim")

    statements = {
        "rep_emp": "replace emp (sal = emp.sal + $d) where emp.dno = $k",
        "rep_dept": "replace dept (building = $b) where dept.dno = $k",
        "window": "delete emp where emp.id < $k",
    }

    def _size(self, scale: float) -> None:
        self.emp_rows = _scaled(2000, scale, 256)
        self.per_type = _scaled(16, scale, 2)
        #: key domain of the triangle relations; each holds 4 rows per
        #: key but one, and the block op keeps it so
        self.keys = _scaled(60, scale, 12)

    def build(self, db) -> None:
        self._build_company(db)
        db.execute_script("""
            create r (a = int4, b = int4)
            create s (b = int4, c = int4)
            create t (c = int4, a = int4)
            create tri (a = int4)
            create audit (name = text, tag = int4)
            define index r_a on r (a) using hash
            define index s_b on s (b) using hash
            define index t_c on t (c) using hash
        """)
        rng = random.Random(f"{self.seed}/{self.name}/triangle")
        for relation, _, _ in self.triangle:
            # key 0 starts empty: the first block fills it
            db.bulk_append(relation, [
                (k, rng.randrange(self.keys))
                for k in range(1, self.keys) for _ in range(4)])
        db.execute(
            "define rule triangle "
            "if e1.b = e2.b and e2.c = e3.c and e3.a = e1.a "
            "from e1 in r, e2 in s, e3 in t "
            "then append to tri(a = e1.a)")
        # fires on what the other rules' actions write
        db.execute(
            f"define rule cascade on append log "
            f"if log.sal > {self.sal_range / 2} "
            f"then append to audit(name = log.name, tag = log.tag)")
        db.execute(self._trim_text)

    _trim_text = "do delete log delete audit delete tri end"

    def stream(self, client: int = 0):
        rng = random.Random(f"{self.seed}/{self.name}/ops")
        low, high = 0, self.emp_rows
        keys = self.keys
        n = blocks = 0
        while True:
            kinds = list(self.cycle)
            rng.shuffle(kinds)
            for kind in kinds:
                n += 1
                if kind == "bulk":
                    rows = [self._emp_row(rng, i)
                            for i in range(high, high + self.bulk_rows)]
                    high += self.bulk_rows
                    yield ("bulk", "emp", rows, self.bulk_rows)
                elif kind == "window":
                    low += self.bulk_rows
                    yield ("exec", "window", {"k": low}, self.bulk_rows)
                elif kind == "rep_emp":
                    yield ("exec", "rep_emp",
                           {"d": rng.choice((-700.0, 700.0)),
                            "k": rng.randrange(self.depts)}, None)
                elif kind == "rep_dept":
                    yield ("exec", "rep_dept",
                           {"b": f"b{n}",
                            "k": rng.randrange(self.depts)}, 1)
                elif kind == "block":
                    # a sliding window over the key domain: re-fill the
                    # key emptied by the previous block, empty the next
                    fill, drop = blocks % keys, (blocks + 1) % keys
                    blocks += 1
                    appends = " ".join(
                        f"append {rel}({x} = {fill}, "
                        f"{y} = {rng.randrange(keys)})"
                        for rel, x, y in self.triangle for _ in range(4))
                    deletes = " ".join(
                        f"delete {rel} where {rel}.{x} = {drop}"
                        for rel, x, _ in self.triangle)
                    yield ("text", f"do {appends} {deletes} end",
                           None, None)
                else:
                    yield ("text", self._trim_text, None, None)


class AdhocLifecycle(_Company):
    """Everything arrives as text; rules come and go.

    Why: ``lang`` + ``planner`` + ``core.manager`` activation dominate
    and the token path is light; p50 tracks parse/analyze/plan, p99
    tracks activation/priming (the paper's install/activate columns).
    """

    name = "adhoc_lifecycle"
    chunk_ops = 500
    warmup_ops = 600
    differential_ops = 1000
    epoch_ops = 256
    flat_relations = {"emp": 0.05, "log": 1.0}
    #: one op in ``lifecycle_every`` is a rule-lifecycle command (4 %)
    lifecycle_every = 25

    statements: dict[str, str] = {}

    def _size(self, scale: float) -> None:
        self.emp_rows = _scaled(2000, scale, 256)
        self.per_type = _scaled(8, scale, 2)
        #: repeated texts, few enough that at ~6 % of the ops each comes
        #: round again before 128 unique texts push it out of the LRU
        self.pool = [
            f"retrieve (dept.name, dept.building) where dept.dno = {k}"
            for k in range(4)]

    def build(self, db) -> None:
        self._build_company(db)
        db.execute("create dynlog (name = text, tag = int4, "
                   "sal = float8, ver = int4)")
        db.execute("delete log")

    def stream(self, client: int = 0):
        rng = random.Random(f"{self.seed}/{self.name}/ops")
        rows = random.Random(f"{self.seed}/{self.name}/rows")
        sal = {}
        for i in range(self.emp_rows):
            sal[i] = self._emp_row(rows, i)[2]
        low, high = 0, self.emp_rows
        append_next = True
        lifecycle = 0
        n = 0
        while True:
            n += 1
            epoch = n // self.epoch_ops
            if n % self.epoch_ops == 0:
                yield ("text",
                       f"do delete log where log.ver = {epoch - 2} "
                       f"delete dynlog end", None, None)
                continue
            if n % self.lifecycle_every == 0:
                rule, phase = divmod(lifecycle, 4)
                lifecycle += 1
                name = f"dyn{rule}"
                if phase == 0:
                    text = self.rule_text(
                        name, 1 + rule % 3,
                        round(rng.uniform(0.0, self.sal_range - 400), 1),
                        400, "dynlog", rule)
                else:
                    text = (f"deactivate rule {name}",
                            f"activate rule {name}",
                            f"remove rule {name}")[phase - 1]
                yield ("text", text, None, None)
                continue
            draw = rng.random()
            if draw < 0.0625:
                yield ("text", rng.choice(self.pool), None, 1)
            elif draw < 0.42:
                i = rng.randrange(low, high)
                yield ("text",
                       f"retrieve (emp.name, emp.sal) where emp.id = {i}",
                       None, [(f"e{i}", sal[i])])
            elif draw < 0.52:
                i = rng.randrange(low, high - 10)
                yield ("text",
                       f"retrieve (emp.name) where emp.id >= {i} "
                       f"and emp.id < {i + 10}", None, 10)
            elif draw < 0.78:
                i = rng.randrange(low, high)
                sal[i] = round(rng.uniform(0.0, self.sal_range), 2)
                yield ("text",
                       f"replace emp (sal = {sal[i]}, ver = {epoch}) "
                       f"where emp.id = {i}", None, 1)
            elif append_next:
                append_next = False
                row = self._emp_row(rng, high, epoch)
                sal[high] = row[2]
                yield ("text",
                       f'append emp(id = {row[0]}, name = "{row[1]}", '
                       f"sal = {row[2]}, dno = {row[3]}, jno = {row[4]}, "
                       f"ver = {row[5]})", None, 1)
                high += 1
            else:
                append_next = True
                del sal[low]
                yield ("text", f"delete emp where emp.id = {low}",
                       None, 1)
                low += 1


WORKLOADS = {cls.name: cls for cls in
             (OltpPrepared, DeltaJoins, AdhocLifecycle, ServedDurable)}
