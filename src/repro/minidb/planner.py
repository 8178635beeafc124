"""Rule-based planning: SQL statements → physical operator trees.

The planner is deliberately simple but does the load-bearing work for the
paper's queries:

* single-table conjuncts are pushed down to their scans, and an
  ``alias.col = literal`` conjunct turns into a B+ tree
  :class:`~repro.minidb.executor.IndexEqualScan` when an index exists —
  this is what makes the Figure 15 phonetic-index query fast;
* equi-join conjuncts become :class:`~repro.minidb.executor.HashJoin`
  keys — this is what makes the Figure 14 q-gram self-join viable;
* ``GROUP BY``/``HAVING`` with aggregates compile to hash aggregation,
  which the count filter needs;
* a ``LexEQUAL`` predicate is lowered to the registered ``lexequal`` UDF
  (the paper's "outside-the-server" deployment).  Like the commercial
  optimizer the paper complains about, the generic planner does *not*
  accelerate UDF predicates — that is exactly Table 1's lesson; the
  accelerated plans are built explicitly by :mod:`repro.core.strategies`.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from repro import obs
from repro.errors import PlanningError
from repro.minidb.catalog import Database
from repro.minidb.executor import (
    Distinct,
    Filter,
    GroupBy,
    HashJoin,
    IndexEqualScan,
    Limit,
    NestedLoopJoin,
    PhysicalOp,
    Project,
    SeqScan,
    Sort,
)
from repro.minidb.expr import (
    Aggregate,
    Between,
    BinaryOp,
    BoolOp,
    ColumnRef,
    Expr,
    FuncCall,
    InList,
    IsNull,
    LexEqual,
    Literal,
    Param,
    UnaryOp,
    compile_expr,
    contains_aggregate,
    walk,
)
from repro.minidb.sql import (
    AnalyzeStmt,
    CreateIndexStmt,
    CreateTableStmt,
    DropIndexStmt,
    DropTableStmt,
    ExplainStmt,
    InsertStmt,
    SelectStmt,
    Statement,
    parse,
)
from repro.minidb.schema import Column
from repro.minidb.table import HeapTable


@dataclass
class ResultSet:
    """Materialized query result."""

    columns: list[str]
    rows: list[tuple]

    def __iter__(self) -> Iterator[tuple]:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def first(self) -> tuple | None:
        return self.rows[0] if self.rows else None

    def scalar(self):
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise PlanningError(
                f"scalar() needs a 1x1 result, got "
                f"{len(self.rows)}x{len(self.columns)}"
            )
        return self.rows[0][0]

    def to_dicts(self) -> list[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        preview = ", ".join(self.columns)
        return f"ResultSet([{preview}], {len(self.rows)} rows)"


def execute_sql(db: Database, sql: str, params: dict | None = None):
    """Parse and run one statement against ``db``."""
    return execute_statement(db, parse(sql), params or {})


def execute_statement(db: Database, stmt: Statement, params: dict):
    if isinstance(stmt, SelectStmt):
        plan = plan_select(db, stmt, params)
        names = _output_names(stmt, db)
        with obs.timed("minidb.execute_select"):
            rows = list(plan.rows())
        return ResultSet(columns=names, rows=rows)
    if isinstance(stmt, ExplainStmt):
        from repro.minidb.explain import explain as explain_plan

        plan = plan_select(db, stmt.query, params)
        lines = explain_plan(plan, analyze=stmt.analyze)
        return ResultSet(
            columns=["QUERY PLAN"], rows=[(line,) for line in lines]
        )
    if isinstance(stmt, CreateTableStmt):
        db.create_table(
            stmt.name,
            [Column(n, t, nullable) for n, t, nullable in stmt.columns],
        )
        return 0
    if isinstance(stmt, CreateIndexStmt):
        db.create_index(stmt.name, stmt.table, stmt.column)
        return 0
    if isinstance(stmt, DropTableStmt):
        db.drop_table(stmt.name)
        return 0
    if isinstance(stmt, DropIndexStmt):
        db.drop_index(stmt.name)
        return 0
    if isinstance(stmt, InsertStmt):
        count = 0
        with db.storage.transaction():
            for row_exprs in stmt.rows:
                values = tuple(
                    _eval_constant(expr, params) for expr in row_exprs
                )
                db.insert(stmt.table, values)
                count += 1
        return count
    if isinstance(stmt, AnalyzeStmt):
        return db.analyze(stmt.table)
    raise PlanningError(f"unsupported statement {stmt!r}")  # pragma: no cover


def _eval_constant(expr: Expr, params: dict):
    from repro.minidb.expr import RowLayout

    fn = compile_expr(expr, RowLayout(), lambda name: _no_udf(name), params)
    return fn(())


def _no_udf(name: str):
    raise PlanningError(f"function {name!r} not allowed in constants")


# ----------------------------------------------------------- select plan

def plan_select(
    db: Database, stmt: SelectStmt, params: dict
) -> PhysicalOp:
    """Build the physical plan for a SELECT."""
    if not stmt.tables:
        raise PlanningError("SELECT requires a FROM clause")
    aliases = [t.alias.lower() for t in stmt.tables]
    if len(set(aliases)) != len(aliases):
        raise PlanningError("duplicate table aliases in FROM")

    where = _lower_lexequal(stmt.where) if stmt.where else None
    having = _lower_lexequal(stmt.having) if stmt.having else None

    conjuncts = _split_conjuncts(where)
    single, joins, residual = _classify_conjuncts(
        conjuncts, {t.alias.lower() for t in stmt.tables}
    )

    # Per-table access paths with pushed-down filters.
    plans: dict[str, PhysicalOp] = {}
    for table_ref in stmt.tables:
        table = db.table(table_ref.name)
        alias = table_ref.alias
        table_conjuncts = single.get(alias.lower(), [])
        plan = _access_path(db, table, alias, table_conjuncts, params)
        plans[alias.lower()] = plan

    # Left-deep join tree in FROM order.
    plan = plans[aliases[0]]
    joined = {aliases[0]}
    remaining_joins = list(joins)
    for alias in aliases[1:]:
        plan_aliases = joined | {alias}
        usable = [
            j
            for j in remaining_joins
            if j.left_alias in plan_aliases
            and j.right_alias in plan_aliases
            and (j.left_alias == alias or j.right_alias == alias)
        ]
        next_plan = plans[alias]
        if usable:
            join = usable[0]
            remaining_joins.remove(join)
            if join.right_alias == alias:
                outer_ref, inner_ref = join.left_ref, join.right_ref
            else:
                outer_ref, inner_ref = join.right_ref, join.left_ref
            outer_fn = _key_fn(plan, outer_ref, db, params)
            inner_fn = _key_fn(next_plan, inner_ref, db, params)
            plan = HashJoin(plan, next_plan, outer_fn, inner_fn)
        else:
            plan = NestedLoopJoin(plan, next_plan)
        joined.add(alias)
    # Join conjuncts not used as hash keys + residuals become filters.
    leftovers = [j.expr for j in remaining_joins] + residual
    for expr in leftovers:
        plan = Filter(plan, expr, db.udf, params)

    group_needed = bool(stmt.group_by) or any(
        item.expr is not None and contains_aggregate(item.expr)
        for item in stmt.items
    ) or (having is not None and contains_aggregate(having))

    select_outputs = _expand_items(stmt, plan, db)

    order_exprs = [e for e, _d in stmt.order_by]
    if group_needed:
        plan, select_outputs, having, order_exprs = _plan_grouping(
            db, plan, stmt, select_outputs, having, order_exprs, params
        )
        if having is not None:
            plan = Filter(plan, having, db.udf, params)
    elif having is not None:
        plan = Filter(plan, having, db.udf, params)

    # Projection with hidden sort keys, sort, then strip the extras.
    sort_specs = list(zip(order_exprs, [d for _e, d in stmt.order_by]))
    hidden = [(expr, f"__sort{i}") for i, (expr, _d) in enumerate(sort_specs)]
    outputs = select_outputs + hidden
    plan = Project(plan, outputs, db.udf, params)
    if sort_specs:
        sort_keys = [
            (ColumnRef("q", f"__sort{i}"), desc)
            for i, (_expr, desc) in enumerate(sort_specs)
        ]
        plan = Sort(plan, sort_keys, db.udf, params)
    if hidden:
        visible = [
            (ColumnRef("q", name), name) for _e, name in select_outputs
        ]
        plan = Project(plan, visible, db.udf, params)
    if stmt.distinct:
        plan = Distinct(plan)
    if stmt.limit is not None:
        plan = Limit(plan, stmt.limit)
    return plan


@dataclass
class _JoinConjunct:
    expr: Expr
    left_alias: str
    right_alias: str
    left_ref: ColumnRef
    right_ref: ColumnRef


def _split_conjuncts(expr: Expr | None) -> list[Expr]:
    if expr is None:
        return []
    if isinstance(expr, BoolOp) and expr.op == "AND":
        result: list[Expr] = []
        for term in expr.terms:
            result.extend(_split_conjuncts(term))
        return result
    return [expr]


def _aliases_of(expr: Expr, known: set[str]) -> set[str] | None:
    """Aliases referenced by ``expr``; None if an unqualified ref occurs."""
    found: set[str] = set()
    for node in walk(expr):
        if isinstance(node, ColumnRef):
            if node.table is None:
                return None
            if node.table.lower() in known:
                found.add(node.table.lower())
    return found


def _classify_conjuncts(
    conjuncts: list[Expr], known_aliases: set[str]
) -> tuple[dict[str, list[Expr]], list[_JoinConjunct], list[Expr]]:
    single: dict[str, list[Expr]] = {}
    joins: list[_JoinConjunct] = []
    residual: list[Expr] = []
    only_alias = next(iter(known_aliases)) if len(known_aliases) == 1 else None
    for expr in conjuncts:
        aliases = _aliases_of(expr, known_aliases)
        if aliases is None:
            # Unqualified references: safe to treat as single-table only
            # in single-table queries.
            if only_alias is not None:
                single.setdefault(only_alias, []).append(expr)
            else:
                residual.append(expr)
            continue
        if len(aliases) == 0:
            residual.append(expr)
        elif len(aliases) == 1:
            single.setdefault(aliases.pop(), []).append(expr)
        elif (
            len(aliases) == 2
            and isinstance(expr, BinaryOp)
            and expr.op == "="
            and isinstance(expr.left, ColumnRef)
            and isinstance(expr.right, ColumnRef)
        ):
            left, right = expr.left, expr.right
            assert left.table is not None and right.table is not None
            joins.append(
                _JoinConjunct(
                    expr=expr,
                    left_alias=left.table.lower(),
                    right_alias=right.table.lower(),
                    left_ref=left,
                    right_ref=right,
                )
            )
        else:
            residual.append(expr)
    return single, joins, residual


def _access_path(
    db: Database,
    table: HeapTable,
    alias: str,
    conjuncts: list[Expr],
    params: dict,
) -> PhysicalOp:
    """Choose scan type for one table and apply its pushed-down filters.

    Every access path (and the pushed-down filters above it) is
    annotated with ``est_rows``/``est_cost`` — from the stats catalog
    when ANALYZE has run, from live structure sizes otherwise — so
    EXPLAIN shows what the planner believed next to what happened.
    """
    plan: PhysicalOp | None = None
    rest = conjuncts
    row_count = len(table)
    for expr in conjuncts:
        match = _index_equality(db, table, expr, params)
        if match is not None:
            tree, key = match
            plan = IndexEqualScan(table, tree, key, alias=alias)
            plan.est_rows = _index_equality_rows(db, table, expr)
            plan.est_cost = 8.0 + plan.est_rows
            rest = [c for c in conjuncts if c is not expr]
            break
    if plan is None:
        # Inside-the-engine LexEQUAL acceleration: a registered
        # accelerator turns a lowered lexequal(col, const, ...) conjunct
        # into a candidate rowid list; the conjunct itself stays in the
        # filter chain, so candidates are always rechecked by the UDF.
        for expr in conjuncts:
            accelerated = _accelerated_candidates(db, table, expr, params)
            if accelerated is not None:
                from repro.minidb.executor import RowidScan

                rowids, source, estimate = accelerated
                obs.incr("minidb.plans.accelerated")
                obs.observe("minidb.accelerator.candidates", len(rowids))
                plan = RowidScan(table, rowids, alias=alias, source=source)
                if estimate is not None:
                    plan.est_rows = estimate.est_rows
                    plan.est_cost = estimate.est_cost
                else:
                    plan.est_rows = float(len(rowids))
                    plan.est_cost = float(len(rowids))
                break
    if plan is None:
        plan = SeqScan(table, alias=alias)
        plan.est_rows = float(row_count)
        plan.est_cost = float(row_count)
    for expr in rest:
        child = plan
        plan = Filter(plan, expr, db.udf, params)
        if child.est_rows is not None:
            plan.est_rows = child.est_rows * _filter_selectivity(expr)
            plan.est_cost = (child.est_cost or 0.0) + child.est_rows
    return plan


def _index_equality_rows(db: Database, table: HeapTable, expr: Expr) -> float:
    """Estimated rows for ``col = const`` via ANALYZE's distinct counts."""
    for node in walk(expr):
        if isinstance(node, ColumnRef):
            cstats = db.stats.column(table.name, node.column)
            if cstats is not None and cstats.n_distinct > 0:
                return max(1.0, len(table) / cstats.n_distinct)
    return 1.0


def _filter_selectivity(expr: Expr) -> float:
    """Crude textbook selectivities for pushed-down filter conjuncts."""
    if isinstance(expr, FuncCall) and expr.name.lower() == "lexequal":
        return 0.05  # approximate-match predicates are selective
    if isinstance(expr, BinaryOp) and expr.op == "=":
        return 0.1
    return 0.33


def _accelerated_candidates(
    db: Database, table: HeapTable, expr: Expr, params: dict
):
    """``(candidate rowids, source label, estimate)`` for a
    ``lexequal(col, const, e, langs)`` conjunct.

    ``estimate`` is the accelerator's
    :class:`~repro.minidb.cost.StrategyEstimate` for the chosen method
    (None for accelerators predating the cost model).  Returns None when
    the conjunct has a different shape, no accelerator is registered, or
    the accelerator declines.
    """
    if not (
        isinstance(expr, FuncCall)
        and expr.name.lower() == "lexequal"
        and len(expr.args) >= 2
        and isinstance(expr.args[0], ColumnRef)
        and all(_is_constant(arg) for arg in expr.args[1:])
    ):
        return None
    ref = expr.args[0]
    if not table.schema.has_column(ref.column):
        return None
    accelerator = db.accelerator_for(table.name, ref.column)
    if accelerator is None:
        return None
    value = _eval_constant(expr.args[1], params)
    threshold = (
        _eval_constant(expr.args[2], params) if len(expr.args) > 2 else None
    )
    languages_csv = (
        _eval_constant(expr.args[3], params) if len(expr.args) > 3 else ""
    )
    languages = tuple(
        lang.strip().lower()
        for lang in str(languages_csv or "").split(",")
        if lang.strip()
    )
    rowids = accelerator.candidate_rowids(value, threshold, languages)
    if rowids is None:
        return None
    method = getattr(accelerator, "method", None)
    # An auto accelerator reports the concrete method it chose; the
    # label keeps the "via <method> accelerator" shape with the choice
    # mode appended, so plans stay attributable either way.
    chosen = getattr(accelerator, "last_method", None)
    if method == "auto" and chosen:
        source = f"{chosen} accelerator (auto)"
    elif method:
        source = f"{method} accelerator"
    else:
        source = "accelerator"
    return rowids, source, getattr(accelerator, "last_choice", None)


def _index_equality(
    db: Database, table: HeapTable, expr: Expr, params: dict
):
    """If ``expr`` is ``col = constant`` and an index exists, return it."""
    if not (isinstance(expr, BinaryOp) and expr.op == "="):
        return None
    ref, const = None, None
    if isinstance(expr.left, ColumnRef) and _is_constant(expr.right):
        ref, const = expr.left, expr.right
    elif isinstance(expr.right, ColumnRef) and _is_constant(expr.left):
        ref, const = expr.right, expr.left
    if ref is None or const is None:
        return None
    if not table.schema.has_column(ref.column):
        return None
    info = db.index_on(table.name, ref.column)
    if info is None:
        return None
    return info.tree, _eval_constant(const, params)


def _is_constant(expr: Expr) -> bool:
    return all(isinstance(n, (Literal, Param)) for n in walk(expr))


def _key_fn(plan: PhysicalOp, ref: ColumnRef, db: Database, params: dict):
    fn = compile_expr(ref, plan.layout, db.udf, params)
    return fn


def _lower_lexequal(expr: Expr) -> Expr:
    """Rewrite LexEqual nodes into calls of the registered ``lexequal`` UDF.

    The language restriction travels as a comma-separated literal in the
    fourth argument (empty string = wildcard), mirroring how the paper's
    UDF deployment passes everything through standard SQL types.
    """
    if isinstance(expr, LexEqual):
        langs = Literal(",".join(expr.languages))
        return FuncCall(
            "lexequal",
            (
                _lower_lexequal(expr.left),
                _lower_lexequal(expr.right),
                _lower_lexequal(expr.threshold),
                langs,
            ),
        )
    if isinstance(expr, BoolOp):
        return BoolOp(expr.op, tuple(_lower_lexequal(t) for t in expr.terms))
    if isinstance(expr, UnaryOp):
        return UnaryOp(expr.op, _lower_lexequal(expr.operand))
    if isinstance(expr, BinaryOp):
        return BinaryOp(
            expr.op, _lower_lexequal(expr.left), _lower_lexequal(expr.right)
        )
    if isinstance(expr, Between):
        return Between(
            _lower_lexequal(expr.value),
            _lower_lexequal(expr.low),
            _lower_lexequal(expr.high),
            expr.negated,
        )
    if isinstance(expr, InList):
        return InList(
            _lower_lexequal(expr.value),
            tuple(_lower_lexequal(i) for i in expr.items),
            expr.negated,
        )
    if isinstance(expr, IsNull):
        return IsNull(_lower_lexequal(expr.value), expr.negated)
    if isinstance(expr, FuncCall):
        return FuncCall(
            expr.name, tuple(_lower_lexequal(a) for a in expr.args)
        )
    if isinstance(expr, Aggregate):
        if expr.arg is None:
            return expr
        return Aggregate(expr.func, _lower_lexequal(expr.arg))
    return expr


# --------------------------------------------------------------- select


def _expand_items(
    stmt: SelectStmt, plan: PhysicalOp, db: Database
) -> list[tuple[Expr, str]]:
    """Expand ``*`` / ``alias.*`` and name every select output."""
    outputs: list[tuple[Expr, str]] = []
    used_names: set[str] = set()

    def unique(name: str) -> str:
        base = name
        i = 1
        while name.lower() in used_names:
            i += 1
            name = f"{base}_{i}"
        used_names.add(name.lower())
        return name

    for idx, item in enumerate(stmt.items):
        if item.expr is None:
            for qualified in plan.layout.names:
                alias, col = qualified.split(".", 1)
                if item.star_table and alias.lower() != item.star_table.lower():
                    continue
                outputs.append((ColumnRef(alias, col), unique(col)))
            if item.star_table and not any(
                name.split(".", 1)[0].lower() == item.star_table.lower()
                for name in plan.layout.names
            ):
                raise PlanningError(
                    f"unknown alias {item.star_table!r} in select list"
                )
            continue
        if item.alias:
            name = item.alias
        elif isinstance(item.expr, ColumnRef):
            name = item.expr.column
        else:
            name = f"col{idx + 1}"
        outputs.append((item.expr, unique(name)))
    return outputs


def _output_names(stmt: SelectStmt, db: Database) -> list[str]:
    """Output column names (mirrors :func:`_expand_items` naming)."""
    # Recompute cheaply: names depend only on the statement and schemas.
    names: list[str] = []
    used: set[str] = set()

    def unique(name: str) -> str:
        base = name
        i = 1
        while name.lower() in used:
            i += 1
            name = f"{base}_{i}"
        used.add(name.lower())
        return name

    for idx, item in enumerate(stmt.items):
        if item.expr is None:
            for table_ref in stmt.tables:
                if (
                    item.star_table
                    and table_ref.alias.lower() != item.star_table.lower()
                ):
                    continue
                schema = db.table(table_ref.name).schema
                for col in schema.column_names:
                    names.append(unique(col))
            continue
        if item.alias:
            names.append(unique(item.alias))
        elif isinstance(item.expr, ColumnRef):
            names.append(unique(item.expr.column))
        else:
            names.append(unique(f"col{idx + 1}"))
    return names


def _plan_grouping(
    db: Database,
    plan: PhysicalOp,
    stmt: SelectStmt,
    select_outputs: list[tuple[Expr, str]],
    having: Expr | None,
    order_exprs: list[Expr],
    params: dict,
):
    """Insert a GroupBy and rewrite downstream expressions onto its slots."""
    group_exprs = list(stmt.group_by)
    aggregates: list[Aggregate] = []

    def rewrite(expr: Expr) -> Expr:
        for i, g in enumerate(group_exprs):
            if expr == g:
                return ColumnRef("g", f"k{i}")
        if isinstance(expr, Aggregate):
            for j, existing in enumerate(aggregates):
                if existing == expr:
                    return ColumnRef("g", f"a{j}")
            aggregates.append(expr)
            return ColumnRef("g", f"a{len(aggregates) - 1}")
        if isinstance(expr, ColumnRef):
            raise PlanningError(
                f"column {expr.column!r} must appear in GROUP BY or "
                "inside an aggregate"
            )
        if isinstance(expr, BoolOp):
            return BoolOp(expr.op, tuple(rewrite(t) for t in expr.terms))
        if isinstance(expr, UnaryOp):
            return UnaryOp(expr.op, rewrite(expr.operand))
        if isinstance(expr, BinaryOp):
            return BinaryOp(expr.op, rewrite(expr.left), rewrite(expr.right))
        if isinstance(expr, Between):
            return Between(
                rewrite(expr.value),
                rewrite(expr.low),
                rewrite(expr.high),
                expr.negated,
            )
        if isinstance(expr, InList):
            return InList(
                rewrite(expr.value),
                tuple(rewrite(i) for i in expr.items),
                expr.negated,
            )
        if isinstance(expr, IsNull):
            return IsNull(rewrite(expr.value), expr.negated)
        if isinstance(expr, FuncCall):
            return FuncCall(expr.name, tuple(rewrite(a) for a in expr.args))
        return expr

    new_outputs = [(rewrite(expr), name) for expr, name in select_outputs]
    new_having = rewrite(having) if having is not None else None
    new_order = [rewrite(e) for e in order_exprs]
    grouped = GroupBy(plan, group_exprs, aggregates, db.udf, params)
    return grouped, new_outputs, new_having, new_order
