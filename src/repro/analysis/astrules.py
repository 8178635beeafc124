"""AST/drift analyzers: cross-layer name registries and lock discipline.

These rules keep names that live in *two places at once* from drifting
apart: the protocol op set vs the server dispatcher vs the client retry
whitelist vs the protocol docs; failpoint names at ``faults.fire`` call
sites vs the ``FAILPOINTS`` registry; ``repro.obs`` metric names vs the
naming convention; and the shared-state mutation sites of the threaded
classes vs their declared locks.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable
from dataclasses import dataclass

from repro.analysis.base import AnalysisContext, Rule
from repro.analysis.findings import Finding

# ------------------------------------------------------------ LEX-A001


class OpDrift(Rule):
    """Protocol ops, the dispatcher, client retries and docs agree.

    The degradation field names (``protocol.DEGRADED_FIELDS``) are
    pinned the same way: each must appear as a literal in the service
    that produces it and in the protocol docs.
    """

    rule_id = "LEX-A001"
    name = "op-drift"
    description = (
        "protocol.OPS, the server dispatcher, the client retry "
        "whitelist, protocol.DEGRADED_FIELDS producers and DESIGN.md "
        "§7 must name the same operations and fields"
    )

    #: Names in protocol.py whose string values form DEGRADED_FIELDS.
    DEGRADED_FIELD_CONSTANTS = ("F_DEGRADED", "F_FAILED_LANGUAGES")

    def __init__(
        self,
        protocol_file: str = "src/repro/server/protocol.py",
        server_file: str = "src/repro/server/app.py",
        client_file: str = "src/repro/server/client.py",
        service_file: str = "src/repro/server/service.py",
        design_file: str = "DESIGN.md",
        design_section: str = "## 7.",
    ):
        self.protocol_file = protocol_file
        self.server_file = server_file
        self.client_file = client_file
        self.service_file = service_file
        self.design_file = design_file
        self.design_section = design_section

    @staticmethod
    def _dispatched(
        ctx: AnalysisContext, file: str
    ) -> dict[str, int] | None:
        """Op literal -> line of its ``op == "..."`` comparison."""
        try:
            tree = ctx.tree(file)
        except (OSError, SyntaxError):
            return None
        for node in ast.walk(tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == "_dispatch"
            ):
                ops: dict[str, int] = {}
                for sub in ast.walk(node):
                    if (
                        isinstance(sub, ast.Compare)
                        and isinstance(sub.left, ast.Name)
                        and sub.left.id == "op"
                        and len(sub.ops) == 1
                        and isinstance(sub.ops[0], ast.Eq)
                        and isinstance(sub.comparators[0], ast.Constant)
                        and isinstance(sub.comparators[0].value, str)
                    ):
                        ops.setdefault(
                            sub.comparators[0].value, sub.lineno
                        )
                return ops
        return None

    def _design_section_text(
        self, ctx: AnalysisContext
    ) -> tuple[str, int] | None:
        try:
            text = ctx.source(self.design_file)
        except OSError:
            return None
        lines = text.splitlines()
        start = None
        for i, line in enumerate(lines):
            if start is None:
                if line.startswith(self.design_section):
                    start = i
            elif line.startswith("## "):
                return "\n".join(lines[start:i]), start + 1
        if start is None:
            return None
        return "\n".join(lines[start:]), start + 1

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        declared = ctx.literal(self.protocol_file, "OPS")
        if declared is None:
            yield self.finding(
                self.protocol_file, 1, "protocol.OPS not found"
            )
            return
        declared = tuple(declared)
        ops_line = ctx.assignment_line(self.protocol_file, "OPS")

        dispatched = self._dispatched(ctx, self.server_file)
        if dispatched is None:
            yield self.finding(
                self.server_file, 1, "_dispatch method not found"
            )
            return

        retryable = ctx.literal(self.client_file, "RETRYABLE_OPS")
        if retryable is None:
            yield self.finding(
                self.client_file, 1, "client RETRYABLE_OPS not found"
            )
            return
        retry_line = ctx.assignment_line(self.client_file, "RETRYABLE_OPS")

        for op in sorted(set(retryable) - set(dispatched)):
            yield self.finding(
                self.client_file,
                retry_line,
                f"RETRYABLE_OPS contains {op!r}, which the server "
                "dispatcher never handles",
            )
        for op in sorted(set(dispatched) - set(declared)):
            yield self.finding(
                self.server_file,
                dispatched[op],
                f"server dispatches op {op!r} that is not declared in "
                "protocol.OPS",
            )
        for op in sorted(set(declared) - set(dispatched)):
            yield self.finding(
                self.protocol_file,
                ops_line,
                f"protocol.OPS declares {op!r}, which the server "
                "dispatcher never handles",
            )

        yield from self._check_degraded_fields(ctx)

        section = self._design_section_text(ctx)
        if section is None:
            yield self.finding(
                self.design_file,
                1,
                f"section {self.design_section!r} not found — protocol "
                "ops are undocumented",
            )
            return
        text, heading_line = section
        for op in declared:
            if f"`{op}`" not in text:
                yield self.finding(
                    self.design_file,
                    heading_line,
                    f"op {op!r} is not documented in the protocol "
                    "section",
                )

    def _check_degraded_fields(
        self, ctx: AnalysisContext
    ) -> Iterable[Finding]:
        """Degradation field names agree across protocol, producers, docs.

        Each ``F_*`` constant's value must be written as a quoted
        literal by the service (which marks ``degraded`` and
        ``failed_languages``) and documented in DESIGN.md §7 — renaming
        one side silently breaks clients keying on the old field.
        """
        try:
            source = ctx.source(self.service_file)
        except OSError:
            yield self.finding(
                self.service_file, 1, "degradation producer file missing"
            )
            source = ""
        section = self._design_section_text(ctx)
        for constant in self.DEGRADED_FIELD_CONSTANTS:
            value = ctx.literal(self.protocol_file, constant)
            line = ctx.assignment_line(self.protocol_file, constant)
            if not isinstance(value, str):
                yield self.finding(
                    self.protocol_file,
                    1,
                    f"protocol.{constant} not found (degradation field "
                    "registry is stale)",
                )
                continue
            quoted = f'"{value}"'
            if quoted not in source:
                yield self.finding(
                    self.protocol_file,
                    line,
                    f"degradation field {value!r} ({constant}) is never "
                    "produced by the service",
                )
            if section is not None and f"`{value}`" not in section[0]:
                yield self.finding(
                    self.design_file,
                    section[1],
                    f"degradation field {value!r} is not documented in "
                    "the protocol section",
                )


# ------------------------------------------------------------ LEX-A002


class FailpointDrift(Rule):
    """``faults.fire`` call sites and ``FAILPOINTS`` agree both ways."""

    rule_id = "LEX-A002"
    name = "failpoint-drift"
    description = (
        "every failpoint name fired in the library is registered in "
        "faults.FAILPOINTS, and every registered name has a fire site"
    )

    def __init__(
        self,
        faults_file: str = "src/repro/faults.py",
        subdir: str = "src/repro",
    ):
        self.faults_file = faults_file
        self.subdir = subdir

    def _fire_sites(
        self, ctx: AnalysisContext
    ) -> list[tuple[str, str, int]]:
        sites: list[tuple[str, str, int]] = []
        faults_rel = ctx.rel(self.faults_file)
        for file in ctx.python_files(self.subdir):
            if file == faults_rel:
                continue  # the registry's own fire() implementation
            try:
                tree = ctx.tree(file)
            except (OSError, SyntaxError):
                continue
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "fire"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "faults"
                    and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                ):
                    sites.append((node.args[0].value, file, node.lineno))
        return sites

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        registered = ctx.literal(self.faults_file, "FAILPOINTS")
        if registered is None:
            yield self.finding(
                self.faults_file, 1, "faults.FAILPOINTS not found"
            )
            return
        registered = frozenset(registered)
        sites = self._fire_sites(ctx)
        used = set()
        for name, file, line in sites:
            used.add(name)
            if name not in registered:
                yield self.finding(
                    file,
                    line,
                    f"failpoint {name!r} is fired here but not "
                    "registered in faults.FAILPOINTS",
                )
        anchor = ctx.assignment_line(self.faults_file, "FAILPOINTS")
        for name in sorted(registered - used):
            yield self.finding(
                self.faults_file,
                anchor,
                f"FAILPOINTS registers {name!r}, but no "
                "faults.fire(...) site uses it",
            )


# ------------------------------------------------------------ LEX-A003

#: Leading metric-name segments in use; a new subsystem adds its domain
#: here (and to DESIGN.md §6) before shipping counters.
METRIC_DOMAINS = frozenset(
    {
        "accelerator",
        "btree",
        "client",
        "faults",
        "filters",
        "matching",
        "minidb",
        "parallel",
        "server",
        "storage",
        "strategy",
        "ttp",
        "udf",
    }
)

#: ``repro.obs`` calls whose first argument is a metric name.
_OBS_CALLS = frozenset(
    {"incr", "observe", "counter", "timer", "histogram", "timed"}
)

_SEGMENT_OK = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_*")


def _normalize_metric(name: str) -> str:
    """Collapse cosmetic variation so near-duplicates collide.

    Per segment: drop underscores and one trailing plural ``s``.
    ``server.request`` and ``server.requests`` normalize identically —
    two counters that differ only that way are almost certainly one
    counter drifting apart.
    """
    out = []
    for segment in name.split("."):
        if "*" in segment:
            out.append(segment)
            continue
        segment = segment.replace("_", "")
        if segment.endswith("s"):
            segment = segment[:-1]
        out.append(segment)
    return ".".join(out)


class MetricNames(Rule):
    """Metric names follow the convention and do not nearly collide."""

    rule_id = "LEX-A003"
    name = "metric-names"
    description = (
        "obs metric names are dotted lowercase segments under a known "
        "domain, with no near-duplicate spellings"
    )

    def __init__(
        self,
        subdir: str = "src/repro",
        domains: frozenset[str] = METRIC_DOMAINS,
    ):
        self.subdir = subdir
        self.domains = domains

    def _metric_calls(
        self, ctx: AnalysisContext
    ) -> list[tuple[str, str, int]]:
        calls: list[tuple[str, str, int]] = []
        for file in ctx.python_files(self.subdir):
            try:
                tree = ctx.tree(file)
            except (OSError, SyntaxError):
                continue
            for node in ast.walk(tree):
                if not (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _OBS_CALLS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "obs"
                    and node.args
                ):
                    continue
                arg = node.args[0]
                if isinstance(arg, ast.Constant) and isinstance(
                    arg.value, str
                ):
                    calls.append((arg.value, file, node.lineno))
                elif isinstance(arg, ast.JoinedStr):
                    parts = []
                    for piece in arg.values:
                        if isinstance(piece, ast.Constant):
                            parts.append(str(piece.value))
                        else:
                            parts.append("*")  # runtime-formatted hole
                    calls.append(("".join(parts), file, node.lineno))
        return calls

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        calls = self._metric_calls(ctx)
        by_norm: dict[str, dict[str, tuple[str, int]]] = {}
        for name, file, line in calls:
            segments = name.split(".")
            if any(not s for s in segments):
                yield self.finding(
                    file, line, f"metric {name!r} has an empty segment"
                )
                continue
            bad = [
                s
                for s in segments
                if not set(s) <= _SEGMENT_OK
            ]
            if bad:
                yield self.finding(
                    file,
                    line,
                    f"metric {name!r}: segment(s) "
                    f"{', '.join(repr(s) for s in bad)} not lowercase "
                    "[a-z0-9_]",
                )
                continue
            domain = segments[0]
            if "*" not in domain and domain not in self.domains:
                yield self.finding(
                    file,
                    line,
                    f"metric {name!r}: unknown domain {domain!r} "
                    f"(known: {', '.join(sorted(self.domains))})",
                )
                continue
            by_norm.setdefault(_normalize_metric(name), {}).setdefault(
                name, (file, line)
            )
        for variants in by_norm.values():
            if len(variants) < 2:
                continue
            names = sorted(variants)
            canonical = names[0]
            for other in names[1:]:
                file, line = variants[other]
                yield self.finding(
                    file,
                    line,
                    f"metric {other!r} nearly duplicates {canonical!r} "
                    f"(declared at "
                    f"{variants[canonical][0]}:{variants[canonical][1]})",
                )


# ------------------------------------------------------------ LEX-A004


@dataclass(frozen=True)
class LockSpec:
    """One threaded class: its lock attribute and the state it guards."""

    file: str
    cls: str
    lock: str
    guarded: tuple[str, ...]


#: The shared-state registry of the serving stack.  ``WorkerPool`` is
#: deliberately absent: its coordination is loop-confined by design.
DEFAULT_LOCKS: tuple[LockSpec, ...] = (
    LockSpec(
        "src/repro/server/cache.py",
        "StatementCache",
        "_lock",
        ("_entries", "_hits", "_misses", "_evictions"),
    ),
    LockSpec(
        "src/repro/ttp/registry.py",
        "TTPRegistry",
        "_lock",
        ("_converters", "_cache"),
    ),
    LockSpec(
        "src/repro/minidb/catalog.py",
        "Database",
        "_write_lock",
        (
            "_tables",
            "_indexes",
            "_indexes_by_table",
            "_udfs",
            "_observers",
            "_accelerators",
        ),
    ),
    LockSpec(
        "src/repro/minidb/table.py",
        "HeapTable",
        "_write_lock",
        ("_rows", "_live_count"),
    ),
    LockSpec(
        "src/repro/faults.py",
        "FaultRegistry",
        "_lock",
        ("_points",),
    ),
)

#: Method names that mutate their receiver in place.
MUTATORS = frozenset(
    {
        "add",
        "append",
        "clear",
        "discard",
        "extend",
        "insert",
        "move_to_end",
        "pop",
        "popitem",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)


def _self_attr(node: ast.AST) -> str | None:
    """The ``self.<attr>`` an expression ultimately reaches, if any.

    Unwraps subscripts, calls and attribute chains, so mutations like
    ``self._observers.setdefault(k, []).append(x)`` and
    ``self._rows[rowid] = row`` resolve to the guarded attribute.
    """
    while True:
        if isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Attribute):
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                return node.attr
            node = node.value
        else:
            return None


class LockDiscipline(Rule):
    """Shared state is mutated only under its declared lock."""

    rule_id = "LEX-A004"
    name = "lock-discipline"
    description = (
        "threaded classes mutate their guarded attributes only inside "
        "`with self.<lock>:` blocks"
    )

    def __init__(self, locks: tuple[LockSpec, ...] = DEFAULT_LOCKS):
        self.locks = locks

    def _check_class(
        self, spec: LockSpec, class_node: ast.ClassDef
    ) -> Iterable[Finding]:
        guarded = frozenset(spec.guarded)

        def mutations(node: ast.AST, locked: bool):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                holds = locked or any(
                    _self_attr(item.context_expr) == spec.lock
                    for item in node.items
                )
                for child in node.body:
                    yield from mutations(child, holds)
                return
            targets: list[ast.AST] = []
            if isinstance(node, ast.Assign):
                targets = list(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif isinstance(node, ast.Delete):
                targets = list(node.targets)
            for target in targets:
                attr = _self_attr(target)
                if attr in guarded and not locked:
                    yield (attr, node.lineno, "assigned")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
            ):
                attr = _self_attr(node.func.value)
                if attr in guarded and not locked:
                    yield (
                        attr,
                        node.lineno,
                        f"mutated via .{node.func.attr}()",
                    )
            for child in ast.iter_child_nodes(node):
                yield from mutations(child, locked)

        for item in class_node.body:
            if not isinstance(
                item, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if item.name == "__init__":
                continue  # construction happens-before sharing
            for attr, line, how in mutations(item, False):
                yield self.finding(
                    spec.file,
                    line,
                    f"{spec.cls}.{item.name}: self.{attr} {how} "
                    f"outside `with self.{spec.lock}:`",
                )

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for spec in self.locks:
            try:
                tree = ctx.tree(spec.file)
            except (OSError, SyntaxError):
                yield self.finding(
                    spec.file, 1, f"cannot parse {spec.file}"
                )
                continue
            class_node = next(
                (
                    n
                    for n in tree.body
                    if isinstance(n, ast.ClassDef) and n.name == spec.cls
                ),
                None,
            )
            if class_node is None:
                yield self.finding(
                    spec.file,
                    1,
                    f"class {spec.cls} not found (lock registry is "
                    "stale)",
                )
                continue
            yield from self._check_class(spec, class_node)


# ------------------------------------------------------------ LEX-A005


class ManagedParallelism(Rule):
    """Process-level parallelism lives only inside ``repro.parallel``.

    The managed executor owns every hard part — shared-memory segment
    lifecycle, worker crash teardown, deadline cancellation, SIGTERM
    cleanup.  A stray ``multiprocessing.Pool`` elsewhere would re-grow
    the exact leak and orphan bugs the executor exists to prevent, so
    any direct import of ``multiprocessing``, call to ``os.fork``, or
    use of ``ProcessPoolExecutor`` outside the package is a finding.
    """

    rule_id = "LEX-A005"
    name = "managed-parallelism"
    description = (
        "multiprocessing / os.fork / ProcessPoolExecutor are used only "
        "inside repro.parallel; other code goes through the managed "
        "executor"
    )

    def __init__(
        self,
        subdir: str = "src/repro",
        allowed: tuple[str, ...] = ("src/repro/parallel",),
    ):
        self.subdir = subdir
        self.allowed = allowed

    def _allowed(self, file: str) -> bool:
        return any(
            file == prefix or file.startswith(prefix + "/")
            for prefix in self.allowed
        )

    def _violations(self, tree: ast.Module):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "multiprocessing":
                        yield (
                            node.lineno,
                            f"direct import of {alias.name!r}",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] == "multiprocessing":
                    names = ", ".join(a.name for a in node.names)
                    yield (
                        node.lineno,
                        f"direct import from {module!r} ({names})",
                    )
                elif any(
                    a.name == "ProcessPoolExecutor" for a in node.names
                ):
                    yield (
                        node.lineno,
                        "direct import of ProcessPoolExecutor",
                    )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr == "ProcessPoolExecutor"
            ):
                yield (node.lineno, "use of ProcessPoolExecutor")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "fork"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "os"
            ):
                yield (node.lineno, "direct os.fork() call")

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for file in ctx.python_files(self.subdir):
            if self._allowed(file):
                continue
            try:
                tree = ctx.tree(file)
            except (OSError, SyntaxError):
                continue
            for line, what in self._violations(tree):
                yield self.finding(
                    file,
                    line,
                    f"{what} outside repro.parallel — spawn workers "
                    "through the managed ParallelMatchExecutor instead",
                )


# ------------------------------------------------------------ LEX-A006


class StorageBoundary(Rule):
    """Durable-format knowledge lives only inside ``repro.storage``.

    The storage subsystem owns the on-disk contract (DESIGN.md §10):
    artifact file names, WAL record framing, snapshot versioning, crash
    recovery.  Code elsewhere that hard-codes a catalog/index/WAL file
    name — or imports the path/framing internals — would let a second
    writer corrupt what recovery assumes only the WAL protocol touches,
    so both are findings (mirroring LEX-A005's managed-parallelism
    boundary).  Everything else goes through the ``StorageManager``
    interface (``repro.storage.manager``) or ``open_database``.
    """

    rule_id = "LEX-A006"
    name = "storage-boundary"
    description = (
        "catalog/index/WAL artifact names and storage internals "
        "(layout, wal) appear only inside repro.storage; other code "
        "uses the StorageManager interface"
    )

    #: Internal submodules whose import outside the package is a
    #: finding; ``manager`` (the interface) and ``snapshots`` (pure
    #: in-memory [de]serialization, used by accelerator restore) are
    #: deliberately not listed.
    INTERNAL_MODULES = ("layout", "wal")

    def __init__(
        self,
        subdir: str = "src/repro",
        allowed: tuple[str, ...] = ("src/repro/storage",),
    ):
        self.subdir = subdir
        self.allowed = allowed

    def _allowed(self, file: str) -> bool:
        return any(
            file == prefix or file.startswith(prefix + "/")
            for prefix in self.allowed
        )

    @staticmethod
    def _reserved() -> tuple[frozenset[str], tuple[str, ...]]:
        from repro.storage import layout

        return (
            frozenset(
                {
                    layout.MANIFEST_FILENAME,
                    layout.WAL_FILENAME,
                    layout.CHECKPOINT_FILENAME,
                    layout.STATS_FILENAME,
                }
            ),
            (layout.INDEX_SUFFIX,),
        )

    @staticmethod
    def _docstrings(tree: ast.Module) -> set[int]:
        """``id()`` of every docstring Constant (excluded from scan)."""
        out: set[int] = set()
        for node in ast.walk(tree):
            if isinstance(
                node,
                (
                    ast.Module,
                    ast.ClassDef,
                    ast.FunctionDef,
                    ast.AsyncFunctionDef,
                ),
            ):
                body = node.body
                if (
                    body
                    and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)
                ):
                    out.add(id(body[0].value))
        return out

    def _violations(self, tree: ast.Module):
        names, suffixes = self._reserved()
        docstrings = self._docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                module = node.module or ""
                parts = module.split(".")
                if (
                    parts[:2] == ["repro", "storage"]
                    and len(parts) > 2
                    and parts[2] in self.INTERNAL_MODULES
                ):
                    yield (
                        node.lineno,
                        f"import of storage internal {module!r}",
                    )
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    parts = alias.name.split(".")
                    if (
                        parts[:2] == ["repro", "storage"]
                        and len(parts) > 2
                        and parts[2] in self.INTERNAL_MODULES
                    ):
                        yield (
                            node.lineno,
                            f"import of storage internal {alias.name!r}",
                        )
            elif (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and id(node) not in docstrings
            ):
                # Basename comparison: "data/wal.log" is as much a
                # boundary breach as the bare file name.
                base = node.value.rsplit("/", 1)[-1]
                if base in names or any(
                    base.endswith(suffix) and base != suffix
                    for suffix in suffixes
                ):
                    yield (
                        node.lineno,
                        f"durable artifact name {node.value!r}",
                    )

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for file in ctx.python_files(self.subdir):
            if self._allowed(file):
                continue
            try:
                tree = ctx.tree(file)
            except (OSError, SyntaxError):
                continue
            for line, what in self._violations(tree):
                yield self.finding(
                    file,
                    line,
                    f"{what} outside repro.storage — go through the "
                    "StorageManager interface so durability invariants "
                    "stay in one subsystem",
                )
