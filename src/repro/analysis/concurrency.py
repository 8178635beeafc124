"""LEX-C — the concurrency and resource-safety rule family.

Five whole-program AST rules over the concurrent half of the system
(DESIGN.md §8), all judged against the declarative sanctioned spec in
:mod:`repro.analysis.lockspec` — a violation is fixed or sanctioned in
the spec with a reason, never baselined:

- **LEX-C001** ``lock-order``: every (held, acquired) lock pair in the
  interprocedural lock graph must follow the sanctioned rank order, and
  every discovered lock must be ranked.
- **LEX-C002** ``async-blocking``: no blocking calls (``time.sleep``,
  ``os.fsync``, synchronous sockets/files, untimed ``.acquire()``)
  inside ``async def`` bodies on the server's event loop.
- **LEX-C003** ``fork-signal-safety``: no lock acquisition or thread
  creation reachable from ``os.register_at_fork`` hooks or
  ``signal.signal`` handlers outside sanctioned sites.
- **LEX-C004** ``resource-lifecycle``: files, sockets, and shared-memory
  segments are opened under ``with``, a ``try/finally``, or stored on
  ``self`` for object-lifecycle cleanup.
- **LEX-C005** ``deadline-polls``: ``while`` loops on the DP/match hot
  paths poll the cooperative deadline.

Every rule takes its file list (and spec) as constructor arguments so
tests can point it at fixture trees with seeded violations.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.base import AnalysisContext, Rule
from repro.analysis.findings import Finding
from repro.analysis.lockgraph import LockGraph
from repro.analysis.lockspec import (
    ASYNC_SCOPES,
    DEFAULT_SPEC,
    HOT_PATH_FILES,
    SANCTIONED_ASYNC_SITES,
    SANCTIONED_FORK_SITES,
    SANCTIONED_SIGNAL_SITES,
    SANCTIONED_UNPOLLED_LOOPS,
    LockOrderSpec,
)


def _dotted(func: ast.AST) -> str:
    """Best-effort dotted name of a call target (``os.fsync`` etc.)."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def _functions(
    tree: ast.Module,
) -> Iterable[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """(qualname, node) for every top-level function and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    yield f"{node.name}.{item.name}", item


class LockOrder(Rule):
    """LEX-C001: the interprocedural lock graph follows sanctioned order."""

    rule_id = "LEX-C001"
    name = "lock-order"
    description = (
        "lock acquisitions (propagated through call edges) must follow "
        "the sanctioned rank order in repro.analysis.lockspec, and "
        "every lock must be ranked"
    )

    def __init__(
        self,
        files: list[str] | None = None,
        spec: LockOrderSpec = DEFAULT_SPEC,
    ):
        self.files = files
        self.spec = spec

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        graph = LockGraph(ctx, files=self.files, spec=self.spec)
        spec = self.spec
        # Every discovered lock must have a rank: an unranked lock has
        # no sanctioned position, so no nesting involving it can be
        # judged.
        reported_unranked: set[str] = set()
        for creation in graph.creations:
            if spec.rank(creation.lock) is not None:
                continue
            if creation.lock in reported_unranked:
                continue
            reported_unranked.add(creation.lock)
            owner = (
                f"{creation.cls}.{creation.attr}"
                if creation.cls
                else creation.attr
            )
            yield self.finding(
                creation.file,
                creation.line,
                f"lock '{creation.lock}' ({owner}) has no rank in the "
                "sanctioned-order spec (repro/analysis/lockspec.py)",
            )
        # Factory names must agree with the spec's resolution tables,
        # or the static and runtime views of the same lock diverge.
        for creation in graph.creations:
            if creation.factory_name is None:
                continue
            expected = None
            if creation.cls is not None:
                expected = spec.class_attrs.get(
                    (creation.cls, creation.attr)
                )
            else:
                expected = spec.module_vars.get(
                    (creation.file, creation.attr)
                )
            if expected is not None and expected != creation.factory_name:
                yield self.finding(
                    creation.file,
                    creation.line,
                    f"lock factory name '{creation.factory_name}' "
                    f"disagrees with the spec name '{expected}' for "
                    f"{creation.cls or creation.file}.{creation.attr}",
                )
        # The graph itself: every nesting must be sanctioned.
        for edge in graph.edges():
            if spec.allows(edge.outer, edge.inner):
                continue
            outer_rank = spec.rank(edge.outer)
            inner_rank = spec.rank(edge.inner)
            if outer_rank is None or inner_rank is None:
                unranked = (
                    edge.outer if outer_rank is None else edge.inner
                )
                yield self.finding(
                    edge.file,
                    edge.line,
                    f"unranked lock '{unranked}' in nesting "
                    f"'{edge.outer}' -> '{edge.inner}' ({edge.path})",
                )
            else:
                yield self.finding(
                    edge.file,
                    edge.line,
                    f"lock order inversion: '{edge.inner}' "
                    f"(rank {inner_rank}) acquired while holding "
                    f"'{edge.outer}' (rank {outer_rank}) via "
                    f"{edge.path}; the sanctioned order acquires "
                    "lower ranks first",
                )
        # Lock-looking references the resolver could not bind are
        # blind spots, not passes.
        for info in graph.functions.values():
            for line, text in info.unresolved:
                yield self.finding(
                    info.file,
                    line,
                    f"unresolvable lock reference '{text}' in "
                    f"{info.qualname}: name it in the spec's "
                    "resolution tables",
                    severity="warning",
                )


#: Call targets that block the event loop outright.
BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.fsync",
        "os.fdatasync",
        "socket.socket",
        "socket.create_connection",
        "subprocess.run",
        "subprocess.Popen",
        "subprocess.check_call",
        "subprocess.check_output",
    }
)


class AsyncBlocking(Rule):
    """LEX-C002: no blocking calls inside event-loop coroutine bodies."""

    rule_id = "LEX-C002"
    name = "async-blocking"
    description = (
        "async def bodies in repro.server must not call "
        "time.sleep, os.fsync, blocking socket/file I/O, or untimed "
        ".acquire()"
    )

    def __init__(
        self,
        files: list[str] | None = None,
        scopes: tuple[str, ...] = ASYNC_SCOPES,
        sanctioned: dict[tuple[str, str], str] | None = None,
    ):
        self.files = files
        self.scopes = scopes
        self.sanctioned = (
            sanctioned
            if sanctioned is not None
            else dict(SANCTIONED_ASYNC_SITES)
        )

    def _scoped(self, ctx: AnalysisContext) -> list[str]:
        if self.files is not None:
            return self.files
        return [
            f
            for f in ctx.python_files()
            if any(f.startswith(scope) for scope in self.scopes)
        ]

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for file in self._scoped(ctx):
            try:
                tree = ctx.tree(file)
            except (OSError, SyntaxError):
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.AsyncFunctionDef):
                    yield from self._check_async(file, node)

    def _check_async(
        self, file: str, func: ast.AsyncFunctionDef
    ) -> Iterable[Finding]:
        if (file, func.name) in self.sanctioned:
            return
        for node in self._body_walk(func):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if dotted in BLOCKING_CALLS or dotted == "open":
                    yield self.finding(
                        file,
                        node.lineno,
                        f"blocking call {dotted}() inside async def "
                        f"{func.name}: use the worker pool / "
                        "run_in_executor",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "acquire"
                    and not node.args
                    and not any(
                        kw.arg == "timeout" for kw in node.keywords
                    )
                ):
                    yield self.finding(
                        file,
                        node.lineno,
                        f"untimed .acquire() inside async def "
                        f"{func.name} can block the event loop",
                    )
            elif isinstance(node, ast.With):
                for item in node.items:
                    text = ""
                    try:
                        text = ast.unparse(item.context_expr)
                    except Exception:  # pragma: no cover - defensive
                        pass
                    if "lock" in text.lower() and not isinstance(
                        item.context_expr, ast.Call
                    ):
                        yield self.finding(
                            file,
                            item.context_expr.lineno,
                            f"synchronous 'with {text}' inside async "
                            f"def {func.name} blocks the event loop "
                            "while contended",
                        )

    def _body_walk(self, func: ast.AsyncFunctionDef) -> Iterable[ast.AST]:
        """Walk the coroutine body, skipping nested function defs.

        A nested synchronous ``def`` is typically shipped to an
        executor; nested async defs are visited by the outer file walk
        on their own.
        """
        stack: list[ast.AST] = [
            node
            for node in func.body
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            )
        ]
        while stack:
            node = stack.pop()
            yield node
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                stack.append(child)


class ForkSignalSafety(Rule):
    """LEX-C003: fork hooks and signal handlers stay lock- and thread-free."""

    rule_id = "LEX-C003"
    name = "fork-signal-safety"
    description = (
        "no lock acquisition or thread creation reachable from "
        "os.register_at_fork hooks or signal.signal handlers outside "
        "sanctioned sites"
    )

    def __init__(
        self,
        files: list[str] | None = None,
        spec: LockOrderSpec = DEFAULT_SPEC,
        sanctioned_fork: dict[tuple[str, str], str] | None = None,
        sanctioned_signal: dict[tuple[str, str], str] | None = None,
    ):
        self.files = files
        self.spec = spec
        self.sanctioned_fork = (
            sanctioned_fork
            if sanctioned_fork is not None
            else dict(SANCTIONED_FORK_SITES)
        )
        self.sanctioned_signal = (
            sanctioned_signal
            if sanctioned_signal is not None
            else dict(SANCTIONED_SIGNAL_SITES)
        )

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        graph = LockGraph(ctx, files=self.files, spec=self.spec)
        for reg in graph.registrations:
            sanctioned = (
                self.sanctioned_fork
                if reg.kind == "fork"
                else self.sanctioned_signal
            )
            hook = (
                f"{reg.kind} hook '{reg.handler}' "
                f"(registered in {reg.file})"
            )
            roots = graph.resolve_handler(reg)
            if not roots:
                yield self.finding(
                    reg.file,
                    reg.line,
                    f"unresolvable handler '{reg.handler}' for "
                    f"{reg.kind} registration",
                    severity="warning",
                )
                continue
            for key in sorted(graph.reachable(roots)):
                info = graph.functions[key]
                if (info.file, info.qualname) in sanctioned:
                    continue
                for acq in info.acquires:
                    yield self.finding(
                        info.file,
                        acq.line,
                        f"lock '{acq.lock}' acquired in "
                        f"{info.qualname}, reachable from {hook}: "
                        "a fork child or signal frame may find it "
                        "held forever",
                    )
                for line in info.thread_lines:
                    yield self.finding(
                        info.file,
                        line,
                        f"thread started in {info.qualname}, "
                        f"reachable from {hook}",
                    )


#: Calls that allocate an OS resource needing deterministic cleanup.
RESOURCE_CALLS = frozenset(
    {
        "open",
        "io.open",
        "os.fdopen",
        "gzip.open",
        "socket.socket",
        "socket.create_connection",
        "SharedMemory",
        "shared_memory.SharedMemory",
    }
)

_CLEANUP_ATTRS = frozenset(
    {"close", "unlink", "shutdown", "terminate", "release"}
)


class ResourceLifecycle(Rule):
    """LEX-C004: OS resources are opened under with/try-finally/self."""

    rule_id = "LEX-C004"
    name = "resource-lifecycle"
    description = (
        "files, sockets, and shared-memory segments must be opened "
        "under with, a try/finally, returned, or stored on self for "
        "object-lifecycle cleanup"
    )

    def __init__(self, files: list[str] | None = None):
        self.files = files

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        files = (
            self.files if self.files is not None else ctx.python_files()
        )
        for file in files:
            try:
                tree = ctx.tree(file)
            except (OSError, SyntaxError):
                continue
            for qualname, func in _functions(tree):
                yield from self._check_function(file, qualname, func)

    def _check_function(
        self,
        file: str,
        qualname: str,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> Iterable[Finding]:
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(func):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            if dotted not in RESOURCE_CALLS:
                continue
            verdict = self._classify(node, func, parents)
            if verdict is not None:
                yield self.finding(
                    file,
                    node.lineno,
                    f"{dotted}() in {qualname} {verdict}",
                )

    def _classify(
        self,
        call: ast.Call,
        func: ast.AST,
        parents: dict[ast.AST, ast.AST],
    ) -> str | None:
        """None when the resource is safely scoped, else the complaint."""
        node: ast.AST = call
        while node in parents:
            parent = parents[node]
            if isinstance(parent, (ast.With, ast.AsyncWith)):
                if any(
                    item.context_expr is node
                    or self._contains(item.context_expr, call)
                    for item in parent.items
                ):
                    return None
            if isinstance(parent, ast.Return):
                return None  # ownership transferred to the caller
            if isinstance(parent, ast.Assign):
                return self._check_assign(parent, func)
            node = parent
        return (
            "opens a resource with no with/try-finally and no owner "
            "to close it"
        )

    @staticmethod
    def _contains(root: ast.AST, target: ast.AST) -> bool:
        return any(node is target for node in ast.walk(root))

    def _check_assign(
        self, assign: ast.Assign, func: ast.AST
    ) -> str | None:
        names: list[str] = []
        for target in assign.targets:
            elements = (
                target.elts if isinstance(target, ast.Tuple) else [target]
            )
            for element in elements:
                if isinstance(element, ast.Attribute) and isinstance(
                    element.value, ast.Name
                ) and element.value.id == "self":
                    return None  # object owns the lifecycle
                if isinstance(element, ast.Name):
                    names.append(element.id)
        if not names:
            return None
        for name in names:
            if self._name_managed(name, func):
                return None
        return (
            f"assigns a resource to '{names[0]}' without a "
            "with/try-finally cleanup path"
        )

    @staticmethod
    def _name_managed(name: str, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    for sub in ast.walk(item.context_expr):
                        if isinstance(sub, ast.Name) and sub.id == name:
                            return True
            elif isinstance(node, ast.Try) and node.finalbody:
                for stmt in node.finalbody:
                    for sub in ast.walk(stmt):
                        if (
                            isinstance(sub, ast.Attribute)
                            and sub.attr in _CLEANUP_ATTRS
                            and isinstance(sub.value, ast.Name)
                            and sub.value.id == name
                        ):
                            return True
                        if (
                            isinstance(sub, ast.Call)
                            and any(
                                isinstance(arg, ast.Name)
                                and arg.id == name
                                for arg in sub.args
                            )
                        ):
                            return True
            elif isinstance(node, ast.Return) and node.value is not None:
                for sub in ast.walk(node.value):
                    if isinstance(sub, ast.Name) and sub.id == name:
                        return True
        return False


class DeadlinePolls(Rule):
    """LEX-C005: hot-path while loops poll the cooperative deadline."""

    rule_id = "LEX-C005"
    name = "deadline-polls"
    description = (
        "while loops on the DP/match hot paths must poll repro.deadline "
        "(or be sanctioned as bounded in the spec)"
    )

    def __init__(
        self,
        files: tuple[str, ...] | list[str] = HOT_PATH_FILES,
        sanctioned: dict[tuple[str, str], str] | None = None,
    ):
        self.files = list(files)
        self.sanctioned = (
            sanctioned
            if sanctioned is not None
            else dict(SANCTIONED_UNPOLLED_LOOPS)
        )

    def run(self, ctx: AnalysisContext) -> Iterable[Finding]:
        for file in self.files:
            try:
                tree = ctx.tree(file)
            except (OSError, SyntaxError):
                continue
            polling_funcs = self._polling_functions(tree)
            for qualname, func in _functions(tree):
                if (file, qualname) in self.sanctioned:
                    continue
                snapshots = self._deadline_snapshots(func)
                func_polls = bool(snapshots) or self._polls(
                    func, snapshots, polling_funcs
                )
                for node in ast.walk(func):
                    if not isinstance(node, ast.While):
                        continue
                    if self._polls(node, snapshots, polling_funcs):
                        continue
                    # A bounded scan inside a function that polls at
                    # its own cadence (per DP row) is fine; a
                    # ``while True`` must poll in-body, and a function
                    # that never polls gets no credit at all.
                    unbounded = (
                        isinstance(node.test, ast.Constant)
                        and node.test.value is True
                    )
                    if func_polls and not unbounded:
                        continue
                    yield self.finding(
                        file,
                        node.lineno,
                        f"while loop in {qualname} never polls the "
                        "cooperative deadline; long inputs cannot "
                        "be cancelled",
                    )

    @staticmethod
    def _deadline_snapshots(func: ast.AST) -> set[str]:
        """Names bound from ``deadline.*`` calls (the snapshot idiom)."""
        out: set[str] = set()
        for node in ast.walk(func):
            if (
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and "deadline" in _dotted(node.value.func).lower()
            ):
                for target in node.targets:
                    elements = (
                        target.elts
                        if isinstance(target, ast.Tuple)
                        else [target]
                    )
                    for element in elements:
                        if isinstance(element, ast.Name):
                            out.add(element.id)
        return out

    @staticmethod
    def _polling_functions(tree: ast.Module) -> set[str]:
        """Same-file functions that themselves touch the deadline."""
        out: set[str] = set()
        for qualname, func in _functions(tree):
            for node in ast.walk(func):
                if (
                    isinstance(node, ast.Call)
                    and "deadline" in _dotted(node.func).lower()
                ):
                    out.add(qualname.rsplit(".", 1)[-1])
                    break
        return out

    @staticmethod
    def _polls(
        loop: ast.While, snapshots: set[str], polling_funcs: set[str]
    ) -> bool:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call):
                dotted = _dotted(node.func)
                if "deadline" in dotted.lower():
                    return True
                if dotted.rsplit(".", 1)[-1] in polling_funcs:
                    return True
            elif isinstance(node, ast.Name) and node.id in snapshots:
                return True
            elif (
                isinstance(node, ast.Raise)
                and node.exc is not None
                and "deadline" in ast.dump(node.exc).lower()
            ):
                return True
        return False
