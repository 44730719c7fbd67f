"""Built-in lint rules RPL001-RPL006.

Each rule codifies one invariant the fusion stack's process-parallel
debugging already paid for once (the ``rationale`` line names the PR).
Rules are AST-based and deliberately heuristic: they pattern-match the
idioms this repo actually uses, and every rule has a suppression escape
(``# repro: allow[RPLxxx]``) for the sanctioned exceptions, so a false
positive costs one annotated line, never a disabled rule.

Scoping is by module *role*, not location: ``repro/data/shared.py`` is
the only sanctioned shared-memory allocation site wherever the tree is
checked out, and fixture tests plant violations inside any role via the
runner's ``virtual_path``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .findings import Finding
from .registry import LintContext, Rule, register_rule

# ---------------------------------------------------------------------------
# Module roles
# ---------------------------------------------------------------------------

#: The only module allowed to allocate shared-memory segments: every
#: segment created there is registered with the SegmentRegistry whose
#: atexit sweep guarantees zero /dev/shm residue (PR 4).
SHARED_MEMORY_SANCTUARY = ("repro/data/shared.py",)

#: The one module allowed to build a multiprocessing queue: every queue the
#: pool constructs is a slot's inbox, written only by the parent that owns
#: the slot and read only by that slot -- the direction a SIGKILLed worker
#: cannot tear.  Everything a worker reports (stage results since PR 3/PR 9,
#: SCP replica records since PR 23) is an atomic-rename spool commit.
QUEUE_SANCTUARY = ("repro/scp/pool.py",)

#: The fork-safe primitives module RPL003 points at.
FORKSAFE_SANCTUARY = ("repro/forksafe.py",)

#: Parity-critical kernels: bit-identical composites across engines are
#: the paper's correctness claim, continuously fuzzed by repro.paritylab
#: (PR 6).  Reduction order must be deterministic here.
PARITY_CRITICAL_PACKAGES = ("repro/core/steps", "repro/core/kernels")
PARITY_CRITICAL_MODULES = ("repro/core/streaming.py",)


# ---------------------------------------------------------------------------
# AST helpers
# ---------------------------------------------------------------------------

def dotted_name(node: ast.AST) -> Optional[str]:
    """Best-effort dotted form of a callee, e.g. ``self._ctx.Queue``.

    Calls inside the chain are collapsed to their callee
    (``multiprocessing.get_context("spawn").Queue`` ->
    ``multiprocessing.get_context.Queue``), so context-factory idioms
    still resolve.
    """
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Call):
            node = node.func
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        else:
            return None


def imported_names(tree: ast.Module, module: str,
                   names: Tuple[str, ...]) -> Set[str]:
    """Local bindings of ``from <module> import <name> [as alias]``."""
    bound: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                if alias.name in names:
                    bound.add(alias.asname or alias.name)
    return bound


def _truthy_constant(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


def _body_only_swallows(body: List[ast.stmt]) -> bool:
    """Whether a handler body does nothing but swallow (pass/.../continue)."""
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring or ellipsis
        return False
    return True


# ---------------------------------------------------------------------------
# RPL001 -- shared-memory allocation discipline
# ---------------------------------------------------------------------------

@register_rule
class SharedMemoryAllocationRule(Rule):
    code = "RPL001"
    name = "raw-shared-memory-allocation"
    summary = ("raw SharedMemory(create=True) outside repro/data/shared.py; "
               "allocate through SharedCube/SharedComposite so the "
               "SegmentRegistry sweep can reclaim the segment")
    rationale = ("PR 4: segments allocated outside the SegmentRegistry "
                 "leaked into /dev/shm whenever a run crashed or a stream "
                 "was abandoned")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.in_module(*SHARED_MEMORY_SANCTUARY):
            return
        aliases = imported_names(ctx.tree, "multiprocessing.shared_memory",
                                 ("SharedMemory",)) | {"SharedMemory"}
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or name.split(".")[-1] not in aliases:
                continue
            creates = any(kw.arg == "create" and _truthy_constant(kw.value)
                          for kw in node.keywords)
            # SharedMemory(name, create, size): positional create.
            if not creates and len(node.args) >= 2:
                creates = _truthy_constant(node.args[1])
            if creates:
                yield self.finding(ctx, node)


# ---------------------------------------------------------------------------
# RPL002 -- no queues/pipes shared with killable workers
# ---------------------------------------------------------------------------

#: Constructors that build kill-fragile IPC transports.
_QUEUE_CTORS = ("Queue", "SimpleQueue", "JoinableQueue", "Pipe")
#: Chain parts identifying a multiprocessing context object.
_MP_BASES = ("multiprocessing", "mp", "ctx", "_ctx", "_mp", "get_context")


@register_rule
class KillableQueueTransportRule(Rule):
    code = "RPL002"
    name = "queue-shared-with-killable-worker"
    summary = ("multiprocessing Queue/Pipe built outside repro/scp/pool.py "
               "(parent-written slot inboxes); whatever a worker reports must "
               "be an atomic-rename spool commit "
               "(repro.scp.serialization.commit_spool_file)")
    rationale = ("PR 3: a SIGKILLed worker can die holding a queue's "
                 "write-lock or mid-pickle, wedging every later reader; "
                 "a spool commit cannot be torn")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.in_module(*QUEUE_SANCTUARY):
            return
        direct = imported_names(ctx.tree, "multiprocessing", _QUEUE_CTORS)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if parts[-1] not in _QUEUE_CTORS:
                continue
            if len(parts) == 1:
                if parts[0] in direct:
                    yield self.finding(ctx, node)
                continue
            if any(part in _MP_BASES for part in parts[:-1]):
                yield self.finding(ctx, node)


# ---------------------------------------------------------------------------
# RPL003 -- fork-safety of module-level state
# ---------------------------------------------------------------------------

_LOCK_CTORS = ("Lock", "RLock", "Condition", "Semaphore", "BoundedSemaphore",
               "Event", "Barrier")
_RNG_CTORS = ("Random", "default_rng", "RandomState")


@register_rule
class ModuleLevelConcurrencyStateRule(Rule):
    code = "RPL003"
    name = "module-level-lock-or-rng"
    summary = ("module-level lock/RNG state is captured by fork() and "
               "importable by pool workers; use repro.forksafe.ForkSafeLock "
               "or move the state behind an instance")
    rationale = ("PR 4: a module lock held at fork time deadlocks every "
                 "fork-start pool child that imports the module; shared "
                 "RNG state silently decorrelates workers")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if ctx.in_module(*FORKSAFE_SANCTUARY):
            return
        for stmt in self._module_level(ctx.tree):
            values: List[ast.expr] = []
            if isinstance(stmt, ast.Assign):
                values.append(stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                values.append(stmt.value)
            elif isinstance(stmt, ast.Expr):
                values.append(stmt.value)
            for value in values:
                if not isinstance(value, ast.Call):
                    continue
                name = dotted_name(value.func)
                if name is None:
                    continue
                parts = name.split(".")
                leaf = parts[-1]
                if leaf in _LOCK_CTORS and "threading" in parts[:-1]:
                    yield self.finding(ctx, value)
                elif leaf in _RNG_CTORS and any(
                        p in ("random", "np", "numpy") for p in parts[:-1]):
                    yield self.finding(ctx, value)
                elif leaf == "seed" and any(
                        p in ("random", "np", "numpy") for p in parts[:-1]):
                    yield self.finding(ctx, value, message=(
                        "module-level RNG seeding mutates interpreter-wide "
                        "state every importing worker shares"))

    @staticmethod
    def _module_level(tree: ast.Module) -> Iterator[ast.stmt]:
        """Module-body statements, descending into top-level if/try arms."""
        stack: List[ast.stmt] = list(tree.body)
        while stack:
            stmt = stack.pop()
            if isinstance(stmt, ast.If):
                stack.extend(stmt.body)
                stack.extend(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                stack.extend(stmt.body)
                stack.extend(stmt.orelse)
                stack.extend(stmt.finalbody)
                for handler in stmt.handlers:
                    stack.extend(handler.body)
            else:
                yield stmt


# ---------------------------------------------------------------------------
# RPL004 -- monotonic clocks for deadline/timeout arithmetic
# ---------------------------------------------------------------------------

_DEADLINE_WORDS = ("deadline", "epoch", "expire", "expiry", "until",
                   "timeout", "cutoff", "grace")


@register_rule
class WallClockDeadlineRule(Rule):
    code = "RPL004"
    name = "wall-clock-deadline"
    summary = ("time.time() in deadline/timeout arithmetic; wall clock "
               "jumps under NTP steps -- use time.monotonic()")
    rationale = ("PR 3: the stage executor's liveness sweep misfired on a "
                 "wall-clock step, SIGKILL-retrying healthy slots; only "
                 "monotonic time may feed deadline math")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        aliases = imported_names(ctx.tree, "time", ("time",))
        seen: Set[Tuple[int, int]] = set()

        def is_wall_clock(node: ast.AST) -> bool:
            if not isinstance(node, ast.Call):
                return False
            name = dotted_name(node.func)
            return name == "time.time" or (name is not None and name in aliases)

        def wall_clock_calls(node: ast.AST) -> Iterator[ast.Call]:
            for sub in ast.walk(node):
                if is_wall_clock(sub):
                    yield sub  # type: ignore[misc]

        def emit(call: ast.Call) -> Iterator[Finding]:
            key = (call.lineno, call.col_offset)
            if key not in seen:
                seen.add(key)
                yield self.finding(ctx, call)

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.BinOp) and isinstance(
                    node.op, (ast.Add, ast.Sub)):
                for call in wall_clock_calls(node):
                    yield from emit(call)
            elif isinstance(node, ast.Compare):
                for call in wall_clock_calls(node):
                    yield from emit(call)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                if not any(self._deadline_target(t) for t in targets):
                    continue
                value = node.value
                if value is None:
                    continue
                for call in wall_clock_calls(value):
                    yield from emit(call)

    @staticmethod
    def _deadline_target(target: ast.expr) -> bool:
        name = dotted_name(target)
        if name is None:
            return False
        leaf = name.split(".")[-1].lower()
        return any(word in leaf for word in _DEADLINE_WORDS)


# ---------------------------------------------------------------------------
# RPL005 -- no swallowed exceptions in worker / liveness-sweep loops
# ---------------------------------------------------------------------------

@register_rule
class SwallowedExceptionRule(Rule):
    code = "RPL005"
    name = "swallowed-exception-in-loop"
    summary = ("broad exception swallow inside a loop; a worker or "
               "liveness-sweep loop that eats everything hides crashes "
               "the detector was built to catch -- narrow the type or "
               "justify with an allow")
    rationale = ("PR 1/PR 3: broad swallows in the sweep loops masked "
                 "real crash records until the run wedged with no "
                 "diagnostic at all")

    _BROAD = ("Exception", "BaseException")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        yield from self._visit(ctx, ctx.tree, in_loop=False)

    def _visit(self, ctx: LintContext, node: ast.AST,
               in_loop: bool) -> Iterator[Finding]:
        for child in ast.iter_child_nodes(node):
            child_in_loop = in_loop
            if isinstance(child, (ast.For, ast.AsyncFor, ast.While)):
                child_in_loop = True
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda, ast.ClassDef)):
                # A nested def is its own execution context: whether *it*
                # runs in a loop is unknowable here, so reset the flag.
                child_in_loop = False
            if isinstance(child, ast.ExceptHandler):
                if child.type is None:
                    yield self.finding(ctx, child, message=(
                        "bare except: also swallows SystemExit and "
                        "KeyboardInterrupt, making the worker "
                        "uninterruptible; catch Exception at most"))
                elif in_loop and self._is_broad(child.type) \
                        and _body_only_swallows(child.body):
                    yield self.finding(ctx, child)
            yield from self._visit(ctx, child, child_in_loop)

    def _is_broad(self, type_node: ast.expr) -> bool:
        nodes = type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
        for node in nodes:
            name = dotted_name(node)
            if name is not None and name.split(".")[-1] in self._BROAD:
                return True
        return False


# ---------------------------------------------------------------------------
# RPL006 -- deterministic reduction order in parity-critical kernels
# ---------------------------------------------------------------------------

_REDUCERS = ("sum", "fsum", "nansum", "prod", "nanprod", "min", "max",
             "mean", "nanmean", "std", "dot")
_VIEW_METHODS = ("values", "keys", "items")
_NUMPY_SUMS = ("np.sum", "numpy.sum")


@register_rule
class UnorderedReductionRule(Rule):
    code = "RPL006"
    name = "unordered-reduction-in-parity-kernel"
    summary = ("set/dict iteration order or a caller's array layout feeds "
               "a numeric reduction in a parity-critical kernel; float "
               "addition does not commute bit-for-bit -- sort the operands "
               "or annotate the line with `# repro: ordered: <why>`")
    rationale = ("PR 5/PR 6: the parity fuzzer's bit-identity claim dies "
                 "the moment a reduction's operand order depends on hash "
                 "order (or, numpy summing a contiguous axis pairwise, on "
                 "the caller's layout); partition order is pinned everywhere")

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        if not (ctx.under_package(*PARITY_CRITICAL_PACKAGES)
                or ctx.in_module(*PARITY_CRITICAL_MODULES)):
            return
        # Caller-supplied arrays: anything named like a parameter.
        params = {arg.arg for arg in ast.walk(ctx.tree)
                  if isinstance(arg, ast.arg)} - {"self", "cls"}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if (name is not None and name.split(".")[-1] in _REDUCERS
                        and node.args and self._unordered(node.args[0])
                        or self._layout_dependent(node, params)):
                    yield self.finding(ctx, node)
            elif isinstance(node, ast.For) and self._unordered(node.iter):
                if any(isinstance(sub, ast.AugAssign)
                       and isinstance(sub.op, (ast.Add, ast.Sub, ast.Mult))
                       for stmt in node.body for sub in ast.walk(stmt)):
                    yield self.finding(ctx, node)

    @staticmethod
    def _layout_dependent(node: ast.Call, params: Set[str]) -> bool:
        """Whether a call reduces an axis -- ``np.linalg.norm(x, axis=)``,
        ``np.add.reduce(x)``, ``np.sum(x, axis=)``, ``x.sum(axis=)`` -- of
        an array derived from one of ``params``."""
        name = dotted_name(node.func) or ""
        method = (isinstance(node.func, ast.Attribute)
                  and node.func.attr == "sum" and name not in _NUMPY_SUMS)
        # Positional index of the axis argument (add.reduce defaults to 0).
        axis_at = (0 if method else 1 if name in _NUMPY_SUMS
                   else 2 if name.endswith("linalg.norm")
                   else -1 if name.endswith("add.reduce") else None)
        if axis_at is None or not (axis_at < 0 or len(node.args) > axis_at
                                   or any(k.arg == "axis" for k in node.keywords)):
            return False
        operand = (node.func.value if isinstance(node.func, ast.Attribute)
                   and method else (node.args or [None])[0])
        return operand is not None and any(
            isinstance(sub, ast.Name) and sub.id in params
            for sub in ast.walk(operand))

    def _unordered(self, node: ast.expr) -> bool:
        """Whether an expression iterates in hash (or otherwise
        unspecified) order."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.GeneratorExp):
            return any(self._unordered(comp.iter) for comp in node.generators)
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name is None:
                return False
            leaf = name.split(".")[-1]
            if leaf in ("set", "frozenset"):
                return True
            # Dict views: iteration order is insertion order, which is
            # deterministic only when every insertion site is; in the
            # parity kernels that guarantee must be stated, not assumed.
            if leaf in _VIEW_METHODS and "." in name:
                return True
        return False


#: Documentation order of the built-in rules (the README/CLI table).
BUILTIN_RULES = ("RPL001", "RPL002", "RPL003", "RPL004", "RPL005", "RPL006")

__all__ = ["SharedMemoryAllocationRule", "KillableQueueTransportRule",
           "ModuleLevelConcurrencyStateRule", "WallClockDeadlineRule",
           "SwallowedExceptionRule", "UnorderedReductionRule",
           "BUILTIN_RULES", "dotted_name", "imported_names"]
