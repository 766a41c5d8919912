"""Pass 1 of the whole-program analyzer: the project index.

For every module the engine builds a :class:`ModuleIndex` -- import aliases,
module-level numeric constants, and a :class:`FunctionInfo` per function or
method holding its signature (each parameter classified with a quantity
kind from :mod:`repro.devtools.units` and, where provable, a default value
interval) and every call it makes (callee as written, plus the kind and
interval of each argument).  Module indexes are plain-data and serializable,
so the on-disk cache can persist them per content hash.

:class:`ProjectIndex` assembles the per-module records into whole-program
structure: a global function table, alias-aware call resolution (falling
back to name-based method matching, the classic cheap-call-graph move) and
the call graph the R5--R8 rule families walk.

Nested functions are folded into their enclosing function: their calls
count as the parent's (so closures do not break reachability), and their
parameters are simply unclassified.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.devtools.dataflow import DefUse, def_use_records, global_access
from repro.devtools.effects import local_effects
from repro.devtools.intervals import Interval, interval_of_expr
from repro.devtools.units import (
    HARD_KINDS,
    KIND_DIMENSIONLESS,
    KIND_SECONDS,
    is_probability_name,
    kind_of_name,
    kind_of_qualified,
)

MODULE_SCOPE = "<module>"


# ---------------------------------------------------------------------------
# expression-kind inference (shared with the R5 rule)

def kind_of_expr(node: ast.expr, param_kinds: dict[str, str | None],
                 mismatches: list[tuple[ast.BinOp, str, str]] | None = None
                 ) -> str | None:
    """Quantity kind of an expression, by naming convention.

    ``param_kinds`` overrides the convention for parameter names (it carries
    the registry's qualified classifications).  When ``mismatches`` is given,
    every ``+``/``-`` whose operands have *different* hard kinds is appended
    to it -- that is exactly what R5 reports.
    """
    if isinstance(node, ast.Name):
        if node.id in param_kinds:
            return param_kinds[node.id]
        return kind_of_name(node.id)
    if isinstance(node, ast.Attribute):
        return kind_of_name(node.attr)
    if isinstance(node, ast.Subscript):
        return kind_of_expr(node.value, param_kinds, mismatches)
    if isinstance(node, ast.UnaryOp):
        return kind_of_expr(node.operand, param_kinds, mismatches)
    if isinstance(node, ast.IfExp):
        body = kind_of_expr(node.body, param_kinds, mismatches)
        orelse = kind_of_expr(node.orelse, param_kinds, mismatches)
        return body if body == orelse else None
    if isinstance(node, ast.Call):
        return _call_kind(node, param_kinds, mismatches)
    if isinstance(node, ast.BinOp):
        left = kind_of_expr(node.left, param_kinds, mismatches)
        right = kind_of_expr(node.right, param_kinds, mismatches)
        return _binop_kind(node, left, right, mismatches)
    return None


def _call_kind(node: ast.Call, param_kinds: dict[str, str | None],
               mismatches: list[tuple[ast.BinOp, str, str]] | None
               ) -> str | None:
    func = node.func
    if isinstance(func, ast.Name) and func.id in ("min", "max", "abs",
                                                  "float", "sum", "round"):
        kinds = {kind_of_expr(arg, param_kinds, mismatches)
                 for arg in node.args}
        # Still walk keyword args so mismatches inside them are found.
        for keyword in node.keywords:
            kind_of_expr(keyword.value, param_kinds, mismatches)
        return kinds.pop() if len(kinds) == 1 else None
    # Convention on the called name: `self.transmission_time(...)` is
    # seconds because `transmission_time` is.  Arguments are walked for
    # nested mismatches but do not contribute to the call's kind.
    for arg in node.args:
        kind_of_expr(arg, param_kinds, mismatches)
    for keyword in node.keywords:
        kind_of_expr(keyword.value, param_kinds, mismatches)
    if isinstance(func, ast.Attribute):
        return kind_of_name(func.attr)
    if isinstance(func, ast.Name):
        return kind_of_name(func.id)
    return None


def _binop_kind(node: ast.BinOp, left: str | None, right: str | None,
                mismatches: list[tuple[ast.BinOp, str, str]] | None
                ) -> str | None:
    if isinstance(node.op, (ast.Add, ast.Sub)):
        if left in HARD_KINDS and right in HARD_KINDS and left != right:
            if mismatches is not None:
                mismatches.append((node, left, right))  # type: ignore[arg-type]
            return None
        if left in HARD_KINDS:
            return left
        if right in HARD_KINDS:
            return right
        return left if left == right else None
    if isinstance(node.op, ast.Mult):
        # In this codebase counts scale durations: slots * slot_duration is
        # seconds.  Two different counts multiplied yield nothing nameable.
        if left == KIND_SECONDS or right == KIND_SECONDS:
            other = right if left == KIND_SECONDS else left
            return KIND_SECONDS if other != KIND_SECONDS else None
        if left == KIND_DIMENSIONLESS:
            return right
        if right == KIND_DIMENSIONLESS:
            return left
        return None
    if isinstance(node.op, (ast.Div, ast.FloorDiv)):
        if left is not None and left == right:
            return KIND_DIMENSIONLESS
        if right in (None, KIND_DIMENSIONLESS):
            return left if right == KIND_DIMENSIONLESS else None
        return None
    return None


# ---------------------------------------------------------------------------
# per-module records

@dataclass
class ArgInfo:
    """One call argument: its inferred kind and provable value interval."""

    kind: str | None = None
    interval: Interval | None = None
    #: Leftmost name of the argument expression (``cfg`` for ``cfg.slots``);
    #: the effect analysis uses it to track which objects escape to callees.
    root: str | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind,
                "interval": list(self.interval) if self.interval else None,
                "root": self.root}

    @classmethod
    def from_dict(cls, data: dict) -> "ArgInfo":
        interval = data.get("interval")
        return cls(kind=data.get("kind"),
                   interval=tuple(interval) if interval else None,
                   root=data.get("root"))


@dataclass
class CallInfo:
    """One call site inside a function."""

    raw: str  # the callee as written, e.g. ``self.transmission_time``
    lineno: int
    args: list[ArgInfo] = field(default_factory=list)
    kwargs: dict[str, ArgInfo] = field(default_factory=dict)
    has_star: bool = False      # *args at the call site
    has_star_kw: bool = False   # **kwargs at the call site

    def to_dict(self) -> dict:
        return {"raw": self.raw, "lineno": self.lineno,
                "args": [arg.to_dict() for arg in self.args],
                "kwargs": {k: v.to_dict() for k, v in self.kwargs.items()},
                "has_star": self.has_star, "has_star_kw": self.has_star_kw}

    @classmethod
    def from_dict(cls, data: dict) -> "CallInfo":
        return cls(raw=data["raw"], lineno=data["lineno"],
                   args=[ArgInfo.from_dict(a) for a in data["args"]],
                   kwargs={k: ArgInfo.from_dict(v)
                           for k, v in data["kwargs"].items()},
                   has_star=data["has_star"], has_star_kw=data["has_star_kw"])


@dataclass
class ParamInfo:
    """One parameter (``self``/``cls`` are never recorded)."""

    name: str
    kind: str | None = None
    probability: bool = False
    kwonly: bool = False
    annotation: str | None = None
    has_default: bool = False
    default_interval: Interval | None = None

    def to_dict(self) -> dict:
        return {"name": self.name, "kind": self.kind,
                "probability": self.probability, "kwonly": self.kwonly,
                "annotation": self.annotation,
                "has_default": self.has_default,
                "default_interval": (list(self.default_interval)
                                     if self.default_interval else None)}

    @classmethod
    def from_dict(cls, data: dict) -> "ParamInfo":
        interval = data.get("default_interval")
        return cls(name=data["name"], kind=data["kind"],
                   probability=data["probability"], kwonly=data["kwonly"],
                   annotation=data.get("annotation"),
                   has_default=data["has_default"],
                   default_interval=tuple(interval) if interval else None)


@dataclass
class FunctionInfo:
    """One function/method (or the synthetic dataclass constructor)."""

    qualname: str  # ``func`` or ``Class.method`` within the module
    lineno: int
    params: list[ParamInfo] = field(default_factory=list)
    calls: list[CallInfo] = field(default_factory=list)
    is_method: bool = False
    has_rng_param: bool = False
    has_varargs: bool = False
    has_kwargs: bool = False
    return_kind: str | None = None
    #: Reaching-definitions def-use chains (cached with the index).
    def_uses: list[DefUse] = field(default_factory=list)
    #: Module-global reads ``(name, line)`` inside this function.
    global_reads: list[tuple[str, int]] = field(default_factory=list)
    #: Module-global writes ``(name, line, how)``; ``how`` is one of
    #: ``rebind``/``mutate``/``store`` (see dataflow.global_access).
    global_writes: list[tuple[str, int, str]] = field(default_factory=list)
    #: Locally-evident effects (effects.py); closed over the call graph
    #: by EffectAnalysis in pass 2.
    effects_local: tuple[str, ...] = ()

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def class_name(self) -> str | None:
        if "." in self.qualname:
            return self.qualname.split(".", 1)[0]
        return None

    def param(self, name: str) -> ParamInfo | None:
        for info in self.params:
            if info.name == name:
                return info
        return None

    def to_dict(self) -> dict:
        return {"qualname": self.qualname, "lineno": self.lineno,
                "params": [p.to_dict() for p in self.params],
                "calls": [c.to_dict() for c in self.calls],
                "is_method": self.is_method,
                "has_rng_param": self.has_rng_param,
                "has_varargs": self.has_varargs,
                "has_kwargs": self.has_kwargs,
                "return_kind": self.return_kind,
                "def_uses": [record.to_list() for record in self.def_uses],
                "global_reads": [list(read) for read in self.global_reads],
                "global_writes": [list(write)
                                  for write in self.global_writes],
                "effects_local": list(self.effects_local)}

    @classmethod
    def from_dict(cls, data: dict) -> "FunctionInfo":
        return cls(qualname=data["qualname"], lineno=data["lineno"],
                   params=[ParamInfo.from_dict(p) for p in data["params"]],
                   calls=[CallInfo.from_dict(c) for c in data["calls"]],
                   is_method=data["is_method"],
                   has_rng_param=data["has_rng_param"],
                   has_varargs=data["has_varargs"],
                   has_kwargs=data["has_kwargs"],
                   return_kind=data["return_kind"],
                   def_uses=[DefUse.from_list(record)
                             for record in data.get("def_uses", [])],
                   global_reads=[(read[0], read[1])
                                 for read in data.get("global_reads", [])],
                   global_writes=[(w[0], w[1], w[2])
                                  for w in data.get("global_writes", [])],
                   effects_local=tuple(data.get("effects_local", [])))


@dataclass
class ModuleIndex:
    """Everything pass 2 needs to know about one module."""

    dotted: str
    relpath: str
    #: local name -> imported dotted target (``np`` -> ``numpy``,
    #: ``RecordStore`` -> ``repro.core.collision.RecordStore``).
    aliases: dict[str, str] = field(default_factory=dict)
    #: functions and methods by qualname (plus the ``<module>`` pseudo-scope
    #: holding module-level calls).
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: names of classes defined in this module.
    classes: tuple[str, ...] = ()
    #: class name -> base-class names as written (virtual dispatch input).
    class_bases: dict[str, tuple[str, ...]] = field(default_factory=dict)
    #: names assigned at module scope (the fork-safety global universe).
    global_names: tuple[str, ...] = ()
    #: module globals bound to OS handles (open files, locks, queues).
    handle_globals: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {"dotted": self.dotted, "relpath": self.relpath,
                "aliases": dict(self.aliases),
                "functions": {name: info.to_dict()
                              for name, info in self.functions.items()},
                "classes": list(self.classes),
                "class_bases": {name: list(bases)
                                for name, bases in self.class_bases.items()},
                "global_names": list(self.global_names),
                "handle_globals": list(self.handle_globals)}

    @classmethod
    def from_dict(cls, data: dict) -> "ModuleIndex":
        return cls(dotted=data["dotted"], relpath=data["relpath"],
                   aliases=dict(data["aliases"]),
                   functions={name: FunctionInfo.from_dict(info)
                              for name, info in data["functions"].items()},
                   classes=tuple(data["classes"]),
                   class_bases={name: tuple(bases) for name, bases
                                in data.get("class_bases", {}).items()},
                   global_names=tuple(data.get("global_names", [])),
                   handle_globals=tuple(data.get("handle_globals", [])))


# ---------------------------------------------------------------------------
# building a module index

_DATACLASS_NAMES = ("dataclass",)


def _dotted(node: ast.expr) -> str | None:
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) \
            else decorator
        name = _dotted(target)
        if name and name.rsplit(".", 1)[-1] in _DATACLASS_NAMES:
            return True
    return False


def _annotation_str(node: ast.expr | None) -> str | None:
    if node is None:
        return None
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed annotation
        return None


#: Call tails whose module-level result is an OS handle a forked worker
#: must never inherit silently (files, locks, IPC primitives).
_HANDLE_CTORS = {"open", "Lock", "RLock", "Semaphore", "BoundedSemaphore",
                 "Condition", "Event", "Barrier", "Queue", "Pool",
                 "TemporaryFile", "NamedTemporaryFile", "socket"}


class _ModuleIndexer:
    def __init__(self, dotted: str, relpath: str) -> None:
        self.index = ModuleIndex(dotted=dotted, relpath=relpath)
        self.constants: dict[str, Interval] = {}
        self.module_globals: set[str] = set()

    # -- entry -------------------------------------------------------------

    def _prescan_globals(self, tree: ast.Module) -> None:
        """Module-scope assigned names plus the handle-valued subset."""
        handles: list[str] = []
        for node in tree.body:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            names = [name for target in targets
                     for sub in ast.walk(target)
                     if isinstance(sub, ast.Name)
                     for name in (sub.id,)]
            self.module_globals.update(names)
            value = getattr(node, "value", None)
            if names and isinstance(value, ast.Call):
                raw = _dotted(value.func)
                if raw and raw.rsplit(".", 1)[-1] in _HANDLE_CTORS:
                    handles.extend(names)
        self.index.global_names = tuple(sorted(self.module_globals))
        self.index.handle_globals = tuple(sorted(set(handles)))

    def build(self, tree: ast.Module) -> ModuleIndex:
        self._prescan_globals(tree)
        module_scope = FunctionInfo(qualname=MODULE_SCOPE, lineno=1)
        classes: list[str] = []
        for node in tree.body:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    self.index.aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module \
                    and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.index.aliases[local] = \
                        f"{node.module}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._index_function(node, class_name=None)
            elif isinstance(node, ast.ClassDef):
                classes.append(node.name)
                self._index_class(node)
            else:
                if isinstance(node, ast.Assign) \
                        and len(node.targets) == 1 \
                        and isinstance(node.targets[0], ast.Name):
                    interval = interval_of_expr(node.value, self.constants)
                    if interval is not None:
                        self.constants[node.targets[0].id] = interval
                self._collect_calls(node, module_scope, {}, self.constants)
        if module_scope.calls:
            self.index.functions[MODULE_SCOPE] = module_scope
        self.index.classes = tuple(classes)
        return self.index

    # -- classes -----------------------------------------------------------

    def _index_class(self, node: ast.ClassDef) -> None:
        bases = tuple(name for name in (_dotted(base)
                                        for base in node.bases)
                      if name is not None)
        if bases:
            self.index.class_bases[node.name] = bases
        fields: list[ParamInfo] = []
        has_init = False
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if item.name == "__init__":
                    has_init = True
                self._index_function(item, class_name=node.name)
            elif isinstance(item, ast.AnnAssign) \
                    and isinstance(item.target, ast.Name):
                name = item.target.id
                annotation = _annotation_str(item.annotation)
                if annotation and annotation.startswith("ClassVar"):
                    continue
                qualified = f"{self.index.dotted}.{node.name}.{name}"
                default = (interval_of_expr(item.value, self.constants)
                           if item.value is not None else None)
                fields.append(ParamInfo(
                    name=name, kind=kind_of_qualified(qualified),
                    probability=is_probability_name(name),
                    annotation=annotation,
                    has_default=item.value is not None,
                    default_interval=default))
        if fields and not has_init and _is_dataclass(node):
            # Synthetic constructor so `Class(field=...)` call sites can be
            # checked against the dataclass field kinds.
            self.index.functions[f"{node.name}.__init__"] = FunctionInfo(
                qualname=f"{node.name}.__init__", lineno=node.lineno,
                params=fields, is_method=True,
                has_rng_param=any(f.name == "rng" for f in fields))

    # -- functions ---------------------------------------------------------

    def _index_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef,
                        class_name: str | None) -> None:
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        args = node.args
        params: list[ParamInfo] = []
        positional = [*args.posonlyargs, *args.args]
        defaults: list[ast.expr | None] = [None] * (
            len(positional) - len(args.defaults)) + list(args.defaults)
        for param, default in zip(positional, defaults):
            if param.arg in ("self", "cls") and class_name and not params \
                    and param is positional[0]:
                continue
            params.append(self._param_info(qualname, param, default,
                                           kwonly=False))
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            params.append(self._param_info(qualname, param, default,
                                           kwonly=True))
        reads, writes = global_access(node, self.module_globals)
        info = FunctionInfo(
            qualname=qualname, lineno=node.lineno, params=params,
            is_method=class_name is not None,
            has_rng_param=any(p.name == "rng" for p in params),
            has_varargs=args.vararg is not None,
            has_kwargs=args.kwarg is not None,
            return_kind=kind_of_qualified(
                f"{self.index.dotted}.{qualname}"),
            def_uses=def_use_records(node),
            global_reads=reads, global_writes=writes,
            effects_local=tuple(sorted(
                local_effects(node, self.module_globals))))
        param_kinds = {p.name: p.kind for p in params}
        local_env = self._local_env(node)
        for statement in node.body:
            self._collect_calls(statement, info, param_kinds, local_env)
        self.index.functions[qualname] = info

    def _param_info(self, qualname: str, param: ast.arg,
                    default: ast.expr | None, kwonly: bool) -> ParamInfo:
        qualified = f"{self.index.dotted}.{qualname}.{param.arg}"
        return ParamInfo(
            name=param.arg, kind=kind_of_qualified(qualified),
            probability=is_probability_name(param.arg),
            kwonly=kwonly,
            annotation=_annotation_str(param.annotation),
            has_default=default is not None,
            default_interval=(interval_of_expr(default, self.constants)
                              if default is not None else None))

    def _local_env(self, node: ast.FunctionDef | ast.AsyncFunctionDef
                   ) -> dict[str, Interval]:
        """Intervals of single-assignment locals (plus module constants)."""
        counts: dict[str, int] = {}
        for statement in ast.walk(node):
            if isinstance(statement, (ast.Assign, ast.AugAssign,
                                      ast.AnnAssign)):
                targets = statement.targets \
                    if isinstance(statement, ast.Assign) \
                    else [statement.target]
                for target in targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            counts[name_node.id] = \
                                counts.get(name_node.id, 0) + 1
        env = dict(self.constants)
        for statement in ast.walk(node):
            if isinstance(statement, ast.Assign) \
                    and len(statement.targets) == 1 \
                    and isinstance(statement.targets[0], ast.Name) \
                    and counts.get(statement.targets[0].id) == 1:
                interval = interval_of_expr(statement.value, env)
                if interval is not None:
                    env[statement.targets[0].id] = interval
        return env

    # -- call collection ---------------------------------------------------

    def _collect_calls(self, node: ast.AST, into: FunctionInfo,
                       param_kinds: dict[str, str | None],
                       env: dict[str, Interval]) -> None:
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            raw = _dotted(call.func)
            if raw is None and isinstance(call.func, ast.Attribute) \
                    and isinstance(call.func.value, ast.Call):
                # ``Protocol().read_all(...)``: treat the constructor-call
                # receiver as the class, so the edge stays in the graph.
                receiver = _dotted(call.func.value.func)
                if receiver is not None:
                    raw = f"{receiver}.{call.func.attr}"
            if raw is None:
                continue
            info = CallInfo(raw=raw, lineno=call.lineno)
            for arg in call.args:
                if isinstance(arg, ast.Starred):
                    info.has_star = True
                    continue
                info.args.append(ArgInfo(
                    kind=kind_of_expr(arg, param_kinds),
                    interval=interval_of_expr(arg, env),
                    root=_arg_root(arg)))
            for keyword in call.keywords:
                if keyword.arg is None:
                    info.has_star_kw = True
                    continue
                info.kwargs[keyword.arg] = ArgInfo(
                    kind=kind_of_expr(keyword.value, param_kinds),
                    interval=interval_of_expr(keyword.value, env),
                    root=_arg_root(keyword.value))
            into.calls.append(info)


def _arg_root(node: ast.expr) -> str | None:
    """Leftmost name when the argument passes an object (or part of one)."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Starred)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def build_module_index(dotted: str, relpath: str,
                       tree: ast.Module) -> ModuleIndex:
    """Index one parsed module (pass 1 unit of work; cacheable)."""
    return _ModuleIndexer(dotted, relpath).build(tree)


# ---------------------------------------------------------------------------
# whole-program assembly

@dataclass
class Callee:
    """One resolved call target."""

    module: ModuleIndex
    function: FunctionInfo
    #: True when the target was matched purely by method name (several
    #: classes may define it); value checks should then require agreement.
    name_based: bool = False

    @property
    def path(self) -> str:
        return f"{self.module.dotted}:{self.function.qualname}"


class ProjectIndex:
    """Global lookup over every module index of one scan."""

    def __init__(self, modules: Sequence[ModuleIndex]) -> None:
        self.modules: dict[str, ModuleIndex] = {
            module.dotted: module for module in modules}
        self._by_method: dict[str, list[Callee]] = {}
        for module in modules:
            for info in module.functions.values():
                if info.qualname == MODULE_SCOPE:
                    continue
                self._by_method.setdefault(info.name, []).append(
                    Callee(module=module, function=info, name_based=True))
        self._subclasses = self._build_subclass_map()

    def _build_subclass_map(self) -> dict[str, set[str]]:
        """Base class dotted path -> transitive subclass dotted paths."""
        direct: dict[str, set[str]] = {}
        for module in self.modules.values():
            for name, bases in module.class_bases.items():
                child = f"{module.dotted}.{name}"
                for base in bases:
                    if base in module.classes:
                        resolved: str | None = f"{module.dotted}.{base}"
                    else:
                        head, *rest = base.split(".")
                        target = module.aliases.get(head)
                        resolved = ".".join([target, *rest]) \
                            if target else None
                    if resolved is not None:
                        direct.setdefault(resolved, set()).add(child)
        closed: dict[str, set[str]] = {}
        for root in direct:
            seen: set[str] = set()
            frontier = list(direct[root])
            while frontier:
                child = frontier.pop()
                if child in seen:
                    continue
                seen.add(child)
                frontier.extend(direct.get(child, ()))
            closed[root] = seen
        return closed

    # -- lookups -----------------------------------------------------------

    def all_functions(self) -> Iterator[tuple[ModuleIndex, FunctionInfo]]:
        for module in self.modules.values():
            for info in module.functions.values():
                yield module, info

    def _function_at(self, dotted_path: str) -> Callee | None:
        """Resolve ``pkg.mod.func`` / ``pkg.mod.Class.meth`` / class ctor."""
        parts = dotted_path.split(".")
        for split in range(len(parts) - 1, 0, -1):
            module = self.modules.get(".".join(parts[:split]))
            if module is None:
                continue
            qualname = ".".join(parts[split:])
            info = module.functions.get(qualname)
            if info is not None:
                return Callee(module=module, function=info)
            if qualname in module.classes:
                ctor = module.functions.get(f"{qualname}.__init__")
                if ctor is not None:
                    return Callee(module=module, function=ctor)
            return None
        return None

    def _resolve_alias_chain(self, module: ModuleIndex,
                             raw: str) -> Callee | None:
        parts = raw.split(".")
        target = module.aliases.get(parts[0])
        if target is None:
            return None
        return self._function_at(".".join([target, *parts[1:]]))

    def resolve_call(self, module: ModuleIndex, caller: FunctionInfo,
                     call: CallInfo) -> list[Callee]:
        """Candidate targets of one call site.

        Exactly-resolved targets come back as a single candidate; receiver
        calls that cannot be resolved lexically fall back to matching every
        known method of that name (``name_based=True``).
        """
        parts = call.raw.split(".")
        caller_class = caller.class_name
        if parts[0] in ("self", "cls") and caller_class is not None:
            if len(parts) == 2:
                own = module.functions.get(f"{caller_class}.{parts[1]}")
                if own is not None:
                    return [Callee(module=module, function=own)]
            return self._by_method.get(parts[-1], [])
        if len(parts) == 1:
            name = parts[0]
            info = module.functions.get(name)
            if info is not None:
                return [Callee(module=module, function=info)]
            if name in module.classes:
                ctor = module.functions.get(f"{name}.__init__")
                return [Callee(module=module, function=ctor)] if ctor else []
            target = module.aliases.get(name)
            if target is not None:
                resolved = self._function_at(target)
                return [resolved] if resolved else []
            return []
        resolved = self._resolve_alias_chain(module, call.raw)
        if resolved is not None:
            return [resolved]
        # Receiver annotated with a known class?  `timing.session_seconds()`
        # resolves through the `timing: TimingModel` annotation.
        if len(parts) == 2:
            receiver = caller.param(parts[0])
            if receiver is not None and receiver.annotation:
                class_target = self._annotation_class(
                    module, receiver.annotation)
                if class_target is not None:
                    candidates = []
                    method = self._function_at(
                        f"{class_target}.{parts[1]}")
                    if method is not None:
                        candidates.append(method)
                    # Virtual dispatch: a subclass instance may flow in
                    # through the base-typed parameter, so every override
                    # is a candidate too.  They come back name_based so
                    # single-target value checks keep ignoring them.
                    for sub in sorted(self._subclasses.get(
                            class_target, ())):
                        override = self._function_at(f"{sub}.{parts[1]}")
                        if override is not None:
                            candidates.append(Callee(
                                module=override.module,
                                function=override.function,
                                name_based=True))
                    if candidates:
                        return candidates
        return self._by_method.get(parts[-1], [])

    def _annotation_class(self, module: ModuleIndex,
                          annotation: str) -> str | None:
        """Dotted path of the class an annotation names, if known."""
        name = annotation.replace(" | None", "").strip()
        if not name.replace(".", "").replace("_", "").isalnum():
            return None
        head = name.split(".")[0]
        if name in module.classes:
            return f"{module.dotted}.{name}"
        target = module.aliases.get(head)
        if target is None:
            return None
        return ".".join([target, *name.split(".")[1:]])

    # -- call graph --------------------------------------------------------

    def call_graph(self) -> dict[str, set[str]]:
        """Edges ``caller-path -> {callee-paths}`` over the whole project."""
        edges: dict[str, set[str]] = {}
        for module, info in self.all_functions():
            source = f"{module.dotted}:{info.qualname}"
            targets = edges.setdefault(source, set())
            for call in info.calls:
                for callee in self.resolve_call(module, info, call):
                    targets.add(callee.path)
        return edges
