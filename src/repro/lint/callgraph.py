"""Project-wide symbol table and call graph.

One :class:`ModuleSummary` per file captures everything the
whole-program pass needs — import aliases, function/class symbols,
call records, leaf effect sites, and the saga-step registrations the
contract rules inspect — so the engine can parse each file **once** and
feed the same tree to the per-file rules and to the program pass.

:class:`Program` links a set of summaries: it resolves call records to
edges (module functions, ``from``-imported symbols, ``self.method``
through the class and its project bases, ``module.func`` through
import aliases, class constructors to ``__init__``), runs the effect
fixpoint from :mod:`repro.lint.effects`, and answers reachability
queries with the full call chain each flow finding reports.

Module names are derived from repo-relative paths with the source
roots (``src/``, ``tests/lint/fixtures/``) stripped, so the real tree
links as ``repro.*`` and fixture packages link under their own
top-level name.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.lint import effects as fx

#: path prefixes stripped when mapping a file path to its module name
SOURCE_ROOTS: tuple[str, ...] = ("src/", "tests/lint/fixtures/")


def module_name_for(path: str) -> str:
    """Dotted module name for a repo-relative posix ``path``."""
    name = path[:-3] if path.endswith(".py") else path
    for root in SOURCE_ROOTS:
        if name.startswith(root):
            name = name[len(root):]
            break
    if name.endswith("/__init__"):
        name = name[: -len("/__init__")]
    return name.replace("/", ".")


@dataclass(frozen=True)
class CallRecord:
    """One call site: dotted receiver chain, callee name, location."""

    chain: tuple[str, ...]
    name: str
    line: int


@dataclass(frozen=True)
class EffectSite:
    """Where a leaf effect enters a function body."""

    effect: str
    line: int
    snippet: str


@dataclass(frozen=True)
class SagaStepSite:
    """One ``SagaStep(...)`` construction, pre-digested for the
    ``saga-compensated`` contract rule."""

    line: int
    snippet: str
    step_name: str
    has_undo: bool
    pivot: bool
    forward_only: bool
    after_pivot: bool


@dataclass(frozen=True)
class RegistrySite:
    """One store into — or eviction from — a keyed container.

    Stores are recorded only when *hinted*: the container name or the
    key expression mentions a per-session identifier (tenant, flow,
    iqn, conn, sess), i.e. the container plausibly grows with
    ever-attached sessions.  Evictions (``pop``/``del``/``clear``/
    ``discard``/``remove``) are recorded for every container so the
    ``bounded-tenant-registry`` rule can pair them up by name.
    """

    line: int
    snippet: str
    name: str   # the container's final attribute name, alias-resolved
    kind: str   # "store" | "evict"


@dataclass
class FunctionInfo:
    """One function or method (closures fold into their parent)."""

    qual: str          # module.Class.method or module.func
    name: str
    cls: str           # enclosing class name, "" for module functions
    line: int
    calls: list[CallRecord] = field(default_factory=list)
    effect_sites: list[EffectSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    name: str
    bases: list[str] = field(default_factory=list)
    methods: list[str] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Everything the program pass needs from one file."""

    module: str
    path: str
    is_package: bool = False
    imports: dict[str, str] = field(default_factory=dict)
    functions: list[FunctionInfo] = field(default_factory=list)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    saga_steps: list[SagaStepSite] = field(default_factory=list)
    registries: list[RegistrySite] = field(default_factory=list)


# -- summary construction ---------------------------------------------


def _attr_chain(node: ast.expr) -> Optional[tuple[tuple[str, ...], str]]:
    """Decompose ``a.b.c(...)``'s func into (receiver chain, name)."""
    if isinstance(node, ast.Name):
        return (), node.id
    if isinstance(node, ast.Attribute):
        parts: list[str] = []
        cur: ast.expr = node.value
        while isinstance(cur, ast.Attribute):
            parts.append(cur.attr)
            cur = cur.value
        if isinstance(cur, ast.Name):
            parts.append(cur.id)
            parts.reverse()
            return tuple(parts), node.attr
        # receiver is a call/subscript/...: keep the trailing attrs we
        # could read so name-pattern effects still apply
        parts.reverse()
        return tuple(parts), node.attr
    return None


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _const_true(node: Optional[ast.expr]) -> bool:
    return isinstance(node, ast.Constant) and node.value is True


#: identifier fragments marking a container as keyed per session /
#: tenant — the registries that must stay O(active)
_REGISTRY_HINTS: tuple[str, ...] = ("tenant", "flow", "iqn", "conn", "sess")

#: method names that shrink a container
_EVICT_METHODS = frozenset({"pop", "popitem", "clear", "discard", "remove"})

#: method names that grow a keyed container
_STORE_METHODS = frozenset({"setdefault", "add"})


def _idents(node: ast.AST) -> list[str]:
    """Every Name id and Attribute attr inside an expression."""
    out: list[str] = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
    return out


def _hinted(names: Iterable[str]) -> bool:
    return any(h in n.lower() for n in names for h in _REGISTRY_HINTS)


class _SummaryBuilder(ast.NodeVisitor):
    """One pass over a module tree; produces the :class:`ModuleSummary`."""

    def __init__(self, summary: ModuleSummary, lines: Sequence[str]) -> None:
        self.summary = summary
        self.lines = lines
        self._class_stack: list[str] = []
        self._fn_stack: list[FunctionInfo] = []
        self._module_fn = FunctionInfo(
            qual=f"{summary.module}.<module>", name="<module>", cls="", line=1
        )
        summary.functions.append(self._module_fn)
        #: per-function ``local = self._registry`` aliases, so evicting
        #: through the alias still pairs with stores on the attribute
        self._alias_stack: list[dict[str, str]] = [{}]

    # -- helpers ------------------------------------------------------

    def _snippet(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    @property
    def _current(self) -> FunctionInfo:
        return self._fn_stack[-1] if self._fn_stack else self._module_fn

    def _add_effects(self, node: ast.AST, found: Iterable[str]) -> None:
        line = getattr(node, "lineno", 1)
        for effect in sorted(found):
            self._current.effect_sites.append(
                EffectSite(effect, line, self._snippet(line))
            )

    # -- imports ------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            name = alias.name
            if alias.asname:
                self.summary.imports[alias.asname] = name
            else:
                self.summary.imports[name.split(".", 1)[0]] = name.split(".", 1)[0]
                # `import a.b.c` binds `a`, but dotted calls through the
                # full path should still resolve:
                self.summary.imports.setdefault(name, name)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        base = node.module or ""
        if node.level:
            parts = self.summary.module.split(".")
            # an __init__ module is its own package; a plain module's
            # package is its parent
            keep = len(parts) - node.level + (1 if self.summary.is_package else 0)
            prefix = ".".join(parts[:keep]) if keep > 0 else ""
            base = f"{prefix}.{base}" if base and prefix else (prefix or base)
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.summary.imports[local] = f"{base}.{alias.name}" if base else alias.name

    # -- defs ---------------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        bases: list[str] = []
        for b in node.bases:
            decomposed = _attr_chain(b) if isinstance(b, (ast.Name, ast.Attribute)) else None
            if decomposed is not None:
                chain, name = decomposed
                bases.append(".".join((*chain, name)) if chain else name)
        info = ClassInfo(name=node.name, bases=bases)
        self.summary.classes[node.name] = info
        self._class_stack.append(node.name)
        self.generic_visit(node)
        self._class_stack.pop()

    def _handle_def(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        if self._fn_stack:
            # nested def: fold its body into the enclosing function
            self.generic_visit(node)
            return
        cls = self._class_stack[-1] if self._class_stack else ""
        qual = (
            f"{self.summary.module}.{cls}.{node.name}"
            if cls
            else f"{self.summary.module}.{node.name}"
        )
        info = FunctionInfo(qual=qual, name=node.name, cls=cls, line=node.lineno)
        self.summary.functions.append(info)
        if cls:
            self.summary.classes[cls].methods.append(node.name)
        self._fn_stack.append(info)
        self._alias_stack.append({})
        self.generic_visit(node)
        self._alias_stack.pop()
        self._fn_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._handle_def(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._handle_def(node)

    # -- keyed registries ---------------------------------------------

    def _container_name(self, node: ast.expr) -> Optional[str]:
        """Final attribute name of a container reference, with bare
        locals resolved through the current function's aliases."""
        decomposed = _attr_chain(node)
        if decomposed is None:
            return None
        chain, name = decomposed
        if not chain:
            return self._alias_stack[-1].get(name, name)
        return name

    def _record_registry(self, line: int, name: str, kind: str) -> None:
        self.summary.registries.append(
            RegistrySite(line, self._snippet(line), name, kind)
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        # `local = self._registry`: remember the alias so a later
        # `local.pop(...)` counts as evicting `_registry`
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, (ast.Name, ast.Attribute))
        ):
            target_name = self._container_name(node.value)
            if target_name is not None:
                self._alias_stack[-1][node.targets[0].id] = target_name
        for target in node.targets:
            self._maybe_store(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._maybe_store(node.target)
        self.generic_visit(node)

    def _maybe_store(self, target: ast.expr) -> None:
        if not isinstance(target, ast.Subscript):
            return
        name = self._container_name(target.value)
        if name is None:
            return
        if _hinted((name, *_idents(target.slice))):
            self._record_registry(target.lineno, name, "store")

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            if isinstance(target, ast.Subscript):
                name = self._container_name(target.value)
                if name is not None:
                    self._record_registry(target.lineno, name, "evict")
        self.generic_visit(node)

    def _registry_call(self, node: ast.Call, chain: tuple[str, ...],
                       name: str) -> None:
        if not chain:
            return
        if name in _EVICT_METHODS:
            container = (
                self._alias_stack[-1].get(chain[0], chain[0])
                if len(chain) == 1
                else chain[-1]
            )
            self._record_registry(node.lineno, container, "evict")
        elif name in _STORE_METHODS:
            container = (
                self._alias_stack[-1].get(chain[0], chain[0])
                if len(chain) == 1
                else chain[-1]
            )
            key_idents = [i for arg in node.args for i in _idents(arg)]
            if _hinted((container, *key_idents)):
                self._record_registry(node.lineno, container, "store")

    # -- calls & effects ----------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        decomposed = _attr_chain(node.func)
        if decomposed is not None:
            chain, name = decomposed
            self._current.calls.append(CallRecord(chain, name, node.lineno))
            self._registry_call(node, chain, name)
            found = fx.classify_call(chain, name, self.summary.imports)
            if found:
                self._add_effects(node, found)
            if name == "SagaStep":
                self._record_saga_step(node, after_pivot=False)
            # list(set(...)) / tuple(set(...)) materialize hash order
            if (
                not chain
                and name in ("list", "tuple")
                and node.args
                and _is_set_expr(node.args[0])
            ):
                self._add_effects(node, (fx.UNORDERED_ITER,))
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if _is_set_expr(node.iter):
            self._add_effects(node.iter, (fx.UNORDERED_ITER,))
        self.generic_visit(node)

    def _visit_comprehensions(self, generators: Sequence[ast.comprehension]) -> None:
        for gen in generators:
            if _is_set_expr(gen.iter):
                self._add_effects(gen.iter, (fx.UNORDERED_ITER,))

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehensions(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehensions(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehensions(node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehensions(node.generators)
        self.generic_visit(node)

    # -- saga steps ---------------------------------------------------

    def visit_List(self, node: ast.List) -> None:
        # a `steps=[SagaStep(...), ...]` literal: elements after the
        # pivot barrier are rolled forward by recovery, never
        # compensated, so they are implicitly forward-only.
        seen_pivot = False
        handled: set[int] = set()
        for elt in node.elts:
            if not isinstance(elt, ast.Call):
                continue
            decomposed = _attr_chain(elt.func)
            if decomposed is None or decomposed[1] != "SagaStep":
                continue
            self._record_saga_step(elt, after_pivot=seen_pivot)
            handled.add(id(elt))
            for kw in elt.keywords:
                if kw.arg == "pivot" and _const_true(kw.value):
                    seen_pivot = True
        # visit children, but skip re-recording the handled SagaSteps
        for child in ast.iter_child_nodes(node):
            if id(child) in handled:
                assert isinstance(child, ast.Call)
                for sub in ast.iter_child_nodes(child):
                    self.visit(sub)
            else:
                self.visit(child)

    def _record_saga_step(self, node: ast.Call, after_pivot: bool) -> None:
        if any(s.line == node.lineno for s in self.summary.saga_steps):
            return  # already recorded via the list-literal pass
        step_name = ""
        if node.args and isinstance(node.args[0], ast.Constant):
            value = node.args[0].value
            if isinstance(value, str):
                step_name = value
        has_undo = pivot = forward_only = False
        for kw in node.keywords:
            if kw.arg == "undo" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            ):
                has_undo = True
            elif kw.arg == "pivot" and _const_true(kw.value):
                pivot = True
            elif kw.arg == "forward_only" and _const_true(kw.value):
                forward_only = True
        self.summary.saga_steps.append(
            SagaStepSite(
                line=node.lineno,
                snippet=self._snippet(node.lineno),
                step_name=step_name,
                has_undo=has_undo,
                pivot=pivot,
                forward_only=forward_only,
                after_pivot=after_pivot,
            )
        )


def build_summary(tree: ast.Module, path: str, lines: Sequence[str]) -> ModuleSummary:
    """Summarize one parsed module for the program pass."""
    summary = ModuleSummary(
        module=module_name_for(path),
        path=path,
        is_package=path.endswith("/__init__.py") or path == "__init__.py",
    )
    _SummaryBuilder(summary, lines).visit(tree)
    return summary


# -- the linked program -----------------------------------------------


class Program:
    """Linked summaries: symbol table, call edges, effect fixpoint."""

    def __init__(self, summaries: Iterable[ModuleSummary]) -> None:
        self.modules: dict[str, ModuleSummary] = {}
        for s in summaries:
            self.modules[s.module] = s
        self.functions: dict[str, FunctionInfo] = {}
        #: module -> local symbol name -> ("func"|"class", qual or class name)
        self._symbols: dict[str, dict[str, tuple[str, str]]] = {}
        for mod, s in self.modules.items():
            table: dict[str, tuple[str, str]] = {}
            for f in s.functions:
                self.functions[f.qual] = f
                if not f.cls and f.name != "<module>":
                    table[f.name] = ("func", f.qual)
            for cname in s.classes:
                table[cname] = ("class", cname)
            self._symbols[mod] = table
        self.edges: dict[str, list[str]] = {}
        self._link()
        leaf = {
            qual: frozenset(site.effect for site in info.effect_sites)
            for qual, info in self.functions.items()
        }
        self.effects: dict[str, frozenset[str]] = fx.propagate(leaf, self.edges)

    # -- linking ------------------------------------------------------

    def _method_qual(self, module: str, cls: str, name: str,
                     seen: Optional[set[tuple[str, str]]] = None) -> Optional[str]:
        """Resolve ``cls.name`` in ``module``, walking project bases."""
        seen = seen or set()
        if (module, cls) in seen:
            return None
        seen.add((module, cls))
        summary = self.modules.get(module)
        if summary is None or cls not in summary.classes:
            return None
        info = summary.classes[cls]
        if name in info.methods:
            return f"{module}.{cls}.{name}"
        for base in info.bases:
            located = self._locate_class(module, base)
            if located is not None:
                base_mod, base_cls = located
                qual = self._method_qual(base_mod, base_cls, name, seen)
                if qual is not None:
                    return qual
        return None

    def _locate_class(self, module: str, ref: str) -> Optional[tuple[str, str]]:
        """Find the defining module of a base-class reference."""
        summary = self.modules.get(module)
        if summary is None:
            return None
        head, _, rest = ref.partition(".")
        if not rest:
            if ref in summary.classes:
                return (module, ref)
            target = summary.imports.get(ref)
            if target is not None:
                return self._split_symbol(target, want="class")
            return None
        # dotted base like `mod.Class`
        target = summary.imports.get(head)
        if target is not None:
            return self._split_symbol(f"{target}.{rest}", want="class")
        return self._split_symbol(ref, want="class")

    def _split_symbol(
        self, dotted: str, want: str
    ) -> Optional[tuple[str, str]]:
        """Split ``pkg.mod.Symbol`` into (module, symbol) against the
        project module index; longest module prefix wins."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            mod = ".".join(parts[:cut])
            if mod in self.modules:
                rest = parts[cut:]
                if len(rest) != 1:
                    return None
                kind_entry = self._symbols[mod].get(rest[0])
                if kind_entry is None:
                    return None
                kind, _ = kind_entry
                if kind != want:
                    return None
                return (mod, rest[0])
        return None

    def _resolve_call(self, summary: ModuleSummary, fn: FunctionInfo,
                      call: CallRecord) -> Optional[str]:
        mod = summary.module
        if not call.chain:
            entry = self._symbols[mod].get(call.name)
            if entry is not None:
                kind, ref = entry
                if kind == "func":
                    return ref
                return self._class_init(mod, ref)
            target = summary.imports.get(call.name)
            if target is not None:
                return self._resolve_dotted(target)
            return None
        if call.chain[0] in ("self", "cls") and len(call.chain) == 1 and fn.cls:
            return self._method_qual(mod, fn.cls, call.name)
        # receiver is a local class name or an import alias
        head = call.chain[0]
        entry = self._symbols[mod].get(head)
        if entry is not None and entry[0] == "class" and len(call.chain) == 1:
            return self._method_qual(mod, entry[1], call.name)
        target = summary.imports.get(head)
        if target is not None:
            dotted = ".".join((target, *call.chain[1:], call.name))
            return self._resolve_dotted(dotted)
        return None

    def _class_init(self, module: str, cls: str) -> Optional[str]:
        return self._method_qual(module, cls, "__init__")

    def _resolve_dotted(self, dotted: str) -> Optional[str]:
        """``pkg.mod.func`` / ``pkg.mod.Class`` / ``pkg.mod.Class.method``."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            mod = ".".join(parts[:cut])
            if mod not in self.modules:
                continue
            rest = parts[cut:]
            if not rest:
                return None  # a bare module is not callable
            entry = self._symbols[mod].get(rest[0])
            if entry is None:
                return None
            kind, ref = entry
            if len(rest) == 1:
                return ref if kind == "func" else self._class_init(mod, ref)
            if kind == "class" and len(rest) == 2:
                return self._method_qual(mod, ref, rest[1])
            return None
        return None

    def _link(self) -> None:
        for mod in sorted(self.modules):
            summary = self.modules[mod]
            for f in summary.functions:
                outs: list[str] = []
                for call in f.calls:
                    qual = self._resolve_call(summary, f, call)
                    if qual is not None and qual in self.functions:
                        outs.append(qual)
                self.edges[f.qual] = sorted(set(outs))

    # -- queries -------------------------------------------------------

    def reachable_chains(self, roots: Iterable[str]) -> dict[str, list[str]]:
        """BFS from ``roots``: qualname → shortest call chain (a list of
        qualnames starting at a root).  Deterministic: roots and edges
        are explored in sorted order."""
        parent: dict[str, Optional[str]] = {}
        queue: deque[str] = deque()
        for root in sorted(set(roots)):
            if root in self.functions and root not in parent:
                parent[root] = None
                queue.append(root)
        while queue:
            fn = queue.popleft()
            for callee in self.edges.get(fn, ()):
                if callee not in parent:
                    parent[callee] = fn
                    queue.append(callee)
        chains: dict[str, list[str]] = {}
        for fn in parent:
            chain: list[str] = []
            cur: Optional[str] = fn
            while cur is not None:
                chain.append(cur)
                cur = parent[cur]
            chain.reverse()
            chains[fn] = chain
        return chains

