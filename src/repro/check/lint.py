"""Determinism and dead-code linter: AST passes over the package source.

The sweep runner's guarantees — parallel execution bit-identical to
sequential, content-addressed result cache — hold only if every
result-producing path is a pure function of its seeds.  Three hazard
classes silently break that, and this linter flags all of them:

* **DET001 — unseeded randomness.**  Module-level ``random.*`` calls and
  the legacy ``numpy.random.*`` global functions draw from ambient
  process state; ``default_rng()`` / ``RandomState()`` / ``Random()``
  and the numpy bit-generator constructors (``PCG64()``, ``MT19937()``,
  ``Philox()``, …) without a seed argument are seeded from the OS, as
  are the explicitly unseeded spellings ``default_rng(None)`` and
  ``default_rng(seed=None)``.  Explicitly seeded constructions
  (``default_rng(seed)``) are fine.
* **DET002 — wall-clock reads.**  ``time.time`` / ``perf_counter`` /
  ``monotonic`` / ``datetime.now`` and friends leak host timing into
  results.  Both calls and bare references (e.g. used as a default
  argument) are flagged.
* **DET003 — unordered iteration feeding ordered output.**  Iterating a
  ``set`` (literal, comprehension, or ``set(...)`` call) in a ``for``
  loop or a list, generator or dict comprehension, materializing one
  with ``list`` / ``tuple`` / ``enumerate``, or ``str.join``-ing a set
  or dict view makes output depend on hash order — which for strings
  depends on ``PYTHONHASHSEED``.  (Dict iteration itself is
  insertion-ordered and is *not* flagged.)

One more rule keeps deleted code deleted:

* **DEAD001 — unused public symbol.**  A public top-level ``def`` or
  ``class`` of a package that no ``Name`` or ``Attribute`` anywhere in
  the package, or in the ``benchmarks/``, ``examples/`` and
  ``perfbench/`` trees next to its ``src/``, refers to.  Tests do not
  count, nor do import aliases and ``__all__`` strings.  Classes filed
  in a registry by ``@register_tuner`` / ``@register_cell`` are exempt.
  It runs when ``lint_paths`` is given a top-level package directory.

Legitimate sites (``repro report``'s stage timer, the runner's
wall-time accounting — measurement, not results) carry a pragma comment
on the offending line::

    t0 = time.perf_counter()  # det: allow-wallclock

``# det: allow`` suppresses every rule on its line; the targeted forms
are ``allow-rng``, ``allow-wallclock``, ``allow-unordered`` and, on the
``def`` / ``class`` line, ``allow-unused`` with the user surface that
keeps the symbol (a README snippet, a documented DSL name).

Exposed as ``repro lint [paths...]``; exits non-zero on any finding, so
CI wires it next to ruff.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

#: Fully-qualified callables/attributes that read the wall clock.
WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.clock_gettime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: RNG constructors that are deterministic *only when given a seed*.
#: Includes every numpy bit-generator class: ``Generator(PCG64())``
#: hides an OS-entropy seed inside the nested constructor, and the
#: visitor walks nested calls, so the inner ``PCG64()`` is what gets
#: flagged.
SEEDABLE_FACTORIES = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "numpy.random.SeedSequence",
    "numpy.random.Generator",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.MT19937",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "random.Random",
}

#: Inherently nondeterministic regardless of arguments.
ALWAYS_NONDET = {"random.SystemRandom", "os.urandom", "uuid.uuid4", "secrets"}

#: Sinks that materialize their first argument in iteration order.
ORDER_SINKS = {"list", "tuple", "enumerate"}

_PRAGMA_ALL = "det: allow"
_PRAGMA_BY_RULE = {
    "DET001": "det: allow-rng",
    "DET002": "det: allow-wallclock",
    "DET003": "det: allow-unordered",
    "DEAD001": "det: allow-unused",
}

#: Class decorators that file a class in a string-keyed registry
#: (``make_tuner("bo")``, ``execute_cell("nostop", ...)``): the registry
#: is how callers reach it, so it needs no by-name reference.
REGISTRY_DECORATORS = {"register_tuner", "register_cell"}

#: Trees next to a package's ``src/`` whose uses keep its symbols alive.
CONSUMER_DIRS = ("benchmarks", "examples", "perfbench")


@dataclass(frozen=True)
class LintFinding:
    """One lint finding at a source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, Union[str, int]]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


def _qualified_name(
    node: ast.AST, aliases: Dict[str, str]
) -> Optional[str]:
    """Resolve a Name/Attribute chain to a dotted module path, if static."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id, node.id)
    parts.append(base)
    return ".".join(reversed(parts))


def _is_set_expr(node: ast.AST, aliases: Dict[str, str]) -> bool:
    """Whether ``node`` statically evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _qualified_name(node.func, aliases)
        return name in {"set", "frozenset"}
    return False


def _suppressed(lines: Sequence[str], rule: str, lineno: int) -> bool:
    """Whether line ``lineno`` carries a pragma that silences ``rule``."""
    if not 1 <= lineno <= len(lines):
        return False
    line = lines[lineno - 1]
    if "#" not in line:
        return False
    comment = line[line.index("#"):]
    if _PRAGMA_BY_RULE[rule] in comment:
        return True
    # Bare "det: allow" (not followed by a dash) suppresses all rules.
    idx = comment.find(_PRAGMA_ALL)
    if idx >= 0:
        rest = comment[idx + len(_PRAGMA_ALL):]
        return not rest.startswith("-")
    return False


def _is_dict_view(node: ast.AST) -> bool:
    """Whether ``node`` is a ``.keys()`` / ``.values()`` / ``.items()`` call."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in {"keys", "values", "items"}
        and not node.args
        and not node.keywords
    )


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str, source_lines: Sequence[str]) -> None:
        self.path = path
        self.lines = source_lines
        self.aliases: Dict[str, str] = {}
        self.findings: List[LintFinding] = []

    # -- import bookkeeping -------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module and node.level == 0:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    # -- reporting ----------------------------------------------------------

    def _flag(self, rule: str, node: ast.AST, message: str) -> None:
        if _suppressed(self.lines, rule, node.lineno):
            return
        self.findings.append(
            LintFinding(
                path=self.path,
                line=node.lineno,
                col=node.col_offset + 1,
                rule=rule,
                message=message,
            )
        )

    # -- DET001 / DET002: calls and references ------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and node.args
        ):
            arg = node.args[0]
            if _is_set_expr(arg, self.aliases) or _is_dict_view(arg):
                self._flag(
                    "DET003",
                    node,
                    "join over an unordered collection — output order "
                    "depends on hash seed",
                )
        name = _qualified_name(node.func, self.aliases)
        if name:
            self._check_called_name(node, name)
            if name in ORDER_SINKS and node.args:
                if _is_set_expr(node.args[0], self.aliases):
                    self._flag(
                        "DET003",
                        node,
                        f"{name}() materializes a set in hash order — "
                        "sort it first",
                    )
        self.generic_visit(node)

    def _check_called_name(self, node: ast.Call, name: str) -> None:
        if name in WALL_CLOCK:
            self._flag(
                "DET002",
                node,
                f"wall-clock read {name}() in a result-producing path",
            )
            return
        if name in ALWAYS_NONDET or name.split(".")[0] in ALWAYS_NONDET:
            self._flag("DET001", node, f"nondeterministic source {name}()")
            return
        if name in SEEDABLE_FACTORIES:
            if self._seed_missing(node):
                self._flag(
                    "DET001",
                    node,
                    f"{name}() without a seed draws OS entropy — pass an "
                    "explicit seed",
                )
            return
        root = name.split(".")
        if root[0] == "random" and len(root) == 2:
            self._flag(
                "DET001",
                node,
                f"module-level {name}() uses the ambient global RNG — "
                "use a seeded Generator",
            )
        elif (
            len(root) >= 3
            and root[0] == "numpy"
            and root[1] == "random"
        ):
            self._flag(
                "DET001",
                node,
                f"legacy global {name}() uses ambient numpy RNG state — "
                "use a seeded Generator",
            )

    @staticmethod
    def _seed_missing(node: ast.Call) -> bool:
        """Whether a seedable-factory call is (statically) unseeded.

        Unseeded means: no arguments at all, a literal ``None`` first
        positional, or an explicit ``seed=None`` keyword — all three
        fall back to OS entropy at runtime.  Any other argument is
        assumed to be a real seed.
        """
        if not node.args and not node.keywords:
            return True
        if node.args:
            first = node.args[0]
            return isinstance(first, ast.Constant) and first.value is None
        for kw in node.keywords:
            if kw.arg == "seed":
                return (
                    isinstance(kw.value, ast.Constant)
                    and kw.value.value is None
                )
        return False

    def visit_Attribute(self, node: ast.Attribute) -> None:
        # Bare references to wall-clock callables (default arguments,
        # callbacks) are just deferred reads.
        if isinstance(node.ctx, ast.Load):
            name = _qualified_name(node, self.aliases)
            if name in WALL_CLOCK and not getattr(node, "_det_called", False):
                self._flag(
                    "DET002",
                    node,
                    f"reference to wall-clock callable {name}",
                )
        self.generic_visit(node)

    # -- DET003: unordered iteration ----------------------------------------

    def _check_iter(self, iter_node: ast.AST) -> None:
        if _is_set_expr(iter_node, self.aliases):
            self._flag(
                "DET003",
                iter_node,
                "iteration over a set — order depends on hash seed; "
                "sort it first",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension_iters(self, generators) -> None:
        for comp in generators:
            self._check_iter(comp.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self.visit_comprehension_iters(node.generators)
        self.generic_visit(node)


def lint_source(source: str, path: str = "<string>") -> List[LintFinding]:
    """Lint one module's source text; returns findings in source order."""
    tree = ast.parse(source, filename=path)
    # Mark call targets so the Attribute pass does not double-report the
    # function position of an already-flagged call.
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            node.func._det_called = True  # type: ignore[attr-defined]
    visitor = _DeterminismVisitor(path, source.splitlines())
    visitor.visit(tree)
    return sorted(visitor.findings, key=lambda f: (f.line, f.col, f.rule))


def lint_file(path: Union[str, Path]) -> List[LintFinding]:
    p = Path(path)
    return lint_source(p.read_text(encoding="utf-8"), str(p))


def _python_files(root: Path) -> List[Path]:
    return sorted(f for f in root.rglob("*.py") if "__pycache__" not in f.parts)


def _referenced_names(tree: ast.AST) -> Set[str]:
    """Every ``Name`` and ``Attribute`` identifier in ``tree``.

    Import aliases and ``__all__`` strings are not ``Name`` nodes, so a
    re-export alone keeps nothing alive.
    """
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _is_registered(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = (
            target.attr if isinstance(target, ast.Attribute)
            else getattr(target, "id", None)
        )
        if name in REGISTRY_DECORATORS:
            return True
    return False


def lint_unused_symbols(package: Union[str, Path]) -> List[LintFinding]:
    """DEAD001: public top-level defs and classes nothing references.

    A reference is a ``Name`` or ``Attribute`` anywhere in ``package``
    or, when the package sits in a ``src/`` directory, in the
    ``benchmarks/``, ``examples/`` and ``perfbench/`` trees next to that
    ``src/``.  Tests are not consumers: a symbol only its own tests use
    is dead code with a test.
    """
    package = Path(package)
    sources = {f: f.read_text(encoding="utf-8") for f in _python_files(package)}
    trees = {f: ast.parse(text, filename=str(f)) for f, text in sources.items()}
    consumers = list(trees.values())
    if package.parent.name == "src":
        for name in CONSUMER_DIRS:
            root = package.parent.parent / name
            if root.is_dir():
                consumers.extend(
                    ast.parse(f.read_text(encoding="utf-8"), filename=str(f))
                    for f in _python_files(root)
                )
    referenced: Set[str] = set()
    for tree in consumers:
        referenced |= _referenced_names(tree)
    findings: List[LintFinding] = []
    for path, tree in trees.items():
        lines = sources[path].splitlines()
        for node in tree.body:
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            if (
                node.name.startswith("_")
                or node.name in referenced
                or (isinstance(node, ast.ClassDef) and _is_registered(node))
                or _suppressed(lines, "DEAD001", node.lineno)
            ):
                continue
            findings.append(
                LintFinding(
                    path=str(path),
                    line=node.lineno,
                    col=node.col_offset + 1,
                    rule="DEAD001",
                    message=f"public symbol {node.name} is never referenced "
                    "— delete it",
                )
            )
    return findings


def lint_paths(paths: Iterable[Union[str, Path]]) -> List[LintFinding]:
    """Lint files and/or directory trees (``*.py``, sorted for stability).

    A directory that is a top-level package (it has an ``__init__.py``
    and its parent does not) is also checked for unused public symbols.
    """
    findings: List[LintFinding] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files = _python_files(p)
        elif p.is_file():
            files = [p]
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")
        for f in files:
            findings.extend(lint_file(f))
        if (p / "__init__.py").is_file() and not (
            p.parent / "__init__.py"
        ).is_file():
            findings.extend(lint_unused_symbols(p))
    return findings
