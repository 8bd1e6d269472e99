"""The repo invariant rules (REPRO001–REPRO007; REPRO004 is retired).

Each rule exists because an invariant was only ever enforced by
convention across the obs/cache/resilience/drift layers:

- **REPRO001** — environment variables are read only in
  :mod:`repro.util.knobs`, through declared knobs. A stray
  ``os.environ`` read anywhere else makes behavior depend on *when* a
  module was imported and escapes the ``overridden()`` machinery.
- **REPRO002** — every metric name passed to ``METRICS.inc`` / ``gauge``
  / ``observe`` / ``timer`` must match a pattern declared in
  :mod:`repro.obs.registry`, so counters cannot silently diverge from
  the names dashboards and ``--trace`` summaries read back.
- **REPRO003** — no bare ``except:`` / ``except Exception`` whose body
  neither re-raises nor records the failure (log or metric). Swallowed
  exceptions were how stale-wrapper rows used to slip through.
- **REPRO005** — no unseeded randomness or wall-clock reads in
  deterministic paths: module-level ``random.*`` calls, argless
  ``random.Random()``, ``time.time()``, and ``datetime.now()`` must go
  through :mod:`repro.util.rng` (or be suppressed with justification).
- **REPRO006** — no ``@recorded`` method on ``CopyCatSession`` may be
  listed in :data:`repro.durability.actions.UNRECORDED` (reflective: it
  imports the list). Those methods take arguments that cannot round-trip
  through the log, so recording one would write actions replay cannot
  re-apply.
- **REPRO007** — no ``sum(...)`` over a set: a set display or
  comprehension, ``set()``/``frozenset()``, or a set operator on
  ``.keys()`` views, directly or as a comprehension's source. Float
  addition is not associative, so a sum in hash order can change with
  ``PYTHONHASHSEED``; sum in ``sorted`` order, or suppress the line where
  every term is an integer.

Every diagnostic carries ``file:line``; see :mod:`~repro.analysis.lint.
engine` for the suppression syntax.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from ...obs.registry import declared_samples, is_declared
from ..diagnostics import ERROR, Diagnostic
from .engine import SourceFile

#: the one module in which REPRO001 allows environment reads.
_ENV_ALLOWED_PARTS = ("repro", "util", "knobs.py")
#: files in which REPRO005 allows raw randomness / clock reads.
_RNG_ALLOWED_FILES = {"rng.py"}

_METRIC_MUTATORS = {"inc", "gauge", "observe", "timer"}
_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "betavariate", "seed", "getrandbits",
}
_CLOCK_FNS = {"time", "time_ns"}
_DATETIME_FNS = {"now", "utcnow", "today"}


# -- REPRO001: env reads live in the knobs module -----------------------------
def rule_env_reads(sf: SourceFile) -> Iterable[Diagnostic]:
    if sf.path.parts[-3:] == _ENV_ALLOWED_PARTS:
        return
    os_env_names: set[str] = set()
    for node in ast.walk(sf.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            for alias in node.names:
                if alias.name in ("environ", "getenv"):
                    os_env_names.add(alias.asname or alias.name)
    for node in ast.walk(sf.tree):
        hit = None
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "os" and node.attr in ("environ", "getenv"):
                hit = f"os.{node.attr}"
        elif isinstance(node, ast.Name) and node.id in os_env_names:
            if isinstance(node.ctx, ast.Load):
                hit = node.id
        if hit:
            yield Diagnostic(
                "REPRO001", ERROR,
                f"{hit} read outside repro/util/knobs.py; declare a Knob in "
                f"the layer's config.py so overridden() can see it",
                path=sf.location(node.lineno),
            )


# -- REPRO002: metric names must be declared ----------------------------------
def _metric_name_parts(node: ast.expr) -> list[str | None]:
    """Literal fragments of a metric-name expression; ``None`` marks a hole."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        parts: list[str | None] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append(None)
        return parts
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _metric_name_parts(node.left) + _metric_name_parts(node.right)
    return [None]


def rule_metric_names(sf: SourceFile) -> Iterable[Diagnostic]:
    samples = None  # computed lazily, once per file that needs it
    for node in ast.walk(sf.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr not in _METRIC_MUTATORS or not node.args:
            continue
        receiver = ast.unparse(node.func.value)
        if not receiver.endswith("METRICS"):
            continue
        parts = _metric_name_parts(node.args[0])
        literals = [p for p in parts if p is not None]
        if not literals:
            continue  # fully dynamic: nothing checkable statically
        if len(parts) == 1:
            name = parts[0]
            if not is_declared(name):
                yield Diagnostic(
                    "REPRO002", ERROR,
                    f"metric {name!r} is not declared in repro.obs.registry",
                    path=sf.location(node.lineno),
                )
            continue
        shape = "".join(re.escape(p) if p is not None else ".+" for p in parts)
        if samples is None:
            samples = declared_samples()
        pattern = re.compile(shape)
        if not any(pattern.fullmatch(sample) for sample in samples):
            rendered = "".join(p if p is not None else "<…>" for p in parts)
            yield Diagnostic(
                "REPRO002", ERROR,
                f"dynamically-built metric name {rendered!r} matches no "
                f"pattern declared in repro.obs.registry",
                path=sf.location(node.lineno),
            )


# -- REPRO003: no silent overbroad excepts ------------------------------------
def _is_overbroad(handler: ast.ExceptHandler) -> bool:
    kind = handler.type
    if kind is None:
        return True
    names: list[ast.expr] = list(kind.elts) if isinstance(kind, ast.Tuple) else [kind]
    return any(
        isinstance(name, ast.Name) and name.id in ("Exception", "BaseException")
        for name in names
    )


def _body_records_failure(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            rendered = ast.unparse(node.func)
            if "METRICS" in rendered or "log" in rendered.lower() or "warn" in rendered.lower():
                return True
    return False


def rule_overbroad_except(sf: SourceFile) -> Iterable[Diagnostic]:
    for node in ast.walk(sf.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if _is_overbroad(node) and not _body_records_failure(node):
            caught = ast.unparse(node.type) if node.type is not None else "everything"
            yield Diagnostic(
                "REPRO003", ERROR,
                f"overbroad except ({caught}) neither re-raises nor records "
                f"the failure; narrow it, or log/count before swallowing",
                path=sf.location(node.lineno),
            )


# -- REPRO005: determinism (seeded rng, no wall clock) ------------------------
def rule_determinism(sf: SourceFile) -> Iterable[Diagnostic]:
    if sf.name in _RNG_ALLOWED_FILES:
        return
    for node in ast.walk(sf.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        func = node.func
        if not isinstance(func.value, ast.Name):
            continue
        module, attr = func.value.id, func.attr
        message = None
        if module == "random" and attr in _RANDOM_FNS:
            message = (
                f"module-level random.{attr}() is unseeded; derive a "
                f"Random from repro.util.rng instead"
            )
        elif module == "random" and attr == "Random" and not node.args and not node.keywords:
            message = (
                "random.Random() without a seed is nondeterministic; use "
                "repro.util.rng.make_rng/derive_rng"
            )
        elif module == "time" and attr in _CLOCK_FNS:
            message = (
                f"time.{attr}() reads the wall clock in a deterministic "
                f"path; inject the timestamp or use a monotonic timer"
            )
        elif module in ("datetime", "date") and attr in _DATETIME_FNS:
            message = (
                f"{module}.{attr}() reads the wall clock; pass the date in "
                f"explicitly so runs reproduce"
            )
        if message:
            yield Diagnostic(
                "REPRO005", ERROR, message, path=sf.location(node.lineno)
            )


# -- REPRO006: no @recorded session method is listed as unrecorded -----------
def _recorded_methods(cls: ast.ClassDef) -> Iterable[tuple[str, int]]:
    for item in cls.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in item.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name == "recorded":
                yield item.name, item.lineno
                break


def rule_unrecorded_stays_unrecorded(files: list[SourceFile]) -> Iterable[Diagnostic]:
    """Reflective check: ``@recorded`` methods vs ``actions.UNRECORDED``.

    Every ``@recorded`` method has a codec (the generic one, when no
    hand-written one exists), so the one way to go wrong is to record a
    method the durability contract says stays out of the log.
    """
    targets = [
        (sf, node)
        for sf in files
        if sf.name == "session.py"
        for node in sf.tree.body
        if isinstance(node, ast.ClassDef) and node.name == "CopyCatSession"
    ]
    if not targets:
        return
    try:
        from ...durability.actions import UNRECORDED
    except ImportError:
        return  # durability layer absent from this checkout: nothing to compare
    unrecorded = set(UNRECORDED)
    for sf, cls in targets:
        for name, lineno in _recorded_methods(cls):
            if name in unrecorded:
                yield Diagnostic(
                    "REPRO006", ERROR,
                    f"@recorded method {name!r} is listed in durability."
                    f"actions.UNRECORDED; drop the decorator or the listing",
                    path=sf.location(lineno),
                )


# -- REPRO007: no sum in hash order ---------------------------------------------
_SET_OPERATORS = (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)


def _is_keys_view(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "keys"
        and not node.args
    )


def _iterates_in_hash_order(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPERATORS):
        return any(
            _is_keys_view(side) or _iterates_in_hash_order(side)
            for side in (node.left, node.right)
        )
    return False


def rule_hash_order_sums(sf: SourceFile) -> Iterable[Diagnostic]:
    for node in ast.walk(sf.tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
            continue
        if node.func.id != "sum" or not node.args:
            continue
        source = node.args[0]
        sources = [source]
        if isinstance(source, (ast.GeneratorExp, ast.ListComp)):
            sources += [generator.iter for generator in source.generators]
        if any(_iterates_in_hash_order(each) for each in sources):
            yield Diagnostic(
                "REPRO007", ERROR,
                "sum over a set adds in hash order, which changes with "
                "PYTHONHASHSEED; sum sorted(...) instead, or suppress the "
                "line when every term is an integer",
                path=sf.location(node.lineno),
            )


FILE_RULES = (
    rule_env_reads,
    rule_metric_names,
    rule_overbroad_except,
    rule_determinism,
    rule_hash_order_sums,
)
PROJECT_RULES = (rule_unrecorded_stays_unrecorded,)
