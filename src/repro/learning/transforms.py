"""Learning value transformations by example.

Section 5 ("Complex functions / transforms"): "Sometimes the user will want
to apply complex operations that are difficult to demonstrate: for instance,
perform an aggregation or evaluate an arithmetic expression. It is important
to explore approaches to searching for possible functions [19]."

This module implements that search: given a few (row, desired-value)
examples, it enumerates a hypothesis space of candidate functions over the
row's existing attributes — string formatting, token extraction, case
changes, concatenations, and arithmetic with inferred constants — keeps
those consistent with *every* example, and ranks them by simplicity. The
winning transform then auto-completes the rest of the column, Flash-Fill
style, within the CopyCat workspace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..errors import LearningError
from ..util.text import title_case, token_strings

RowLike = Mapping[str, Any]

#: Complexity priors: simpler hypothesis classes rank first on ties.
_PRIORITY = {
    "identity": 0,
    "case": 1,
    "token": 2,
    "affix": 2,
    "split": 2,
    "pad": 2,
    "round": 2,
    "scale": 3,
    "shift": 3,
    "linear": 4,
    "concat": 3,
    "constant": 5,
}


@dataclass(frozen=True)
class Transform:
    """A candidate function from a row to a value."""

    kind: str
    description: str
    fn: Callable[[RowLike], Any] = field(compare=False)
    inputs: tuple[str, ...] = ()

    @property
    def priority(self) -> int:
        return _PRIORITY.get(self.kind, 9)

    def apply(self, row: RowLike) -> Any:
        try:
            return self.fn(row)
        except (TypeError, ValueError, AttributeError, IndexError, KeyError):
            return None

    def __str__(self) -> str:
        return self.description


def _as_float(value: Any) -> float | None:
    if value is None or isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _string_candidates(attr: str) -> list[Transform]:
    """Unary string transforms of one attribute."""
    def get(row: RowLike) -> str:
        value = row.get(attr)
        if value is None:
            raise ValueError("null input")
        return str(value)

    candidates = [
        Transform("identity", f"{attr}", lambda r, g=get: g(r), (attr,)),
        Transform("case", f"upper({attr})", lambda r, g=get: g(r).upper(), (attr,)),
        Transform("case", f"lower({attr})", lambda r, g=get: g(r).lower(), (attr,)),
        Transform("case", f"title({attr})", lambda r, g=get: title_case(g(r)), (attr,)),
        Transform(
            "token",
            f"first_token({attr})",
            lambda r, g=get: token_strings(g(r))[0],
            (attr,),
        ),
        Transform(
            "token",
            f"last_token({attr})",
            lambda r, g=get: token_strings(g(r))[-1],
            (attr,),
        ),
        Transform(
            "split",
            f"before_comma({attr})",
            lambda r, g=get: g(r).split(",", 1)[0].strip(),
            (attr,),
        ),
        Transform(
            "split",
            f"after_comma({attr})",
            lambda r, g=get: g(r).split(",", 1)[1].strip(),
            (attr,),
        ),
    ]
    for length in (1, 2, 3, 5):
        candidates.append(
            Transform(
                "affix",
                f"prefix{length}({attr})",
                lambda r, g=get, n=length: g(r)[:n],
                (attr,),
            )
        )
    return candidates


def _numeric_candidates(
    attr: str, examples: Sequence[tuple[RowLike, Any]]
) -> list[Transform]:
    """Arithmetic transforms with constants inferred from the examples."""
    pairs = []
    for row, target in examples:
        x = _as_float(row.get(attr))
        y = _as_float(target)
        if x is None or y is None:
            return []
        pairs.append((x, y))
    if not pairs:
        return []
    candidates: list[Transform] = []

    def getnum(row: RowLike) -> float:
        value = _as_float(row.get(attr))
        if value is None:
            raise ValueError("non-numeric")
        return value

    # Rounding to a consistent number of digits.
    for digits in (0, 1, 2, 3):
        if all(abs(round(x, digits) - y) < 1e-9 for x, y in pairs):
            candidates.append(
                Transform(
                    "round",
                    f"round({attr}, {digits})",
                    lambda r, g=getnum, d=digits: round(g(r), d),
                    (attr,),
                )
            )
            break
    # Pure scaling: y = c * x (consistent ratio).
    x0, y0 = pairs[0]
    if x0 != 0:
        ratio = y0 / x0
        if abs(ratio - 1.0) > 1e-12 and all(
            x != 0 and abs(y / x - ratio) < 1e-6 for x, y in pairs
        ):
            candidates.append(
                Transform(
                    "scale",
                    f"{attr} * {ratio:g}",
                    lambda r, g=getnum, c=ratio: g(r) * c,
                    (attr,),
                )
            )
    # Pure shift: y = x + c.
    delta = y0 - x0
    if abs(delta) > 1e-12 and all(abs((x + delta) - y) < 1e-6 for x, y in pairs):
        candidates.append(
            Transform(
                "shift",
                f"{attr} + {delta:g}",
                lambda r, g=getnum, c=delta: g(r) + c,
                (attr,),
            )
        )
    # General linear: y = a*x + b from the first two examples.
    if len(pairs) >= 2:
        (xa, ya), (xb, yb) = pairs[0], pairs[1]
        if xa != xb:
            a = (ya - yb) / (xa - xb)
            b = ya - a * xa
            if (abs(a - 1.0) > 1e-9 or abs(b) > 1e-9) and all(
                abs(a * x + b - y) < 1e-6 for x, y in pairs
            ):
                candidates.append(
                    Transform(
                        "linear",
                        f"{a:g} * {attr} + {b:g}",
                        lambda r, g=getnum, aa=a, bb=b: aa * g(r) + bb,
                        (attr,),
                    )
                )
    # Zero-padding of integers ("00042").
    widths = {len(str(target)) for _, target in examples if target is not None}
    if len(widths) == 1:
        width = widths.pop()
        if all(
            isinstance(target, str) and target == str(int(x)).zfill(width)
            for (x, _), (_, target) in zip(pairs, examples)
        ):
            candidates.append(
                Transform(
                    "pad",
                    f"zfill({attr}, {width})",
                    lambda r, g=getnum, w=width: str(int(g(r))).zfill(w),
                    (attr,),
                )
            )
    return candidates


def _concat_candidates(attrs: Sequence[str]) -> list[Transform]:
    """Binary concatenations with common separators."""
    separators = (", ", " ", " - ", "")
    candidates = []
    for first in attrs:
        for second in attrs:
            if first == second:
                continue
            for sep in separators:
                def fn(row: RowLike, a=first, b=second, s=sep) -> str:
                    va, vb = row.get(a), row.get(b)
                    if va is None or vb is None:
                        raise ValueError("null input")
                    return f"{va}{s}{vb}"

                label = f"{first} + {sep!r} + {second}"
                candidates.append(Transform("concat", label, fn, (first, second)))
    return candidates


class TransformLearner:
    """Searches the function space for transforms consistent with examples."""

    def __init__(self, max_results: int = 5):
        self.max_results = max_results

    def learn(
        self,
        examples: Sequence[tuple[RowLike, Any]],
        attributes: Sequence[str] | None = None,
    ) -> list[Transform]:
        """Transforms that reproduce *every* example, ranked by simplicity.

        ``examples`` are (row, desired value) pairs; ``attributes`` limits
        which row attributes may be used (defaults to all present).
        """
        if not examples:
            raise LearningError("need at least one (row, value) example")
        if attributes is None:
            attributes = sorted({name for row, _ in examples for name in row})
        attributes = list(attributes)

        candidates: list[Transform] = []
        for attr in attributes:
            candidates.extend(_string_candidates(attr))
            candidates.extend(_numeric_candidates(attr, examples))
        candidates.extend(_concat_candidates(attributes))
        # Constant output (last resort; only sensible with one distinct value).
        targets = {str(target) for _, target in examples}
        if len(targets) == 1:
            only = examples[0][1]
            candidates.append(
                Transform("constant", f"const({only!r})", lambda r, v=only: v, ())
            )

        consistent = [
            transform
            for transform in candidates
            if all(_matches(transform.apply(row), target) for row, target in examples)
        ]
        # Rank: simplicity prior, then fewest inputs, then description.
        consistent.sort(key=lambda t: (t.priority, len(t.inputs), t.description))
        deduped: list[Transform] = []
        seen: set[str] = set()
        for transform in consistent:
            if transform.description not in seen:
                seen.add(transform.description)
                deduped.append(transform)
        return deduped[: self.max_results]

    def best(
        self,
        examples: Sequence[tuple[RowLike, Any]],
        attributes: Sequence[str] | None = None,
    ) -> Transform:
        ranked = self.learn(examples, attributes)
        if not ranked:
            raise LearningError("no transform is consistent with the examples")
        return ranked[0]


def _matches(produced: Any, target: Any) -> bool:
    if produced is None:
        return target is None
    if isinstance(target, str) and not isinstance(produced, str):
        # A string target is compared literally — "00042" is not 42.0.
        return str(produced) == target
    if isinstance(produced, float) or isinstance(target, float):
        a, b = _as_float(produced), _as_float(target)
        if a is not None and b is not None:
            return abs(a - b) < 1e-6
    return str(produced) == str(target)
