"""A tuple-at-a-time reference interpreter: the oracle for the evaluator.

Deliberately naive and independent of the compiled engine: one generator
or list of ``(Row, Provenance)`` pairs per plan node, Row objects all the
way through, row-based grouping and blocking, and no caches, metrics or
deadlines.
Select, Project, Rename and Limit stream, so a Limit stops pulling once it
has its rows; every other node evaluates its inputs whole. The evaluator
must match it on rows, provenance expressions and degradation notes.
"""

from __future__ import annotations

from typing import Iterable

from repro.drift.quarantine import QUARANTINE_NOTE
from repro.errors import EvaluationError, ServiceLookupFailed
from repro.linking.blocking import candidate_pairs, token_block_key
from repro.provenance.expressions import Var, times
from repro.resilience.degrade import Degradation, degraded_source
from repro.substrate.relational import AGGREGATES, Catalog, Plan, Result, Row, TupleId
from repro.substrate.relational import evaluator as compiled


def evaluate(catalog: Catalog, plan: Plan) -> Result:
    """Evaluate *plan* row by row; the answer the evaluator must give."""
    interpreter = _Interpreter(catalog)
    schema = plan.output_schema(catalog)
    rows = list(interpreter.eval(plan))
    return Result(schema, rows, degraded=tuple(interpreter.degraded))


class _Interpreter:
    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.degraded: list[Degradation] = []

    def eval(self, plan: Plan) -> Iterable:
        kind = type(plan).__name__
        method = getattr(self, f"eval_{kind.lower()}", None)
        if method is None:
            raise EvaluationError(f"no evaluator for plan node {kind}")
        return method(plan)

    def eval_scan(self, plan):
        notes = self.catalog.metadata(plan.source).notes
        quarantined = notes.get(QUARANTINE_NOTE)
        if quarantined is not None:
            self.degraded.append(
                Degradation(service=plan.source, reason=f"source quarantined: {quarantined}")
            )
        distrusted = notes.get("distrusted_rows") or ()
        annotated = self.catalog.relation(plan.source).annotated()
        return [pair for i, pair in enumerate(annotated) if i not in distrusted]

    def eval_select(self, plan):
        for row, prov in self.eval(plan.child):
            if plan.predicate.matches(row):
                yield row, prov

    def eval_project(self, plan):
        target = plan.output_schema(self.catalog)
        for row, prov in self.eval(plan.child):
            yield row.project(plan.names, target), prov

    def eval_rename(self, plan):
        target = plan.output_schema(self.catalog)
        for row, prov in self.eval(plan.child):
            yield Row(target, row.values), prov

    def eval_limit(self, plan):
        if plan.count <= 0:
            return
        for emitted, pair in enumerate(self.eval(plan.child), start=1):
            yield pair
            if emitted >= plan.count:
                return

    def eval_join(self, plan):
        target = plan.output_schema(self.catalog)
        left_rows = list(self.eval(plan.left))
        right_rows = list(self.eval(plan.right))
        right_keys = [right for _, right in plan.conditions]
        index: dict[tuple, list] = {}
        for other, other_prov in right_rows:
            key = tuple(other[name] for name in right_keys)
            if None not in key:
                index.setdefault(key, []).append((other, other_prov))
        kept = [name for name in plan.right.output_schema(self.catalog).names if name not in right_keys]
        out = []
        for row, prov in left_rows:
            key = tuple(row[left] for left, _ in plan.conditions)
            if None in key:
                continue
            for other, other_prov in index.get(key, ()):
                values = list(row.values) + [other[name] for name in kept]
                out.append((Row(target, values), times(prov, other_prov)))
        return out

    def eval_dependentjoin(self, plan):
        target = plan.output_schema(self.catalog)
        service = self.catalog.service(plan.service)
        input_map = dict(plan.input_map)
        seen: dict = {}
        out = []
        for row, prov in list(self.eval(plan.child)):
            inputs = {svc: row[attr] for svc, attr in input_map.items()}
            if any(value is None for value in inputs.values()):
                continue
            try:
                binding = tuple(sorted(inputs.items()))
                expansions = seen.get(binding)
            except TypeError:
                binding, expansions = None, None
            if expansions is None:
                try:
                    invoked = service.invoke(inputs)
                except ServiceLookupFailed as exc:
                    self.degraded.append(Degradation(service=plan.service, reason=str(exc)))
                    nulls = [None] * len(service.output_names)
                    marker = Var(TupleId(degraded_source(plan.service), 0))
                    out.append((Row(target, list(row.values) + nulls), times(prov, marker)))
                    continue
                expansions = [
                    ([result[n] for n in service.output_names], service.result_tuple_id(result))
                    for result in invoked
                ]
                if binding is not None:
                    seen[binding] = expansions
            for values, result_id in expansions:
                out.append((Row(target, list(row.values) + values), times(prov, Var(result_id))))
        return out

    def eval_recordlinkjoin(self, plan):
        target = plan.output_schema(self.catalog)
        left_rows = list(self.eval(plan.left))
        right_rows = list(self.eval(plan.right))
        candidates = {i: range(len(right_rows)) for i in range(len(left_rows))}
        attr_pairs = plan.linker.block_attribute_pairs()
        n_pairs = len(left_rows) * len(right_rows)
        if n_pairs >= compiled.BLOCKING_MIN_PAIRS and attr_pairs:
            key_fns = [(token_block_key(l), token_block_key(r)) for l, r in attr_pairs]
            blocked = candidate_pairs(
                [row for row, _ in left_rows], [row for row, _ in right_rows], key_fns
            )
            candidates = {i: [] for i in range(len(left_rows))}
            for i, j in blocked:
                candidates[i].append(j)
        out = []
        for i, (row, prov) in enumerate(left_rows):
            scored = [(j, plan.linker.score(row, right_rows[j][0])) for j in candidates[i]]
            matched = [(j, score) for j, score in scored if score >= plan.threshold]
            if plan.best_only and matched:
                best = max(score for _, score in matched)
                matched = [next(pair for pair in matched if pair[1] == best)]
            for j, _ in matched:
                other, other_prov = right_rows[j]
                values = list(row.values) + list(other.values)
                out.append((Row(target, values), times(prov, other_prov)))
        return out

    def eval_union(self, plan):
        target = plan.output_schema(self.catalog)
        return [
            (row.pad_to(target), prov)
            for part in plan.parts
            for row, prov in list(self.eval(part))
        ]

    def eval_distinct(self, plan):
        schema = plan.output_schema(self.catalog)
        return Result(schema, list(self.eval(plan.child))).merged().rows

    def eval_groupby(self, plan):
        schema = plan.output_schema(self.catalog)
        groups: dict[tuple, list] = {}
        for row, prov in list(self.eval(plan.child)):
            groups.setdefault(tuple(row[k] for k in plan.keys), []).append((row, prov))
        out = []
        for key, members in groups.items():
            values = list(key) + [
                AGGREGATES[spec.fn]([row[spec.attribute] for row, _ in members])
                for spec in plan.aggregates
            ]
            out.append((Row(schema, values), times(*(prov for _, prov in members))))
        return out
