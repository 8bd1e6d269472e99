"""Learning functional source descriptions.

Section 3.2: "the model learner also tries to learn the task that is being
performed by the various sources ... The system describes the new source in
terms of a set of known existing sources and then compares the inputs and
outputs of the new source to the existing sources by executing the new
source and the learned description and comparing the similarity of the
results."

Given a *new* service (or an observed input/output table) and a registry of
known services, the learner enumerates candidate descriptions — a single
known service with an attribute mapping, or a two-step composition — and
scores each by executing it on sample inputs and measuring output agreement.
This enables proposing "replacement sources if a source is down, too slow,
or does not provide a complete set of results".
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Any, Mapping, Sequence

from ...errors import LearningError
from ...substrate.services.base import Service
from ...util.text import normalize


def _values_match(a: Any, b: Any) -> bool:
    if a is None or b is None:
        return a is b
    if isinstance(a, float) or isinstance(b, float):
        try:
            return abs(float(a) - float(b)) <= 1e-6
        except (TypeError, ValueError):
            return False
    return normalize(str(a)) == normalize(str(b))


@dataclass(frozen=True)
class ServiceStep:
    """One step of a description: a known service plus attribute mappings.

    ``input_map`` maps each service input to an attribute of the *new*
    source's schema (its inputs, or outputs of earlier steps); ``output_map``
    maps service outputs to the new source's output attributes they explain.
    """

    service_name: str
    input_map: tuple[tuple[str, str], ...]
    output_map: tuple[tuple[str, str], ...]

    def __str__(self) -> str:
        ins = ", ".join(f"{svc}={src}" for svc, src in self.input_map)
        outs = ", ".join(f"{svc}->{dst}" for svc, dst in self.output_map)
        return f"{self.service_name}({ins}) yields [{outs}]"


@dataclass(frozen=True)
class SourceDescription:
    """A candidate functional description with its empirical agreement score."""

    steps: tuple[ServiceStep, ...]
    score: float
    samples: int

    def __str__(self) -> str:
        chain = " |> ".join(str(step) for step in self.steps)
        return f"[{self.score:.2f} over {self.samples} samples] {chain}"


class SourceDescriptionLearner:
    """Relates a new source to compositions of known services."""

    def __init__(self, known: Sequence[Service], max_inputs: int = 3):
        self.known = list(known)
        self.max_inputs = max_inputs

    # -- public API ----------------------------------------------------------
    def describe(
        self,
        examples: Sequence[Mapping[str, Any]],
        input_names: Sequence[str],
        output_names: Sequence[str],
        min_score: float = 0.5,
    ) -> list[SourceDescription]:
        """Rank descriptions of a source observed as I/O *examples*.

        Each example row carries both the input and output attribute values
        (obtained by executing the new source on sample inputs).
        """
        if not examples:
            raise LearningError("need at least one I/O example to describe a source")
        input_names = list(input_names)
        output_names = list(output_names)
        candidates: list[SourceDescription] = []
        candidates.extend(self._direct_candidates(examples, input_names, output_names))
        candidates.extend(self._composed_candidates(examples, input_names, output_names))
        ranked = [c for c in candidates if c.score >= min_score]
        ranked.sort(key=lambda c: (-c.score, len(c.steps), str(c.steps)))
        return ranked

    def describe_service(
        self,
        new_service: Service,
        sample_inputs: Sequence[Mapping[str, Any]],
        min_score: float = 0.5,
    ) -> list[SourceDescription]:
        """Describe a live service by executing it on *sample_inputs*."""
        examples: list[dict[str, Any]] = []
        for inputs in sample_inputs:
            for row in new_service.invoke(inputs):
                examples.append(dict(row))
        if not examples:
            raise LearningError(
                f"service {new_service.name!r} returned nothing on the samples"
            )
        return self.describe(
            examples,
            input_names=new_service.input_names,
            output_names=new_service.output_names,
            min_score=min_score,
        )

    # -- candidate generation -----------------------------------------------------
    def _direct_candidates(
        self,
        examples: Sequence[Mapping[str, Any]],
        input_names: list[str],
        output_names: list[str],
    ) -> list[SourceDescription]:
        out: list[SourceDescription] = []
        for service in self.known:
            if len(service.input_names) > len(input_names):
                continue
            for input_map in self._input_mappings(service, input_names):
                step_outputs = self._score_outputs(service, input_map, examples)
                if step_outputs is None:
                    continue
                output_map, score, samples = self._best_output_map(
                    step_outputs, examples, output_names
                )
                if output_map:
                    out.append(
                        SourceDescription(
                            steps=(
                                ServiceStep(service.name, tuple(input_map.items()), output_map),
                            ),
                            score=score,
                            samples=samples,
                        )
                    )
        return out

    def _composed_candidates(
        self,
        examples: Sequence[Mapping[str, Any]],
        input_names: list[str],
        output_names: list[str],
    ) -> list[SourceDescription]:
        """Two-step chains: outputs of step 1 feed the inputs of step 2."""
        out: list[SourceDescription] = []
        for first in self.known:
            if len(first.input_names) > len(input_names):
                continue
            for first_inputs in self._input_mappings(first, input_names):
                first_rows = self._execute(first, first_inputs, examples)
                if first_rows is None:
                    continue
                extended = [
                    {**dict(example), **{f"__{first.name}.{k}": v for k, v in produced.items()}}
                    for example, produced in zip(examples, first_rows)
                ]
                intermediate_names = [f"__{first.name}.{name}" for name in first.output_names]
                for second in self.known:
                    if second.name == first.name:
                        continue
                    if len(second.input_names) > len(intermediate_names) + len(input_names):
                        continue
                    pool = intermediate_names + input_names
                    for second_inputs in self._input_mappings(second, pool):
                        if not any(src in intermediate_names for src in second_inputs.values()):
                            continue  # not actually a composition
                        second_rows = self._execute(second, second_inputs, extended)
                        if second_rows is None:
                            continue
                        output_map, score, samples = self._best_output_map(
                            second_rows, examples, output_names
                        )
                        if output_map:
                            out.append(
                                SourceDescription(
                                    steps=(
                                        ServiceStep(
                                            first.name,
                                            tuple(first_inputs.items()),
                                            (),
                                        ),
                                        ServiceStep(
                                            second.name,
                                            tuple(second_inputs.items()),
                                            output_map,
                                        ),
                                    ),
                                    score=score,
                                    samples=samples,
                                )
                            )
        return out

    # -- helpers ---------------------------------------------------------------
    def _input_mappings(self, service: Service, pool: Sequence[str]):
        """All injective maps from the service's inputs into *pool* attributes."""
        needed = list(service.input_names)
        if len(needed) > self.max_inputs:
            return
        for chosen in permutations(pool, len(needed)):
            yield dict(zip(needed, chosen))

    def _execute(
        self,
        service: Service,
        input_map: Mapping[str, str],
        examples: Sequence[Mapping[str, Any]],
    ) -> list[dict[str, Any]] | None:
        """Run *service* per example; None if it fails on most examples."""
        rows: list[dict[str, Any]] = []
        hits = 0
        for example in examples:
            inputs = {svc: example.get(src) for svc, src in input_map.items()}
            if any(value is None for value in inputs.values()):
                rows.append({})
                continue
            results = service.invoke(inputs)
            if results:
                hits += 1
                rows.append({name: results[0][name] for name in service.output_names})
            else:
                rows.append({})
        if hits < max(1, len(examples) // 2):
            return None
        return rows

    def _score_outputs(
        self,
        service: Service,
        input_map: Mapping[str, str],
        examples: Sequence[Mapping[str, Any]],
    ) -> list[dict[str, Any]] | None:
        return self._execute(service, input_map, examples)

    def _best_output_map(
        self,
        produced_rows: Sequence[Mapping[str, Any]],
        examples: Sequence[Mapping[str, Any]],
        output_names: Sequence[str],
    ) -> tuple[tuple[tuple[str, str], ...], float, int]:
        """Greedily align produced attributes to the new source's outputs."""
        if not produced_rows:
            return (), 0.0, 0
        produced_names: set[str] = set()
        for row in produced_rows:
            produced_names.update(row.keys())
        mapping: list[tuple[str, str]] = []
        per_output_scores: list[float] = []
        used: set[str] = set()
        for target in output_names:
            best_name, best_score = None, 0.0
            for candidate in sorted(produced_names - used):
                agree = comparisons = 0
                for produced, example in zip(produced_rows, examples):
                    if candidate not in produced:
                        continue
                    comparisons += 1
                    if _values_match(produced[candidate], example.get(target)):
                        agree += 1
                if comparisons == 0:
                    continue
                score = agree / len(examples)
                if score > best_score:
                    best_name, best_score = candidate, score
            if best_name is not None and best_score > 0:
                mapping.append((best_name, target))
                used.add(best_name)
                per_output_scores.append(best_score)
            else:
                per_output_scores.append(0.0)
        if not mapping:
            return (), 0.0, len(examples)
        overall = sum(per_output_scores) / len(output_names)
        return tuple(mapping), overall, len(examples)
