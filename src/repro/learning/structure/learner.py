"""The structure learner facade.

Ties the expert committee, clustering, URL-family generalization, projection
search, and the wrapper-induction fallback into the single operation the SCP
session needs: *generalize this copy-paste into an extractor*.

Feedback protocol (Section 3.1): "After each copy and paste operation, the
structure learner guesses a generalization, and the user can provide
feedback ... If the user rejects the suggestions, the system will choose
another hypothesis and revise the suggestions. If the user pastes another
data item ... the system will select a new hypothesis." The
:class:`GeneralizationResult` therefore carries the whole ranked hypothesis
list; rejection advances a cursor, new examples trigger a fresh call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from ...errors import NoHypothesisError
from ...obs import METRICS, TRACER
from ...substrate.documents.clipboard import CopyEvent
from ...substrate.documents.spreadsheet import Sheet
from ...substrate.documents.textdoc import TextDocument
from ...substrate.documents.website import Page, Website
from ...util.text import normalize
from .clustering import cluster_candidates, keyed_clusters
from .experts import (
    DEFAULT_PAGE_EXPERTS,
    DataTypeExpert,
    Expert,
    LabelBlockExpert,
    SheetExpert,
)
from .hierarchy import DetailCrawlExpert
from .hypotheses import (
    ProjectionHypothesis,
    RelationalCandidate,
    column_maps,
    project,
)
from .wrapper_induction import induce_table

URL_FAMILY_EXPERT = "url-pattern"


@dataclass
class GeneralizationResult:
    """Ranked extraction hypotheses for one generalization request."""

    source_name: str
    examples: list[list[str]]
    hypotheses: list[ProjectionHypothesis] = field(default_factory=list)
    _cursor: int = 0

    @property
    def best(self) -> ProjectionHypothesis:
        if not self.hypotheses:
            raise NoHypothesisError(
                f"no hypothesis for source {self.source_name!r}"
            )
        return self.hypotheses[self._cursor]

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.hypotheses) - 1

    def reject_current(self) -> ProjectionHypothesis:
        """User rejected the current suggestion set: advance to the next."""
        if self.exhausted:
            raise NoHypothesisError(
                f"all {len(self.hypotheses)} hypotheses for "
                f"{self.source_name!r} were rejected"
            )
        self._cursor += 1
        return self.best

    def suggested_rows(self) -> list[list[str]]:
        """The best hypothesis's rows beyond the user's own examples."""
        example_set = {tuple(example) for example in self.examples}
        return [row for row in self.best.rows() if tuple(row) not in example_set]


class StructureLearner:
    """Generalizes copy-paste operations into document extractors."""

    def __init__(
        self,
        type_learner=None,
        experts: Sequence[Expert] = DEFAULT_PAGE_EXPERTS,
        follow_url_families: bool = True,
        max_hypotheses: int = 8,
        enable_fallback: bool = True,
        crawl_detail_pages: bool = True,
    ):
        self.experts = list(experts)
        self.datatype_expert = DataTypeExpert(type_learner)
        self.sheet_expert = SheetExpert()
        self.label_block_expert = LabelBlockExpert()
        self.follow_url_families = follow_url_families
        self.max_hypotheses = max_hypotheses
        self.enable_fallback = enable_fallback
        self.crawl_detail_pages = crawl_detail_pages

    # -- main entry point ------------------------------------------------------
    def generalize(
        self, event: CopyEvent, examples: Sequence[Sequence[str]] | None = None
    ) -> GeneralizationResult:
        """Generalize the user's examples against the copied-from document.

        *examples* are all rows the user has pasted so far for this source
        (each a list of field strings); when omitted, the copy event's own
        parsed fields serve as the single example.

        Section 3.1's committee proposes candidate tables; each distinct
        normalized record set (the clustering key) is then tested once for
        column maps that project the examples, and only the candidates whose
        set can project are rescored by the data-type expert and clustered.
        Whether a set can project depends on its records, its width and the
        examples, never on a score, and clusters merge by record set alone,
        so the hypotheses equal those of rescoring every candidate first
        (:meth:`ranked_candidates`) while the type recognizer sees only the
        columns a hypothesis can come from.
        """
        if examples is None:
            examples = event.fields
        examples = [[str(cell) for cell in example] for example in examples]
        document = event.context.document

        with TRACER.span("structure.generalize") as span:
            candidates, pages_html = self._propose(event)

            with TRACER.span("structure.consistency"):
                normalized_examples = [
                    tuple(normalize(cell) for cell in example) for example in examples
                ]
                keys = [candidate.key() for candidate in candidates]
                maps: dict[tuple, list[tuple[int, ...]]] = {}
                for candidate, key in zip(candidates, keys):
                    if key and key not in maps:
                        maps[key] = column_maps(
                            key, candidate.n_columns, normalized_examples
                        )
                projecting = [
                    (candidate, key)
                    for candidate, key in zip(candidates, keys)
                    if maps.get(key)
                ]

            with TRACER.span("structure.rescore+cluster"):
                kept = [candidate for candidate, _ in projecting]
                self.datatype_expert.rescore(kept)
                ranked = keyed_clusters(kept, [key for _, key in projecting])

            with TRACER.span("structure.projections"):
                hypotheses: list[ProjectionHypothesis] = []
                for key, cluster in ranked:
                    hypotheses.extend(project(cluster, maps[key]))
                    if len(hypotheses) >= self.max_hypotheses:
                        break
                hypotheses.sort(key=lambda h: -h.score)
                hypotheses = hypotheses[: self.max_hypotheses]

            if (
                not hypotheses
                and self.enable_fallback
                and isinstance(document, (Page, TextDocument))
            ):
                with TRACER.span("structure.fallback"):
                    fallback = self._fallback(event, examples, pages_html)
                if fallback is not None:
                    hypotheses.append(fallback)
                METRICS.inc("structure.fallback_attempts")

            if span.is_recording():
                span.set("source", event.context.source_name)
                span.set("candidates", len(candidates))
                span.set("projecting", len(ranked))
                span.set("hypotheses", len(hypotheses))
            METRICS.inc("structure.generalize_calls")

        return GeneralizationResult(
            source_name=event.context.source_name,
            examples=examples,
            hypotheses=hypotheses,
        )

    # -- candidate proposal -----------------------------------------------------
    def ranked_candidates(
        self, event: CopyEvent
    ) -> tuple[list[RelationalCandidate], str | None]:
        """Committee-proposed, rescored, clustered candidates for the event.

        Returns the ranked candidate list plus the document's serialized text
        (``None`` for sheets), which the landmark fallback and the drift
        layer's re-induction use. Unlike :meth:`generalize`, which rescores
        only the candidates that can project its examples, this rescores
        every candidate: a recorded wrapper is re-applied against a
        document's *current* state by taking the first candidate, in this
        rank order, that carries its template region.
        """
        candidates, pages_html = self._propose(event)
        with TRACER.span("structure.rescore+cluster"):
            self.datatype_expert.rescore(candidates)
            ranked = cluster_candidates(candidates)
        return ranked, pages_html

    def _propose(
        self, event: CopyEvent
    ) -> tuple[list[RelationalCandidate], str | None]:
        """The expert committee's candidates for the event, not yet rescored."""
        document = event.context.document
        if isinstance(document, Sheet):
            with TRACER.span("structure.expert.sheet"):
                candidates = self.sheet_expert.propose_sheet(document)
            pages_html = None
        elif isinstance(document, Page):
            candidates, pages_html = self._page_candidates(event, document)
        elif isinstance(document, TextDocument):
            with TRACER.span("structure.expert.label-block"):
                candidates = self.label_block_expert.propose_text(document)
            pages_html = document.text  # landmark fallback over raw text
        else:
            raise NoHypothesisError(
                f"cannot analyze document of type {type(document).__name__}"
            )
        METRICS.inc("structure.candidates", len(candidates))
        return candidates, pages_html

    # -- page analysis ----------------------------------------------------------
    def _page_candidates(
        self, event: CopyEvent, page: Page
    ) -> tuple[list[RelationalCandidate], str]:
        """Candidates from the current page, extended across its URL family."""
        site = event.context.container
        pages = [page]
        if (
            self.follow_url_families
            and isinstance(site, Website)
            and page.url is not None
        ):
            family = site.url_family(page.url)
            if len(family) > 1:
                pages = [site.fetch(url) for url in family]

        # Per-page candidates, keyed by (origin, width) so the same template
        # region on successive pages concatenates into one multi-page table.
        merged: dict[tuple[str, int], RelationalCandidate] = {}
        order: list[tuple[str, int]] = []
        for current in pages:
            for expert in self.experts:
                with TRACER.span("structure.expert." + expert.name) as expert_span:
                    proposed = expert.propose(current.dom)
                    if expert_span.is_recording():
                        expert_span.set("page", current.url)
                        expert_span.set("candidates", len(proposed))
                METRICS.inc("structure.expert." + expert.name + ".candidates", len(proposed))
                for candidate in proposed:
                    key = (candidate.origin, candidate.n_columns)
                    if key in merged and len(pages) > 1:
                        existing = merged[key]
                        existing.records.extend(candidate.records)
                        existing.score = max(existing.score, candidate.score)
                        existing.page_urls = existing.page_urls + (current.url,)
                        if URL_FAMILY_EXPERT not in existing.support:
                            existing.support.append(URL_FAMILY_EXPERT)
                            existing.score += 1.0
                    else:
                        candidate.page_urls = (current.url,)
                        merged[key] = candidate
                        order.append(key)
        candidates = [merged[key] for key in order]
        # Hierarchical sites: widen with detail-page crawls (Section 2.2:
        # extractors "crawl the document structure of the source").
        if self.crawl_detail_pages and isinstance(site, Website):
            crawler = DetailCrawlExpert(site)
            with TRACER.span("structure.expert.detail-crawl"):
                for current in pages:
                    candidates.extend(crawler.propose_from_page(current))
        html = "\n<!-- page break -->\n".join(p.dom.to_html() for p in pages)
        return candidates, html

    # -- fallback -------------------------------------------------------------
    def _fallback(
        self,
        event: CopyEvent,
        examples: list[list[str]],
        pages_html: str | None,
    ) -> ProjectionHypothesis | None:
        if pages_html is not None:
            html = pages_html
        elif isinstance(event.context.document, TextDocument):
            html = event.context.document.text
        else:
            html = event.context.document.dom.to_html()
        try:
            rows = induce_table(html, examples)
        except NoHypothesisError:
            return None
        width = len(examples[0]) if examples else 0
        candidate = RelationalCandidate(
            records=rows,
            n_columns=width,
            support=["landmark-fallback"],
            score=0.5,
            origin="landmark-rules",
        )
        hypothesis = ProjectionHypothesis(
            candidate=candidate,
            column_map=tuple(range(width)),
            score=0.5,
            via_fallback=True,
        )
        if not hypothesis.consistent_with(examples):
            return None
        return hypothesis
