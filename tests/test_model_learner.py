"""Tests for the model learner: tokens, patterns, type learning/recognition,
and functional source descriptions."""

from __future__ import annotations

import pytest

from repro import obs
from repro.errors import LearningError
from repro.io import type_learner_from_dict, type_learner_to_dict
from repro.learning.model import (
    LEVEL_CLASS,
    LEVEL_CONST,
    LEVEL_KIND,
    PatternDistribution,
    SemanticTypeLearner,
    SourceDescriptionLearner,
    TypeSignature,
    learn_constants,
    mixed_symbols,
    seed_type_learner,
    value_symbols,
)
from repro.learning.model.type_learner import RECOGNIZE_MEMO_CAPACITY
from repro.substrate.relational.schema import CITY, ZIPCODE
from repro.substrate.relational import schema_of
from repro.substrate.relational.schema import BindingPattern
from repro.substrate.services import Gazetteer, make_geocoder, make_zipcode_resolver
from repro.substrate.services.base import TableBackedService


class TestTokens:
    def test_value_symbols_levels(self):
        assert value_symbols("1445 Monarch Blvd", LEVEL_CONST) == (
            "CONST:1445",
            "CONST:Monarch",
            "CONST:Blvd",
        )
        assert value_symbols("1445 Monarch Blvd", LEVEL_CLASS) == (
            "4DIGIT",
            "CAPWORD",
            "CAPWORD",
        )
        assert value_symbols("1445 Monarch Blvd", LEVEL_KIND) == (
            "NUMBER",
            "WORD",
            "WORD",
        )

    def test_word_classes(self):
        assert value_symbols("NW", LEVEL_CLASS) == ("UPPERWORD",)
        assert value_symbols("creek", LEVEL_CLASS) == ("LOWERWORD",)
        assert value_symbols("McDonald", LEVEL_CLASS) == ("MIXEDWORD",)

    def test_number_classes(self):
        assert value_symbols("33063", LEVEL_CLASS) == ("5DIGIT",)
        assert value_symbols("26.0132", LEVEL_CLASS) == ("DECIMAL",)
        assert value_symbols("1234567", LEVEL_CLASS) == ("LONGNUM",)

    def test_punct_keeps_surface_at_class_level(self):
        assert value_symbols("(954)", LEVEL_CLASS) == ("PUNCT:(", "3DIGIT", "PUNCT:)")
        assert value_symbols("(954)", LEVEL_KIND) == ("PUNCT", "NUMBER", "PUNCT")

    def test_mixed_symbols_respect_constants(self):
        symbols = mixed_symbols("1445 Monarch Blvd", frozenset({"Blvd"}))
        assert symbols == ("4DIGIT", "CAPWORD", "CONST:Blvd")


class TestPatterns:
    def test_learn_constants_frequency(self):
        values = [f"{i} Main St" for i in range(10)]
        constants = learn_constants(values)
        assert "Main" in constants and "St" in constants
        assert "0" not in constants

    def test_learn_constants_single_value(self):
        assert learn_constants(["Only One"]) == frozenset({"Only", "One"})

    def test_distribution_cosine_identity(self):
        dist = PatternDistribution.from_patterns([("A",), ("A",), ("B",)])
        assert dist.cosine(dist) == pytest.approx(1.0)

    def test_distribution_cosine_disjoint(self):
        a = PatternDistribution.from_patterns([("A",)])
        b = PatternDistribution.from_patterns([("B",)])
        assert a.cosine(b) == 0.0

    def test_coverage(self):
        train = PatternDistribution.from_patterns([("A",), ("B",)])
        candidate = PatternDistribution.from_patterns([("A",), ("C",), ("C",), ("C",)])
        assert train.coverage(candidate) == pytest.approx(0.25)

    def test_chi_square_zero_for_same_distribution(self):
        train = PatternDistribution.from_patterns([("A",)] * 8 + [("B",)] * 2)
        stat = train.chi_square_statistic(train)
        assert stat == pytest.approx(0.0, abs=1e-9)

    def test_signature_similarity_same_format_high(self):
        names = ["Oak", "Pine", "Elm", "Maple", "Cedar", "Birch", "Palm", "Ash"]
        train = TypeSignature.from_values(
            [f"{100 + i} {names[i % len(names)]} St" for i in range(24)]
        )
        score = train.similarity([f"{500+i} Cypress St" for i in range(5)])
        assert score > 0.5

    def test_signature_similarity_other_format_low(self):
        train = TypeSignature.from_values([f"{100+i} Oak St" for i in range(20)])
        assert train.similarity(["26.5", "27.1"]) < 0.4

    def test_closedness(self):
        closed = TypeSignature.from_values(["A", "B"] * 20)
        open_ = TypeSignature.from_values([f"v{i}" for i in range(40)])
        assert closed.closedness > 0.9
        assert open_.closedness == 0.0

    def test_as_dict_is_a_fresh_copy(self):
        signature = TypeSignature.from_values([f"{100 + i} Oak St" for i in range(20)])
        column = ["512 Oak St", "7 Oak Ave"]
        before = (dict(signature.mixed.as_dict()), signature.similarity(column))
        mutated = signature.mixed.as_dict()
        mutated.clear()
        mutated[("CONST:Elm",)] = 1.0
        assert (signature.mixed.as_dict(), signature.similarity(column)) == before

    def test_merged_with_grows_counts(self):
        base = TypeSignature.from_values(["A Street"] * 3)
        merged = base.merged_with(["B Street"] * 2)
        assert merged.n_values == 5
        assert "street" in {v.split()[-1] for v in merged.vocabulary}


class TestTypeLearner:
    def test_learn_and_recognize(self):
        learner = SemanticTypeLearner()
        learner.learn(ZIPCODE, [f"{33000+i:05d}" for i in range(30)])
        hypotheses = learner.recognize(["33501", "33502"])
        assert hypotheses and hypotheses[0].semantic_type.name == "PR-ZipCode"

    def test_empty_values_rejected(self):
        with pytest.raises(LearningError):
            SemanticTypeLearner().learn(ZIPCODE, ["", "  "])

    def test_recognize_empty_column(self):
        assert SemanticTypeLearner().recognize([]) == []

    def test_unknown_format_abstains(self):
        learner = SemanticTypeLearner()
        learner.learn(ZIPCODE, [f"{33000+i:05d}" for i in range(30)])
        assert learner.recognize(["!!!", "###", "@@@"]) == []

    def test_user_defined_type_on_the_fly(self):
        learner = SemanticTypeLearner()
        learned = learner.learn("PR-ShelterCode", [f"SHL-{i:04d}" for i in range(20)])
        assert learned.semantic_type.name == "PR-ShelterCode"
        assert "PR-ShelterCode" in learner
        top = learner.recognize(["SHL-9999"])
        assert top[0].semantic_type.name == "PR-ShelterCode"

    def test_refinement_improves_coverage(self):
        learner = SemanticTypeLearner()
        learner.learn(CITY, ["Coconut Creek"] * 10)
        before = learner.get("PR-City").signature.n_values
        learner.learn(CITY, ["Oakland Park"] * 10)
        after = learner.get("PR-City").signature.n_values
        assert after == before + 10

    def test_forget(self):
        learner = SemanticTypeLearner()
        learner.learn(CITY, ["Coconut Creek"] * 5)
        learner.forget("PR-City")
        assert "PR-City" not in learner
        with pytest.raises(LearningError):
            learner.get("PR-City")

    def test_recognize_table(self):
        learner = seed_type_learner(seed=1)
        gaz = Gazetteer(seed=33)
        streets = [a.street for a in gaz.addresses[:10]]
        zips = [a.zip for a in gaz.addresses[:10]]
        results = learner.recognize_table([streets, zips])
        assert results[0][0].semantic_type.name == "PR-Street"
        assert results[1][0].semantic_type.name == "PR-ZipCode"

    def test_cross_world_street_recognition(self, trained_types):
        gaz = Gazetteer(seed=12345)
        streets = [address.street for address in gaz.addresses[:15]]
        best = trained_types.best_type(streets)
        assert best is not None and best.name == "PR-Street"


ZIPS = [f"{33000 + i:05d}" for i in range(30)]
CITIES = ["Coconut Creek", "Oakland Park", "Margate"] * 8
STREETS = [f"{100 + i} Oak St" for i in range(20)]
CODES = [f"SHL-{i:04d}" for i in range(20)]
COLUMN = ["Coconut Creek", "33063", "SHL-0001", "Margate", "12 Oak St"]


def learner_from(steps, threshold: float = 0.5) -> SemanticTypeLearner:
    """A learner built by replaying *steps*: ("learn", name, values) / ("forget", name)."""
    learner = SemanticTypeLearner(recognition_threshold=threshold)
    for step in steps:
        if step[0] == "learn":
            learner.learn(step[1], step[2])
        else:
            learner.forget(step[1])
    return learner


class TestRecognizeMemo:
    BASE = [("learn", ZIPCODE, ZIPS), ("learn", CITY, CITIES), ("learn", "PR-Street", STREETS)]

    def memoised(self, threshold: float = 0.5) -> SemanticTypeLearner:
        learner = learner_from(self.BASE, threshold)
        first = learner.recognize(COLUMN)
        assert learner.recognize(COLUMN) == first
        assert learner._memo.stats()["hits"] == 1  # noqa: SLF001
        return learner

    def test_returned_list_is_fresh_on_memo_hits(self):
        learner = self.memoised(threshold=0.0)
        expected = list(learner.recognize(COLUMN))
        returned = learner.recognize(COLUMN)
        returned.reverse()
        returned.pop()
        assert learner.recognize(COLUMN) == expected
        assert learner.recognize(COLUMN, top_k=1) == expected[:1]

    @pytest.mark.parametrize(
        "change",
        [
            ("learn", "PR-ShelterCode", CODES),  # a new type
            ("learn", CITY, ["Tamarac", "Coral Springs"] * 6),  # refining a type
            ("forget", "PR-City"),
        ],
        ids=["learn-new", "refine", "forget"],
    )
    def test_registry_changes_invalidate(self, change):
        learner = self.memoised(threshold=0.0)
        stale = learner.recognize(COLUMN)
        if change[0] == "learn":
            learner.learn(change[1], change[2])
        else:
            learner.forget(change[1])
        fresh = learner_from(self.BASE + [change], threshold=0.0)
        for top_k in (None, 1, 3):
            assert learner.recognize(COLUMN, top_k=top_k) == fresh.recognize(COLUMN, top_k=top_k)
        assert learner.recognize(COLUMN) != stale

    def test_threshold_change_applies_to_memoised_scores(self):
        learner = self.memoised(threshold=0.5)
        strict = learner.recognize(COLUMN)
        learner.recognition_threshold = 0.0
        loose = learner.recognize(COLUMN)
        assert loose == learner_from(self.BASE, threshold=0.0).recognize(COLUMN)
        assert len(loose) > len(strict)
        learner.recognition_threshold = 0.5
        assert learner.recognize(COLUMN) == strict

    def test_rehydrated_types_invalidate(self):
        learner = self.memoised()
        donor = learner_from([("learn", "PR-ShelterCode", CODES)])
        type_learner_from_dict(type_learner_to_dict(donor), into=learner)
        fresh = learner_from(self.BASE + [("learn", "PR-ShelterCode", CODES)])
        assert learner.recognize(COLUMN) == fresh.recognize(COLUMN)

    def test_memo_is_bounded(self):
        learner = learner_from(self.BASE)
        extra = 3
        for i in range(RECOGNIZE_MEMO_CAPACITY + extra):
            learner.recognize([f"{i:05d}"])
        stats = learner._memo.stats()  # noqa: SLF001
        assert stats["size"] == RECOGNIZE_MEMO_CAPACITY
        assert stats["evictions"] == extra

    def test_memo_counters_reach_the_cache_line(self):
        obs.reset()
        obs.enable()
        try:
            learner = learner_from(self.BASE)
            learner.recognize(COLUMN)
            learner.recognize(COLUMN)
            line = next(line for line in obs.render_summary() if line.startswith("types:"))
        finally:
            obs.disable()
            obs.reset()
        assert "recognize_memo.evictions=0 recognize_memo.hits=1 recognize_memo.misses=1" in line


class TestSourceDescription:
    @pytest.fixture(scope="class")
    def world(self):
        gaz = Gazetteer(seed=9)
        known = [make_zipcode_resolver(gaz), make_geocoder(gaz)]
        return gaz, known

    def test_identifies_equivalent_service(self, world):
        gaz, known = world
        # A "new" zip service under a different name with renamed attributes.
        new = TableBackedService(
            "MysteryService",
            schema_of("Addr", "Town", "Postal"),
            BindingPattern(inputs=("Addr", "Town")),
            [
                {"Addr": a.street, "Town": a.city, "Postal": a.zip}
                for a in gaz.addresses
            ],
        )
        learner = SourceDescriptionLearner(known)
        samples = [
            {"Addr": a.street, "Town": a.city} for a in gaz.addresses[:8]
        ]
        descriptions = learner.describe_service(new, samples)
        assert descriptions, "expected at least one description"
        best = descriptions[0]
        assert best.score >= 0.9
        assert best.steps[-1].service_name == "ZipcodeResolver"
        # The output mapping aligns Zip -> Postal.
        assert ("Zip", "Postal") in best.steps[-1].output_map

    def test_rejects_unrelated_service(self, world):
        gaz, known = world
        new = TableBackedService(
            "Random",
            schema_of("K", "V"),
            BindingPattern(inputs=("K",)),
            [{"K": str(i), "V": f"x{i}"} for i in range(20)],
        )
        learner = SourceDescriptionLearner(known)
        samples = [{"K": str(i)} for i in range(5)]
        descriptions = learner.describe_service(new, samples, min_score=0.5)
        assert descriptions == []

    def test_describe_needs_examples(self, world):
        _, known = world
        with pytest.raises(LearningError):
            SourceDescriptionLearner(known).describe([], ["a"], ["b"])

    def test_composition_detected(self, world):
        gaz, known = world
        # New service: street+city -> zip AND lat (composition of both).
        table = [
            {"Street": a.street, "City": a.city, "Zip": a.zip, "Lat": a.lat}
            for a in gaz.addresses
        ]
        new = TableBackedService(
            "ZipAndLat",
            schema_of("Street", "City", "Zip", "Lat"),
            BindingPattern(inputs=("Street", "City")),
            table,
        )
        learner = SourceDescriptionLearner(known)
        samples = [{"Street": a.street, "City": a.city} for a in gaz.addresses[:6]]
        descriptions = learner.describe_service(new, samples, min_score=0.3)
        assert descriptions
        # Some description must explain the Zip output via the zip resolver.
        assert any(
            any(("Zip", "Zip") in step.output_map for step in d.steps)
            for d in descriptions
        )
