"""Tests for record linking: similarities, blocking, and the learned linker."""

from __future__ import annotations

import pytest

from repro import obs
from repro.cache import cache_stats_line
from repro.data import build_scenario
from repro.errors import LearningError
from repro.linking import (
    FeatureExtractor,
    FieldPair,
    LearnedLinker,
    LinkExample,
    acronym_match,
    candidate_pairs,
    exact_block_key,
    exact_match,
    full_cross,
    prefix_containment,
    token_block_key,
)


class TestSimilarityFeatures:
    def test_exact_match_normalized(self):
        assert exact_match("Coconut  Creek", "coconut creek") == 1.0
        assert exact_match("a", "b") == 0.0

    def test_prefix_containment(self):
        assert prefix_containment("Monarch High School", "Monarch High") == pytest.approx(2 / 3)
        assert prefix_containment("Monarch High", "Tedder Center") == 0.0
        assert prefix_containment("", "x") == 0.0

    def test_acronym_match_hs(self):
        assert acronym_match("Monarch High School", "Monarch HS") == 1.0

    def test_acronym_match_elem(self):
        score = acronym_match("Forest Hills Elementary School", "Forest Hills Elem")
        assert score >= 0.7

    def test_acronym_no_match(self):
        assert acronym_match("Monarch High School", "Quiet Waters Park") < 0.5

    def test_feature_extractor_names_and_values(self):
        extractor = FeatureExtractor([FieldPair("Name", "Shelter")])
        features = extractor.extract(
            {"Name": "Monarch High School"}, {"Shelter": "Monarch HS"}
        )
        assert "Name~Shelter:acronym" in features
        assert features["Name~Shelter:acronym"] == 1.0
        assert set(features) == set(extractor.feature_names())

    def test_feature_extractor_none_values(self):
        extractor = FeatureExtractor([FieldPair("Name", "Shelter")])
        features = extractor.extract({"Name": None}, {"Shelter": "x"})
        assert all(value == 0.0 for value in features.values())


class TestBlocking:
    LEFT = [{"Name": "Monarch High"}, {"Name": "Quiet Waters"}]
    RIGHT = [{"Shelter": "Monarch HS"}, {"Shelter": "Quiet Waters Park"}, {"Shelter": "Zeta"}]

    def test_token_blocking_restricts_pairs(self):
        pairs = candidate_pairs(
            self.LEFT, self.RIGHT, [(token_block_key("Name"), token_block_key("Shelter"))]
        )
        assert (0, 0) in pairs      # share "monarch"
        assert (1, 1) in pairs      # share "quiet"/"waters"
        assert (0, 2) not in pairs  # nothing shared with Zeta

    def test_exact_blocking(self):
        left = [{"Zip": "33063"}]
        right = [{"Zip": "33063"}, {"Zip": "99999"}]
        pairs = candidate_pairs(left, right, [(exact_block_key("Zip"), exact_block_key("Zip"))])
        assert pairs == [(0, 0)]

    def test_full_cross(self):
        assert len(full_cross(self.LEFT, self.RIGHT)) == 6

    def test_none_values_produce_no_keys(self):
        pairs = candidate_pairs(
            [{"Name": None}], self.RIGHT, [(token_block_key("Name"), token_block_key("Shelter"))]
        )
        assert pairs == []


class TestLearnedLinker:
    def test_needs_field_pairs(self):
        with pytest.raises(LearningError):
            LearnedLinker([])

    def test_untrained_scores_are_uniform_mean(self):
        linker = LearnedLinker([FieldPair("Name", "Shelter")])
        score = linker.score({"Name": "Monarch"}, {"Shelter": "Monarch"})
        assert score == pytest.approx(1.0, abs=0.05)

    def test_best_match_threshold(self):
        linker = LearnedLinker([FieldPair("Name", "Shelter")])
        pool = [{"Shelter": "Zeta"}, {"Shelter": "Monarch"}]
        match = linker.best_match({"Name": "Monarch"}, pool, threshold=0.5)
        assert match is not None and match[0] == 1
        assert linker.best_match({"Name": "Qqqq"}, pool, threshold=0.99) is None

    def test_pairwise_update_moves_ranking(self):
        linker = LearnedLinker([FieldPair("Name", "Shelter")], margin=0.5)
        anchor = {"Name": "Monarch High School"}
        positive = {"Shelter": "Monarch HS"}
        negative = {"Shelter": "Monarch Center"}
        before_gap = linker.score(anchor, positive) - linker.score(anchor, negative)
        updated = linker.train_pairwise(positive, negative, anchor)
        after_gap = linker.score(anchor, positive) - linker.score(anchor, negative)
        if updated:
            assert after_gap > before_gap

    def test_no_update_when_margin_satisfied(self):
        linker = LearnedLinker([FieldPair("Name", "Shelter")], margin=0.0)
        anchor = {"Name": "Monarch"}
        assert not linker.train_pairwise(
            {"Shelter": "Monarch"}, {"Shelter": "Zzzzzz"}, anchor
        )

    def test_weights_stay_nonnegative(self):
        linker = LearnedLinker([FieldPair("Name", "Shelter")], aggressiveness=100.0)
        anchor = {"Name": "Monarch"}
        for _ in range(5):
            linker.train_pairwise({"Shelter": "Qqqq"}, {"Shelter": "Monarch"}, anchor)
        assert all(weight >= 0.0 for weight in linker.weights.values())

    def test_training_on_scenario_improves_or_holds(self):
        scenario = build_scenario(seed=88, n_shelters=14, name_noise=1.0)
        left = [{"Name": s.name} for s in scenario.shelters]
        right = [
            dict(zip(["Shelter", "Contact", "Phone", "Address"], row))
            for row in scenario.contacts_sheet.rows()
        ]
        phone_of = {s.name: s.phone for s in scenario.shelters}

        def accuracy(linker):
            links = linker.link_all(left, right)
            good = sum(1 for i, j, _ in links if right[j]["Phone"] == phone_of[left[i]["Name"]])
            return good / len(left)

        linker = LearnedLinker([FieldPair("Name", "Shelter")])
        before = accuracy(linker)
        examples = []
        for s in scenario.shelters[:4]:
            match = next(r for r in right if r["Phone"] == s.phone)
            examples.append(LinkExample({"Name": s.name}, match))
        linker.train(examples, right)
        assert accuracy(linker) >= before

    def test_negative_examples_demote_rejected_match(self):
        linker = LearnedLinker([FieldPair("Name", "Shelter")], margin=0.4)
        anchor = {"Name": "Monarch High School"}
        true_match = {"Shelter": "Monarch HS"}
        rejected = {"Shelter": "Monarch Middle School"}
        linker.train(
            [
                LinkExample(anchor, true_match, is_match=True),
                LinkExample(anchor, rejected, is_match=False),
            ],
            right_rows=[true_match, rejected, {"Shelter": "Other"}],
        )
        assert linker.score(anchor, true_match) > linker.score(anchor, rejected)

    def test_describe_mentions_top_features(self):
        linker = LearnedLinker([FieldPair("Name", "Shelter")])
        assert "LearnedLinker(" in linker.describe()

    def test_feature_memo_counters_reach_the_cache_line(self):
        obs.reset()
        obs.enable()
        try:
            linker = LearnedLinker([FieldPair("Name", "Shelter"), FieldPair("Street", "Address")])
            left = {"Name": "Monarch High School", "Street": None}
            right = {"Shelter": "Monarch HS", "Address": "12 Oak St"}
            linker.score(left, right)
            linker.score(left, right)
            line = cache_stats_line()
        finally:
            obs.disable()
            obs.reset()
        # A None field scores zeros without consulting the memo.
        assert "link features 1h/1m/0e" in line
