"""Tests for record linking: similarities, blocking, and the learned linker."""

from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
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
from repro.linking.similarity import (
    DEFAULT_SIMILARITIES,
    profile_acronym_match,
    profile_exact_match,
    profile_prefix_containment,
)
from repro.substrate.relational import (
    Catalog,
    Evaluator,
    RecordLinkJoin,
    Relation,
    Scan,
    schema_of,
)
from repro.util.strings import (
    profile_jaro_winkler,
    profile_levenshtein_ratio,
    profile_ngram_dice,
    profile_token_jaccard,
)

from . import reference_linking


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
            line = next(line for line in obs.render_summary() if line.startswith("linking:"))
        finally:
            obs.disable()
            obs.reset()
        # A None field scores zeros without consulting the memo.
        assert line == "linking: feature_memo.evictions=0 feature_memo.hits=1 feature_memo.misses=1"


# -- the bound-ordered best-match search -----------------------------------------
#: Similarity sets as (name, library kernel, oracle) triples: the default
#: library, one without the two bounded kernels, and one whose
#: ``"jaro_winkler"`` is another function (kernels are bounded by identity).
SIMILARITY_SETS = {
    "default": [
        (name, fn, reference_linking.SIMILARITIES[name])
        for name, fn in DEFAULT_SIMILARITIES.items()
    ],
    "unbounded": [
        ("exact", profile_exact_match, reference_linking.exact_match),
        ("token_jaccard", profile_token_jaccard, reference_linking.token_jaccard),
        ("prefix", profile_prefix_containment, reference_linking.prefix_containment),
        ("acronym", profile_acronym_match, reference_linking.acronym_match),
    ],
    "renamed": [
        ("jaro_winkler", profile_ngram_dice, reference_linking.ngram_dice),
        ("lev", profile_levenshtein_ratio, reference_linking.levenshtein_ratio),
        ("jw", profile_jaro_winkler, reference_linking.jaro_winkler),
        ("acronym", profile_acronym_match, reference_linking.acronym_match),
    ],
}
SEARCH_PAIRS = [FieldPair("Name", "Shelter"), FieldPair("Street", "Address")]
SEARCH_VALUES = [
    "Monarch High School", "Monarch HS", "Monarch High", "12 Oak St", "12 Oak Street",
    "", "Quiet Waters Park", "Quiet Waters",
]
search_value = st.one_of(st.none(), st.sampled_from(SEARCH_VALUES), st.text(max_size=12))
search_left = st.fixed_dictionaries({"Name": search_value, "Street": search_value})


@st.composite
def search_rights(draw):
    """Right rows, some repeated so that equal scores tie."""
    rows = draw(st.lists(st.fixed_dictionaries({"Shelter": search_value, "Address": search_value}),
                         min_size=1, max_size=6))
    repeats = draw(st.lists(st.integers(0, len(rows) - 1), max_size=3))
    return rows + [dict(rows[k]) for k in repeats]


def oracle_score(weights, sims, left, right) -> float:
    """``LearnedLinker.score`` over the oracle features, term by term."""
    raw_terms = []
    for pair in SEARCH_PAIRS:
        a, b = left.get(pair.left), right.get(pair.right)
        for name, _, oracle in sims:
            value = 0.0 if a is None or b is None else oracle(str(a), str(b))
            raw_terms.append(weights[f"{pair}:{name}"] * value)
    total_weight = sum(weights.values())
    return 0.0 if total_weight <= 0 else sum(raw_terms) / total_weight


def exhaustive(scores, threshold):
    """The scan the search must equal: first highest score, None below *threshold*."""
    best_j, best = -1, -math.inf
    for j, current in enumerate(scores):
        if current > best:
            best_j, best = j, current
    return None if best_j < 0 or best < threshold else (best_j, best)


class ExhaustiveLinker(LearnedLinker):
    """Scores every pair: the best match as it was before the search."""

    def best_match(self, left, right_rows, threshold=0.0):
        return exhaustive([self.score(left, right) for right in right_rows], threshold)


def joined(linker, lefts, rights, threshold):
    """The right index a best-only RecordLinkJoin gives each left row (or None)."""
    catalog = Catalog()
    left_rel = Relation("L", schema_of("Name", "Street", "Lid"))
    left_rel.extend([[row["Name"], row["Street"], i] for i, row in enumerate(lefts)])
    right_rel = Relation("R", schema_of("Shelter", "Address", "Rid"))
    right_rel.extend([[row["Shelter"], row["Address"], j] for j, row in enumerate(rights)])
    catalog.add_relation(left_rel)
    catalog.add_relation(right_rel)
    plan = RecordLinkJoin(Scan("L"), Scan("R"), linker, threshold, best_only=True)
    matched = {row["Lid"]: row["Rid"] for row in Evaluator(catalog).run(plan).plain_rows()}
    return [matched.get(i) for i in range(len(lefts))]


def search_linker(sims, cls=LearnedLinker):
    return cls(SEARCH_PAIRS, similarities={name: fn for name, fn, _ in sims})


WEIGHT_VALUES = st.sampled_from([-1.0, -0.25, 0.0, 0.1, 0.5, 1.0, 3.0])


class TestBoundOrderedSearch:
    @settings(max_examples=120, deadline=None)
    @given(data=st.data())
    def test_search_equals_the_exhaustive_scan(self, data):
        sims = SIMILARITY_SETS[data.draw(st.sampled_from(sorted(SIMILARITY_SETS)))]
        lefts = data.draw(st.lists(search_left, min_size=1, max_size=4))
        rights = data.draw(search_rights())
        threshold = data.draw(st.sampled_from([-10.0, 0.0, 0.3, 0.5, 0.9, 10.0]))
        weighting = data.draw(st.sampled_from(["uniform", "zero", "trained", "hand-set"]))
        linker = search_linker(sims)
        if weighting == "zero":
            linker.weights = dict.fromkeys(linker.weights, 0.0)
        elif weighting == "hand-set":
            linker.weights = {name: data.draw(WEIGHT_VALUES) for name in linker.weights}
        elif weighting == "trained":
            examples = [LinkExample(lefts[0], rights[0])]
            if len(rights) > 1:
                examples.append(LinkExample(lefts[0], rights[-1], is_match=False))
            linker.train(examples, rights)
        expected = [
            exhaustive([oracle_score(linker.weights, sims, left, right) for right in rights], threshold)
            for left in lefts
        ]
        checks = {
            "best_match": lambda: [linker.best_match(left, rights, threshold) for left in lefts] == expected,
            "link_all": lambda: linker.link_all(lefts, rights, threshold) == [
                (i, match[0], match[1]) for i, match in enumerate(expected) if match is not None
            ],
            "join": lambda: joined(linker, lefts, rights, threshold) == [
                None if match is None else match[0] for match in expected
            ],
        }
        # The first check runs on a cold memo, the later ones on a mix of
        # partial and full entries.
        for name in data.draw(st.permutations(sorted(checks))):
            assert checks[name](), name

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(sorted(SIMILARITY_SETS)),
        st.lists(search_left, min_size=2, max_size=4),
        search_rights(),
    )
    def test_training_mines_the_exhaustive_hard_negatives(self, sims_name, lefts, rights):
        sims = SIMILARITY_SETS[sims_name]
        searched, scanned = search_linker(sims), search_linker(sims, ExhaustiveLinker)
        examples = [LinkExample(lefts[0], rights[0]), LinkExample(lefts[1], rights[-1])]
        examples.append(LinkExample(lefts[0], rights[-1], is_match=False))
        assert searched.train(examples, rights) == scanned.train(examples, rights)
        assert searched.weights == scanned.weights

    def test_negative_kernel_weights_bound_at_zero(self):
        # "ab ce" shares a token with "ab cd" but loses on Jaro-Winkler and
        # Levenshtein, whose weights are negative; "xyz" shares nothing and
        # scores 0. Bounding the two kernels at 1.0 would rank "xyz" last
        # and stop before scoring it.
        linker = LearnedLinker([FieldPair("Name", "Shelter")])
        linker.weights = dict.fromkeys(linker.weights, 0.0)
        linker.weights.update({
            "Name~Shelter:exact": 2.0,
            "Name~Shelter:token_jaccard": 1.0,
            "Name~Shelter:jaro_winkler": -1.0,
            "Name~Shelter:levenshtein": -1.0,
        })
        rights = [{"Shelter": "ab ce"}, {"Shelter": "xyz"}]
        scores = [linker.score({"Name": "ab cd"}, right) for right in rights]
        assert scores[0] < scores[1] == 0.0
        fresh = LearnedLinker([FieldPair("Name", "Shelter")])
        fresh.weights = dict(linker.weights)
        assert fresh.best_match({"Name": "ab cd"}, rights, threshold=-10.0) == (1, 0.0)

    def test_bounded_kernels_are_found_by_identity(self):
        sims = {name: fn for name, fn, _ in SIMILARITY_SETS["renamed"]}
        extractor = LearnedLinker([FieldPair("Name", "Shelter")], similarities=sims).extractor
        assert extractor.bounded_positions == {1, 2}  # "lev" and "jw", not "jaro_winkler"
        unbounded = {name: fn for name, fn, _ in SIMILARITY_SETS["unbounded"]}
        assert LearnedLinker(SEARCH_PAIRS, similarities=unbounded).extractor.bounded_positions == set()

    def test_pickle_leaves_the_bounded_kernels_out(self):
        # Checkpoints pickle linkers: the extractor's state is what it was
        # before the bounded kernels were kept, so a checkpoint loads
        # across that change, and they are found again on load.
        linker = LearnedLinker(SEARCH_PAIRS)
        lefts = [{"Name": "Monarch High School", "Street": "12 Oak St"}]
        rights = [{"Shelter": value, "Address": None} for value in SEARCH_VALUES]
        links = linker.link_all(lefts, rights)
        state = linker.extractor.__getstate__()
        assert list(state) == ["field_pairs", "similarities", "_zeros", "_memo", "_profiles"]
        clone = pickle.loads(pickle.dumps(linker))
        assert clone.extractor.bounded_positions == linker.extractor.bounded_positions == {1, 2, 8, 9}
        assert clone.link_all(lefts, rights) == links

    def test_unscored_pairs_keep_a_partial_entry(self):
        linker = LearnedLinker([FieldPair("Name", "Shelter")])
        rights = [{"Shelter": "Monarch HS"}, {"Shelter": "Zeta Park"}, {"Shelter": "Quiet Waters"}]
        calls = []
        score = linker.score
        linker.score = lambda left, right: calls.append(right) or score(left, right)
        assert linker.best_match({"Name": "Monarch High School"}, rights)[0] == 0
        assert calls == [rights[0]]
        memo = linker.extractor._memo._data  # noqa: SLF001
        kinds = {key[2]: type(value).__name__ for key, value in memo.items()}
        assert kinds == {"Monarch HS": "tuple", "Zeta Park": "Partial", "Quiet Waters": "Partial"}
