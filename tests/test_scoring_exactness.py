"""The fast type recognizer and string measures equal their naive oracles.

Recognition tokenises each column once, caches every learned
distribution's mass, norm and pattern set, and memoises whole columns per
learner; edit distance is bit-parallel and Jaro visits only equal
characters. None of that may change an answer: ranked hypotheses (``==``
scores and order), distances and similarities must equal the reference
implementations in :mod:`tests.reference_type_scoring`.

Record linking scores profiled strings and memoises each field pair's
feature tuple per linker; every feature must equal its string-taking
oracle in :mod:`tests.reference_linking`, memo hit or miss, before and
after training.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LearningError
from repro.learning.model import SemanticTypeLearner, seed_type_learner
from repro.linking import similarity
from repro.linking.linker import LearnedLinker, LinkExample
from repro.linking.similarity import (
    DEFAULT_SIMILARITIES,
    FeatureExtractor,
    FieldPair,
    acronym_match,
    exact_match,
    prefix_containment,
)
from repro.util.strings import (
    StringProfile,
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_ratio,
    ngram_dice,
    token_jaccard,
)

from . import reference_linking
from . import reference_type_scoring as reference

# Letters in several scripts, digits, punctuation, plain/NBSP spaces, a
# zero-width space and an astral-plane letter.
CHARS = string.ascii_letters + string.digits + "$.,/-()#'  ​éßΩ中\U0001d518"

cell = st.text(alphabet=CHARS, max_size=14)
column = st.lists(cell, min_size=0, max_size=8)
TYPE_NAMES = ("T-A", "T-B", "T-C", "T-D")
operation = st.one_of(
    st.tuples(st.just("learn"), st.sampled_from(TYPE_NAMES), st.lists(cell, min_size=1, max_size=8)),
    st.tuples(st.just("forget"), st.sampled_from(TYPE_NAMES), st.just(None)),
)


def assert_matches_oracle(learner: SemanticTypeLearner, values) -> None:
    for top_k in (None, 1, 3):
        assert learner.recognize(values, top_k=top_k) == reference.recognize(learner, values, top_k=top_k)


@settings(max_examples=80, deadline=None)
@given(st.lists(operation, min_size=1, max_size=8), st.lists(column, min_size=1, max_size=3),
       st.sampled_from([0.0, 0.3, 0.5]))
def test_recognize_equals_oracle_on_random_registries(operations, columns, threshold):
    learner = SemanticTypeLearner(recognition_threshold=threshold)
    for kind, name, values in operations:
        if kind == "learn":
            try:
                learner.learn(name, values)  # a known name refines via merged_with
            except LearningError:
                continue  # all-blank training values; the registry is unchanged
        else:
            learner.forget(name)
        for values in columns:  # memoised calls interleaved with every change
            assert_matches_oracle(learner, values)


@pytest.fixture(scope="module")
def seeded():
    return seed_type_learner(seed=3)


@settings(max_examples=40, deadline=None)
@given(column)
def test_recognize_equals_oracle_on_the_builtin_types(seeded, values):
    assert_matches_oracle(seeded, values)
    for name in seeded.known_types():
        signature = seeded.get(name).signature
        assert signature.similarity(values) == reference.similarity(signature, values)


def test_recognize_equals_oracle_on_scenario_columns(trained_types, scenario):
    rows = scenario.truth_rows()
    columns = [[str(row[name]) for row in rows] for name in rows[0]]
    columns.append([f"{row['Street']}, {row['City']}" for row in rows])
    for values in columns:
        assert_matches_oracle(trained_types, values)


# ---------------------------------------------------------------- edit distance
text = st.text(alphabet=CHARS, max_size=30)


@settings(max_examples=300)
@given(text, text)
def test_levenshtein_equals_dp(a, b):
    assert levenshtein(a, b) == reference.levenshtein(a, b)


@settings(max_examples=300)
@given(text, text)
def test_jaro_equals_full_window_scan(a, b):
    assert jaro(a, b) == reference.jaro(a, b)


@settings(max_examples=40, deadline=None)
@given(st.text(alphabet=CHARS, min_size=60, max_size=230), st.data())
def test_levenshtein_equals_dp_on_long_strings(a, data):
    # Long strings need more than one 64-bit word; an edited copy keeps the
    # distance small so carries run through long stretches of matches.
    edited = list(a)
    for _ in range(data.draw(st.integers(0, 6))):
        position = data.draw(st.integers(0, len(edited)))
        kind = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        if kind == "insert":
            edited.insert(position, data.draw(st.sampled_from(CHARS)))
        elif position < len(edited):
            if kind == "delete":
                del edited[position]
            else:
                edited[position] = data.draw(st.sampled_from(CHARS))
    b = "".join(edited)
    assert levenshtein(a, b) == reference.levenshtein(a, b)
    assert jaro(a, b) == reference.jaro(a, b)
    other = data.draw(st.text(alphabet=CHARS, max_size=250))
    assert levenshtein(a, other) == reference.levenshtein(a, other)


@pytest.mark.parametrize(
    "a, b",
    [
        ("", ""),
        ("", "abc"),
        ("abc", ""),
        ("same", "same"),
        ("\U0001d518\U0001d519", "\U0001d518x"),
        ("a" * 64, "a" * 63 + "b"),
        ("ab" * 40, "ba" * 40),
        ("x" * 201 + "y", "y" + "x" * 201),
        ("Monarch High School " * 12, "Monarch HS " * 12),
    ],
)
def test_string_measures_on_edge_cases(a, b):
    assert levenshtein(a, b) == reference.levenshtein(a, b)
    assert jaro(a, b) == reference.jaro(a, b)
    longest = max(len(a), len(b))
    expected_ratio = 1.0 if longest == 0 else 1.0 - reference.levenshtein(a, b) / longest
    assert levenshtein_ratio(a, b) == expected_ratio


# ---------------------------------------------------------------- record linking
FEATURE_NAMES = sorted(DEFAULT_SIMILARITIES)


@settings(max_examples=300)
@given(text, text)
def test_every_feature_equals_its_oracle(a, b):
    profile_a, profile_b = StringProfile(a), StringProfile(b)
    for name in FEATURE_NAMES:
        expected = reference_linking.SIMILARITIES[name](a, b)
        assert DEFAULT_SIMILARITIES[name](profile_a, profile_b) == expected, name
        # Profiles are reused: a second comparison reads the stored fields.
        assert DEFAULT_SIMILARITIES[name](profile_a, profile_b) == expected, name


@settings(max_examples=150)
@given(text, text, st.sampled_from([0.0, 0.1, 0.25]))
def test_string_wrappers_equal_their_oracles(a, b, prefix_scale):
    assert levenshtein(a, b) == reference_linking.levenshtein(a, b)
    assert levenshtein_ratio(a, b) == reference_linking.levenshtein_ratio(a, b)
    assert jaro(a, b) == reference_linking.jaro(a, b)
    assert jaro_winkler(a, b, prefix_scale) == reference_linking.jaro_winkler(a, b, prefix_scale)
    assert token_jaccard(a, b) == reference_linking.token_jaccard(a, b)
    assert ngram_dice(a, b) == reference_linking.ngram_dice(a, b)
    assert exact_match(a, b) == reference_linking.exact_match(a, b)
    assert prefix_containment(a, b) == reference_linking.prefix_containment(a, b)
    assert acronym_match(a, b) == reference_linking.acronym_match(a, b)


PAIRS = [FieldPair("Name", "Shelter"), FieldPair("Street", "Address")]
# Few distinct values, so rows repeat values and the memo is exercised.
NAMES = ["Monarch High School", "Monarch HS", "12 Oak St", "12 Oak Street", "", "Quiet Waters Park"]
link_value = st.one_of(st.none(), st.sampled_from(NAMES), text)
left_row = st.fixed_dictionaries({"Name": link_value, "Street": link_value})
right_row = st.fixed_dictionaries({"Shelter": link_value, "Address": link_value})


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(left_row, right_row), min_size=1, max_size=12))
def test_memoised_features_equal_the_oracle(pairs):
    extractor = FeatureExtractor(PAIRS)
    for _ in range(2):  # the second pass is answered from the memo
        for left, right in pairs:
            assert extractor.extract(left, right) == reference_linking.extract(PAIRS, left, right)


def oracle_score(weights, left, right) -> float:
    """``LearnedLinker.score`` over the oracle features."""
    features = reference_linking.extract(PAIRS, left, right)
    raw = sum(weights[name] * value for name, value in features.items())
    total_weight = sum(weights.values())
    return 0.0 if total_weight <= 0 else raw / total_weight


@settings(max_examples=40, deadline=None)
@given(st.lists(left_row, min_size=2, max_size=5), st.lists(right_row, min_size=2, max_size=6))
def test_scores_after_training_equal_a_fresh_linkers(lefts, rights):
    linker = LearnedLinker(PAIRS)
    scored = [linker.score(left, right) for left in lefts for right in rights]  # fills the memo
    examples = [LinkExample(lefts[0], rights[0]), LinkExample(lefts[1], rights[1], is_match=False)]
    linker.train(examples, rights)
    fresh = LearnedLinker(PAIRS)
    fresh.weights = dict(linker.weights)
    oracle = [oracle_score(linker.weights, left, right) for left in lefts for right in rights]
    assert [linker.score(left, right) for left in lefts for right in rights] == oracle
    assert [fresh.score(left, right) for left in lefts for right in rights] == oracle
    if linker.updates == 0:
        assert [fresh.score(left, right) for left in lefts for right in rights] == scored


def test_feature_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(similarity, "FEATURE_MEMO_CAPACITY", 8)
    monkeypatch.setattr(similarity, "PROFILE_MEMO_CAPACITY", 4)
    linker = LearnedLinker([FieldPair("Name", "Shelter")])
    for i in range(30):
        for j in range(3):
            linker.score({"Name": f"shelter {i}"}, {"Shelter": f"shelter {i + j}"})
            assert len(linker.extractor._memo) <= 8  # noqa: SLF001
            assert len(linker.extractor._profiles) <= 4  # noqa: SLF001
    stats = linker.extractor._memo.stats()  # noqa: SLF001
    assert stats["size"] == 8 and stats["evictions"] == 90 - 8
