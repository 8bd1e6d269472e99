"""The fast type recognizer and string measures equal their naive oracles.

Recognition tokenises each column once, caches every learned
distribution's mass, norm and pattern set, and memoises whole columns per
learner; edit distance is bit-parallel and Jaro visits only equal
characters. None of that may change an answer: ranked hypotheses (``==``
scores and order), distances and similarities must equal the reference
implementations in :mod:`tests.reference_type_scoring`.
"""

from __future__ import annotations

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LearningError
from repro.learning.model import SemanticTypeLearner, seed_type_learner
from repro.util.strings import jaro, levenshtein, levenshtein_ratio

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
