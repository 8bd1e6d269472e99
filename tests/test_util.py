"""Tests for repro.util: rng, text tokenization, string similarity, knobs."""

from __future__ import annotations

import random

import pytest

from repro.util.knobs import _FALSY, Knob, Knobs
from repro.util.rng import DEFAULT_SEED, derive_rng, make_rng
from repro.util.strings import (
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_ratio,
    longest_common_prefix,
    longest_common_suffix,
    ngram_dice,
    ngrams,
    token_jaccard,
)
from repro.util.text import is_numeric, normalize, title_case, token_strings, tokenize


class TestRng:
    def test_default_seed_is_deterministic(self):
        assert make_rng().random() == make_rng(DEFAULT_SEED).random()

    def test_int_seed(self):
        assert make_rng(7).random() == make_rng(7).random()

    def test_passthrough_random_instance(self):
        rng = random.Random(1)
        assert make_rng(rng) is rng

    def test_derive_rng_label_sensitivity(self):
        a = derive_rng(make_rng(1), "alpha").random()
        b = derive_rng(make_rng(1), "beta").random()
        assert a != b

    def test_derive_rng_reproducible(self):
        a = derive_rng(make_rng(1), "x").random()
        b = derive_rng(make_rng(1), "x").random()
        assert a == b


class TestTokenize:
    def test_splits_words_numbers_punct(self):
        tokens = tokenize("1445 Monarch Blvd, FL")
        kinds = [t.kind for t in tokens]
        assert kinds == ["number", "word", "word", "punct", "word"]

    def test_decimal_number_is_one_token(self):
        tokens = tokenize("26.013284")
        assert [t.text for t in tokens] == ["26.013284"]
        assert tokens[0].kind == "number"

    def test_keep_space(self):
        tokens = tokenize("a b", keep_space=True)
        assert [t.kind for t in tokens] == ["word", "space", "word"]

    def test_token_strings(self):
        assert token_strings("(954) 555-1212") == ["(", "954", ")", "555", "-", "1212"]

    def test_normalize(self):
        assert normalize("  Coconut   CREEK ") == "coconut creek"

    def test_title_case(self):
        assert title_case("oakland park 3rd st") == "Oakland Park 3Rd St"

    def test_is_numeric(self):
        assert is_numeric(" 33063 ")
        assert is_numeric("-26.5")
        assert not is_numeric("33 063")
        assert not is_numeric("zip")

    def test_empty_string(self):
        assert tokenize("") == []


class TestLevenshtein:
    def test_identity(self):
        assert levenshtein("abc", "abc") == 0

    def test_empty_cases(self):
        assert levenshtein("", "abc") == 3
        assert levenshtein("abc", "") == 3

    def test_substitution(self):
        assert levenshtein("kitten", "sitten") == 1

    def test_classic(self):
        assert levenshtein("kitten", "sitting") == 3

    def test_ratio_bounds(self):
        assert levenshtein_ratio("", "") == 1.0
        assert levenshtein_ratio("abc", "abc") == 1.0
        assert levenshtein_ratio("abc", "xyz") == 0.0

    def test_symmetry(self):
        assert levenshtein("flaw", "lawn") == levenshtein("lawn", "flaw")


class TestJaro:
    def test_identity(self):
        assert jaro("monarch", "monarch") == 1.0

    def test_empty(self):
        assert jaro("", "abc") == 0.0

    def test_known_value(self):
        # Classic example: MARTHA vs MARHTA = 0.944...
        assert jaro("MARTHA", "MARHTA") == pytest.approx(0.9444, abs=1e-3)

    def test_winkler_prefix_boost(self):
        assert jaro_winkler("monarch", "monarck") > jaro("monarch", "monarck")

    def test_winkler_caps_at_one(self):
        assert jaro_winkler("abcd", "abcd") == 1.0


class TestTokenSimilarities:
    def test_jaccard_identity(self):
        assert token_jaccard("Monarch High School", "monarch high school") == 1.0

    def test_jaccard_partial(self):
        value = token_jaccard("Monarch High School", "Monarch High")
        assert value == pytest.approx(2 / 3)

    def test_jaccard_empty_both(self):
        assert token_jaccard("", "") == 1.0

    def test_jaccard_one_empty(self):
        assert token_jaccard("abc", "") == 0.0

    def test_ngrams_padding(self):
        grams = ngrams("ab", n=2)
        assert grams == [" a", "ab", "b "]

    def test_dice_identity(self):
        assert ngram_dice("street", "street") == 1.0

    def test_dice_disjoint(self):
        assert ngram_dice("aaa", "zzz") == 0.0

    def test_common_prefix_suffix(self):
        assert longest_common_prefix("monarch", "monaco") == 4
        assert longest_common_suffix("creek blvd", "park blvd") == 6  # "k blvd"


class _Sample(Knobs):
    enabled = Knob("SAMPLE_FLAG", True, "a switch")
    count = Knob("SAMPLE_COUNT", 3, "an int")
    ratio = Knob("SAMPLE_RATIO", 0.5, "a float")
    label = Knob("SAMPLE_LABEL", "x", "a str")


class TestKnobs:
    def test_defaults_when_unset(self):
        assert _Sample().snapshot() == {"enabled": True, "count": 3, "ratio": 0.5, "label": "x"}

    @pytest.mark.parametrize("raw", sorted(_FALSY) + [" OFF ", "False", "No"])
    def test_falsy_spellings_turn_a_bool_off(self, monkeypatch, raw):
        monkeypatch.setenv("SAMPLE_FLAG", raw)
        assert _Sample().enabled is False

    @pytest.mark.parametrize("raw", ["1", "true", "yes", "on", "anything"])
    def test_other_spellings_turn_a_bool_on(self, monkeypatch, raw):
        monkeypatch.setenv("SAMPLE_FLAG", raw)
        assert _Sample().enabled is True

    def test_int_float_and_str_parse(self, monkeypatch):
        monkeypatch.setenv("SAMPLE_COUNT", " 12 ")
        monkeypatch.setenv("SAMPLE_RATIO", "2")
        monkeypatch.setenv("SAMPLE_LABEL", " spaced ")
        knobs = _Sample()
        assert knobs.count == 12 and type(knobs.count) is int
        assert knobs.ratio == 2.0 and type(knobs.ratio) is float
        assert knobs.label == " spaced "

    @pytest.mark.parametrize(
        ("env", "raw", "kind"),
        [("SAMPLE_COUNT", "abc", "int"), ("SAMPLE_COUNT", "2.5", "int"), ("SAMPLE_RATIO", "fast", "float")],
    )
    def test_malformed_value_names_the_variable(self, monkeypatch, env, raw, kind):
        monkeypatch.setenv(env, raw)
        with pytest.raises(ValueError, match=f"{env}='{raw}' is not a valid {kind}"):
            _Sample()

    def test_unknown_override_raises_and_changes_nothing(self):
        knobs = _Sample()
        with pytest.raises(ValueError, match="unknown _Sample knob 'nope'"):
            with knobs.overridden(count=9, nope=1):
                pass  # pragma: no cover
        assert knobs.count == 3

    def test_overridden_restores_after_an_exception(self):
        knobs = _Sample()
        with pytest.raises(RuntimeError):
            with knobs.overridden(count=9, label="y"):
                assert (knobs.count, knobs.label) == (9, "y")
                raise RuntimeError("boom")
        assert (knobs.count, knobs.label) == (3, "x")

    def test_declarations_leave_the_class(self):
        # Reads of knobs sit on hot paths; a same-named class attribute
        # would stop CPython from specialising them.
        assert not set(_Sample.KNOBS) & set(vars(_Sample))

    def test_repr_lists_every_knob(self):
        assert repr(_Sample()) == "_Sample(enabled=True, count=3, ratio=0.5, label='x')"

    def test_no_variable_is_declared_twice(self):
        from repro.analysis.concurrency.config import RACECHECK
        from repro.durability.config import DURABILITY
        from repro.resilience.config import RESILIENCE
        from repro.server.config import OVERLOAD, SERVER

        singletons = (DURABILITY, OVERLOAD, RACECHECK, RESILIENCE, SERVER)
        names = [knob.env for config in singletons for knob in config.KNOBS.values()]
        assert all(name.startswith("REPRO_") for name in names)
        assert len(names) == len(set(names))
