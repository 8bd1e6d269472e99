"""Tests for schemas, attributes, semantic types, and binding patterns."""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.errors import BindingError, SchemaError, UnknownAttributeError
from repro.substrate.relational.schema import (
    ANY,
    CITY,
    NUMBER,
    STREET,
    ZIPCODE,
    Attribute,
    BindingPattern,
    Schema,
    builtin_type,
    schema_of,
)


class TestSemanticType:
    def test_is_a_self(self):
        assert CITY.is_a(CITY)
        assert CITY.is_a("PR-City")

    def test_is_a_parent(self):
        assert ZIPCODE.is_a(NUMBER)
        assert not NUMBER.is_a(ZIPCODE)

    def test_builtin_lookup(self):
        assert builtin_type("PR-Street") is STREET

    def test_builtin_lookup_unknown(self):
        with pytest.raises(SchemaError):
            builtin_type("PR-Nope")

    def test_str(self):
        assert str(STREET) == "PR-Street"


class TestSchema:
    def test_construction_from_strings(self):
        schema = Schema(["a", "b"])
        assert schema.names == ("a", "b")
        assert schema.attribute("a").semantic_type is ANY

    def test_duplicate_names_rejected(self):
        with pytest.raises(SchemaError, match="duplicate"):
            Schema(["a", "a"])

    def test_unknown_attribute(self):
        schema = schema_of("a", "b")
        with pytest.raises(UnknownAttributeError) as err:
            schema.attribute("c")
        assert err.value.available == ("a", "b")

    def test_position(self):
        schema = schema_of("a", "b", "c")
        assert schema.position("b") == 1

    def test_project_order(self):
        schema = schema_of("a", "b", "c")
        assert schema.project(["c", "a"]).names == ("c", "a")

    def test_rename(self):
        schema = schema_of("a", "b", types={"a": CITY})
        renamed = schema.rename({"a": "city"})
        assert renamed.names == ("city", "b")
        assert renamed.attribute("city").semantic_type is CITY

    def test_retype(self):
        schema = schema_of("a")
        retyped = schema.retype({"a": STREET})
        assert retyped.attribute("a").semantic_type is STREET

    def test_retype_unknown_attr(self):
        with pytest.raises(UnknownAttributeError):
            schema_of("a").retype({"zzz": STREET})

    def test_concat_clash_raises(self):
        with pytest.raises(SchemaError):
            schema_of("a").concat(schema_of("a"))

    def test_concat_disambiguates(self):
        combined = schema_of("a", "b").concat(schema_of("a"), disambiguate=True)
        assert combined.names == ("a", "b", "a_2")

    def test_concat_disambiguation_cascades(self):
        combined = schema_of("a", "a_2").concat(schema_of("a"), disambiguate=True)
        assert combined.names == ("a", "a_2", "a_3")

    def test_merge_for_union(self):
        merged = schema_of("a", "b").merge_for_union(schema_of("b", "c"))
        assert merged.names == ("a", "b", "c")

    def test_union_compatible(self):
        assert schema_of("a", "b").union_compatible_with(schema_of("a", "b"))
        assert not schema_of("a", "b").union_compatible_with(schema_of("b", "a"))

    def test_equality_and_hash(self):
        assert schema_of("a", "b") == schema_of("a", "b")
        assert hash(schema_of("a")) == hash(schema_of("a"))
        assert schema_of("a") != schema_of("a", types={"a": CITY})

    def test_contains(self):
        assert "a" in schema_of("a")
        assert "z" not in schema_of("a")

    def test_iteration(self):
        names = [attr.name for attr in schema_of("x", "y")]
        assert names == ["x", "y"]

    def test_pickle_leaves_the_names_out_and_rebuilds_them(self):
        # Checkpoints pickle schemas: the state is what it was before the
        # names were kept, so a checkpoint loads across that change.
        schema = Schema([Attribute("a", CITY), "b"])
        assert schema.__getstate__() == (None, {"_attributes": schema.attributes, "_index": {"a": 0, "b": 1}})
        for clone in (pickle.loads(pickle.dumps(schema)), copy.deepcopy(schema), copy.copy(schema)):
            assert clone == schema and clone.names == ("a", "b")


class TestBindingPattern:
    def test_free_pattern(self):
        assert BindingPattern().is_free
        assert str(BindingPattern()) == "free"

    def test_validate_against_schema(self):
        pattern = BindingPattern(inputs=("Street",))
        pattern.validate(schema_of("Street", "Zip"))
        with pytest.raises(BindingError):
            pattern.validate(schema_of("Zip"))

    def test_check_bound(self):
        pattern = BindingPattern(inputs=("a", "b"))
        pattern.check_bound(["a", "b", "c"])
        with pytest.raises(BindingError, match="unbound"):
            pattern.check_bound(["a"])

    def test_str_with_inputs(self):
        assert str(BindingPattern(inputs=("x",))) == "requires(x)"


class TestAttribute:
    def test_renamed_keeps_type(self):
        attr = Attribute("a", CITY).renamed("b")
        assert attr.name == "b"
        assert attr.semantic_type is CITY

    def test_retyped_keeps_name(self):
        attr = Attribute("a", CITY).retyped(STREET)
        assert attr.name == "a"
        assert attr.semantic_type is STREET
