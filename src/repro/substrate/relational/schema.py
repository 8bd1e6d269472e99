"""Schemas, attributes, semantic types, and binding patterns.

The paper models sources and services alike as relations; services carry
*input binding restrictions* (Section 4: "Services can be modeled as
relations that take input parameters"). Attributes carry an optional
*semantic type* (Section 3.2), which the integration learner uses to
constrain which association edges are plausible (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ...errors import BindingError, SchemaError, UnknownAttributeError


@dataclass(frozen=True)
class SemanticType:
    """A named semantic type such as ``PR-Street`` or ``PR-City``.

    The paper shows types prefixed ``PR-`` (pattern-recognized) in the
    workspace column headers of Figure 1. ``parent`` allows a shallow type
    hierarchy (e.g. ``PR-ZipCode`` < ``PR-Number``) used when matching
    association edges.
    """

    name: str
    parent: str | None = None

    def __str__(self) -> str:
        return self.name

    def is_a(self, other: "SemanticType | str") -> bool:
        """True if this type equals *other* or descends from it."""
        other_name = other.name if isinstance(other, SemanticType) else other
        return self.name == other_name or self.parent == other_name


# Built-in semantic types, mirroring those visible in the paper's figures and
# running example (street, city, zip, geocode, phone, person, currency).
ANY = SemanticType("PR-Any")
TEXT = SemanticType("PR-Text", parent="PR-Any")
NUMBER = SemanticType("PR-Number", parent="PR-Any")
NAME = SemanticType("PR-Name", parent="PR-Text")
PLACE = SemanticType("PR-Place", parent="PR-Text")
STREET = SemanticType("PR-Street", parent="PR-Text")
CITY = SemanticType("PR-City", parent="PR-Text")
STATE = SemanticType("PR-State", parent="PR-Text")
ZIPCODE = SemanticType("PR-ZipCode", parent="PR-Number")
PHONE = SemanticType("PR-Phone", parent="PR-Text")
LATITUDE = SemanticType("PR-Latitude", parent="PR-Number")
LONGITUDE = SemanticType("PR-Longitude", parent="PR-Number")
CURRENCY = SemanticType("PR-Currency", parent="PR-Number")
DATE = SemanticType("PR-Date", parent="PR-Text")
URL = SemanticType("PR-Url", parent="PR-Text")

BUILTIN_TYPES: tuple[SemanticType, ...] = (
    ANY,
    TEXT,
    NUMBER,
    NAME,
    PLACE,
    STREET,
    CITY,
    STATE,
    ZIPCODE,
    PHONE,
    LATITUDE,
    LONGITUDE,
    CURRENCY,
    DATE,
    URL,
)


def builtin_type(name: str) -> SemanticType:
    """Look up a built-in semantic type by name."""
    for stype in BUILTIN_TYPES:
        if stype.name == name:
            return stype
    raise SchemaError(f"no built-in semantic type named {name!r}")


@dataclass(frozen=True)
class Attribute:
    """A named, semantically typed column."""

    name: str
    semantic_type: SemanticType = ANY

    def __str__(self) -> str:
        return f"{self.name}:{self.semantic_type}"

    def renamed(self, name: str) -> "Attribute":
        return Attribute(name, self.semantic_type)

    def retyped(self, semantic_type: SemanticType) -> "Attribute":
        return Attribute(self.name, semantic_type)


class Schema:
    """An ordered collection of uniquely named attributes.

    Immutable: the attribute names are gathered once, at construction.
    """

    __slots__ = ("_attributes", "_index", "_names")

    def __init__(self, attributes: Iterable[Attribute | str]):
        attrs: list[Attribute] = []
        for attribute in attributes:
            if isinstance(attribute, str):
                attribute = Attribute(attribute)
            attrs.append(attribute)
        names = [attribute.name for attribute in attrs]
        if len(set(names)) != len(names):
            duplicates = sorted({name for name in names if names.count(name) > 1})
            raise SchemaError(f"duplicate attribute names: {duplicates}")
        self._attributes: tuple[Attribute, ...] = tuple(attrs)
        self._index: dict[str, int] = {attr.name: i for i, attr in enumerate(attrs)}
        self._names: tuple[str, ...] = tuple(names)

    def __getstate__(self) -> tuple[None, dict]:
        # The names are derived, so a pickle holds what it held before they
        # were kept: checkpoints written either way load either way.
        return None, {"_attributes": self._attributes, "_index": self._index}

    def __setstate__(self, state: tuple[None, dict]) -> None:
        slots = state[1]
        self._attributes = slots["_attributes"]
        self._index = slots["_index"]
        self._names = tuple(attr.name for attr in self._attributes)

    # -- basic protocol ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._attributes)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self._attributes)

    def __contains__(self, name: object) -> bool:
        return name in self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self._attributes == other._attributes

    def __hash__(self) -> int:
        return hash(self._attributes)

    def __repr__(self) -> str:
        inner = ", ".join(str(attr) for attr in self._attributes)
        return f"Schema({inner})"

    # -- accessors ----------------------------------------------------------
    @property
    def attributes(self) -> tuple[Attribute, ...]:
        return self._attributes

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def attribute(self, name: str) -> Attribute:
        try:
            return self._attributes[self._index[name]]
        except KeyError:
            raise UnknownAttributeError(name, self.names) from None

    def position(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownAttributeError(name, self.names) from None

    def semantic_type(self, name: str) -> SemanticType:
        return self.attribute(name).semantic_type

    # -- derivations ---------------------------------------------------------
    def project(self, names: Iterable[str]) -> "Schema":
        """Schema restricted to *names*, in the given order."""
        return Schema([self.attribute(name) for name in names])

    def rename(self, mapping: dict[str, str]) -> "Schema":
        """Schema with attributes renamed according to *mapping*."""
        return Schema(
            [
                attr.renamed(mapping.get(attr.name, attr.name))
                for attr in self._attributes
            ]
        )

    def retype(self, mapping: dict[str, SemanticType]) -> "Schema":
        """Schema with semantic types replaced according to *mapping*."""
        for name in mapping:
            if name not in self._index:
                raise UnknownAttributeError(name, self.names)
        return Schema(
            [
                attr.retyped(mapping.get(attr.name, attr.semantic_type))
                for attr in self._attributes
            ]
        )

    def concat(self, other: "Schema", disambiguate: bool = False) -> "Schema":
        """Concatenate two schemas.

        With *disambiguate*, clashing names from *other* get a numeric
        suffix; otherwise a clash raises :class:`SchemaError`.
        """
        attrs = list(self._attributes)
        taken = set(self.names)
        for attr in other:
            name = attr.name
            if name in taken:
                if not disambiguate:
                    raise SchemaError(f"attribute {name!r} present in both schemas")
                suffix = 2
                while f"{name}_{suffix}" in taken:
                    suffix += 1
                name = f"{name}_{suffix}"
            taken.add(name)
            attrs.append(attr.renamed(name))
        return Schema(attrs)

    def union_compatible_with(self, other: "Schema") -> bool:
        """True when both schemas have the same attribute names in order."""
        return self.names == other.names

    def merge_for_union(self, other: "Schema") -> "Schema":
        """Homogeneous schema covering both inputs (paper Section 4.2).

        The column-completion path "creates a union of these queries
        (extending the schema and padding with nulls as necessary to form a
        homogeneous schema)". Attributes of *self* come first; novel
        attributes of *other* are appended.
        """
        attrs = list(self._attributes)
        seen = set(self.names)
        for attr in other:
            if attr.name not in seen:
                attrs.append(attr)
                seen.add(attr.name)
        return Schema(attrs)


@dataclass(frozen=True)
class BindingPattern:
    """Which attributes must be bound (inputs) to access a source.

    ``inputs`` names attributes that must be supplied; everything else in the
    schema is free output. A plain data source has an empty pattern; a web
    form or service (e.g. the paper's zip-code resolver) requires inputs.
    """

    inputs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inputs", tuple(self.inputs))

    @property
    def is_free(self) -> bool:
        return not self.inputs

    def validate(self, schema: Schema) -> None:
        """Ensure every input attribute exists in *schema*."""
        for name in self.inputs:
            if name not in schema:
                raise BindingError(
                    f"binding pattern references {name!r} not in schema {schema.names}"
                )

    def check_bound(self, bound: Iterable[str]) -> None:
        """Raise :class:`BindingError` unless every input is in *bound*."""
        missing = [name for name in self.inputs if name not in set(bound)]
        if missing:
            raise BindingError(f"unbound required inputs: {missing}")

    def __str__(self) -> str:
        if not self.inputs:
            return "free"
        return "requires(" + ", ".join(self.inputs) + ")"


def schema_of(*names: str, types: dict[str, SemanticType] | None = None) -> Schema:
    """Convenience constructor: ``schema_of("a", "b", types={"a": CITY})``."""
    types = types or {}
    return Schema([Attribute(name, types.get(name, ANY)) for name in names])
