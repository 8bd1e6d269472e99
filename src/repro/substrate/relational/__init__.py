"""In-memory relational substrate with provenance-annotated evaluation."""

from .algebra import (
    DependentJoin,
    Distinct,
    Join,
    Limit,
    Plan,
    Project,
    RecordLinkJoin,
    Rename,
    RowLinker,
    Scan,
    Select,
    Union,
    walk,
)
from .aggregates import AGGREGATES, AggSpec, GroupBy
from .catalog import Catalog, SourceMetadata
from .columns import ColumnBatch
from .evaluator import Evaluator, Result
from .predicates import (
    And,
    AttrCompare,
    Compare,
    Contains,
    IsNull,
    Not,
    NotNull,
    Or,
    Predicate,
    eq,
)
from .relation import Relation, relation_from_dicts
from .rows import NULL, Row, TupleId
from .schema import (
    ANY,
    BUILTIN_TYPES,
    CITY,
    CURRENCY,
    DATE,
    LATITUDE,
    LONGITUDE,
    NAME,
    NUMBER,
    PLACE,
    PHONE,
    STATE,
    STREET,
    TEXT,
    URL,
    ZIPCODE,
    Attribute,
    BindingPattern,
    Schema,
    SemanticType,
    builtin_type,
    schema_of,
)

__all__ = [
    "ANY", "BUILTIN_TYPES", "CITY", "CURRENCY", "DATE", "LATITUDE", "LONGITUDE",
    "NAME", "NULL", "NUMBER", "PHONE", "PLACE", "STATE", "STREET", "TEXT", "URL", "ZIPCODE",
    "AGGREGATES", "AggSpec", "And", "AttrCompare", "Attribute", "BindingPattern", "Catalog",
    "ColumnBatch", "Compare",
    "GroupBy",
    "Contains", "DependentJoin", "Distinct", "Evaluator", "IsNull", "Join",
    "Limit", "Not", "NotNull", "Or", "Plan", "Predicate", "Project",
    "RecordLinkJoin", "Relation", "Rename", "Result", "Row", "RowLinker", "Scan",
    "Schema", "Select", "SemanticType", "SourceMetadata", "TupleId", "Union",
    "builtin_type", "eq", "relation_from_dicts", "schema_of", "walk",
]
