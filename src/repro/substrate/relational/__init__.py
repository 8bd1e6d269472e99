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
    "builtin_type", "columnar_stats_line", "eq", "relation_from_dicts", "schema_of", "walk",
]


def columnar_stats_line(metrics=None) -> str:
    """One-line summary of the evaluator's counters (``--trace`` output)."""
    from ...obs import METRICS
    from ...util.text import INTERN, normalize_cache_stats

    m = metrics or METRICS
    plans = int(m.counter_value("columnar.plans"))
    compile_hits = int(m.counter_value("columnar.compile.hits"))
    compile_misses = int(m.counter_value("columnar.compile.misses"))
    scan_hits = int(m.counter_value("columnar.scan.hits"))
    scan_misses = int(m.counter_value("columnar.scan.misses"))
    normalize = normalize_cache_stats()
    if m.enabled:
        m.gauge("columnar.intern.size", float(len(INTERN)))
        m.gauge("text.normalize.eviction_rate", normalize["eviction_rate"])
    return (
        f"columnar: plans {plans} · "
        f"compile {compile_hits}/{compile_hits + compile_misses} hits · "
        f"scan {scan_hits}/{scan_hits + scan_misses} hits · "
        f"interned {len(INTERN)} · "
        f"normalize evict rate {normalize['eviction_rate']:.3f}"
    )
