"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import string
import copy
import dataclasses
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import linker_token, plan_fingerprint
from repro.provenance.expressions import ONE, ZERO, Provenance, plus, times, var
from repro.provenance.semirings import (
    best_score,
    cheapest_cost,
    derivation_count,
    is_derivable,
)
from repro.substrate.relational import Plan, Predicate, Relation, Row, RowLinker, schema_of
from repro.substrate.relational.rows import TupleId
from repro.util.strings import (
    jaro,
    jaro_winkler,
    levenshtein,
    levenshtein_ratio,
    ngram_dice,
    token_jaccard,
)
from repro.util.text import normalize, tokenize

short_text = st.text(alphabet=string.ascii_letters + string.digits + " .-,", max_size=30)
words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12)


# ---------------------------------------------------------------- strings
@given(short_text, short_text)
def test_levenshtein_symmetry(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(short_text, short_text)
def test_levenshtein_identity_of_indiscernibles(a, b):
    assert (levenshtein(a, b) == 0) == (a == b)


@given(short_text, short_text, short_text)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(short_text, short_text)
def test_similarities_bounded(a, b):
    for fn in (jaro, jaro_winkler, levenshtein_ratio, token_jaccard, ngram_dice):
        value = fn(a, b)
        assert 0.0 <= value <= 1.0 + 1e-9


@given(short_text)
def test_similarity_reflexive(a):
    assert jaro(a, a) in (0.0, 1.0)  # 0.0 only for empty string
    assert levenshtein_ratio(a, a) == 1.0
    assert token_jaccard(a, a) == 1.0


@given(short_text, short_text)
def test_jaro_symmetry(a, b):
    assert jaro(a, b) == jaro(b, a)


# ---------------------------------------------------------------- tokenizer
@given(short_text)
def test_tokenize_covers_non_space_text(value):
    tokens = tokenize(value)
    reassembled = "".join(token.text for token in tokens)
    assert reassembled == "".join(value.split())


@given(short_text)
def test_normalize_idempotent(value):
    assert normalize(normalize(value)) == normalize(value)


# ---------------------------------------------------------------- provenance
def provenance_exprs(max_vars: int = 4) -> st.SearchStrategy[Provenance]:
    leaves = st.one_of(
        st.builds(lambda i: var("R", i), st.integers(0, max_vars - 1)),
        st.just(ONE),
        st.just(ZERO),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda xs: times(*xs), st.lists(children, min_size=1, max_size=3)),
            st.builds(lambda xs: plus(*xs), st.lists(children, min_size=1, max_size=3)),
        )

    return st.recursive(leaves, extend, max_leaves=8)


@given(provenance_exprs())
@settings(max_examples=200)
def test_derivations_agree_with_boolean_semiring(expr):
    """A tuple is derivable from base set S iff some derivation ⊆ S."""
    universe = expr.variables()
    subsets = [frozenset(), universe]
    if universe:
        first = next(iter(sorted(universe)))
        subsets.append(universe - {first})
        subsets.append(frozenset({first}))
    for subset in subsets:
        via_boolean = is_derivable(expr, subset)
        via_derivations = any(d <= subset for d in expr.derivations())
        assert via_boolean == via_derivations


@given(provenance_exprs())
@settings(max_examples=200)
def test_counting_at_least_distinct_derivations(expr):
    """With unit multiplicities, the count ≥ number of *distinct* derivations
    (duplicates under idempotent-set view may be counted multiple times)."""
    assert derivation_count(expr) >= 0
    if expr.derivations():
        assert derivation_count(expr) >= 1
    else:
        assert derivation_count(expr) == 0


@given(provenance_exprs())
@settings(max_examples=100)
def test_score_bounded_by_one_for_unit_trust(expr):
    score = best_score(expr, lambda tid: 1.0)
    assert score in (0.0, 1.0)


@given(provenance_exprs())
@settings(max_examples=100)
def test_tropical_cost_nonnegative_for_nonnegative_weights(expr):
    cost = cheapest_cost(expr, lambda tid: float(tid.index))
    assert cost >= 0.0 or cost == float("inf")


@given(provenance_exprs(), provenance_exprs())
@settings(max_examples=100)
def test_plus_is_commutative_for_derivations(a, b):
    left = {frozenset(d) for d in plus(a, b).derivations()}
    right = {frozenset(d) for d in plus(b, a).derivations()}
    assert left == right


@given(provenance_exprs(), provenance_exprs())
@settings(max_examples=100)
def test_times_zero_annihilates(a, b):
    assert times(a, ZERO).derivations() == []


# ---------------------------------------------------------------- rows
@given(st.lists(st.integers(), min_size=3, max_size=3))
def test_row_pad_to_self_is_identity(values):
    schema = schema_of("a", "b", "c")
    row = Row(schema, values)
    assert row.pad_to(schema) == row


@given(st.lists(st.lists(st.integers(), min_size=2, max_size=2), max_size=10))
def test_relation_tuple_ids_sequential(rows):
    schema = schema_of("x", "y")
    relation = Relation("R", schema)
    tids = [relation.add(row) for row in rows]
    assert tids == [TupleId("R", i) for i in range(len(rows))]
    assert len(relation) == len(rows)


# ---------------------------------------------------------------- workspace
@given(st.lists(st.lists(st.text(max_size=5), min_size=2, max_size=2), min_size=1, max_size=8))
def test_workspace_accept_then_committed_counts(rows):
    from repro.core.workspace import CellState, WorkspaceTable

    table = WorkspaceTable("T")
    table.append_rows(rows[:1], state=CellState.USER)
    table.append_rows(rows[1:], state=CellState.SUGGESTED)
    suggested = len(rows) - 1
    assert len(table.suggested_row_indices()) == suggested
    table.accept_rows()
    assert len(table.committed_rows()) == len(rows)


# ---------------------------------------------------------------- transforms
@given(
    st.lists(
        st.tuples(words, words),
        min_size=2,
        max_size=5,
    )
)
def test_transform_learner_consistent_on_training_examples(pairs):
    """Whatever the learner returns must reproduce every training example."""
    from repro.learning.transforms import TransformLearner

    examples = [({"a": a}, a.upper()) for a, _ in pairs]
    ranked = TransformLearner().learn(examples)
    for transform in ranked:
        for row, target in examples:
            produced = transform.apply(row)
            assert produced is not None
            assert str(produced) == str(target)


@given(st.lists(st.floats(min_value=-1000, max_value=1000, allow_nan=False), min_size=2, max_size=6))
def test_transform_learner_recovers_linear_maps(xs):
    from repro.learning.transforms import TransformLearner

    xs = sorted(set(round(x, 3) for x in xs))
    if len(xs) < 2:
        return
    examples = [({"x": x}, 2.0 * x + 1.0) for x in xs]
    best = TransformLearner().best(examples)
    for x in xs:
        assert abs(best.apply({"x": x}) - (2.0 * x + 1.0)) < 1e-4


@given(st.lists(st.tuples(words, words), min_size=2, max_size=5, unique_by=lambda p: p[0]))
def test_transform_concat_recovered(pairs):
    from repro.learning.transforms import TransformLearner

    examples = [({"a": a, "b": b}, f"{a} {b}") for a, b in pairs]
    best = TransformLearner().best(examples)
    for (a, b), (row, target) in zip(pairs, examples):
        assert str(best.apply(row)) == target


# ---------------------------------------------------------------- undo
@given(
    st.lists(st.lists(st.text(max_size=5), min_size=2, max_size=2), min_size=1, max_size=6),
    st.lists(st.lists(st.text(max_size=5), min_size=2, max_size=2), min_size=0, max_size=6),
)
def test_workspace_undo_is_inverse_of_checkpointed_mutation(first, second):
    """checkpoint(); mutate; undo() restores the observable table state."""
    from repro.core.workspace import CellState, Workspace

    ws = Workspace()
    table = ws.new_tab("T")
    table.append_rows(first, state=CellState.USER)
    before_rows = [table.row_values(i) for i in range(table.n_rows)]
    before_cols = [c.name for c in table.columns]

    ws.checkpoint()
    table.append_rows(second, state=CellState.SUGGESTED)
    if table.n_cols:
        table.set_column_label(0, "Mutated")
    assert ws.undo()

    restored = ws.tab("T")
    assert [restored.row_values(i) for i in range(restored.n_rows)] == before_rows
    assert [c.name for c in restored.columns] == before_cols


# ------------------------------------------------- columnar / row parity
#
# Random plan trees over random catalogs must evaluate identically on the
# compiled evaluator and the tuple-at-a-time reference interpreter — rows,
# order, provenance expressions, and degradations — or raise the same
# exception type: the bit-for-bit contract, explored beyond the hand-written
# operator cases.

_CELLS = st.one_of(
    st.none(),
    st.integers(min_value=0, max_value=5),
    st.sampled_from(["creek", "park st", "Creek", "x", ""]),
)
_OPS = st.sampled_from(["==", "!=", "<", "<=", ">", ">="])


@st.composite
def _catalogs(draw):
    from repro.substrate.relational import Catalog, Relation

    catalog = Catalog()
    r0 = Relation("R0", schema_of("a", "b", "c"))
    r0.extend(draw(st.lists(st.tuples(_CELLS, _CELLS, _CELLS), max_size=8)))
    r1 = Relation("R1", schema_of("b", "d"))
    r1.extend(draw(st.lists(st.tuples(_CELLS, _CELLS), max_size=8)))
    catalog.add_relation(r0)
    catalog.add_relation(r1)
    return catalog


@dataclass(frozen=True)
class _Truthy(Predicate):
    """A custom predicate subclass: no mask function, only ``matches``."""

    attribute: str

    def matches(self, row):
        return bool(row[self.attribute])


@st.composite
def _predicates(draw, names):
    from repro.substrate.relational import And, Compare, Contains, IsNull, Not, NotNull, Or

    attr = st.sampled_from(sorted(names))
    leaf = st.one_of(
        st.builds(Compare, attr, _OPS, _CELLS),
        st.builds(IsNull, attr),
        st.builds(NotNull, attr),
        st.builds(Contains, attr, st.sampled_from(["cre", "park", ""])),
        st.builds(_Truthy, attr),
    )
    predicate = draw(leaf)
    shape = draw(st.integers(min_value=0, max_value=3))
    if shape == 1:
        predicate = Not(predicate)
    elif shape == 2:
        predicate = And((predicate, draw(leaf)))
    elif shape == 3:
        predicate = Or((predicate, draw(leaf)))
    return predicate


class _OpaqueLinker(RowLinker):
    """A linker without a content token: it fingerprints by identity."""

    def score(self, left, right):  # pragma: no cover - never evaluated
        return 0.0


_SHARED_OPAQUE = _OpaqueLinker()


@st.composite
def _linkers(draw):
    from repro.linking.linker import LearnedLinker
    from repro.linking.similarity import FieldPair

    kind = draw(st.sampled_from(["learned", "other-fields", "reweighted", "opaque", "shared"]))
    if kind in ("opaque", "shared"):
        return _OpaqueLinker() if kind == "opaque" else _SHARED_OPAQUE
    linker = LearnedLinker([FieldPair("b", "d" if kind == "other-fields" else "b")])
    if kind == "reweighted":  # what training does to the weight vector
        name = draw(st.sampled_from(sorted(linker.weights)))
        linker.weights[name] = draw(st.sampled_from([0.0, 2.0]))
    return linker


_OPERATORS = ("select", "project", "rename", "join", "union", "distinct", "groupby", "limit")
#: The nodes a Limit's row cap can travel through or stop at.
_STREAMING = ("select", "project", "rename", "limit")


@st.composite
def _plans(draw, depth=2, ops=_OPERATORS):
    from repro.substrate.relational import (
        AggSpec, AttrCompare, DependentJoin, Distinct, GroupBy, Join, Limit, Project,
        RecordLinkJoin, Rename, Scan, Select, Union,
    )

    if depth == 0:
        source = draw(st.sampled_from(["R0", "R1"]))
        names = ("a", "b", "c") if source == "R0" else ("b", "d")
        return Scan(source), names

    child, names = draw(_plans(depth=depth - 1, ops=ops))
    op = draw(st.sampled_from(ops))
    if op == "limit":
        return Limit(child, draw(st.integers(min_value=0, max_value=4))), names
    if op == "select":
        return Select(child, draw(_predicates(names))), names
    if op == "project" and len(names) > 1:
        keep = tuple(draw(st.permutations(names))[: draw(st.integers(1, len(names)))])
        return Project(child, keep), keep
    if op == "rename":
        old = draw(st.sampled_from(sorted(names)))
        new = old + "_r"
        return Rename(child, ((old, new),)), tuple(new if n == old else n for n in names)
    if op == "join":
        other, other_names = draw(_plans(depth=0))
        common = sorted(set(names) & set(other_names))
        if common:
            key = draw(st.sampled_from(common))
            joined = names + tuple(n for n in other_names if n != key)
            return Join(child, other, ((key, key),)), joined
    if op == "union":
        other, other_names = draw(_plans(depth=0))
        merged = names + tuple(n for n in other_names if n not in names)
        return Union((child, other)), merged
    if op == "link":
        other, other_names = draw(_plans(depth=0))
        linker = draw(_linkers())
        threshold = draw(st.sampled_from([0.5, 0.8]))
        return RecordLinkJoin(child, other, linker, threshold, draw(st.booleans())), names
    if op == "attrselect":
        # Attribute names chosen so different predicates print alike.
        left = draw(st.sampled_from(["a == b", "a"]))
        right = draw(st.sampled_from(["c", "b == c"]))
        return Select(child, AttrCompare(left, "==", right)), names
    if op == "dependent":
        # Drawn only by the sources property: these plans never evaluate,
        # so the service need not exist and its outputs are not tracked.
        bound = draw(st.sampled_from(sorted(names)))
        return DependentJoin(child, draw(st.sampled_from(["S0", "S1"])), (("k", bound),)), names
    if op == "groupby":
        key = draw(st.sampled_from(sorted(names)))
        agg = draw(st.sampled_from(sorted(names)))
        alias = "n"
        while alias == key:  # nested GroupBys can put "n" among the keys
            alias += "n"
        return GroupBy(child, (key,), (AggSpec("count", agg, alias),)), (key, alias)
    return Distinct(child), names


def _assert_oracle_parity(catalog, plan):
    from repro.substrate.relational import Evaluator

    from .reference_interpreter import evaluate as reference

    def evaluate(run):
        try:
            result = run(plan)
        except Exception as exc:  # noqa: BLE001 -- error parity is the assertion
            return ("error", type(exc).__name__)
        return (
            result.schema.names,
            [(row.schema.names, row.values, str(prov)) for row, prov in result.rows],
            [(note.service, note.reason) for note in result.degraded],
        )

    assert evaluate(Evaluator(catalog).run) == evaluate(lambda plan: reference(catalog, plan))


@given(_catalogs(), _plans(depth=3))
@settings(max_examples=60, deadline=None)
def test_columnar_row_parity_on_random_plans(catalog, plan_and_names):
    """The compiled evaluator agrees with the tuple-at-a-time oracle."""
    _assert_oracle_parity(catalog, plan_and_names[0])


@given(_catalogs(), _plans(depth=3, ops=_STREAMING), st.integers(min_value=1, max_value=3))
@settings(max_examples=300, deadline=None)
def test_limit_over_streaming_chains_matches_oracle(catalog, plan_and_names, count):
    """A Limit's row cap over chains of Select/Project/Rename/Limit (the
    nodes it reaches) keeps exactly the oracle's leading rows."""
    from repro.substrate.relational import Limit

    _assert_oracle_parity(catalog, Limit(plan_and_names[0], count))


@given(_plans(depth=3, ops=_OPERATORS + ("link", "dependent")))
@settings(max_examples=200, deadline=None)
def test_walked_leaves_equal_sources(plan_and_names):
    """PLAN004: ``sources()`` names exactly the scanned relations and
    invoked services a walk of the tree reaches, so provenance and trust
    feedback cover every source a plan reads."""
    from repro.substrate.relational import DependentJoin, Scan, walk

    plan = plan_and_names[0]
    leaves = set()
    for node in walk(plan):
        if isinstance(node, Scan):
            leaves.add(node.source)
        elif isinstance(node, DependentJoin):
            leaves.add(node.service)
    assert leaves == plan.sources()


# ------------------------------------------------------ plan fingerprints
#
# Oracle: a fingerprint is equal exactly when the plans are equal as
# dataclasses, once each linker (compared by identity) is replaced by its
# content token.

_FINGERPRINT_OPS = _OPERATORS + ("link", "attrselect")


def _linkers_as_tokens(plan):
    def swap(value):
        if isinstance(value, Plan):
            return _linkers_as_tokens(value)
        if isinstance(value, tuple):
            return tuple(swap(item) for item in value)
        if isinstance(value, RowLinker):
            return linker_token(value)
        return value

    return dataclasses.replace(
        plan, **{f.name: swap(getattr(plan, f.name)) for f in dataclasses.fields(plan)}
    )


@st.composite
def _plan_pairs(draw):
    first, _ = draw(_plans(depth=3, ops=_FINGERPRINT_OPS))
    if draw(st.booleans()):
        return first, copy.deepcopy(first)  # equal, but no node shared
    return first, draw(_plans(depth=3, ops=_FINGERPRINT_OPS))[0]


@given(_plan_pairs())
@settings(max_examples=300, deadline=None)
def test_fingerprints_equal_iff_plans_equal(pair):
    first, second = pair
    same_fingerprint = plan_fingerprint(first) == plan_fingerprint(second)
    assert same_fingerprint == (_linkers_as_tokens(first) == _linkers_as_tokens(second))
    if same_fingerprint:
        assert hash(plan_fingerprint(first)) == hash(plan_fingerprint(second))
