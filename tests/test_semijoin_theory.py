"""Tests for the Section-6.3 join/semijoin study."""

import pytest

from repro.algebra import SchemaRegistry, bag_equal, eq
from repro.core import jn, sj
from repro.core.semijoin_theory import (
    JoinSemijoinGraph,
    check_semijoin_graph,
    semijoin_graph_of,
    semijoin_implementing_trees,
)
from repro.datagen import random_databases
from repro.util.errors import GraphUndefinedError

SCHEMAS = {"X": ["X.a", "X.b"], "Y": ["Y.a", "Y.b"], "Z": ["Z.a", "Z.b"]}
PXY = eq("X.a", "Y.a")
PYZ = eq("Y.b", "Z.b")
PXZ = eq("X.b", "Z.a")


@pytest.fixture
def reg():
    return SchemaRegistry(SCHEMAS)


def series_graph():
    """Semijoin edges in series: X ⋉ Y, Y ⋉ Z."""
    return JoinSemijoinGraph.from_edges(sj=[("X", "Y", PXY), ("Y", "Z", PYZ)])


def parallel_graph():
    """Two semijoins filtering X."""
    return JoinSemijoinGraph.from_edges(sj=[("X", "Y", PXY), ("X", "Z", PXZ)])


def mixed_graph():
    """Join X−Y with a semijoin filter Y ⋉ Z."""
    return JoinSemijoinGraph.from_edges(join=[("X", "Y", PXY)], sj=[("Y", "Z", PYZ)])


class TestGraphConstruction:
    def test_round_trip(self, reg):
        q = sj("X", sj("Y", "Z", PYZ), PXY)
        assert semijoin_graph_of(q, reg) == series_graph()

    def test_mixed_round_trip(self, reg):
        q = jn("X", sj("Y", "Z", PYZ), PXY)
        assert semijoin_graph_of(q, reg) == mixed_graph()

    def test_rejects_outerjoins(self, reg):
        from repro.core import oj

        with pytest.raises(GraphUndefinedError):
            semijoin_graph_of(oj("X", "Y", PXY), reg)

    def test_describe(self):
        assert "⋉" in series_graph().describe()


class TestTreeEnumeration:
    def test_series_has_exactly_one_tree(self, reg):
        """The paper's 'forbidden subgraph': series semijoins leave zero
        reordering freedom — only the right-deep order is well formed."""
        trees = list(semijoin_implementing_trees(series_graph(), reg))
        assert [t.to_infix() for t in trees] == ["(X ⋉ (Y ⋉ Z))"]

    def test_parallel_semijoins_commute(self, reg):
        trees = list(semijoin_implementing_trees(parallel_graph(), reg))
        assert {t.to_infix() for t in trees} == {"((X ⋉ Y) ⋉ Z)", "((X ⋉ Z) ⋉ Y)"}

    def test_mixed_graph_trees(self, reg):
        trees = {t.to_infix() for t in semijoin_implementing_trees(mixed_graph(), reg)}
        # The semijoin may run before or after the join; the invalid
        # shape (X − Y) ⋉ Z is excluded (Y's attributes... survive a join,
        # so it IS valid here) — but ((X ⋉ ...) variants that discard Y
        # before the join predicate needs it are excluded.
        assert "(X - (Y ⋉ Z))" in trees
        assert "((X - Y) ⋉ Z)" in trees

    def test_availability_rule_excludes_early_discard(self, reg):
        """In the series graph, (X ⋉ Y) ⋉ Z would evaluate P_yz after Y's
        attributes were discarded — the enumerator must not emit it."""
        trees = {t.to_infix() for t in semijoin_implementing_trees(series_graph(), reg)}
        assert "((X ⋉ Y) ⋉ Z)" not in trees

    def test_disconnected_rejected(self, reg):
        g = JoinSemijoinGraph.from_edges(sj=[("X", "Y", PXY)], isolated=["Z"])
        with pytest.raises(GraphUndefinedError):
            list(semijoin_implementing_trees(g, reg))


class TestAgreement:
    @pytest.mark.parametrize("factory", [parallel_graph, mixed_graph])
    def test_valid_trees_agree(self, reg, factory):
        dbs = random_databases(SCHEMAS, 15, seed=7)
        report = check_semijoin_graph(factory(), reg, dbs)
        assert report.tree_count >= 2
        assert report.consistent, report.witness

    def test_series_is_vacuously_consistent(self, reg):
        dbs = random_databases(SCHEMAS, 5, seed=8)
        report = check_semijoin_graph(series_graph(), reg, dbs)
        assert report.tree_count == 1
        assert report.consistent

    def test_semijoin_filter_commutes_with_join_semantically(self, reg):
        """The semantics behind the mixed graph's agreement: a semijoin is
        a filter on its preserved operand."""
        dbs = random_databases(SCHEMAS, 15, seed=9)
        early = jn("X", sj("Y", "Z", PYZ), PXY)
        late = sj(jn("X", "Y", PXY), "Z", PYZ)
        for db in dbs:
            assert bag_equal(early.eval(db), late.eval(db))


# ---------------------------------------------------------------------------
# Semijoin-pushdown legality on the paper's named graphs (the identity
# layer any semijoin full reducer stands on).  Expressions may not
# repeat a relation variable, so the reduced forms are evaluated with the
# algebra operators directly.
# ---------------------------------------------------------------------------

from repro.algebra import join, outerjoin, semijoin  # noqa: E402
from repro.algebra.nulls import NULL  # noqa: E402
from repro.algebra.relation import Database, Relation  # noqa: E402
from repro.core import oj  # noqa: E402
from repro.datagen import random_databases as _random_databases  # noqa: E402

CHAIN_SCHEMAS = {n: [f"{n}.a", f"{n}.b"] for n in ("R1", "R2", "R3")}
P12 = eq("R1.a", "R2.a")
P23 = eq("R2.a", "R3.a")


def chain_databases(count, seed):
    return _random_databases(CHAIN_SCHEMAS, count, seed=seed)


def db_of(rows_by_rel):
    return Database(
        {
            name: Relation.from_dicts(CHAIN_SCHEMAS[name], rows)
            for name, rows in rows_by_rel.items()
        }
    )


class TestPushdownLegalityExample1:
    """Example 1's graph R1 − R2 → R3: which semijoin reductions are legal.

    These are exactly the passes a semijoin full reducer may run (and
    must refuse) on this shape: both directions of a join edge, the
    top-down pass over an outerjoin edge, but never the bottom-up
    reduction of a preserved side by its null-supplied child.
    """

    QUERY = oj(jn("R1", "R2", P12), "R3", P23)

    def test_reducing_either_join_side_is_legal(self):
        for db in chain_databases(20, seed=41):
            r1, r2, r3 = db["R1"], db["R2"], db["R3"]
            expected = self.QUERY.eval(db)
            reduced_left = outerjoin(join(semijoin(r1, r2, P12), r2, P12), r3, P23)
            reduced_right = outerjoin(join(r1, semijoin(r2, r1, P12), P12), r3, P23)
            assert bag_equal(reduced_left, expected)
            assert bag_equal(reduced_right, expected)

    def test_reducing_null_supplied_side_is_legal(self):
        """Top-down over the outerjoin arrow: R3 rows the preserved side
        cannot reach never appear (matched or padded) in the output."""
        for db in chain_databases(20, seed=42):
            r1, r2, r3 = db["R1"], db["R2"], db["R3"]
            reduced = outerjoin(join(r1, r2, P12), semijoin(r3, r2, P23), P23)
            assert bag_equal(reduced, self.QUERY.eval(db))

    def test_reducing_preserved_side_by_null_supplied_is_illegal(self):
        """Known answer: semijoining R2 by R3 across the outerjoin edge
        drops the row the outerjoin was required to null-pad."""
        db = db_of(
            {
                "R1": [{"R1.a": 1, "R1.b": 0}],
                "R2": [{"R2.a": 1, "R2.b": 0}],
                "R3": [{"R3.a": 7, "R3.b": 0}],  # matches nothing
            }
        )
        expected = self.QUERY.eval(db)
        assert len(expected) == 1  # (1, 1, NULL-padded R3)
        assert all(row["R3.a"] is NULL for row in expected)
        r1, r2, r3 = db["R1"], db["R2"], db["R3"]
        reduced = outerjoin(join(r1, semijoin(r2, r3, P23), P12), r3, P23)
        assert len(reduced) == 0
        assert not bag_equal(reduced, expected)


class TestPushdownLegalityExample2:
    """Example 2's non-nice graph R1 → R2 − R3 (the forbidden X→Y−Z).

    The join under the arrow may still be semijoin-reduced internally —
    the illegality sits at the preserved relation, which explains why
    :func:`repro.core.gyo.join_tree_of` refuses this graph outright
    (Theorem 1 fails) instead of picking a root.
    """

    QUERY = oj("R1", jn("R2", "R3", P23), P12)

    def test_reducing_inside_null_supplied_subtree_is_legal(self):
        for db in chain_databases(20, seed=43):
            r1, r2, r3 = db["R1"], db["R2"], db["R3"]
            reduced = outerjoin(r1, join(semijoin(r2, r3, P23), r3, P23), P12)
            assert bag_equal(reduced, self.QUERY.eval(db))

    def test_reducing_the_preserved_relation_is_illegal(self):
        """Known answer: semijoining R1 by R2 erases the dangling
        preserved row instead of null-padding it."""
        db = db_of(
            {
                "R1": [{"R1.a": 1, "R1.b": 0}, {"R1.a": 5, "R1.b": 0}],
                "R2": [{"R2.a": 1, "R2.b": 0}],
                "R3": [{"R3.a": 1, "R3.b": 0}],
            }
        )
        expected = self.QUERY.eval(db)
        assert len(expected) == 2  # the a=5 row survives, null-padded
        r1, r2, r3 = db["R1"], db["R2"], db["R3"]
        reduced = outerjoin(semijoin(r1, r2, P12), join(r2, r3, P23), P12)
        assert len(reduced) == 1
        assert not bag_equal(reduced, expected)

    def test_fast_path_refuses_example2(self):
        from repro.core.gyo import join_tree_of
        from repro.datagen import example2_graph

        scenario = example2_graph()
        assert join_tree_of(scenario.graph, scenario.registry) is None
