"""Seeded inputs for the three benchmark workloads.

Everything the program under test receives is made here from the
workload seed: table contents, indexes, queries, and the client's round
of reads and inserts.  The same seed always yields the same inputs.  Tables are plain row dicts so the harness can load
them into a fresh :class:`repro.engine.storage.Storage` as often as it
needs (set-up is timed several times).

Sizes live in :class:`Sizes`: ``FULL`` for the benchmark, ``TINY`` for
its own tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra.nulls import NULL
from repro.algebra.operators import join, semijoin
from repro.algebra.predicates import Comparison, eq
from repro.algebra.relation import Database, Relation
from repro.core import jn, oj, roj
from repro.core.expressions import Expression, Restrict


@dataclass
class TableSpec:
    """One base table: schema, rows, and the attributes to index."""

    name: str
    attributes: List[str]
    rows: List[Dict[str, Any]]
    indexes: List[str] = field(default_factory=list)


@dataclass
class Shape:
    """One query the workload submits.

    ``oracle`` computes the expected answer with the algebra operators
    from the storage's ``to_database()`` view.  It evaluates the query
    itself, except where every join order materialises a huge
    intermediate; there it evaluates an equal semijoin-reduced form (see
    :func:`_needle_chain`).
    """

    name: str
    query: Expression
    oracle: Callable[[Database], Relation]


def _plain(name: str, query: Expression) -> Shape:
    return Shape(name, query, query.eval)


@dataclass
class Op:
    """One client operation: a read of ``shape`` or a one-row insert."""

    shape: Optional[int] = None
    table: Optional[str] = None
    row: Optional[Dict[str, Any]] = None

    @property
    def is_write(self) -> bool:
        return self.table is not None


@dataclass
class Inputs:
    tables: List[TableSpec]
    shapes: List[Shape]
    #: One round of the client's operations.  A run repeats the round, so
    #: every operation is measured several times on the same state.
    round: List[Op]
    #: Start each round on freshly loaded tables and a fresh service: the
    #: round writes, so the state it starts from must be restored.
    fresh_each_round: bool


def _round_robin(shapes: List[Shape]) -> List[Op]:
    return [Op(shape=k) for k in range(len(shapes))]


@dataclass(frozen=True)
class Sizes:
    """Every size knob of the three workloads."""

    # bulk_join: ~20 matches per key, as in the BENCH_PR5/6 headline join.
    bulk_rows: int = 500
    bulk_keys: int = 25
    # fastpath: the needle chain/star rows per heavy table, and the AGM
    # spike parameters (m spikes of k copies) of the triangle and 4-clique.
    needle_rows: int = 8_000
    triangle_mk: Tuple[int, int] = (6, 8)
    clique_mk: Tuple[int, int] = (4, 16)
    # oltp_writes: chain table rows, Example 1's N, operations per round.
    chain_rows: int = 100
    example1_n: int = 2_000
    oltp_round: int = 200


FULL = Sizes()
#: Every shape kept, every size cut down: for the benchmark's own tests.
TINY = Sizes(
    bulk_rows=100, bulk_keys=10, needle_rows=300, triangle_mk=(3, 3), clique_mk=(3, 3),
    chain_rows=40, example1_n=100, oltp_round=40,
)


#: Every this-many-th oltp_writes operation is a one-row insert (10% writes).
WRITE_EVERY = 10
#: Zipf exponent of oltp_writes shape popularity (as in repro's trafficgen).
ZIPF_SKEW = 1.2
#: oltp_writes shapes: Example 1 plus this many chain implementing trees.
CHAIN_SHAPES = 31
#: Seed of the fixed oltp_writes shape set, read order and initial tables.
SHAPES_SEED = 11
#: Range of the chain tables' ``b`` attribute (the restricted one).
CHAIN_B_RANGE = 200


def _keyed_rows(
    rng: random.Random,
    name: str,
    keys: Dict[str, Tuple[int, int]],
    payload: str,
    rows: int,
    null_share: float = 0.01,
) -> Tuple[List[str], List[Dict[str, Any]]]:
    """The headline bench block: uniform keys, a null sprinkle, a counter.

    ``keys`` maps each key column to a half-open ``(lo, hi)`` range.
    """
    attributes = [f"{name}.{col}" for col in (*keys, payload)]
    out = []
    for i in range(rows):
        row: Dict[str, Any] = {}
        for col, (lo, hi) in keys.items():
            row[f"{name}.{col}"] = NULL if rng.random() < null_share else rng.randrange(lo, hi)
        row[f"{name}.{payload}"] = i
        out.append(row)
    return attributes, out


# ---------------------------------------------------------------------------
# bulk_join
# ---------------------------------------------------------------------------


def bulk_join(seed: int, sizes: Sizes = FULL) -> Inputs:
    """Two unindexed tables, uniform keys, 1% null keys; inner and left outer."""
    rng = random.Random(seed)
    tables = []
    for name, payload in (("L", "a"), ("R", "b")):
        attributes, rows = _keyed_rows(
            rng, name, {"k": (0, sizes.bulk_keys)}, payload, sizes.bulk_rows
        )
        tables.append(TableSpec(name, attributes, rows))
    p = eq("L.k", "R.k")
    shapes = [_plain("inner", jn("L", "R", p)), _plain("left_outer", oj("L", "R", p))]
    return Inputs(tables, shapes, _round_robin(shapes), fresh_each_round=False)


# ---------------------------------------------------------------------------
# fastpath
# ---------------------------------------------------------------------------


def _needle_chain(rng: random.Random, rows: int) -> Tuple[List[TableSpec], Shape]:
    """E1 − E2 − E3 with anti-correlated heavy windows and a few needles.

    Every binary order joins ~half of E2 with ~``rows/250`` duplicates
    per key before the third table kills all of it; only the needle keys
    reach the output.  The oracle semijoin-reduces first, which is equal
    (R ⋈ S = (R ⋉ S) ⋈ S) and never builds that intermediate.
    """
    window, far, needles = 200, (1_000, 1_200), (2_000, 2_010)
    heavy = rows * 4 // 5
    tables = []
    for name, col in (("E1", "k1"), ("E3", "k2")):
        attributes, data = _keyed_rows(rng, name, {col: (0, window)}, "p", heavy)
        data += _keyed_rows(rng, name, {col: needles}, "p", 30, null_share=0.0)[1]
        tables.append(TableSpec(name, attributes, data))
    attributes, data = _keyed_rows(rng, "E2", {"k1": (0, window), "k2": far}, "p", rows // 2)
    data += _keyed_rows(rng, "E2", {"k1": far, "k2": (0, window)}, "p", rows // 2)[1]
    data += _keyed_rows(rng, "E2", {"k1": needles, "k2": needles}, "p", 10, null_share=0.0)[1]
    tables.append(TableSpec("E2", attributes, data))
    p12, p23 = eq("E1.k1", "E2.k1"), eq("E2.k2", "E3.k2")
    query = jn(jn("E1", "E2", p12), "E3", p23)

    def oracle(db: Database) -> Relation:
        e2 = semijoin(semijoin(db["E2"], db["E1"], p12), db["E3"], p23)
        e1, e3 = semijoin(db["E1"], e2, p12), semijoin(db["E3"], e2, p23)
        return join(join(e1, e2, p12), e3, p23)

    return tables, Shape("needle_chain", query, oracle)


def _needle_star(rng: random.Random, rows: int) -> Tuple[List[TableSpec], Shape]:
    """Hub H with leaves L1..L3; each hub third sits in one leaf's heavy window."""
    window, far, needles = 100, (1_000, 1_100), (2_000, 2_005)
    leaf_heavy = rows * 8 // 15
    attrs = ("a", "b", "c")
    hub: List[Dict[str, Any]] = []
    hub_attributes: List[str] = []
    for in_window in attrs:
        ranges = {a: (0, window) if a == in_window else far for a in attrs}
        hub_attributes, part = _keyed_rows(rng, "H", ranges, "p", rows // 3)
        hub += part
    hub += _keyed_rows(rng, "H", {a: needles for a in attrs}, "p", 5, null_share=0.0)[1]
    tables = [TableSpec("H", hub_attributes, hub)]
    preds = [eq(f"H.{a}", f"L{i + 1}.{a}") for i, a in enumerate(attrs)]
    query: Expression = jn("H", "L1", preds[0])
    for i, attr in enumerate(attrs):
        leaf = f"L{i + 1}"
        attributes, data = _keyed_rows(rng, leaf, {attr: (0, window)}, "p", leaf_heavy)
        data += _keyed_rows(rng, leaf, {attr: needles}, "p", 10, null_share=0.0)[1]
        tables.append(TableSpec(leaf, attributes, data))
        if i:
            query = jn(query, leaf, preds[i])

    def oracle(db: Database) -> Relation:
        hub = db["H"]
        for i, p in enumerate(preds):
            hub = semijoin(hub, db[f"L{i + 1}"], p)
        out = hub
        for i, p in enumerate(preds):
            out = join(out, semijoin(db[f"L{i + 1}"], hub, p), p)
        return out

    return tables, Shape("needle_star", query, oracle)


def _spike(m: int, k: int) -> List[Tuple[int, int]]:
    """``k`` copies of (0, j) and (j, 0) for j in 1..m: the AGM worst case."""
    out: List[Tuple[int, int]] = []
    for j in range(1, m + 1):
        out += [(0, j)] * k + [(j, 0)] * k
    return out


def _triangle(rng: random.Random, m: int, k: int) -> Tuple[List[TableSpec], Shape]:
    """T1(a,b) ⋈ T2 ⋈ T3 closing a 3-cycle; only 5 diagonal needles match."""
    pairs = _spike(m, k) + [(m + 1 + t, m + 1 + t) for t in range(5)]
    tables = []
    for name in ("T1", "T2", "T3"):
        rows = [{f"{name}.a": a, f"{name}.b": b} for a, b in pairs]
        rng.shuffle(rows)
        tables.append(TableSpec(name, [f"{name}.a", f"{name}.b"], rows))
    query = jn(jn("T1", "T2", eq("T1.a", "T2.a")), "T3", eq("T2.b", "T3.a") & eq("T3.b", "T1.b"))
    return tables, _plain("triangle", query)


def _clique4(rng: random.Random, m: int, k: int) -> Tuple[List[TableSpec], Shape]:
    """K4 over K1..K4: a tiny anchor K1 and the spike triangle on K2..K4."""
    diag = [(m + 1 + t, m + 1 + t) for t in range(5)]
    tables = []
    for name in ("K2", "K3", "K4"):
        rows = [{f"{name}.a": 0, f"{name}.b": p, f"{name}.c": q} for p, q in _spike(m, k)]
        rows += [{f"{name}.a": v, f"{name}.b": v, f"{name}.c": w} for v, w in diag]
        rng.shuffle(rows)
        tables.append(TableSpec(name, [f"{name}.a", f"{name}.b", f"{name}.c"], rows))
    anchor = [{"K1.a": 0, "K1.b": 0, "K1.c": 0}]
    anchor += [{"K1.a": v, "K1.b": v, "K1.c": v} for v, _w in diag]
    tables.insert(0, TableSpec("K1", ["K1.a", "K1.b", "K1.c"], anchor))
    query = jn(
        jn(jn("K1", "K2", eq("K1.a", "K2.a")), "K3", eq("K1.b", "K3.a") & eq("K2.b", "K3.b")),
        "K4",
        eq("K1.c", "K4.a") & eq("K2.c", "K4.b") & eq("K3.c", "K4.c"),
    )
    return tables, _plain("clique4", query)


def fastpath(seed: int, sizes: Sizes = FULL) -> Inputs:
    """The BENCH_PR7 needle chain/star and the BENCH_PR8 triangle/4-clique."""
    rng = random.Random(seed)
    tables: List[TableSpec] = []
    shapes: List[Shape] = []
    parts = (
        _needle_chain(rng, sizes.needle_rows),
        _triangle(rng, *sizes.triangle_mk),
        _needle_star(rng, sizes.needle_rows),
        _clique4(rng, *sizes.clique_mk),
    )
    for part_tables, shape in parts:
        tables += part_tables
        shapes.append(shape)
    return Inputs(tables, shapes, _round_robin(shapes), fresh_each_round=False)


# ---------------------------------------------------------------------------
# oltp_writes
# ---------------------------------------------------------------------------

#: Chain R1 .. R6; edge i joins R(i+1).a = R(i+2).a.  Edges 0 and 3 are
#: outerjoins pointing right, as in repro's servicebench chain6.
CHAIN = [f"R{i + 1}" for i in range(6)]
CHAIN_KINDS = ["out" if i % 3 == 0 else "join" for i in range(len(CHAIN) - 1)]


def _chain_tree(rng: random.Random, lo: int, hi: int) -> Expression:
    """A random implementing tree of CHAIN[lo..hi], operands in random order.

    On a chain every subtree is an interval, and splitting an interval
    between positions ``m`` and ``m+1`` puts edge ``m`` at the root, so
    every bracketing with either operand order is an implementing tree.
    """
    if lo == hi:
        return CHAIN[lo]  # type: ignore[return-value]
    m = rng.randrange(lo, hi)
    left, right = _chain_tree(rng, lo, m), _chain_tree(rng, m + 1, hi)
    p = eq(f"{CHAIN[m]}.a", f"{CHAIN[m + 1]}.a")
    swap = rng.random() < 0.5
    if CHAIN_KINDS[m] == "join":
        return jn(right, left, p) if swap else jn(left, right, p)
    return roj(right, left, p) if swap else oj(left, right, p)


def _chain_row(rng: random.Random, name: str, rows: int) -> Dict[str, Any]:
    a = NULL if rng.random() < 0.1 else rng.randrange(rows)
    b = NULL if rng.random() < 0.1 else rng.randrange(CHAIN_B_RANGE)
    return {f"{name}.a": a, f"{name}.b": b}


def _example1_row(rng: random.Random, name: str, n: int) -> Dict[str, Any]:
    key = rng.randrange(n)
    if name == "X2":
        return {"X2.k": key, "X2.j": key}
    return {f"{name}.{'k' if name == 'X1' else 'j'}": key}


def zipf_weights(n: int, skew: float = ZIPF_SKEW) -> List[float]:
    return [1.0 / (k + 1) ** skew for k in range(n)]


def zipf_counts(n: int, total: int, skew: float = ZIPF_SKEW) -> List[int]:
    """``total`` reads over ``n`` shapes in Zipf proportion (largest remainder)."""
    weights = zipf_weights(n, skew)
    quotas = [total * w / sum(weights) for w in weights]
    counts = [int(q) for q in quotas]
    by_remainder = sorted(range(n), key=lambda k: counts[k] - quotas[k])
    for k in by_remainder[: total - sum(counts)]:
        counts[k] += 1
    return counts


def oltp_shapes() -> List[Shape]:
    """Example 1 and 31 strongly restricted chain trees, in popularity order.

    The set is part of the workload's definition, not of its seed: which
    trees are freely reorderable decides how much planning a read costs,
    so drawing them per seed would move every figure between seeds.
    """
    rng = random.Random(SHAPES_SEED)
    example1 = jn("X1", oj("X2", "X3", eq("X2.j", "X3.j")), eq("X1.k", "X2.k"))
    shapes = [_plain("example1", example1)]
    for i in range(CHAIN_SHAPES):
        # A strong restriction on one relation's b: simplification turns
        # every outerjoin on its path into a join.  The constant makes
        # each shape its own plan-cache entry.
        attr = f"{rng.choice(CHAIN)}.b"
        query = Restrict(_chain_tree(rng, 0, len(CHAIN) - 1), Comparison(attr, "<=", i % 8))
        shapes.append(_plain(f"chain{i:02d}", query))
    return shapes


def oltp_writes(seed: int, sizes: Sizes = FULL) -> Inputs:
    """Example 1 and 31 restricted chain trees under reads and inserts.

    Every ``WRITE_EVERY``-th operation is an insert, so each storage
    generation serves the same number of reads.  A round reads each shape
    a fixed number of times, in Zipf proportion, in a fixed order, on
    fixed initial tables: like the shape set, these decide which reads
    find a warm plan and what each cold plan costs, and with them the
    latency median, which moved by a quarter between seeds when the seed
    drew them.  The seed decides the table each insert goes to and the
    inserted rows.
    """
    rng, fixed = random.Random(seed), random.Random(SHAPES_SEED)
    n = sizes.example1_n
    tables = [
        TableSpec(name, [f"{name}.a", f"{name}.b"],
                  [_chain_row(fixed, name, sizes.chain_rows) for _ in range(sizes.chain_rows)],
                  indexes=[f"{name}.a"])
        for name in CHAIN
    ]
    # Example 1 (keys indexed, |X1| = 1, |X2| = |X3| = N).
    tables += [
        TableSpec("X1", ["X1.k"], [{"X1.k": 0}], indexes=["X1.k"]),
        TableSpec("X2", ["X2.k", "X2.j"], [{"X2.k": i, "X2.j": i} for i in range(n)],
                  indexes=["X2.k"]),
        TableSpec("X3", ["X3.j"], [{"X3.j": i} for i in range(n)], indexes=["X3.j"]),
    ]
    shapes = oltp_shapes()
    names = [t.name for t in tables]
    writes = sizes.oltp_round // WRITE_EVERY
    reads = [k for k, c in enumerate(zipf_counts(len(shapes), sizes.oltp_round - writes))
             for _ in range(c)]
    fixed.shuffle(reads)
    ops: List[Op] = []
    for i in range(sizes.oltp_round):
        if i % WRITE_EVERY == WRITE_EVERY - 1:
            table = rng.choice(names)
            row = (_chain_row(rng, table, sizes.chain_rows) if table in CHAIN
                   else _example1_row(rng, table, n))
            ops.append(Op(table=table, row=row))
        else:
            ops.append(Op(shape=reads.pop()))
    return Inputs(tables, shapes, ops, fresh_each_round=True)


def generate(workload: str, seed: int, sizes: Sizes = FULL) -> Inputs:
    if workload == "bulk_join":
        return bulk_join(seed, sizes)
    if workload == "fastpath":
        return fastpath(seed, sizes)
    if workload == "oltp_writes":
        return oltp_writes(seed, sizes)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS: Sequence[str] = ("bulk_join", "fastpath", "oltp_writes")
