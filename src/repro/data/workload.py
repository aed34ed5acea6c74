"""Seeded workloads: the one place a query or maintenance stream is drawn.

Samplers first, then the two streams every driver under ``src/repro``
replays — :func:`read_mix` (the serving sweeps, ``serve --smoke`` /
``--health``), :func:`zipfian_workload` (the routing sweep) and
:func:`maintenance_ops` / :func:`apply_op` (``audit``, ``backup``, the
durability sweep).  A stream is a pure function of the relation and the
generator it is handed; ``tests/data/test_workload_streams.py`` pins the
draw order.

Predicates are sampled from *live* cells — pick a random tuple and reuse its
values on the chosen dimensions — so every sampled query has a non-empty
answer set, like the paper's workloads (selectivities follow the data's own
skew).  Ranking functions follow the paper's Figure 13 family ("a linear
query with function f = aX + bY + cZ, where a, b and c are random
parameters") plus the Example 1 style distance-to-target queries.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Iterator, Sequence

from repro.cube.relation import Relation
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import LinearFunction, WeightedSquaredDistance

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import PCubeSystem

#: Every kind :func:`read_mix` can draw, named as the engine / executor
#: method that answers it.
READ_KINDS = ("skyline", "topk", "dynamic_skyline", "lower_hull")


def sample_predicate(
    relation: Relation,
    n_conjuncts: int,
    rng: random.Random,
    dims: Sequence[str] | None = None,
) -> BooleanPredicate:
    """A conjunctive predicate over ``n_conjuncts`` random dimensions,
    guaranteed non-empty (anchored at a random tuple)."""
    available = list(dims if dims is not None else relation.schema.boolean_dims)
    if n_conjuncts > len(available):
        raise ValueError(
            f"cannot draw {n_conjuncts} conjuncts from {len(available)} dims"
        )
    chosen = rng.sample(available, n_conjuncts)
    anchor = rng.randrange(len(relation))
    return BooleanPredicate(
        {dim: relation.bool_value(anchor, dim) for dim in chosen}
    )


def sample_linear_function(
    n_dims: int, rng: random.Random, low: float = 0.1, high: float = 1.0
) -> LinearFunction:
    """``f = Σ a_d x_d`` with random positive coefficients (Figure 13)."""
    return LinearFunction([rng.uniform(low, high) for _ in range(n_dims)])


def sample_target_function(
    relation: Relation, rng: random.Random
) -> WeightedSquaredDistance:
    """An Example 1 style query: weighted squared distance to a random
    target point in preference space."""
    n_dims = relation.schema.n_preference
    target = [rng.random() for _ in range(n_dims)]
    weights = [rng.uniform(0.5, 2.0) for _ in range(n_dims)]
    return WeightedSquaredDistance(target, weights)


def zipfian_workload(
    relation: Relation,
    rng: random.Random,
    n_queries: int,
    n_templates: int = 24,
    s: float = 1.1,
    topk_share: float = 0.5,
    k: int = 10,
) -> list[dict]:
    """A skewed repeat-heavy query stream (the routing benchmark's shape).

    Draws ``n_templates`` distinct query templates — a mix of skyline and
    top-k over predicates of 0–2 conjuncts — then samples ``n_queries``
    from them under a Zipf(``s``) popularity law: a few hot templates
    dominate, a long tail appears once or twice.  That is the regime where
    an epoch-keyed result cache pays (every repeat at a stable epoch is a
    hit) while the tail still exercises the engines themselves.

    Each entry is ``{"kind", "predicate", "fn", "k", "template"}`` with
    ``fn``/``k`` ``None`` for skylines; ``template`` indexes the template
    drawn, so harnesses can reconcile repeats without re-hashing queries.
    """
    if n_templates < 1 or n_queries < 0:
        raise ValueError("need at least one template and n_queries >= 0")
    templates: list[dict] = []
    for i in range(n_templates):
        kind = "topk" if rng.random() < topk_share else "skyline"
        predicate = sample_predicate(
            relation, rng.choice([0, 1, 1, 2]), rng
        )
        templates.append(
            {
                "kind": kind,
                "predicate": predicate,
                "fn": (
                    sample_linear_function(
                        relation.schema.n_preference, rng
                    )
                    if kind == "topk"
                    else None
                ),
                "k": k if kind == "topk" else None,
                "template": i,
            }
        )
    weights = [1.0 / (rank + 1) ** s for rank in range(n_templates)]
    return [
        dict(templates[rng.choices(range(n_templates), weights)[0]])
        for _ in range(n_queries)
    ]


def read_mix(
    relation: Relation,
    rng: random.Random,
    n_queries: int,
    kinds: Sequence[str] = ("skyline", "topk"),
) -> list[tuple[str, dict[str, Any]]]:
    """``n_queries`` reads cycling through ``kinds``, as ``(kind, kwargs)``.

    ``kind`` names the method and ``kwargs`` its arguments on both the
    serial engine and the executor (``getattr(target, kind)(**kwargs)``),
    so one list is both the workload and its reference run.  Predicates
    alternate between one and two conjuncts; a top-k draws its linear
    function after its predicate, a dynamic skyline its query point.
    """
    dims = relation.schema.n_preference
    workload = []
    for index in range(n_queries):
        kwargs: dict[str, Any] = {
            "predicate": sample_predicate(relation, 1 + index % 2, rng)
        }
        kind = kinds[index % len(kinds)]
        if kind == "topk":
            kwargs["fn"] = sample_linear_function(dims, rng)
            kwargs["k"] = 10
        elif kind == "dynamic_skyline":
            kwargs["query_point"] = [rng.random() for _ in range(dims)]
        elif kind not in READ_KINDS:
            raise ValueError(f"unknown read kind {kind!r}; known: {READ_KINDS}")
        workload.append((kind, kwargs))
    return workload


def maintenance_ops(
    relation: Relation, rng: random.Random, n_ops: int
) -> Iterator[tuple[str, tuple]]:
    """The mixed write stream — inserts, batches of 2–5, deletes, updates —
    as ``(kind, args)`` with ``kind`` the :class:`PCubeSystem` method.

    Lazy on purpose: each op is drawn against the relation *as the previous
    ops left it* (a delete picks among the tuples then live, and turns into
    an update once ten or fewer are), so apply one before asking for the
    next.  New rows reuse a random tuple's boolean values.
    """
    n_pref = relation.schema.n_preference

    def random_row() -> tuple[tuple, tuple]:
        template = rng.randrange(len(relation))
        return (
            relation.bool_row(template),
            tuple(rng.random() for _ in range(n_pref)),
        )

    for _ in range(n_ops):
        kind = rng.choice(("insert", "insert_batch", "delete", "update"))
        if kind == "insert":
            yield kind, random_row()
        elif kind == "insert_batch":
            yield kind, ([random_row() for _ in range(rng.randrange(2, 6))],)
        else:
            live = list(relation.live_tids())
            if kind == "delete" and len(live) > 10:
                yield kind, (rng.choice(live),)
            else:
                yield "update", (
                    rng.choice(live),
                    tuple(rng.random() for _ in range(n_pref)),
                )


def apply_op(system: "PCubeSystem", op: tuple[str, tuple]) -> None:
    """Run one :func:`maintenance_ops` entry through the WAL-protected
    driver it names."""
    kind, args = op
    getattr(system, kind)(*args)
