"""Query-workload samplers.

Predicates are sampled from *live* cells — pick a random tuple and reuse its
values on the chosen dimensions — so every sampled query has a non-empty
answer set, like the paper's workloads (selectivities follow the data's own
skew).  Ranking functions follow the paper's Figure 13 family ("a linear
query with function f = aX + bY + cZ, where a, b and c are random
parameters") plus the Example 1 style distance-to-target queries.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.cube.relation import Relation
from repro.query.predicates import BooleanPredicate
from repro.query.ranking import LinearFunction, WeightedSquaredDistance


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
