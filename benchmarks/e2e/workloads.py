"""The four workloads: what each one is, why it exists, and its seeded ops.

Every op stream is a pure function of ``(workload, seed, n_ops)`` over the
fixed-seed relation, so the program under test only ever sees generated
inputs.  The streams are *blocked* so that two seeds differ in what the
benchmark samples, not in what it is:

* the kind/conjunct mix follows a fixed cycle, and the seed draws only the
  anchors, weights, targets and points;
* the template population of a Zipfian workload belongs to the workload,
  like the relation (it comes from ``DATA_SEED``); the seed draws which
  template arrives when, and every write.

That is what keeps the seed-to-seed spread of the latency percentiles and
of ``pages_per_read`` inside the bounds (README "Sizing").
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import product

from repro.data.workload import (
    sample_linear_function,
    sample_predicate,
    sample_target_function,
)

#: Seed of the relation; the op stream alone follows ``--seed``.
DATA_SEED = 7
TOPK_K = 10
ZIPF_S = 1.1


@dataclass(frozen=True)
class Scale:
    """Data size and op budget; ``FULL`` is the only comparable one."""

    n_tuples: int
    #: Fixed op count per workload; ``None`` sizes from ``--seconds``.
    fixed_ops: int | None
    comparable: bool


FULL = Scale(n_tuples=50_000, fixed_ops=None, comparable=True)
QUICK = Scale(n_tuples=2_000, fixed_ops=60, comparable=False)


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    why: str
    #: Ops per second of ``--seconds``, frozen from the sizing runs
    #: (README "Sizing"), so op counts — and with them every counted
    #: metric — repeat exactly for a given seed.
    ops_per_second: float
    routing: bool
    pool_capacity: int
    read_latency: float
    #: Templates per read for the Zipfian streams; 0 makes every read a
    #: fresh draw.
    templates_per_read: float
    #: Every n-th op is a write; 0 for the read-only workloads.
    write_every: int
    warmup_reads: int

    def n_ops(self, seconds: float, scale: Scale) -> int:
        if scale.fixed_ops is not None:
            return scale.fixed_ops
        return max(30, round(self.ops_per_second * seconds))


WORKLOADS: dict[str, WorkloadSpec] = {
    spec.name: spec
    for spec in (
        WorkloadSpec(
            name="sig_fit",
            why=(
                "Paper query mix, every read distinct, routing off, pool "
                "larger than the working set: CPU-bound in query, kernels "
                "and core bit tests; storage and route do almost nothing."
            ),
            ops_per_second=33.0,
            routing=False,
            pool_capacity=4096,
            read_latency=0.0,
            templates_per_read=0.0,
            write_every=0,
            warmup_reads=25,
        ),
        WorkloadSpec(
            name="sig_spill",
            why=(
                "Same generator, 128-page pool (7% of the working set) and "
                "0.2 ms per disk read: I/O-bound in storage and core "
                "partial loads; a pure kernel speedup shows much less here."
            ),
            ops_per_second=15.0,
            routing=False,
            pool_capacity=128,
            read_latency=2e-4,
            templates_per_read=0.0,
            write_every=0,
            warmup_reads=4,
        ),
        WorkloadSpec(
            name="routed_zipf",
            why=(
                "Zipf(1.1) repeats through the router with its result cache "
                "on: serve hand-off and route lookup carry the median, the "
                "router's engine choice on misses carries the tail."
            ),
            ops_per_second=300.0,
            routing=True,
            pool_capacity=4096,
            read_latency=0.0,
            templates_per_read=2.0 / 9.0,
            write_every=0,
            warmup_reads=10,
        ),
        WorkloadSpec(
            name="mixed_rw",
            why=(
                "Every 5th op is a WAL-logged write that publishes an epoch "
                "and empties the result cache: the only workload where "
                "maintenance, WAL, epochs, compression and rtree updates work."
            ),
            ops_per_second=36.0,
            routing=True,
            pool_capacity=4096,
            read_latency=0.0,
            templates_per_read=0.5,
            write_every=5,
            warmup_reads=10,
        ),
    )
}


@dataclass(frozen=True)
class Op:
    """One generated operation.

    ``kind`` is ``skyline`` / ``topk`` / ``dynamic_skyline`` for reads and
    ``insert`` / ``update`` / ``delete`` for writes; the other fields are
    that kind's arguments.
    """

    kind: str
    predicate: object = None
    fn: object = None
    query_point: tuple[float, ...] | None = None
    tid: int | None = None
    bool_row: tuple | None = None
    pref_row: tuple[float, ...] | None = None

    @property
    def is_read(self) -> bool:
        return self.kind in ("skyline", "topk", "dynamic_skyline")


# The paper's mix: 25% skyline, 50% top-k (half linear, half weighted
# squared distance), 25% dynamic skyline, each over 0/1/1/2 conjuncts.
_DISTINCT_CYCLE = tuple(
    product(("skyline", "topk_linear", "topk_target", "dynamic"), (0, 1, 1, 2))
)
# The router serves skyline and top-k only (zipfian_workload's shape).
_TEMPLATE_CYCLE = tuple(product(("skyline", "topk_linear"), (0, 1, 1, 2)))
# 50% insert, 25% update, 25% delete.
_WRITE_CYCLE = ("insert", "update", "insert", "delete")


def _read_op(relation, shape: str, n_conjuncts: int, rng: random.Random) -> Op:
    predicate = sample_predicate(relation, n_conjuncts, rng)
    dims = relation.schema.n_preference
    if shape == "skyline":
        return Op("skyline", predicate=predicate)
    if shape == "topk_linear":
        return Op("topk", predicate, fn=sample_linear_function(dims, rng))
    if shape == "topk_target":
        return Op("topk", predicate, fn=sample_target_function(relation, rng))
    point = tuple(rng.random() for _ in range(dims))
    return Op("dynamic_skyline", predicate, query_point=point)


def distinct_reads(relation, rng: random.Random, n: int) -> list[Op]:
    """``n`` reads, each a fresh draw, cycling the paper's mix.

    ``zipfian_workload`` collapses to a few hundred templates; this one
    never repeats a non-trivial query, so no cache can serve it.
    """
    cycle = list(_DISTINCT_CYCLE)
    # One fixed interleaving, so a prefix of the stream has the same mix.
    random.Random(0).shuffle(cycle)
    return [
        _read_op(relation, *cycle[i % len(cycle)], rng) for i in range(n)
    ]


def zipf_reads(
    relation, population: str, rng: random.Random, n: int, n_templates: int
) -> list[Op]:
    """``n`` reads over a fixed population, Zipf(1.1) by rank, order by ``rng``.

    The ``n_templates`` templates depend only on ``population`` and the
    relation, rank following the fixed cycle.  Each template arrives its
    expected number of times (largest remainders rounded up), so a seed
    decides *when* a template arrives, not how often: with a few hundred
    reads, binomial draw counts alone moved ``pages_per_read`` by 10%.
    """
    template_rng = _rng(DATA_SEED, population)
    templates = [
        _read_op(
            relation, *_TEMPLATE_CYCLE[i % len(_TEMPLATE_CYCLE)], template_rng
        )
        for i in range(n_templates)
    ]
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(n_templates)]
    total = sum(weights)
    expected = [n * weight / total for weight in weights]
    counts = [int(share) for share in expected]
    by_remainder = sorted(
        range(n_templates), key=lambda i: expected[i] - counts[i], reverse=True
    )
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    reads = [
        template for template, count in zip(templates, counts) for _ in range(count)
    ]
    rng.shuffle(reads)
    return reads


class WriteSampler:
    """Draws writes that always hit a live tuple.

    Tracks the tids the stream itself leaves live (the relation assigns
    tids in append order, so an insert's tid is known in advance).
    """

    def __init__(self, relation, cardinality: int, rng: random.Random) -> None:
        self._rng = rng
        self._cardinality = cardinality
        self._n_boolean = relation.schema.n_boolean
        self._n_preference = relation.schema.n_preference
        self._live = list(relation.live_tids())
        self._next_tid = len(relation)
        self._drawn = 0

    def _pref_row(self) -> tuple[float, ...]:
        return tuple(self._rng.random() for _ in range(self._n_preference))

    def _pop_live(self) -> int:
        live = self._live
        slot = self._rng.randrange(len(live))
        live[slot], live[-1] = live[-1], live[slot]
        return live.pop()

    def draw(self) -> Op:
        kind = _WRITE_CYCLE[self._drawn % len(_WRITE_CYCLE)]
        self._drawn += 1
        if kind == "insert":
            bool_row = tuple(
                self._rng.randrange(self._cardinality)
                for _ in range(self._n_boolean)
            )
            self._live.append(self._next_tid)
            self._next_tid += 1
            return Op("insert", bool_row=bool_row, pref_row=self._pref_row())
        if kind == "update":
            tid = self._live[self._rng.randrange(len(self._live))]
            return Op("update", tid=tid, pref_row=self._pref_row())
        return Op("delete", tid=self._pop_live())


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{seed}:{stream}")


def generate_ops(
    spec: WorkloadSpec, relation, cardinality: int, seed: int, n_ops: int
) -> list[Op]:
    """The timed op stream of one workload under one seed."""
    n_writes = n_ops // spec.write_every if spec.write_every else 0
    n_reads = n_ops - n_writes
    rng = _rng(seed, spec.name)
    if spec.templates_per_read:
        n_templates = max(8, int(n_reads * spec.templates_per_read))
        reads = zipf_reads(relation, spec.name, rng, n_reads, n_templates)
    else:
        reads = distinct_reads(relation, rng, n_reads)
    if not n_writes:
        return reads
    writes = WriteSampler(relation, cardinality, _rng(seed, spec.name + ":w"))
    ops: list[Op] = []
    pending = iter(reads)
    for i in range(n_ops):
        if (i + 1) % spec.write_every == 0:
            ops.append(writes.draw())
        else:
            ops.append(next(pending))
    return ops


def warmup_ops(spec: WorkloadSpec, relation, seed: int) -> list[Op]:
    """Untimed reads that fill the pool (and seed the router's cost book).

    Drawn from their own stream and population so they never pre-fill the
    result cache with a timed template.
    """
    rng = _rng(seed, spec.name + ":warmup")
    if spec.routing:
        return zipf_reads(
            relation, "warmup", rng, spec.warmup_reads, spec.warmup_reads
        )
    return distinct_reads(relation, rng, spec.warmup_reads)


def stream_digest(ops: list[Op]) -> str:
    """Digest of an op stream: same seed, same digest."""
    sha = hashlib.sha256()
    for op in ops:
        sha.update(repr(op).encode())
    return sha.hexdigest()[:16]
