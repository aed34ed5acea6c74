"""The benchmark's own span recorder: wrappers at each layer boundary.

Nothing under ``src/`` knows about this file.  :meth:`SpanRecorder.install`
replaces each function in :data:`TARGETS` with a timing wrapper — on its
class, or in every ``repro.*`` module (and dict) that holds a reference to
it, since half the code base imports functions by name — and
:meth:`SpanRecorder.uninstall` puts the original objects back.

A span is ``(id, parent, name, start, end, op)``.  The client thread opens
one root span per op; a span started on the executor's worker thread, whose
own stack is empty, is parented to the innermost span open on the client
thread (``Ticket.result`` while the client waits), so each op is one tree
across both threads.  Self time is a span's duration minus the part of its
interval that its children cover.

Per-call functions too hot to wrap without distorting the result
(``check_entry``, ``BitArray.get``, ``DominationBuffer.dominates_point``)
are left inside their caller's self time.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

ROOT_LAYER = "bench"
ROOT_NAME = "op"


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``owner`` is ``"module"`` or ``"module:Class"``.  ``rows_arg`` is the
    positional index of the argument whose length is the call's row count;
    ``category_arg`` the index of an I/O category to tally calls by.
    ``recursive`` marks a function that calls itself: only the outer call
    is recorded.
    """

    layer: str
    owner: str
    attr: str
    rows_arg: int | None = None
    category_arg: int | None = None
    recursive: bool = False

    @property
    def name(self) -> str:
        holder = self.owner.rpartition(":")[2].rpartition(".")[2]
        return f"{holder}.{self.attr}"


def _targets(layer: str, owner: str, *attrs: str, **options) -> list[Target]:
    return [Target(layer, owner, attr, **options) for attr in attrs]


TARGETS: tuple[Target, ...] = (
    *_targets("serve", "repro.serve.executor:QueryExecutor", "submit"),
    *_targets("serve", "repro.serve.executor:Ticket", "result"),
    *_targets("route", "repro.route.router:QueryRouter", "route"),
    *_targets("route", "repro.route.cache:ResultCache", "get", "put", "on_epoch"),
    *_targets(
        "route",
        "repro.route.engines",
        "run_signature",
        "run_boolean_first",
        "run_domination_first",
        "run_index_merge",
        "run_naive",
    ),
    *_targets(
        "query",
        "repro.query.session:QuerySession",
        "skyline",
        "topk",
        "dynamic_skyline",
    ),
    *_targets("query", "repro.query.algorithm1", "run_algorithm1"),
    *_targets(
        "baselines",
        "repro.baselines.boolean_first",
        "boolean_first_skyline",
        "boolean_first_topk",
    ),
    *_targets(
        "baselines",
        "repro.baselines.domination_first",
        "domination_first_skyline",
        "ranking_topk",
    ),
    *_targets("baselines", "repro.baselines.index_merge", "index_merge_topk"),
    *_targets("baselines", "repro.baselines.naive", "naive_skyline", "naive_topk"),
    *_targets(
        "kernels",
        "repro.kernels.dominate:DominationBuffer",
        "dominates_block",
        rows_arg=1,
    ),
    *_targets(
        "kernels",
        "repro.kernels.dominate",
        "dominated_mask",
        "prefix_dominated_mask",
        rows_arg=0,
    ),
    *_targets(
        "kernels",
        "repro.kernels.mindist",
        "sum_block",
        "mindist_block",
        "transform_points_block",
        "transform_rect_lowers_block",
        rows_arg=0,
    ),
    *_targets(
        "kernels",
        "repro.kernels.mindist",
        "linear_score_block",
        "linear_lower_bound_block",
        "separable_score_block",
        "separable_lower_bound_block",
        rows_arg=1,
    ),
    *_targets(
        "kernels",
        "repro.kernels.mindist",
        "wsd_score_block",
        "wsd_lower_bound_block",
        rows_arg=2,
    ),
    *_targets("kernels", "repro.kernels.sigops", "or_masks", "and_masks", rows_arg=0),
    *_targets(
        "kernels", "repro.kernels.sigops", "popcount_masks", "popcount_bitarrays"
    ),
    *_targets("core", "repro.core.pcube:ReaderFactory", "reader_for_predicate"),
    *_targets("core", "repro.core.store:SignatureStore", "load_partial"),
    *_targets("core", "repro.core.store:StoreView", "load_partial"),
    *_targets("core", "repro.core.partial:PartialSignature", "decode"),
    *_targets("core", "repro.core.epoch:EpochManager", "pin", "unpin", "publish"),
    *_targets(
        "core",
        "repro.core.maintenance",
        "insert_tuple",
        "delete_tuple",
        "update_tuple",
    ),
    *_targets("core", "repro.core.pcube:PCube", "apply_changes"),
    *_targets("core", "repro.core.store:SignatureStore", "put_signature"),
    *_targets(
        "core",
        "repro.core.wal:MaintenanceWAL",
        "begin",
        "log_changes",
        "log_cell_stored",
        "commit",
    ),
    # Adaptive compress tries each codec through compress itself, thousands
    # of times per write: recording the inner calls would distort the write.
    *_targets("bitmap", "repro.bitmap.compression", "compress", recursive=True),
    *_targets("bitmap", "repro.bitmap.compression", "decompress"),
    *_targets("rtree", "repro.rtree.rtree:RTree", "insert", "delete"),
    *_targets("rtree", "repro.rtree.frozen", "freeze"),
    *_targets(
        "cube",
        "repro.cube.relation:Relation",
        "append",
        "tombstone",
        "overwrite_pref",
    ),
    *_targets("cube", "repro.cube.columnar:ColumnarProjection", "pref_block"),
    # PoolView.get and BufferPool.get both funnel into get_traced.
    *_targets(
        "storage", "repro.storage.buffer:BufferPool", "get_traced", category_arg=2
    ),
    *_targets("storage", "repro.storage.disk:SimulatedDisk", "read", category_arg=2),
    # allocate(tag, ...): tallied by page tag ("pcube:sig" = one partial).
    *_targets(
        "storage", "repro.storage.disk:SimulatedDisk", "allocate", category_arg=1
    ),
    *_targets("storage", "repro.storage.disk:SimulatedDisk", "write", "free"),
)


class SpanRecorder:
    """Records spans for the ops bracketed by :meth:`begin_op`/:meth:`end_op`.

    Outside an op the wrappers pass straight through, so warm-up, answer
    checks and set-up are never recorded.
    """

    def __init__(self) -> None:
        self.active = False
        #: (layer, name) per name id; id 0 is the per-op root span.
        self.names: list[tuple[str, str]] = [(ROOT_LAYER, ROOT_NAME)]
        #: (id, parent, name id, start, end, op index); parent -1 for roots.
        self.spans: list[tuple[int, int, int, float, float, int]] = []
        #: "read" / "write" per op index.
        self.op_class: dict[int, str] = {}
        #: (name id, op class) -> rows seen; (name id, category, op class)
        #: -> calls.
        self.rows: dict[tuple[int, str], int] = defaultdict(int)
        self.categories: dict[tuple[int, str, str], int] = defaultdict(int)
        #: (holder, key, original) for every replaced reference.
        self.patched: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._client_stack: list[int] = []
        self._op = -1
        self._class = "read"
        self._root_start = 0.0

    # ------------------------------------------------------------------ #
    # the per-op bracket (client thread)
    # ------------------------------------------------------------------ #

    def begin_op(self, op_index: int, is_read: bool) -> None:
        self._tls.stack = self._client_stack
        self._op = op_index
        self._class = self.op_class[op_index] = "read" if is_read else "write"
        self._client_stack.append(next(self._ids))
        self.active = True
        self._root_start = time.perf_counter()

    def end_op(self) -> None:
        end = time.perf_counter()
        self.active = False
        root = self._client_stack.pop()
        self.spans.append((root, -1, 0, self._root_start, end, self._op))

    # ------------------------------------------------------------------ #
    # wrapping
    # ------------------------------------------------------------------ #

    def _wrap(self, target: Target, fn):
        name_id = len(self.names)
        self.names.append((target.layer, target.name))
        rows_arg, category_arg = target.rows_arg, target.category_arg
        rows, categories = self.rows, self.categories
        spans, ids, tls = self.spans, self._ids, self._tls
        client_stack = self._client_stack
        clock = time.perf_counter
        recorder = self

        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            try:
                stack = tls.stack
            except AttributeError:
                stack = tls.stack = []
            if stack:
                parent = stack[-1]
            else:
                parent = client_stack[-1] if client_stack else -1
            op = recorder._op
            if rows_arg is not None and len(args) > rows_arg:
                rows[name_id, recorder._class] += len(args[rows_arg])
            elif category_arg is not None and len(args) > category_arg:
                categories[name_id, args[category_arg], recorder._class] += 1
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name_id, start, end, op))

        if target.recursive:
            record = wrapper

            def wrapper(*args, **kwargs):
                if getattr(tls, "inside", False):
                    return fn(*args, **kwargs)
                tls.inside = True
                try:
                    return record(*args, **kwargs)
                finally:
                    tls.inside = False

        wrapper.__wrapped__ = fn
        return wrapper

    def _replace(self, holder, key: str, original, replacement) -> None:
        if isinstance(holder, dict):
            holder[key] = replacement
        else:
            setattr(holder, key, replacement)
        self.patched.append((holder, key, original))

    def install(self) -> None:
        if self.patched:
            raise RuntimeError("recorder is already installed")
        for target in TARGETS:
            module_name, _, class_name = target.owner.partition(":")
            module = importlib.import_module(module_name)
            if class_name:
                cls = getattr(module, class_name)
                original = cls.__dict__[target.attr]
                self._replace(
                    cls, target.attr, original, self._wrap(target, original)
                )
                continue
            original = getattr(module, target.attr)
            wrapper = self._wrap(target, original)
            # ``from x import f`` copies the reference: rebind every copy.
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._replace(loaded, key, original, wrapper)
                    elif isinstance(value, dict):
                        for item_key, item in list(value.items()):
                            if item is original:
                                self._replace(value, item_key, original, wrapper)

    def uninstall(self) -> None:
        while self.patched:
            holder, key, original = self.patched.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    # ------------------------------------------------------------------ #
    # analysis
    # ------------------------------------------------------------------ #

    def self_times(self) -> dict[int, float]:
        """Span id -> self seconds (duration minus child-covered time)."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for _, parent, _, start, end, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        result: dict[int, float] = {}
        for span_id, _, _, start, end, _ in self.spans:
            covered = 0.0
            cursor = start
            for child_start, child_end in sorted(children.get(span_id, ())):
                child_start = max(child_start, cursor)
                child_end = min(child_end, end)
                if child_end > child_start:
                    covered += child_end - child_start
                    cursor = child_end
            result[span_id] = (end - start) - covered
        return result


class TraceSummary:
    """Per-function and per-layer totals of one traced pass.

    Every figure is split by op class (``"read"`` / ``"write"``), because
    e.g. ``decompress`` under a write is maintenance work, not query work.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.names = recorder.names
        self_times = recorder.self_times()
        # (name id, op class) -> [calls, total seconds, self seconds]
        self.by_name: dict[tuple[int, str], list[float]] = defaultdict(
            lambda: [0, 0.0, 0.0]
        )
        self.root_seconds = 0.0
        for span_id, _, name_id, start, end, op in recorder.spans:
            entry = self.by_name[name_id, recorder.op_class[op]]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += self_times[span_id]
            if name_id == 0:
                self.root_seconds += end - start
        self.rows = recorder.rows
        self.categories = recorder.categories
        self._ids = {name: i for i, (_, name) in enumerate(self.names)}

    def _entries(self, names: tuple[str, ...], op_class: str):
        for name in names:
            yield self.by_name.get((self._ids[name], op_class), (0, 0.0, 0.0))

    def calls(self, op_class: str, *names: str) -> int:
        return sum(entry[0] for entry in self._entries(names, op_class))

    def total_ms(self, op_class: str, *names: str) -> float:
        """Inclusive time; ``names`` must not nest inside each other."""
        return 1e3 * sum(entry[1] for entry in self._entries(names, op_class))

    def self_ms(self, op_class: str, *names: str) -> float:
        return 1e3 * sum(entry[2] for entry in self._entries(names, op_class))

    def layer_names(self, layer: str) -> tuple[str, ...]:
        return tuple(name for lay, name in self.names if lay == layer)

    def layer_calls(self, op_class: str, layer: str) -> int:
        return self.calls(op_class, *self.layer_names(layer))

    def layer_rows(self, op_class: str, layer: str) -> int:
        return sum(
            self.rows.get((self._ids[name], op_class), 0)
            for name in self.layer_names(layer)
        )

    def category_calls(self, op_class: str, name: str, *categories: str) -> int:
        return sum(
            self.categories.get((self._ids[name], category, op_class), 0)
            for category in categories
        )

    def unattributed_seconds(self) -> float:
        return sum(
            entry[2] for (name_id, _), entry in self.by_name.items() if name_id == 0
        )

    def functions(self) -> list[dict]:
        return [
            {
                "layer": self.names[name_id][0],
                "name": self.names[name_id][1],
                "op_class": op_class,
                "calls": calls,
                "total_ms": 1e3 * total,
                "self_ms": 1e3 * own,
            }
            for (name_id, op_class), (calls, total, own) in sorted(
                self.by_name.items()
            )
        ]


def raw_spans(recorder: SpanRecorder, first_ops: int) -> list[dict]:
    """The untouched spans of the first ``first_ops`` ops, for the trace file."""
    return [
        {
            "id": span_id,
            "parent": parent,
            "layer": recorder.names[name_id][0],
            "name": recorder.names[name_id][1],
            "start": start,
            "end": end,
            "op": op,
        }
        for span_id, parent, name_id, start, end, op in recorder.spans
        if op < first_ops
    ]
