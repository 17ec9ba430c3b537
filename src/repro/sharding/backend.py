"""The registered ``sharded`` execution backend.

Holds N child backends (python or sqlite), each over its own shard
catalog maintained by the :class:`~repro.sharding.partition.Partitioner`,
plus one local python backend over the full parent catalog for loud,
typed fallbacks.  Per query it

1. lazily syncs the shard mirrors,
2. asks :func:`~repro.sharding.analysis.decide` for a scatter decision
   (cached per analyzed tree, keyed like the python backend's plan
   cache and flushed on catalog epoch changes),
3. scatters the shard query to the relevant shards — pruned to ``k/N``
   when shard-key predicates allow — in-line, one shard after the
   other on the calling thread, and
4. gather-merges the partials semiring-natively
   (:mod:`repro.sharding.merge`).
"""

from __future__ import annotations

import threading
from collections import Counter, OrderedDict
from typing import TYPE_CHECKING, Any, Mapping, Optional, Union

from repro.analyzer.query_tree import Query
from repro.backends.base import ExecutionBackend, collect_base_relations
from repro.catalog.catalog import Catalog
from repro.sharding.analysis import FallbackDecision, ScatterDecision, decide
from repro.sharding.merge import merge_results
from repro.sharding.partition import Partitioner

if TYPE_CHECKING:
    from repro.database import QueryResult

#: Scatter decisions retained per backend (mirrors PLAN_CACHE_SIZE).
DECISION_CACHE_SIZE = 64


class ShardedBackend(ExecutionBackend):
    """Hash-partitioned scatter-gather over N child backends."""

    name = "sharded"

    def __init__(
        self,
        catalog: Catalog,
        shards: int = 2,
        shard_keys: Optional[Mapping[str, Optional[str]]] = None,
        child: Union[str, Any] = "python",
    ) -> None:
        super().__init__(catalog)
        from repro.backends import create_backend

        self.partitioner = Partitioner(catalog, shards, shard_keys)
        self.child_name = child if isinstance(child, str) else getattr(child, "name", "python")
        self.children = [
            create_backend(child, shard_catalog)
            for shard_catalog in self.partitioner.shard_catalogs
        ]
        # fallback oracle: the plain python engine over the full catalog
        self.local = create_backend("python", catalog)
        self.supports_execution_controls = all(
            getattr(c, "supports_execution_controls", False) for c in self.children
        )
        self._decisions: OrderedDict[int, tuple[Query, Any]] = OrderedDict()
        self._decision_epoch = -1
        self._lock = threading.Lock()
        # counters surfaced through \shards and server \stats
        self.scattered = 0
        self.pruned_queries = 0
        self.local_fallbacks = 0
        self.fallback_reasons: Counter = Counter()
        self.shard_queries = [0] * self.partitioner.shards
        self.shard_rows = [0] * self.partitioner.shards

    # ------------------------------------------------------------------
    # decisions

    def _decision(self, query: Query):
        with self._lock:
            if self._decision_epoch != self.catalog.epoch:
                self._decisions.clear()
                self._decision_epoch = self.catalog.epoch
            cached = self._decisions.get(id(query))
            if cached is not None and cached[0] is query:
                return cached[1]
        decision = decide(query, self.partitioner)
        with self._lock:
            while len(self._decisions) >= DECISION_CACHE_SIZE:
                self._decisions.popitem(last=False)
            self._decisions[id(query)] = (query, decision)
        return decision

    # ------------------------------------------------------------------
    # execution

    def run_select(
        self,
        query: Query,
        snapshot: Optional[dict] = None,
        timeout: Optional[float] = None,
    ) -> "QueryResult":
        self.partitioner.sync()
        decision = self._decision(query)
        if isinstance(decision, FallbackDecision):
            self.local_fallbacks += 1
            self.fallback_reasons[decision.kind] += 1
            return self._run_local(query, snapshot, timeout)
        self.scattered += 1
        if decision.pruned:
            self.pruned_queries += 1
        shard_snapshots = None
        if snapshot is not None:
            names = collect_base_relations(query)
            shard_snapshots = self.partitioner.translate_snapshot(names, snapshot)
        partials = self._scatter(decision, shard_snapshots, timeout)
        for shard_id, partial in zip(decision.shards, partials):
            self.shard_queries[shard_id] += 1
            self.shard_rows[shard_id] += len(partial.rows)
        return merge_results(decision, partials)

    def _run_local(
        self, query: Query, snapshot: Optional[dict], timeout: Optional[float]
    ) -> "QueryResult":
        if snapshot is not None or timeout is not None:
            return self.local.run_select(query, snapshot=snapshot, timeout=timeout)
        return self.local.run_select(query)

    def _scatter(
        self,
        decision: ScatterDecision,
        shard_snapshots: Optional[list[dict]],
        timeout: Optional[float],
    ) -> list["QueryResult"]:
        shard_query = decision.shard_query
        controls = self.supports_execution_controls
        partials = []
        for shard_id in decision.shards:
            child = self.children[shard_id]
            shard_snapshot = (
                shard_snapshots[shard_id] if shard_snapshots is not None else None
            )
            if controls and (shard_snapshot is not None or timeout is not None):
                partials.append(
                    child.run_select(shard_query, snapshot=shard_snapshot, timeout=timeout)
                )
            else:
                partials.append(child.run_select(shard_query))
        return partials

    # ------------------------------------------------------------------
    # introspection

    def describe(self) -> str:
        return (
            f"hash-sharded scatter-gather over {self.partitioner.shards} "
            f"{self.child_name} shard(s), in-line scatter"
        )

    def describe_scatter(self, query: Query) -> str:
        """One-line scatter summary for ``\\explain+``."""
        self.partitioner.sync()
        decision = self._decision(query)
        if isinstance(decision, FallbackDecision):
            return (
                f"shards=fallback ({decision.kind}: {decision.detail}); "
                "executed locally on the full catalog"
            )
        total = self.partitioner.shards
        ids = ",".join(str(s) for s in decision.shards)
        note = " pruned" if decision.pruned else ""
        return f"shards={len(decision.shards)}/{total} [{ids}] merge={decision.mode}{note}"

    def scatter_stats(self) -> dict[str, Any]:
        """Counters for ``\\shards`` and the server's ``stats`` op."""
        return {
            "shards": self.partitioner.shards,
            "child_backend": self.child_name,
            "scattered": self.scattered,
            "pruned_queries": self.pruned_queries,
            "local_fallbacks": self.local_fallbacks,
            "fallback_reasons": dict(self.fallback_reasons),
            "per_shard": [
                {"queries": q, "rows": r}
                for q, r in zip(self.shard_queries, self.shard_rows)
            ],
            "partitioner": {
                "full_loads": self.partitioner.full_loads,
                "delta_syncs": self.partitioner.delta_syncs,
                "appended_rows": self.partitioner.appended_rows,
            },
        }

    # ------------------------------------------------------------------
    # lifecycle

    def snapshot_token(self) -> dict[int, tuple[int, int]]:
        return self.partitioner.snapshot_token()

    def close(self) -> None:
        for backend in (self.local, *self.children):
            backend.close()
