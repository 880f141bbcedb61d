"""The oracle: cached, vectorized answers to link-configuration queries.

A :class:`SweepTable` is one evaluated tuning grid — a columnar
:class:`~repro.core.optimization.GridEvaluation` produced by the
vectorized kernels, so both the build (one broadcast pass over all
configurations) and the epsilon-constraint solve of a query (a masked
argmin) are numpy operations rather than Python scans.

Every answer has one key: the link's **reference-SNR bin**, its SNR at
PA level 31 quantized to ``snr_quantum_db``. A distance link reaches it
through the environment's channel model, an SNR link by shifting from
its ``reference_level`` to 31 — the paper states its findings as
functions of SNR, not geometry. An :class:`Oracle` answers from that key
in one of two ways:

* **policy** (opt-in) — a precompiled
  :class:`~repro.core.optimization.PolicyTable` holds the unconstrained
  answer of every bin on its axis, so a default-bounds recommend is an
  O(1) lookup that never touches the solver;
* **table** — everything else (constraints, bins off the policy axis, a
  policy-less oracle) solves a :class:`SweepTable` built at the bin
  center and kept in one LRU keyed by the bin (``lru_capacity`` bins).

Both return the bin-center answer, bit for bit what ``PolicyTable``
gives, with the configuration restamped at the link's own distance. A
cold bin costs one columnar grid evaluation (the ``grid_eval_ms``
histogram in ``/metrics`` tracks it); a warm one a dictionary lookup
plus a vectorized argmin; a policy hit a handful of array reads.
"""

# reprolint: hot-path — recommend/evaluate loop timed by BENCH_serve.json
from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..channel.environment import Environment, HALLWAY_2012
from ..errors import InfeasibleError, ProtocolError, RoutingError, ServeError
from ..core.optimization import (
    DEFAULT_SNR_QUANTUM_DB,
    DEFAULT_SNR_RANGE_DB,
    ConfigEvaluation,
    Constraint,
    GridEvaluation,
    ModelEvaluator,
    PolicyTable,
    TuningGrid,
    evaluate_grid_columns,
    snr_map_from_reference,
    solve_epsilon_constraint,
)
from .cache import CacheStats, LruCache
from .metrics import DEFAULT_BUCKETS_MS, LatencyHistogram
from .protocol import (
    EvaluateRequest,
    FleetRecommendRequest,
    LinkSpec,
    RecommendRequest,
    RoutingSpec,
)

__all__ = [
    "TIER_POLICY",
    "TIER_LRU",
    "TIER_MISS",
    "SweepTable",
    "RecommendResult",
    "FleetRecommendResult",
    "FleetRoutingSummary",
    "Oracle",
]

#: Cache tier names reported per answer (and counted in ``/metrics``).
TIER_POLICY = "policy"
TIER_LRU = "lru"
TIER_MISS = "miss"

#: Distance stamped on bin-center tables: the one SNR links report (the
#: default of :meth:`LinkSpec.grid_distance_m`). It is inert — SNR alone
#: drives the models — and answers are restamped at each link's distance.
_TABLE_DISTANCE_M = 10.0

#: One fleet answer in in-band form: (evaluation, infeasibility message,
#: cache tier), exactly one of the first two set.
_Answer = Tuple[Optional[ConfigEvaluation], Optional[str], str]


def _at_distance(
    evaluation: ConfigEvaluation, distance_m: float
) -> ConfigEvaluation:
    """The same answer with its configuration stamped at ``distance_m``."""
    if evaluation.config.distance_m == distance_m:
        return evaluation
    return replace(
        evaluation, config=replace(evaluation.config, distance_m=distance_m)
    )


@dataclass(frozen=True)
class SweepTable:
    """One link's fully evaluated tuning grid, stored column-wise.

    Wraps the kernels' :class:`GridEvaluation`; scalar
    :class:`ConfigEvaluation` rows are materialized lazily (and cached) the
    first time :attr:`evaluations` is read, so the serving hot path never
    pays per-row object construction.
    """

    grid_eval: GridEvaluation
    build_ms: float = field(default=float("nan"), compare=False)

    def __len__(self) -> int:
        return len(self.grid_eval)

    @classmethod
    def build(
        cls,
        evaluator: ModelEvaluator,
        grid: TuningGrid,
        distance_m: float,
    ) -> "SweepTable":
        """Evaluate the whole grid for one link in one columnar pass."""
        started = time.monotonic()
        grid_eval = evaluate_grid_columns(evaluator, grid, distance_m)
        elapsed_ms = (time.monotonic() - started) * 1e3
        return cls(grid_eval=grid_eval, build_ms=elapsed_ms)

    @cached_property
    def evaluations(self) -> Tuple[ConfigEvaluation, ...]:
        """Scalar rows in grid order (materialized on first access)."""
        return tuple(self.grid_eval.rows())

    def column(self, objective: str) -> np.ndarray:
        """The minimization-form values of one objective across the grid."""
        return self.grid_eval.objective_column(objective)

    def solve(
        self, objective: str, constraints: Sequence[Constraint] = ()
    ) -> ConfigEvaluation:
        """Vectorized epsilon-constraint solve over the cached grid.

        Delegates to the columnar branch of
        :func:`~repro.core.optimization.solve_epsilon_constraint`, so the
        answer (including first-minimal-feasible tie-breaking and
        infeasibility diagnostics) is identical to solving the materialized
        :attr:`evaluations` row list.
        """
        return solve_epsilon_constraint(self.grid_eval, objective, constraints)

    def stats(self) -> Dict[str, object]:
        """Size and build-cost summary, JSON-ready."""
        return {
            "configurations": len(self),
            "build_ms": self.build_ms,
        }


@dataclass(frozen=True)
class RecommendResult:
    """A recommend answer plus where it came from."""

    evaluation: ConfigEvaluation
    cache_tier: str


@dataclass(frozen=True)
class FleetRoutingSummary:
    """Path-level view of one routed fleet batch, JSON-ready pieces.

    Composed from the per-link recommendations over the request's routing
    block: ``n_paths_feasible`` counts leaf→sink paths meeting the
    block's ``max_path_loss`` (a path through an infeasible link never
    counts), ``path_stats`` is the composed
    :meth:`~repro.routing.compose.PathMetrics.stats` summary, and
    ``paths`` (opt-in via ``include_paths``) lists one row per leaf.
    """

    sink: int
    strategy: str
    max_hops: int
    n_paths: int
    n_paths_feasible: int
    max_path_loss: Optional[float]
    path_stats: Dict[str, object]
    paths: Optional[Tuple[Dict[str, object], ...]] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (the fleet response's ``routing`` object)."""
        summary: Dict[str, object] = {
            "sink": self.sink,
            "strategy": self.strategy,
            "max_hops": self.max_hops,
            "n_paths": self.n_paths,
            "n_paths_feasible": self.n_paths_feasible,
            "max_path_loss": self.max_path_loss,
            "path_stats": dict(self.path_stats),
        }
        if self.paths is not None:
            summary["paths"] = [dict(path) for path in self.paths]
        return summary


@dataclass(frozen=True)
class FleetRecommendResult:
    """Positional answers for one fleet batch.

    ``evaluations[i]`` / ``errors[i]`` / ``cache_tiers[i]`` belong to link
    ``i`` of the request; exactly one of evaluation or error is set per
    link (errors are per-link infeasibility messages — anything worse
    fails the whole batch).
    """

    evaluations: Tuple[Optional[ConfigEvaluation], ...]
    errors: Tuple[Optional[str], ...]
    cache_tiers: Tuple[str, ...]
    #: Distinct reference-SNR bins in the batch = policy lookups plus
    #: table fetches (each with one vectorized solve) run to answer it.
    n_unique_links: int = 0
    #: Path composition over the request's routing block, when present.
    routing: Optional[FleetRoutingSummary] = None

    def __len__(self) -> int:
        return len(self.evaluations)

    @property
    def n_infeasible(self) -> int:
        """Links that had no feasible configuration."""
        return sum(1 for error in self.errors if error is not None)

    def tier_counts(self) -> Dict[str, int]:
        """Cache-tier name → number of links answered from that tier."""
        counts: Dict[str, int] = {}
        for tier in self.cache_tiers:
            counts[tier] = counts.get(tier, 0) + 1
        return counts


class Oracle:
    """Answers recommend/evaluate queries keyed by the reference-SNR bin.

    Thread-safe: bookkeeping is done under a lock, while the expensive
    table builds run outside it so concurrent queries for *different*
    bins proceed in parallel.
    """

    def __init__(
        self,
        environment: Environment = HALLWAY_2012,
        grid: Optional[TuningGrid] = None,
        lru_capacity: int = 64,
        policy: bool = False,
        snr_quantum_db: float = DEFAULT_SNR_QUANTUM_DB,
        policy_snr_range_db: Tuple[float, float] = DEFAULT_SNR_RANGE_DB,
    ) -> None:
        self.environment = environment
        # Not `grid or TuningGrid()`: an empty grid is falsy and would be
        # silently swapped for the default; let evaluation reject it instead.
        self.grid = grid if grid is not None else TuningGrid()
        self.policy = bool(policy)
        self.snr_quantum_db = float(snr_quantum_db)
        if not (np.isfinite(self.snr_quantum_db) and self.snr_quantum_db > 0):
            raise ServeError(
                f"snr_quantum_db must be positive, got {snr_quantum_db!r}"
            )
        self.policy_snr_range_db = (
            float(policy_snr_range_db[0]),
            float(policy_snr_range_db[1]),
        )
        self._lru = LruCache(lru_capacity)
        self._lock = threading.Lock()
        self._builds = 0
        #: objective → compiled unconstrained policy (lazy, under
        #: ``_policy_lock`` so a compile never blocks table traffic).
        self._policies: Dict[str, PolicyTable] = {}
        self._policy_lock = threading.Lock()
        self._policy_lookups = 0
        self._policy_fallbacks = 0
        self._policy_compiles = 0
        self._solver_solves = 0
        #: Cold grid-evaluation latency (ms), one observation per table
        #: build. The service layer registers this into ``/metrics`` as
        #: ``grid_eval_ms`` so cache-miss cost is visible in production.
        self.grid_eval_ms = LatencyHistogram(DEFAULT_BUCKETS_MS, unit="ms")
        #: Policy compile latency (ms), one observation per objective
        #: compiled; surfaced as ``policy_compile_ms`` in ``/metrics``.
        self.policy_compile_ms = LatencyHistogram(DEFAULT_BUCKETS_MS, unit="ms")

    # ------------------------------------------------------------ caching

    def _snr_bin(self, link: LinkSpec) -> int:
        """The link's reference-SNR bin: the one key of every answer.

        ``round`` ties to even exactly like the ``np.round`` that places
        :class:`PolicyTable` bins, so both agree on every SNR.
        """
        return round(
            link.reference_snr_db(self.environment) / self.snr_quantum_db
        )

    def _build_table(self, snr_bin: int) -> SweepTable:
        """A fresh table at the bin center (outside every lock)."""
        center_db = snr_bin * self.snr_quantum_db
        evaluator = ModelEvaluator(snr_by_level=snr_map_from_reference(center_db))
        with self._lock:
            self._builds += 1
        table = SweepTable.build(evaluator, self.grid, _TABLE_DISTANCE_M)
        self.grid_eval_ms.observe(table.build_ms)
        return table

    def table_for(self, link: LinkSpec) -> Tuple[SweepTable, str]:
        """The sweep table of the link's bin and the tier that supplied it.

        A miss builds the table (outside the lock) and installs it in the
        LRU; the caller is told ``"miss"`` so per-request accounting can
        distinguish cold from warm answers.
        """
        key = self._snr_bin(link)
        cached = self._lru.get(key)
        if cached is not None:
            return cached, TIER_LRU  # type: ignore[return-value]
        table = self._build_table(key)
        self._lru.put(key, table)
        return table, TIER_MISS

    # ------------------------------------------------------------- policy

    def policy_for(self, objective: str) -> PolicyTable:
        """The compiled unconstrained policy for one objective (lazy)."""
        with self._policy_lock:
            table = self._policies.get(objective)
            if table is None:
                table = PolicyTable.compile(
                    grid=self.grid,
                    objective=objective,
                    snr_quantum_db=self.snr_quantum_db,
                    snr_range_db=self.policy_snr_range_db,
                )
                self.policy_compile_ms.observe(table.compile_ms)
                self._policies[objective] = table
                with self._lock:
                    self._policy_compiles += 1
        return table

    def precompute_policies(
        self, objectives: Sequence[str] = ("energy",)
    ) -> int:
        """Eagerly compile policies for the given objectives; returns count."""
        if not self.policy:
            return 0
        for objective in objectives:
            self.policy_for(objective)
        return len(objectives)

    def _count_policy(self, lookups: int = 0, fallbacks: int = 0) -> None:
        with self._lock:
            self._policy_lookups += lookups
            self._policy_fallbacks += fallbacks

    def policy_recommend(
        self, request: RecommendRequest
    ) -> Optional[RecommendResult]:
        """O(1) policy answer, or None when the request needs the solver.

        None — a counted fallback — when the oracle has no policy, the
        request carries non-default constraint bounds, or the link's
        reference-SNR bin falls off the compiled axis. An infeasible bin
        raises the stored :class:`~repro.errors.InfeasibleError`, byte
        for byte what the solver would have said.
        """
        if not self.policy:
            return None
        if not request.constraints:
            table = self.policy_for(request.objective)
            local = self._snr_bin(request.link) - table.bin_origin
            if 0 <= local < len(table):
                self._count_policy(lookups=1)
                evaluation = table.answer_at(
                    local, request.link.grid_distance_m()
                )
                return RecommendResult(
                    evaluation=evaluation, cache_tier=TIER_POLICY
                )
        self._count_policy(fallbacks=1)
        return None

    def _solve_table(
        self,
        table: SweepTable,
        objective: str,
        constraints: Sequence[Constraint],
    ) -> ConfigEvaluation:
        """Every solver invocation funnels through here, counted, so
        ``/metrics`` (and the tests) can prove the warm policy path never
        reaches ``solve_epsilon_constraint``."""
        with self._lock:
            self._solver_solves += 1
        return table.solve(objective, constraints)

    def policy_info(self) -> Dict[str, object]:
        """Policy-tier counters and table stats, JSON-ready."""
        with self._lock:
            lookups = self._policy_lookups
            fallbacks = self._policy_fallbacks
            compiles = self._policy_compiles
            solver_solves = self._solver_solves
        with self._policy_lock:
            tables = dict(self._policies)
        return {
            "enabled": self.policy,
            "snr_quantum_db": self.snr_quantum_db,
            "snr_range_db": list(self.policy_snr_range_db),
            "n_tables": len(tables),
            "table_bytes": sum(table.nbytes for table in tables.values()),
            "lookups": lookups,
            "fallbacks": fallbacks,
            "compiles": compiles,
            "solver_solves": solver_solves,
            "compile_ms": self.policy_compile_ms.as_dict(),
        }

    def cache_info(self) -> Dict[str, object]:
        """Counters for the LRU and the policy, JSON-ready (``/healthz``)."""
        with self._lock:
            builds = self._builds
        lru: CacheStats = self._lru.stats()
        return {
            "lru": lru.as_dict(),
            "table_builds": builds,
            "grid_size": len(self.grid),
            "grid_eval_ms": self.grid_eval_ms.as_dict(),
            "policy": self.policy_info(),
        }

    # ------------------------------------------------------------ queries

    def recommend(self, request: RecommendRequest) -> RecommendResult:
        """Best grid configuration for the request's link and objective.

        Policy-first: with the policy enabled, a default-bounds request
        on the axis is an O(1) bin lookup; everything else solves the
        bin's sweep table.
        """
        result = self.policy_recommend(request)
        if result is not None:
            return result
        table, tier = self.table_for(request.link)
        evaluation = self.recommend_from_table(table, request)
        return RecommendResult(evaluation=evaluation, cache_tier=tier)

    def recommend_from_table(
        self, table: SweepTable, request: RecommendRequest
    ) -> ConfigEvaluation:
        """Solve one request against an already-fetched table.

        Used by the micro-batcher: the table is fetched once for a batch of
        compatible requests, then each request's objective/constraints are
        solved here without touching the cache again.
        """
        evaluation = self._solve_table(
            table, request.objective, request.constraints
        )
        return _at_distance(evaluation, request.link.grid_distance_m())

    def recommend_fleet(
        self, request: FleetRecommendRequest
    ) -> FleetRecommendResult:
        """Answer a whole fleet batch with one answer per *distinct bin*.

        The links' bins are grouped with ``np.unique``; an unconstrained
        bin on the policy axis is a lookup, every other bin costs one
        table fetch plus one vectorized solve, and each distinct
        (bin, distance) pair gets one :class:`ConfigEvaluation` that is
        scattered back to its links. A bin with no feasible configuration
        records its :class:`~repro.errors.InfeasibleError` message
        in-band; any other failure aborts the batch.
        """
        slots: Dict[LinkSpec, int] = {}
        link_slot = [slots.setdefault(link, len(slots)) for link in request.links]
        distinct = list(slots)
        bins, first_slot, slot_bin = np.unique(
            [self._snr_bin(link) for link in distinct],
            return_index=True,
            return_inverse=True,
        )
        slot_bin = slot_bin.reshape(-1).tolist()
        on_axis = np.zeros(len(bins), dtype=bool)
        if self.policy:
            if not request.constraints:
                policy = self.policy_for(request.objective)
                on_axis = policy.in_axis(bins - policy.bin_origin)
            n_lookups = int(np.count_nonzero(on_axis))
            self._count_policy(
                lookups=n_lookups, fallbacks=len(bins) - n_lookups
            )
        answers: List[_Answer] = []
        for index, snr_bin in enumerate(bins.tolist()):
            try:
                if on_axis[index]:
                    tier = TIER_POLICY
                    evaluation = policy.answer_at(snr_bin - policy.bin_origin)
                else:
                    table, tier = self.table_for(distinct[first_slot[index]])
                    evaluation = self._solve_table(
                        table, request.objective, request.constraints
                    )
            except InfeasibleError as exc:
                answers.append((None, str(exc), tier))
            else:
                answers.append((evaluation, None, tier))
        by_pair: Dict[Tuple[int, float], _Answer] = {}
        per_slot = []
        for link, index in zip(distinct, slot_bin):
            distance_m = link.grid_distance_m()
            answer = by_pair.get((index, distance_m))
            if answer is None:
                evaluation, error, tier = answers[index]
                if evaluation is not None:
                    evaluation = _at_distance(evaluation, distance_m)
                answer = by_pair[(index, distance_m)] = (evaluation, error, tier)
            per_slot.append(answer)
        evaluations, errors, tiers = zip(*(per_slot[slot] for slot in link_slot))
        routing = None
        if request.routing is not None:
            routing = self._routed_summary(request.routing, evaluations)
        return FleetRecommendResult(
            evaluations=evaluations,
            errors=errors,
            cache_tiers=tiers,
            n_unique_links=len(bins),
            routing=routing,
        )

    def _routed_summary(
        self,
        spec: RoutingSpec,
        evaluations: Sequence[Optional[ConfigEvaluation]],
    ) -> FleetRoutingSummary:
        """Compose the batch's per-link answers into path-level metrics.

        Builds the collection tree over the routing block's edges, then
        runs the vectorized composition kernel over the recommended
        per-link metrics. An infeasible link contributes a dead hop
        (PLR 1, zero goodput), so every path through it reports as
        infeasible rather than silently optimistic. A routing block the
        tree builder rejects (disconnected components, self-loops, a bad
        sink) is a client error, surfaced as
        :class:`~repro.errors.ProtocolError`.
        """
        # Deferred: the routing package sits above the fleet layer, which
        # itself imports this module's sibling (serve.protocol) — a
        # module-level import here would close that cycle.
        from ..routing.compose import compose_paths
        from ..routing.table import build_routes

        try:
            table = build_routes(
                n_nodes=spec.n_nodes,
                edges=spec.edges,
                sink=spec.sink,
                strategy=spec.strategy,
            )
        except RoutingError as exc:
            raise ProtocolError(f"bad routing block: {exc}") from exc
        energy = np.array(
            [e.u_eng_uj_per_bit if e is not None else 0.0 for e in evaluations]
        )
        delay = np.array(
            [e.delay_ms if e is not None else 0.0 for e in evaluations]
        )
        plr = np.array(
            [e.plr_total if e is not None else 1.0 for e in evaluations]
        )
        goodput = np.array(
            [e.max_goodput_kbps if e is not None else 0.0 for e in evaluations]
        )
        paths = compose_paths(
            table,
            energy_uj_per_bit=energy,
            delay_ms=delay,
            plr_total=plr,
            goodput_kbps=goodput,
        )
        leaves = paths.leaf_nodes
        feasible = paths.leaf_feasible(spec.max_path_loss)
        feasible &= paths.delivery_prob[leaves] > 0.0
        rows = None
        if spec.include_paths:
            rows = tuple(
                {
                    "leaf": int(leaf),
                    "hops": int(table.hop_count[leaf]),
                    "loss_prob": float(paths.loss_prob[leaf]),
                    "delay_ms": float(paths.delay_ms[leaf]),
                    "energy_uj_per_bit": float(paths.energy_uj_per_bit[leaf]),
                    "goodput_kbps": float(paths.goodput_kbps[leaf]),
                    "feasible": bool(feasible[row]),
                }
                for row, leaf in enumerate(leaves.tolist())
            )
        return FleetRoutingSummary(
            sink=table.sink,
            strategy=table.strategy,
            max_hops=table.max_hops,
            n_paths=paths.n_paths,
            n_paths_feasible=int(np.count_nonzero(feasible)),
            max_path_loss=spec.max_path_loss,
            path_stats=paths.stats(),
            paths=rows,
        )

    def evaluate(self, request: EvaluateRequest) -> ConfigEvaluation:
        """Model metrics of one explicit configuration on the given link.

        Deliberately bypasses the table cache: a single-configuration
        evaluation costs microseconds, so caching it would only add lock
        traffic to the hot path.
        """
        evaluator = ModelEvaluator(
            snr_by_level=request.link.snr_map(self.environment)
        )
        return evaluator.evaluate(request.config)

    def uncached_recommend(
        self, request: RecommendRequest
    ) -> ConfigEvaluation:
        """Answer a recommend request from a fresh bin-center table.

        The reference (slow) path: used by tests to prove cached answers
        are identical, and by the throughput benchmark as the uncached
        baseline.
        """
        table = self._build_table(self._snr_bin(request.link))
        return self.recommend_from_table(table, request)
