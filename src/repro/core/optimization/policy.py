"""Precompiled SNR policy tables — O(1) recommends over the whole axis.

The epsilon-constraint answer for a link is fully determined by the
tuple (SNR bin, objective, constraint bounds, grid): nothing else enters
the solve. Today both the serve oracle and the fleet engine pay a masked
argmin over the full grid per *distinct* SNR at query time. This module
pays that cost once, for every bin of a supported SNR axis, and stores
the answers column-wise so a recommend becomes a memory-bound array
lookup whose latency is independent of grid size.

A :class:`PolicyTable` is compiled in one blocked vectorized pass over
the same metric planes the fleet engine solves
(:func:`~repro.core.optimization.evaluate_metric_planes`): the SNR plane
is ``bin_centers[:, None] + level_offsets[None, :]``, exploiting the
affine SNR structure of the configuration space — a link's SNR at PA
level ``p`` is its reference-level SNR plus the fixed output-power
offset ``P_out(p) − P_out(31)``. Because that is float-for-float the
association :func:`~repro.core.optimization.snr_map_from_reference`
uses, a policy row at a bin center is **bit-identical** to the columnar
:class:`~repro.core.optimization.GridEvaluation` a per-link solve would
have built there, and the stored answers reproduce
:func:`~repro.core.optimization.solve_epsilon_constraint` exactly:

* the same first-minimal-feasible tie-break (including the degenerate
  all-``inf``-feasible case);
* the same :class:`~repro.errors.InfeasibleError` message for bins with
  no feasible configuration, rebuilt from stored per-bin minima through
  the shared :func:`~repro.core.optimization.infeasible_error` helper.

Memory model: a bin costs ``best_index`` + ``best_objective`` +
feasibility + eight winner-metric floats ≈ 81 bytes, so the default
201-bin axis (−10 … 40 dB at 0.25 dB) is ~16 KiB of answers plus one
shared copy of the grid's knob columns — small enough to compile one
table per objective at startup and serve millions of lookups per second
out of cache.
"""

# reprolint: hot-path — policy compile and bin-gather lookups timed by BENCH_policy.json
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ...config import StackConfig
from ...errors import InfeasibleError, OptimizationError
from ...radio import cc2420
from .epsilon_constraint import Constraint, infeasible_error
from .evaluate import ConfigEvaluation, ModelEvaluator, snr_map_from_reference
from .kernels import evaluate_metric_planes, grid_knob_columns

__all__ = [
    "DEFAULT_SNR_QUANTUM_DB",
    "DEFAULT_SNR_RANGE_DB",
    "OBJECTIVE_PLANES",
    "REFERENCE_LEVEL",
    "PolicyTable",
    "level_offset_lut_db",
    "masked_argmin_rows",
    "objective_from_planes",
]

#: PA level the policy SNR axis (and the fleet's SNR columns) refer to.
REFERENCE_LEVEL = 31

#: Default SNR bin width of a compiled policy axis (dB).
DEFAULT_SNR_QUANTUM_DB = 0.25

#: Default supported SNR axis (dB at the reference level). Covers the
#: paper's measured range with generous margin; lookups outside fall
#: back to an exact solve.
DEFAULT_SNR_RANGE_DB: Tuple[float, float] = (-10.0, 40.0)

#: Objective name → (metric-plane key, minimization sign). The same
#: names (and the same goodput negation) as
#: :meth:`GridEvaluation.objective_column`, so plane solves and columnar
#: grid solves rank configurations identically.
OBJECTIVE_PLANES: Mapping[str, Tuple[str, float]] = {
    "energy": ("u_eng_uj_per_bit", 1.0),
    "goodput": ("max_goodput_kbps", -1.0),
    "delay": ("delay_ms", 1.0),
    "loss": ("plr_total", 1.0),
    "loss_radio": ("plr_radio", 1.0),
    "rho": ("rho", 1.0),
}

#: Winner-metric columns stored per bin — exactly the fields a
#: :class:`ConfigEvaluation` carries, so a lookup materializes the same
#: scalar row a :meth:`GridEvaluation.row` call would have.
_RESULT_COLUMNS = (
    "snr_db",
    "max_goodput_kbps",
    "u_eng_uj_per_bit",
    "delay_ms",
    "rho",
    "plr_radio",
    "plr_queue",
    "plr_total",
)


def objective_from_planes(
    metrics: Mapping[str, np.ndarray], name: str
) -> np.ndarray:
    """One objective in minimization form from a metric-plane mapping."""
    try:
        key, sign = OBJECTIVE_PLANES[name]
    except KeyError:
        raise OptimizationError(
            f"unknown objective {name!r}; valid: {sorted(OBJECTIVE_PLANES)}"
        ) from None
    plane = metrics[key]
    return -plane if sign < 0 else plane


def level_offset_lut_db(
    ptx_levels: np.ndarray, reference_level: int = REFERENCE_LEVEL
) -> np.ndarray:
    """Output-power offset LUT: ``lut[level] = P_out(level) − P_out(ref)``.

    Indexed by PA level (only the levels present in ``ptx_levels`` are
    populated). The per-level scalar subtraction is the exact float
    association :func:`snr_map_from_reference` uses, which is what makes
    ``center + lut[level]`` bit-identical to a per-link grid evaluation
    at that center.
    """
    reference_dbm = cc2420.output_power_dbm(reference_level)
    unique_levels = [int(level) for level in np.unique(ptx_levels).tolist()]
    lut = np.zeros(max(unique_levels) + 1, dtype=float)
    lut[unique_levels] = [
        cc2420.output_power_dbm(level) - reference_dbm
        for level in unique_levels
    ]
    return lut


def masked_argmin_rows(
    objective: np.ndarray, feasible: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row ``(chosen, any_feasible)`` of a masked argmin over axis 1.

    Replicates :meth:`GridEvaluation.best_index` exactly, including the
    tie-break: when every feasible value is +inf the full-row argmin may
    land on an infeasible element, while the per-link solver's
    compacted-subset argmin picks the first *feasible* index — so that
    degenerate case is patched to match.
    """
    masked = np.where(feasible, objective, np.inf)
    chosen = np.argmin(masked, axis=1)
    chosen_value = np.take_along_axis(masked, chosen[:, None], axis=1)[:, 0]
    row_feasible = feasible.any(axis=1)
    degenerate = np.isinf(chosen_value) & row_feasible
    if degenerate.any():
        chosen[degenerate] = np.argmax(feasible[degenerate], axis=1)
    return chosen, row_feasible


@dataclass(frozen=True)
class PolicyTable:
    """Every epsilon-constraint answer along a quantized SNR axis.

    Bin ``i`` holds the solve for reference-level SNR
    ``(bin_origin + i) * snr_quantum_db``: the winning configuration
    index into the grid's canonical knob columns, its objective value,
    its full metric row, a feasibility flag, and — when constraints are
    present — the per-bin best-achievable value of every constrained
    objective, from which the exact :class:`InfeasibleError` diagnosis
    is rebuilt on demand. All columns are read-only.
    """

    objective: str
    constraints: Tuple[Constraint, ...]
    snr_quantum_db: float
    bin_origin: int
    distance_m: float
    knobs: Tuple[np.ndarray, ...]
    best_index: np.ndarray
    best_objective: np.ndarray
    feasible: np.ndarray
    winner_metrics: Mapping[str, np.ndarray]
    constraint_best: Mapping[str, np.ndarray]
    compile_ms: float = field(default=float("nan"), compare=False)

    def __post_init__(self) -> None:
        n_bins = int(self.best_index.shape[0])
        for name in ("best_index", "best_objective", "feasible"):
            column = getattr(self, name)
            if column.ndim != 1 or column.shape[0] != n_bins:
                raise OptimizationError(
                    f"policy column {name!r} must be 1-D of length "
                    f"{n_bins}, got shape {column.shape}"
                )
            column.flags.writeable = False
        if set(self.winner_metrics) != set(_RESULT_COLUMNS):
            raise OptimizationError(
                f"winner metrics must be exactly {sorted(_RESULT_COLUMNS)}, "
                f"got {sorted(self.winner_metrics)}"
            )
        for mapping in (self.winner_metrics, self.constraint_best):
            for name, column in mapping.items():
                if column.ndim != 1 or column.shape[0] != n_bins:
                    raise OptimizationError(
                        f"policy column {name!r} must be 1-D of length "
                        f"{n_bins}, got shape {column.shape}"
                    )
                column.flags.writeable = False
        if len(self.knobs) != 6:
            raise OptimizationError(
                f"a policy table stores 6 knob columns, got {len(self.knobs)}"
            )
        for column in self.knobs:
            column.flags.writeable = False

    # ----------------------------------------------------------- compile

    @classmethod
    def compile(
        cls,
        evaluator: Optional[ModelEvaluator] = None,
        grid=None,
        objective: str = "energy",
        constraints: Sequence[Constraint] = (),
        snr_quantum_db: float = DEFAULT_SNR_QUANTUM_DB,
        snr_range_db: Tuple[float, float] = DEFAULT_SNR_RANGE_DB,
        distance_m: float = 10.0,
        block_elements: int = 1_000_000,
    ) -> "PolicyTable":
        """One vectorized pass over (bins × grid) — the whole axis at once.

        The evaluator only contributes its fitted sub-models (SNR enters
        through the explicit planes), so the default — built from the
        paper's reference map — compiles the table any reference-SNR
        link reads from.
        """
        if objective not in OBJECTIVE_PLANES:
            raise OptimizationError(
                f"unknown objective {objective!r}; "
                f"valid: {sorted(OBJECTIVE_PLANES)}"
            )
        for constraint in constraints:
            if constraint.objective not in OBJECTIVE_PLANES:
                raise OptimizationError(
                    f"unknown constraint objective "
                    f"{constraint.objective!r}; "
                    f"valid: {sorted(OBJECTIVE_PLANES)}"
                )
        if snr_quantum_db <= 0:
            raise OptimizationError(
                f"snr_quantum_db must be positive, got {snr_quantum_db!r}"
            )
        low_db, high_db = (float(snr_range_db[0]), float(snr_range_db[1]))
        if not low_db <= high_db:
            raise OptimizationError(
                f"snr_range_db must be (low, high) with low <= high, "
                f"got {snr_range_db!r}"
            )
        if block_elements < 1:
            raise OptimizationError(
                f"block_elements must be >= 1, got {block_elements!r}"
            )
        started = time.monotonic()
        quantum = float(snr_quantum_db)
        if evaluator is None:
            evaluator = ModelEvaluator(
                snr_by_level=snr_map_from_reference(0.0)
            )
        knobs = grid_knob_columns(grid)
        ptx, payload, tries, retry_ms, qmax, tpkt_ms = knobs
        offsets_db = level_offset_lut_db(ptx)[ptx]
        bin_origin = int(np.round(low_db / quantum))
        n_bins = int(np.round(high_db / quantum)) - bin_origin + 1
        # int64 bin * float quantum is the exact product np.round(snr / q)
        # * q yields for in-bin SNRs, so centers match quantized queries
        # float-for-float.
        centers_db = (bin_origin + np.arange(n_bins, dtype=np.int64)) * quantum

        n_configs = int(ptx.shape[0])
        best_index = np.empty(n_bins, dtype=np.int64)
        best_objective = np.empty(n_bins, dtype=float)
        feasible_bins = np.empty(n_bins, dtype=bool)
        winner = {
            name: np.empty(n_bins, dtype=float) for name in _RESULT_COLUMNS
        }
        constrained = []
        for constraint in constraints:
            if constraint.objective not in constrained:
                constrained.append(constraint.objective)
        constraint_best = {
            name: np.empty(n_bins, dtype=float) for name in constrained
        }
        rows_per_block = max(1, int(block_elements) // n_configs)
        for start in range(0, n_bins, rows_per_block):
            stop = min(start + rows_per_block, n_bins)
            plane_snr_db = centers_db[start:stop, None] + offsets_db[None, :]
            metrics = evaluate_metric_planes(
                evaluator,
                ptx_level=ptx,
                payload_bytes=payload,
                n_max_tries=tries,
                d_retry_ms=retry_ms,
                q_max=qmax,
                t_pkt_ms=tpkt_ms,
                snr_db=plane_snr_db,
            )
            objective_plane = objective_from_planes(metrics, objective)
            feasible = np.ones(objective_plane.shape, dtype=bool)
            for constraint in constraints:
                feasible &= (
                    objective_from_planes(metrics, constraint.objective)
                    <= constraint.upper_bound
                )
            chosen, row_feasible = masked_argmin_rows(
                objective_plane, feasible
            )
            selector = chosen[:, None]
            best_index[start:stop] = chosen
            best_objective[start:stop] = np.take_along_axis(
                objective_plane, selector, axis=1
            )[:, 0]
            feasible_bins[start:stop] = row_feasible
            for name in _RESULT_COLUMNS:
                winner[name][start:stop] = np.take_along_axis(
                    metrics[name], selector, axis=1
                )[:, 0]
            # The per-bin minimum of a constrained objective: a plane
            # row's min equals the matching GridEvaluation column's min
            # (same values, same reduction), which is exactly what the
            # solver's infeasibility diagnosis reports.
            for name in constrained:
                constraint_best[name][start:stop] = objective_from_planes(
                    metrics, name
                ).min(axis=1)
        compile_ms = (time.monotonic() - started) * 1e3
        return cls(
            objective=objective,
            constraints=tuple(constraints),
            snr_quantum_db=quantum,
            bin_origin=bin_origin,
            distance_m=float(distance_m),
            knobs=knobs,
            best_index=best_index,
            best_objective=best_objective,
            feasible=feasible_bins,
            winner_metrics=winner,
            constraint_best=constraint_best,
            compile_ms=compile_ms,
        )

    # ------------------------------------------------------------- shape

    def __len__(self) -> int:
        return int(self.best_index.shape[0])

    @property
    def n_configs(self) -> int:
        """Grid configurations each bin's answer was chosen from."""
        return int(self.knobs[0].shape[0])

    @property
    def snr_min_db(self) -> float:
        """Lowest bin center on the supported axis (dB)."""
        return self.bin_origin * self.snr_quantum_db

    @property
    def snr_max_db(self) -> float:
        """Highest bin center on the supported axis (dB)."""
        return (self.bin_origin + len(self) - 1) * self.snr_quantum_db

    @property
    def nbytes(self) -> int:
        """Resident bytes: per-bin answer columns plus the knob columns."""
        total = (
            self.best_index.nbytes
            + self.best_objective.nbytes
            + self.feasible.nbytes
        )
        for column in self.winner_metrics.values():
            total += column.nbytes
        for column in self.constraint_best.values():
            total += column.nbytes
        for column in self.knobs:
            total += column.nbytes
        return int(total)

    # ------------------------------------------------------------ lookup

    def local_bins(self, snr_db) -> np.ndarray:
        """Axis-relative bin index of each SNR (may fall outside [0, n))."""
        snr = np.asarray(snr_db, dtype=float)
        bins = np.round(snr / self.snr_quantum_db).astype(np.int64)
        return bins - self.bin_origin

    def in_axis(self, local_bins: np.ndarray) -> np.ndarray:
        """Which axis-relative bins the table actually covers."""
        return (local_bins >= 0) & (local_bins < len(self))

    def covers(self, snr_db: float) -> bool:
        """True when the SNR quantizes onto the supported axis."""
        local = int(np.round(float(snr_db) / self.snr_quantum_db))
        local -= self.bin_origin
        return 0 <= local < len(self)

    def bin_index(self, snr_db: float) -> int:
        """The axis-relative bin of one SNR; raises when unsupported."""
        local = int(np.round(float(snr_db) / self.snr_quantum_db))
        local -= self.bin_origin
        if not 0 <= local < len(self):
            raise OptimizationError(
                f"SNR {snr_db:g} dB is outside the policy axis "
                f"[{self.snr_min_db:g}, {self.snr_max_db:g}] dB"
            )
        return local

    def bin_center_db(self, index: int) -> float:
        """The reference-level SNR a bin's answer was solved at."""
        return (self.bin_origin + int(index)) * self.snr_quantum_db

    def take(
        self, local_bins: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The fleet gather: per-bin (config index, objective, feasible).

        ``local_bins`` must already be on-axis (see :meth:`in_axis`);
        one ``np.take`` per answer column, no solve.
        """
        return (
            np.take(self.best_index, local_bins),
            np.take(self.best_objective, local_bins),
            np.take(self.feasible, local_bins),
        )

    def infeasible_error_at(self, index: int) -> InfeasibleError:
        """The solver's exact diagnosis for one infeasible bin."""
        return infeasible_error(
            self.constraints,
            lambda objective: float(self.constraint_best[objective][index]),
        )

    def config_at(
        self, config_index: int, distance_m: Optional[float] = None
    ) -> StackConfig:
        """Materialize one grid configuration index as a :class:`StackConfig`."""
        ptx, payload, tries, retry_ms, qmax, tpkt_ms = self.knobs
        return StackConfig(
            distance_m=self.distance_m if distance_m is None else distance_m,
            ptx_level=int(ptx[config_index]),
            payload_bytes=int(payload[config_index]),
            n_max_tries=int(tries[config_index]),
            d_retry_ms=float(retry_ms[config_index]),
            q_max=int(qmax[config_index]),
            t_pkt_ms=float(tpkt_ms[config_index]),
        )

    def lookup(
        self, snr_db: float, distance_m: Optional[float] = None
    ) -> ConfigEvaluation:
        """The stored answer for one SNR, as the solver would return it.

        Raises the stored-minima :class:`InfeasibleError` for infeasible
        bins and :class:`OptimizationError` for SNRs off the axis.
        """
        return self.answer_at(self.bin_index(snr_db), distance_m)

    def answer_at(
        self, index: int, distance_m: Optional[float] = None
    ) -> ConfigEvaluation:
        """The stored answer of one axis-relative bin (see :meth:`lookup`)."""
        if not self.feasible[index]:
            raise self.infeasible_error_at(index)
        metrics = self.winner_metrics
        return ConfigEvaluation(
            config=self.config_at(int(self.best_index[index]), distance_m),
            snr_db=float(metrics["snr_db"][index]),
            max_goodput_kbps=float(metrics["max_goodput_kbps"][index]),
            u_eng_uj_per_bit=float(metrics["u_eng_uj_per_bit"][index]),
            delay_ms=float(metrics["delay_ms"][index]),
            rho=float(metrics["rho"][index]),
            plr_radio=float(metrics["plr_radio"][index]),
            plr_queue=float(metrics["plr_queue"][index]),
            plr_total=float(metrics["plr_total"][index]),
        )

    # ------------------------------------------------------------- stats

    def stats(self) -> Dict[str, object]:
        """Size, axis and compile-cost summary, JSON-ready."""
        return {
            "objective": self.objective,
            "n_bins": len(self),
            "n_configs": self.n_configs,
            "n_infeasible_bins": int(np.count_nonzero(~self.feasible)),
            "snr_quantum_db": self.snr_quantum_db,
            "snr_min_db": self.snr_min_db,
            "snr_max_db": self.snr_max_db,
            "table_bytes": self.nbytes,
            "compile_ms": self.compile_ms,
        }
