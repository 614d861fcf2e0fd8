"""Confidence-dynamics analysis and failure-event detection over decode traces.

Two failure modes of fixed-size blocking are detected per step record:

* late decoding overhead: a masked position outside the current block already
  sits at or above the unmask threshold, so its commit is being deferred and
  it will be re-denoised for nothing;
* premature decoding error: the block forces its best masked position through
  below the threshold even though a strictly more confident masked position
  waits outside, so a worse token is committed in place of a better one.

Regime segmentation labels every (step, position) pair as decoded, plateau,
volatility band, or floor from the confidence snapshots alone.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .core import DecodeTrace, StepRecord
from .sampling import top1


class Regime(str, Enum):
    PLATEAU = "plateau"
    VOLATILITY_BAND = "band"
    FLOOR = "floor"
    DECODED = "decoded"


@dataclass(frozen=True)
class LateOverheadEvent:
    step: int
    positions: tuple[int, ...]
    confidences: tuple[float, ...]


@dataclass(frozen=True)
class PrematureEvent:
    step: int
    forced_pos: int
    forced_conf: float
    better_positions: tuple[int, ...]
    better_confidences: tuple[float, ...]


@dataclass(frozen=True)
class FailureReport:
    total_steps: int
    late_overhead: tuple[LateOverheadEvent, ...]
    premature: tuple[PrematureEvent, ...]

    @property
    def late_overhead_steps(self) -> int:
        return len(self.late_overhead)

    @property
    def premature_steps(self) -> int:
        return len(self.premature)

    @property
    def late_overhead_rate(self) -> float:
        return self.late_overhead_steps / self.total_steps

    @property
    def premature_rate(self) -> float:
        return self.premature_steps / self.total_steps


def _outside_masked(record: StepRecord) -> list[int]:
    return [
        m
        for m in record.masked_before
        if not record.block_start <= m < record.block_end
    ]


def _inside_masked(record: StepRecord) -> list[int]:
    return [
        m for m in record.masked_before if record.block_start <= m < record.block_end
    ]


def detect_late_overhead(record: StepRecord, tau: float) -> LateOverheadEvent | None:
    """Masked positions outside the block already at or above the threshold."""
    hits = [j for j in _outside_masked(record) if record.confidence[j] >= tau]
    if not hits:
        return None
    return LateOverheadEvent(
        step=record.step,
        positions=tuple(hits),
        confidences=tuple(record.confidence[j] for j in hits),
    )


def detect_premature(record: StepRecord, tau: float) -> PrematureEvent | None:
    """A sub-threshold forced commit while a strictly better position waits outside.

    The forced position is :func:`~semiar.sampling.top1` over the record's
    snapshot: the sampler's own rule applied to exactly what it saw.
    """
    inside = _inside_masked(record)
    if not inside:
        return None
    top = top1(record.confidence, inside)
    forced_conf = record.confidence[top]
    if forced_conf >= tau:
        return None
    better = [j for j in _outside_masked(record) if record.confidence[j] > forced_conf]
    if not better:
        return None
    return PrematureEvent(
        step=record.step,
        forced_pos=top,
        forced_conf=forced_conf,
        better_positions=tuple(better),
        better_confidences=tuple(record.confidence[j] for j in better),
    )


def failure_rates(trace: DecodeTrace, tau: float) -> FailureReport:
    """Count affected sampling steps per event family; a step may count for both."""
    if len(trace) == 0:
        raise ValueError("cannot compute failure rates over an empty trace")
    late = tuple(
        ev for rec in trace.steps if (ev := detect_late_overhead(rec, tau)) is not None
    )
    early = tuple(
        ev for rec in trace.steps if (ev := detect_premature(rec, tau)) is not None
    )
    return FailureReport(total_steps=len(trace), late_overhead=late, premature=early)


def check_regime_params(tau_hi: float, tau_lo: float, persistence_k: int) -> None:
    """Reject thresholds :func:`segment_regimes` cannot label with."""
    if tau_lo >= tau_hi:
        raise ValueError("tau_lo must be strictly below tau_hi")
    if persistence_k < 1:
        raise ValueError("persistence_k must be >= 1")


def segment_regimes(
    trace: DecodeTrace,
    tau_hi: float = 0.9,
    tau_lo: float = 0.1,
    persistence_k: int = 3,
) -> list[list[Regime]]:
    """Label every (step, position) pair from the trace's confidence snapshots.

    A masked position is plateau when its last ``persistence_k`` snapshots all
    reach ``tau_hi``, floor when they all stay at or below ``tau_lo``, and
    volatility band otherwise; unmasked positions are decoded.  Early steps,
    and every step of a trace shorter than ``persistence_k``, use however much
    history exists.
    """
    check_regime_params(tau_hi, tau_lo, persistence_k)

    # Per position, the run of consecutive snapshots ending at this step that
    # reach tau_hi, and the run that stays at or below tau_lo.  The last
    # min(k, r + 1) snapshots all qualify exactly when the run is that long.
    L = trace.gen_budget
    hi_run = [0] * L
    lo_run = [0] * L
    labels: list[list[Regime]] = []
    for r, rec in enumerate(trace.steps):
        conf = rec.confidence
        hi_run = [n + 1 if c >= tau_hi else 0 for n, c in zip(hi_run, conf)]
        lo_run = [n + 1 if c <= tau_lo else 0 for n, c in zip(lo_run, conf)]
        need = min(persistence_k, r + 1)
        row = [Regime.DECODED] * L
        for i in rec.masked_before:
            if hi_run[i] >= need:
                row[i] = Regime.PLATEAU
            elif lo_run[i] >= need:
                row[i] = Regime.FLOOR
            else:
                row[i] = Regime.VOLATILITY_BAND
        labels.append(row)
    return labels


def vb_width_series(labels: list[list[Regime]]) -> list[int]:
    """Volatility-band position count per step, for band-width plots."""
    return [row.count(Regime.VOLATILITY_BAND) for row in labels]


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def write_step_report(
    path: str | Path,
    trace: DecodeTrace,
    report: FailureReport,
    widths: list[int],
) -> None:
    """Per-step CSV: step, g, B, both event flags, band width.

    ``report`` and ``widths`` come from :func:`failure_rates` and
    :func:`vb_width_series` of ``trace``; events match records by step number.
    """
    late = {ev.step for ev in report.late_overhead}
    premature = {ev.step for ev in report.premature}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "g", "B", "late_overhead", "premature", "vb_width"])
        for rec, width in zip(trace.steps, widths):
            writer.writerow(
                [
                    rec.step,
                    rec.block_start,
                    rec.block_end - rec.block_start,
                    int(rec.step in late),
                    int(rec.step in premature),
                    width,
                ]
            )


def write_heatmap(path: str | Path, trace: DecodeTrace) -> None:
    """Step-by-position confidence matrix for landscape plots."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"p{i}" for i in range(trace.gen_budget)])
        for rec in trace.steps:
            writer.writerow([rec.step, *rec.confidence])


def write_regime_labels(path: str | Path, labels: list[list[Regime]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step"] + [f"p{i}" for i in range(len(labels[0]))])
        for step, row in enumerate(labels):
            writer.writerow([step, *row])
