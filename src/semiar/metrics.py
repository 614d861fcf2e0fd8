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
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .core import DecodeTrace, Regime, StepRecord
from .sampling import top1


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


def detect_late_overhead(
    record: StepRecord, conf: Sequence[float], tau: float
) -> LateOverheadEvent | None:
    """Masked positions outside the block already at or above the threshold
    in ``conf``, the dense confidence row after the record's step."""
    start, end = record.block_start, record.block_end
    hits = [j for j in record.masked_before if conf[j] >= tau and not start <= j < end]
    if not hits:
        return None
    return LateOverheadEvent(
        step=record.step,
        positions=tuple(hits),
        confidences=tuple(conf[j] for j in hits),
    )


def detect_premature(
    record: StepRecord, conf: Sequence[float], tau: float
) -> PrematureEvent | None:
    """A sub-threshold forced commit while a strictly better position waits outside.

    The forced position is :func:`~semiar.sampling.top1` over ``conf``, the
    dense confidence row after the record's step: the sampler's own rule
    applied to exactly what it saw.
    """
    start, end = record.block_start, record.block_end
    inside = [m for m in record.masked_before if start <= m < end]
    if not inside:
        return None
    top = top1(conf, inside)
    forced_conf = conf[top]
    if forced_conf >= tau:
        return None
    better = [j for j in record.masked_before if conf[j] > forced_conf and not start <= j < end]
    if not better:
        return None
    return PrematureEvent(
        step=record.step,
        forced_pos=top,
        forced_conf=forced_conf,
        better_positions=tuple(better),
        better_confidences=tuple(conf[j] for j in better),
    )


def failure_rates(trace: DecodeTrace, tau: float) -> FailureReport:
    """Count affected sampling steps per event family; a step may count for both."""
    if len(trace) == 0:
        raise ValueError("cannot compute failure rates over an empty trace")
    late, early = [], []
    for rec, _, conf in trace.rows():
        if (ev := detect_late_overhead(rec, conf, tau)) is not None:
            late.append(ev)
        if (ev := detect_premature(rec, conf, tau)) is not None:
            early.append(ev)
    return FailureReport(len(trace), tuple(late), tuple(early))


#: The labelling thresholds :func:`segment_regimes`, ``experiment.analyze`` and
#: ``semiar analyze`` use unless given others.
TAU_HI, TAU_LO, PERSISTENCE_K = 0.9, 0.1, 3


def check_regime_params(tau_hi: float, tau_lo: float, persistence_k: int) -> None:
    """Reject thresholds :func:`segment_regimes` cannot label with."""
    if tau_lo >= tau_hi:
        raise ValueError("tau_lo must be strictly below tau_hi")
    if persistence_k < 1:
        raise ValueError("persistence_k must be >= 1")


def segment_regimes(
    trace: DecodeTrace,
    tau_hi: float = TAU_HI,
    tau_lo: float = TAU_LO,
    persistence_k: int = PERSISTENCE_K,
) -> list[list[Regime]]:
    """Label every (step, position) pair from the trace's confidence snapshots.

    A masked position is plateau when its last ``persistence_k`` snapshots all
    reach ``tau_hi``, floor when they all stay at or below ``tau_lo``, and
    volatility band otherwise; unmasked positions are decoded.  Early steps,
    and every step of a trace shorter than ``persistence_k``, use however much
    history exists.
    """
    check_regime_params(tau_hi, tau_lo, persistence_k)

    # Per position, the step at which its current run of snapshots reaching
    # tau_hi began, and the same for staying at or below tau_lo; ``never``
    # while the latest snapshot breaks the run.  A value changes only at a
    # record's changed positions (see StepRecord), so only there can a run
    # begin or break; revisiting an unchanged value leaves both starts as they
    # are.  The last min(k, r + 1) snapshots all qualify exactly when the run
    # began at step max(0, r + 1 - k) or earlier.
    L = trace.gen_budget
    never = len(trace.steps)
    hi_start = [never] * L
    lo_start = [never] * L
    # members bound once: each Regime.NAME read is a slow enum class lookup
    decoded, plateau, floor, band = (
        Regime.DECODED, Regime.PLATEAU, Regime.FLOOR, Regime.VOLATILITY_BAND)
    labels: list[list[Regime]] = []
    for r, (rec, _, conf) in enumerate(trace.rows()):
        for i in rec.changed if r else range(L):
            hi_start[i] = min(hi_start[i], r) if conf[i] >= tau_hi else never
            lo_start[i] = min(lo_start[i], r) if conf[i] <= tau_lo else never
        began_by = max(0, r + 1 - persistence_k)
        row = [decoded] * L
        for i in rec.masked_before:
            if hi_start[i] <= began_by:
                row[i] = plateau
            elif lo_start[i] <= began_by:
                row[i] = floor
            else:
                row[i] = band
        labels.append(row)
    return labels


def vb_width_series(labels: list[list[Regime]]) -> list[int]:
    """Volatility-band position count per step, for band-width plots."""
    return [row.count(Regime.VOLATILITY_BAND) for row in labels]


# ---------------------------------------------------------------------------
# Report files
# ---------------------------------------------------------------------------

def write_csv(
    path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """A report CSV in csv's excel dialect, utf-8: ``header``, then ``rows``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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
    write_csv(path, ["step", "g", "B", "late_overhead", "premature", "vb_width"],
              ([rec.step, rec.block_start, rec.block_end - rec.block_start,
                int(rec.step in late), int(rec.step in premature), width]
               for rec, width in zip(trace.steps, widths)))


def _write_matrix(path: str | Path, width: int, rows: Iterable[str]) -> None:
    """A step-by-position CSV: the ``step,p0,...`` header, then ``rows``.

    No field ever needs quoting, so comma-joined lines ending in CRLF are
    exactly what csv's excel dialect would write.
    """
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(["step", *(f"p{i}" for i in range(width))]) + "\r\n")
        fh.writelines(rows)


def _csv_text(value: object) -> str:
    """The text csv writes for a non-string field: repr for floats, else str."""
    return repr(value) if isinstance(value, float) else str(value)


def _heatmap_rows(trace: DecodeTrace) -> Iterator[str]:
    """Each row formats the cells its step changed; the others carry the
    previous row's value (see StepRecord), hence its text."""
    cells: list[str] = []
    for rec, _, conf in trace.rows():
        if not cells:
            cells = [_csv_text(c) for c in conf]
        else:
            for i in rec.changed:
                cells[i] = _csv_text(conf[i])
        yield f"{rec.step},{','.join(cells)}\r\n"


def write_heatmap(path: str | Path, trace: DecodeTrace) -> None:
    """Step-by-position confidence matrix for landscape plots."""
    _write_matrix(path, trace.gen_budget, _heatmap_rows(trace))


def write_regime_labels(path: str | Path, labels: list[list[Regime]]) -> None:
    _write_matrix(path, len(labels[0]),
                  (f"{step},{','.join(row)}\r\n" for step, row in enumerate(labels)))
