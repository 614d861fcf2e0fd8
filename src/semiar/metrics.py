"""Confidence-dynamics analysis and failure detection over decode traces.

Two failure modes of fixed-size blocking are flagged per step record; a
report keeps only the flagged step numbers:

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
from bisect import bisect_left
from dataclasses import dataclass
from math import inf
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .core import SENTINEL_CONFIDENCE, DecodeTrace, Regime


@dataclass(frozen=True)
class FailureReport:
    """The steps of a trace flagged by each failure mode, in step order."""

    total_steps: int
    late_overhead: tuple[int, ...]
    premature: tuple[int, ...]

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


def _require_extended(trace: DecodeTrace) -> None:
    """Reject a trace read from a minimal-schema file, naming its first bare step."""
    if (step := trace.first_minimal_step()) is not None:
        raise ValueError(f"step {step} lacks the extended per-step fields needed for analysis")


def failure_rates(trace: DecodeTrace, tau: float) -> FailureReport:
    """Flag the steps of each failure mode; a step may be flagged by both.

    Per record, from the dense confidence row after its step: late when the
    most confident masked position outside the block reaches ``tau``;
    premature when the block holds a masked position, the most confident of
    them (the sampler's forced commit, see :func:`~semiar.sampling.top1`)
    stays below ``tau``, and the one outside is more confident still.
    """
    if len(trace) == 0:
        raise ValueError("cannot compute failure rates over an empty trace")
    _require_extended(trace)
    late, premature = [], []
    for rec, _, conf in trace.rows():
        # a file may list the masked positions in any order, even repeated;
        # on the ascending ones the decoder records, sorted is one linear pass
        masked = sorted(rec.masked_before)
        lo = bisect_left(masked, rec.block_start)
        hi = bisect_left(masked, rec.block_end, lo)
        outside = max(max(map(conf.__getitem__, masked[:lo]), default=-inf),
                      max(map(conf.__getitem__, masked[hi:]), default=-inf))
        if outside >= tau:
            late.append(rec.step)
        if lo < hi:
            forced = max(map(conf.__getitem__, masked[lo:hi]))
            if forced < tau and outside > forced:
                premature.append(rec.step)
    return FailureReport(len(trace), tuple(late), tuple(premature))


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
    _require_extended(trace)

    # Per position, the step at which its current run of snapshots reaching
    # tau_hi began, and the same for staying at or below tau_lo; ``never``
    # while the latest snapshot breaks the run.  A value changes only at a
    # record's computed positions (see StepRecord), so only there can a run
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
        for i in rec.computed if r else range(L):
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
    """Per-step CSV: step, g, B, both failure flags, band width.

    ``report`` and ``widths`` come from :func:`failure_rates` and
    :func:`vb_width_series` of ``trace``; flagged steps match records by step
    number.
    """
    late, premature = set(report.late_overhead), set(report.premature)
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


def _heatmap_rows(trace: DecodeTrace) -> Iterator[str]:
    """Each row formats the values its record holds; the other cells keep the
    text of their value in the dense rows (see DecodeTrace.rows).  ``repr``
    is the text csv writes for every int, bool and float."""
    cells = [repr(SENTINEL_CONFIDENCE)] * trace.gen_budget
    for rec in trace.steps:
        for i, c in zip(rec.computed, rec.confidence):
            cells[i] = repr(c)
        yield f"{rec.step},{','.join(cells)}\r\n"


def write_heatmap(path: str | Path, trace: DecodeTrace) -> None:
    """Step-by-position confidence matrix for landscape plots."""
    _write_matrix(path, trace.gen_budget, _heatmap_rows(trace))


def write_regime_labels(path: str | Path, labels: list[list[Regime]]) -> None:
    _write_matrix(path, len(labels[0]),
                  (f"{step},{','.join(row)}\r\n" for step, row in enumerate(labels)))
