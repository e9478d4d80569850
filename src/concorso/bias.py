"""Two-sided bias detection on competition outcomes, plus aggregation.

A non-winner signals bias against them when they outrank the worst winner by
at least the threshold (in productivity percentiles), their raw score is not
below the cohort median, and they sit within the threshold of the best such
candidate. The shortfall beyond the allowed band is the finding's level.

A winner signals bias in their favor when the best non-winner outranks them
by at least the threshold, or when their raw score falls below the cohort
median; the level measures the gap beyond the band against the best
non-winner and can be negative when only the median condition fired.

Threshold comparisons are non-strict; ties at the cohort median count as
"not below" for the negative rule and "not under" for the positive rule.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .corpus import Corpus
from .errors import DegenerateInput
from .features import ApplicantFeatures
from .stats import TestResult, bonferroni, pearson, two_sample_t

DEFAULT_THRESHOLD = 20.0


class BiasKind(str, Enum):
    NEGATIVE = "negative"   # bias against a non-winner
    POSITIVE = "positive"   # bias in favor of a winner


@dataclass
class BiasFinding:
    competition_id: str
    researcher_id: str
    kind: BiasKind
    level: float
    triggers: tuple[str, ...]


def _competition_rows(features, comp_id: str):
    rows = [f for f in features if f.competition_id == comp_id]
    winners = [f for f in rows if f.won]
    non_winners = [f for f in rows if not f.won]
    return winners, non_winners


def detect_negative(
    comp_id: str,
    features,
    sds_median_fss: float,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[BiasFinding]:
    """Non-winners held back despite a decisive merit advantage.

    Stage 1 keeps non-winners at least ``threshold`` percentiles above the
    worst winner whose raw score is not below the cohort median; stage 2
    keeps those within ``threshold`` of the best stage-1 candidate. The
    level is the margin over the worst winner beyond the threshold band.
    """
    winners, non_winners = _competition_rows(features, comp_id)
    if not winners or not non_winners:
        return []
    worst_winner = min(f.merit_pct for f in winners)
    stage1 = [f for f in non_winners
              if f.merit_pct - worst_winner >= threshold
              and f.merit_raw >= sds_median_fss]
    if not stage1:
        return []
    best = max(f.merit_pct for f in stage1)
    findings = []
    for f in sorted(stage1, key=lambda r: r.researcher_id):
        if best - f.merit_pct <= threshold:
            findings.append(BiasFinding(
                competition_id=comp_id,
                researcher_id=f.researcher_id,
                kind=BiasKind.NEGATIVE,
                level=f.merit_pct - (worst_winner + threshold),
                triggers=("N-i", "N-ii", "N-iii"),
            ))
    return findings


def detect_positive(
    comp_id: str,
    features,
    sds_median_fss: float,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[BiasFinding]:
    """Winners who beat a decisively stronger field or sit below the median.

    Either condition suffices. The level is always measured against the best
    non-winner and may be negative when only the median condition holds.
    """
    winners, non_winners = _competition_rows(features, comp_id)
    if not winners or not non_winners:
        return []
    best_loser = max(f.merit_pct for f in non_winners)
    findings = []
    for f in sorted(winners, key=lambda r: r.researcher_id):
        triggers = []
        if best_loser - f.merit_pct >= threshold:
            triggers.append("P-i")
        if f.merit_raw < sds_median_fss:
            triggers.append("P-ii")
        if triggers:
            findings.append(BiasFinding(
                competition_id=comp_id,
                researcher_id=f.researcher_id,
                kind=BiasKind.POSITIVE,
                level=best_loser - (f.merit_pct + threshold),
                triggers=tuple(triggers),
            ))
    return findings


def detect_all(
    features,
    corpus: Corpus,
    medians: dict[str, float],
    retained: list[str],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[BiasFinding]:
    """Run both detectors over the retained competitions, in fixed order.

    ``medians`` maps SDS id to the cohort median raw score; competitions
    whose SDS has no median (empty cohort) are skipped. ``retained`` is the
    audit set of ``filter_eligible``.
    """
    by_comp: dict[str, list[ApplicantFeatures]] = {}
    for f in features:
        by_comp.setdefault(f.competition_id, []).append(f)
    findings: list[BiasFinding] = []
    for comp_id in sorted(retained):
        comp = corpus.competitions[comp_id]
        median = medians.get(comp.sds_id)
        if median is None:
            continue
        rows = by_comp.get(comp_id, [])
        findings.extend(detect_negative(comp_id, rows, median, threshold))
        findings.extend(detect_positive(comp_id, rows, median, threshold))
    return findings


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

@dataclass
class GenderCell:
    n_flagged: int = 0
    n_applicants: int = 0
    share: float | None = None
    level_mean: float | None = None
    level_sd: float | None = None   # None when fewer than 2 levels
    level_max: float | None = None
    corr_r: float | None = None
    corr_p: float | None = None
    corr_p_adj: float | None = None


@dataclass
class UdaRow:
    uda: str
    female: GenderCell = field(default_factory=GenderCell)
    male: GenderCell = field(default_factory=GenderCell)
    incidence_test: TestResult | None = None
    level_test: TestResult | None = None


@dataclass
class BiasTable:
    kind: BiasKind
    threshold: float
    rows: list[UdaRow]
    overall: UdaRow
    n_competitions: int
    n_findings: int


def _mean(xs) -> float:
    return sum(xs) / len(xs)


def _sd(xs) -> float | None:
    n = len(xs)
    if n < 2:
        return None
    m = _mean(xs)
    return (sum((x - m) ** 2 for x in xs) / (n - 1)) ** 0.5


def _fill_levels(cell: GenderCell, levels) -> None:
    if levels:
        cell.level_mean = _mean(levels)
        cell.level_sd = _sd(levels)
        cell.level_max = max(levels)


def _fill_correlation(cell: GenderCell, rows) -> None:
    try:
        res = pearson([r.merit_pct for r in rows], [r.won for r in rows])
    except DegenerateInput:
        return
    cell.corr_r = res.r
    cell.corr_p = res.p_two_sided


def aggregate_bias(
    findings,
    features,
    corpus: Corpus,
    kind: BiasKind,
    threshold: float = DEFAULT_THRESHOLD,
    welch: bool = False,
) -> BiasTable:
    """Fold findings of one kind into per-discipline, per-gender cells.

    ``features`` must be the audit-set rows (retained competitions only);
    applicant counts are applicant-competition pairs, so a researcher who
    entered several competitions counts once per entry. Incidence and level
    differences between genders get two-sample t-tests, Bonferroni-adjusted
    across the per-UDA family; correlation p-values are adjusted across all
    computable per-UDA gender cells.
    """
    findings = [f for f in findings if f.kind == kind]
    level_of = {(f.competition_id, f.researcher_id): f.level for f in findings}

    def uda_of(comp_id: str) -> str:
        return corpus.taxonomy[corpus.competitions[comp_id].sds_id].uda_id

    by_uda: dict[str, list[ApplicantFeatures]] = {}
    for row in features:
        by_uda.setdefault(uda_of(row.competition_id), []).append(row)

    def build_row(uda: str, rows) -> UdaRow:
        row = UdaRow(uda=uda)
        incidence, levels = [], []  # female then male
        for cell, subset in ((row.female, [r for r in rows if r.female]),
                             (row.male, [r for r in rows if not r.female])):
            keys = [(r.competition_id, r.researcher_id) for r in subset]
            flags = [key in level_of for key in keys]
            incidence.append([float(flag) for flag in flags])
            levels.append([level_of[key] for key in keys if key in level_of])
            cell.n_applicants = len(subset)
            cell.n_flagged = sum(flags)
            if cell.n_applicants:
                cell.share = cell.n_flagged / cell.n_applicants
            _fill_levels(cell, levels[-1])
            if len(subset) >= 3:
                _fill_correlation(cell, subset)
        try:
            row.incidence_test = two_sample_t(*incidence, pooled=not welch)
        except DegenerateInput:
            row.incidence_test = None
        try:
            row.level_test = two_sample_t(*levels, pooled=not welch)
        except DegenerateInput:
            row.level_test = None
        return row

    rows = [build_row(uda, by_uda[uda]) for uda in sorted(by_uda)]
    overall = build_row("all", list(features))

    # family-wise adjustment over the per-UDA tests that were computable
    for pick in (lambda r: r.incidence_test, lambda r: r.level_test):
        tested = [pick(r) for r in rows if pick(r) is not None]
        m = len(tested)
        for t in tested:
            t.p_bonferroni = bonferroni([t.p_two_sided], m)[0]
    corr_cells = [cell for r in rows for cell in (r.female, r.male)
                  if cell.corr_p is not None]
    m = len(corr_cells)
    for cell in corr_cells:
        cell.corr_p_adj = bonferroni([cell.corr_p], m)[0]

    return BiasTable(
        kind=kind,
        threshold=threshold,
        rows=rows,
        overall=overall,
        n_competitions=len({r.competition_id for r in features}),
        n_findings=len(findings),
    )


def write_findings(findings, path: str | Path) -> None:
    ordered = sorted(findings, key=lambda f: (f.competition_id, f.kind.value,
                                              f.researcher_id))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["competition_id", "researcher_id", "kind", "level",
                         "triggers"])
        for f in ordered:
            writer.writerow([f.competition_id, f.researcher_id, f.kind.value,
                             repr(f.level), ";".join(f.triggers)])
