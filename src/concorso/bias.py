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
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .corpus import Corpus
from .errors import DegenerateInput
from .features import ApplicantFeatures, by_gender
from .stats import TestResult, adjust_family, pearson, two_sample_t

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

def _mean(xs) -> float:
    return sum(xs) / len(xs)


def _sd(xs) -> float | None:
    n = len(xs)
    if n < 2:
        return None
    m = _mean(xs)
    return (sum((x - m) ** 2 for x in xs) / (n - 1)) ** 0.5


def _test_dict(test: TestResult | None) -> dict | None:
    if test is None:
        return None
    return {
        "statistic": test.statistic,
        "df": test.df,
        "p_one_sided": test.p_one_sided,
        "p_two_sided": test.p_two_sided,
        "p_bonferroni": None,  # set by the per-UDA family adjustment
    }


def _t_test(female, male, welch: bool) -> dict | None:
    try:
        return _test_dict(two_sample_t(female, male, pooled=not welch))
    except DegenerateInput:
        return None


def _correlation(rows) -> dict:
    """The merit-vs-outcome cell fields, which no bias kind changes."""
    corr = {"corr_r": None, "corr_p": None, "corr_p_adj": None}
    if len(rows) >= 3:
        try:
            res = pearson([r.merit_pct for r in rows], [r.won for r in rows])
            corr["corr_r"], corr["corr_p"] = res.r, res.p_two_sided
        except DegenerateInput:
            pass
    return corr


def _bias_twin(kind: BiasKind, findings, split, n_competitions: int,
               threshold: float, welch: bool) -> dict:
    level_of = {(f.competition_id, f.researcher_id): f.level for f in findings}
    rows = []
    for uda, cells in split:
        row = {"uda": uda}
        incidence, levels = [], []  # female then male
        for label, keys, corr in cells:
            flagged = [level_of[key] for key in keys if key in level_of]
            incidence.append([float(key in level_of) for key in keys])
            levels.append(flagged)
            row[label] = {
                "n_flagged": len(flagged),
                "n_applicants": len(keys),
                "share": len(flagged) / len(keys) if keys else None,
                "level_mean": _mean(flagged) if flagged else None,
                "level_sd": _sd(flagged),   # None when fewer than 2 levels
                "level_max": max(flagged) if flagged else None,
                **corr,
            }
        row["incidence_test"] = _t_test(*incidence, welch)
        row["level_test"] = _t_test(*levels, welch)
        rows.append(row)
    *rows, overall = rows
    n_incidence_tests = adjust_family([r["incidence_test"] for r in rows],
                                      "p_two_sided", "p_bonferroni")
    n_level_tests = adjust_family([r["level_test"] for r in rows],
                                  "p_two_sided", "p_bonferroni")
    return {
        "kind": kind.value,
        "threshold": threshold,
        "n_competitions": n_competitions,
        "n_findings": len(findings),
        "levels_p_i_only": False,  # levels cover every trigger
        "n_incidence_tests": n_incidence_tests,
        "n_level_tests": n_level_tests,
        "rows": rows,
        "overall": overall,
    }


def aggregate_bias(
    findings,
    features,
    corpus: Corpus,
    threshold: float = DEFAULT_THRESHOLD,
    welch: bool = False,
) -> dict[BiasKind, dict]:
    """Fold findings into per-discipline, per-gender tables, one per kind.

    Returns the JSON twin of each bias table (what ``render_bias_table``
    reads), keyed by ``BiasKind``. ``features`` must be the audit-set rows
    (retained competitions only); applicant counts are applicant-competition
    pairs, so a researcher who entered several competitions counts once per
    entry. The UDA grouping, the gender split and each cell's merit-vs-outcome
    correlation do not depend on the kind: they are computed once and shared
    by both twins, with correlation p-values adjusted across all computable
    per-UDA gender cells. Per kind, incidence and level differences between
    genders get two-sample t-tests, Bonferroni-adjusted across the per-UDA
    family.
    """
    def uda_of(comp_id: str) -> str:
        return corpus.taxonomy[corpus.competitions[comp_id].sds_id].uda_id

    by_uda: dict[str, list[ApplicantFeatures]] = {}
    for row in features:
        by_uda.setdefault(uda_of(row.competition_id), []).append(row)
    groups = [(uda, by_uda[uda]) for uda in sorted(by_uda)]
    groups.append(("all", list(features)))

    # per group: (uda, [(gender label, keys, correlation) per gender]), where
    # a key is an applicant's (competition_id, researcher_id)
    split = []
    for uda, rows in groups:
        cells = [(label, [(r.competition_id, r.researcher_id) for r in subset],
                  _correlation(subset))
                 for label, subset in by_gender(rows)]
        split.append((uda, cells))
    adjust_family((corr for _, cells in split[:-1] for _, _, corr in cells),
                  "corr_p", "corr_p_adj")

    n_competitions = len({r.competition_id for r in features})
    return {kind: _bias_twin(kind, [f for f in findings if f.kind == kind],
                             split, n_competitions, threshold, welch)
            for kind in BiasKind}


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
