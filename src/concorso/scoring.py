"""Field-normalized productivity scoring.

A researcher's yearly productivity is the sum, over their publications in
the observation window, of citations normalized by the mean citations of
cited publications from the same year and subject category, weighted by the
researcher's fractional contribution to the byline, divided by the career
years falling inside the window. Scores are then ranked 0-100 within each
SDS and academic-rank cohort (worst to best).

Baselines come from the loaded corpus itself, not a national reference, and
percentile cohorts contain only the researchers the corpus happens to hold.
Both limitations are recorded in the score metadata.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Convention, Corpus, Rank, Researcher
from .errors import InvalidByline, NoCareerOverlap

# Weights under the contribution-ordered convention.
FIRST_LAST_SAME_UNI = 0.40   # first and last author, same university
MIDDLE_SHARE_SAME_UNI = 0.20
FIRST_LAST_DIFF_UNI = 0.30   # first and last author, different universities
SECOND_SLOT_DIFF_UNI = 0.15
OTHERS_SHARE_DIFF_UNI = 0.10


@dataclass
class ProductivityScore:
    researcher_id: str
    fss: float
    t: int
    n_pubs: int
    percentile: float | None = None


def compute_baselines(corpus: Corpus) -> dict[tuple[int, str], float]:
    """Mean citations per (year, subject category) cell, cited publications
    only, over the corpus's productivity window.

    Zero-cited publications neither enter the mean nor create a cell, so
    every stored value is positive and cells with no cited publication are
    simply absent.
    """
    window = corpus.productivity_window
    sums: dict[tuple[int, str], int] = {}
    counts: dict[tuple[int, str], int] = {}
    for pub in corpus.publications.values():
        if not window[0] <= pub.year <= window[1] or pub.citations < 1:
            continue
        key = (pub.year, pub.subject_category_id)
        sums[key] = sums.get(key, 0) + pub.citations
        counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


def _effective_university(entry, focal_university: str | None) -> str | None:
    if entry.university is not None:
        return entry.university
    return focal_university


def publication_weights(
    byline,
    convention: Convention,
    focal_university: str | None = None,
) -> list[float]:
    """Fractional contribution of every byline position; sums to 1.

    Alphabetical-convention fields split credit evenly. Contribution-ordered
    fields weight by position: first and last get 0.40 each when they share
    a university (middle authors split 0.20), or 0.30 each otherwise with
    0.15 for the second and second-to-last and 0.10 split among the rest.
    Short bylines where the positional slots overlap or leave nobody to take
    the residual share collapse it onto the inner slots (3 authors →
    0.30/0.40/0.30, 4 authors → 0.30/0.20/0.20/0.30).
    Byline entries with no recorded affiliation count as ``focal_university``
    when one is given and as extra-mural otherwise.
    """
    n = len(byline)
    if n == 0:
        raise InvalidByline("empty byline")
    if convention is Convention.ALPHABETICAL:
        return [1.0 / n] * n
    if n == 1:
        return [1.0]
    if n == 2:
        return [0.5, 0.5]

    first_uni = _effective_university(byline[0], focal_university)
    last_uni = _effective_university(byline[-1], focal_university)
    same = first_uni is not None and last_uni is not None and first_uni == last_uni

    if same:
        middle = (1.0 - 2 * FIRST_LAST_SAME_UNI) / (n - 2)
        weights = [middle] * n
        weights[0] = FIRST_LAST_SAME_UNI
        weights[-1] = FIRST_LAST_SAME_UNI
        return weights

    weights = [0.0] * n
    weights[0] = FIRST_LAST_DIFF_UNI
    weights[-1] = FIRST_LAST_DIFF_UNI
    weights[1] += SECOND_SLOT_DIFF_UNI
    weights[n - 2] += SECOND_SLOT_DIFF_UNI
    others = range(2, n - 2)
    if others:
        share = OTHERS_SHARE_DIFF_UNI / len(others)
        for i in others:
            weights[i] += share
    else:
        # nobody between the inner slots: hand them the residual share
        inner = sorted({1, n - 2})
        for i in inner:
            weights[i] += OTHERS_SHARE_DIFF_UNI / len(inner)
    return weights


def fractional_contribution(
    byline,
    position: int,
    convention: Convention,
    focal_university: str | None = None,
) -> float:
    if not 0 <= position < len(byline):
        raise InvalidByline(f"position {position} outside byline of size {len(byline)}")
    return publication_weights(byline, convention, focal_university)[position]


def compute_fss(
    researcher: Researcher,
    corpus: Corpus,
    baselines: dict[tuple[int, str], float],
) -> ProductivityScore:
    """Average yearly normalized fractional output inside the corpus's
    productivity window.

    Publications with zero citations, and publications whose baseline cell
    is absent, contribute nothing. Percentile is left unset; cohort ranking
    happens in ``score_corpus``.
    """
    window = corpus.productivity_window
    t = researcher.career_years_in(window)
    if t == 0:
        raise NoCareerOverlap(
            f"researcher {researcher.id} has no career years in {window[0]}-{window[1]}")
    convention = corpus.convention_for(researcher.sds_id)
    total = 0.0
    n_pubs = 0
    for pub in corpus.publications_by_author(researcher.id):
        if not window[0] <= pub.year <= window[1]:
            continue
        n_pubs += 1
        if pub.citations < 1:
            continue
        baseline = baselines.get((pub.year, pub.subject_category_id))
        if baseline is None:
            continue
        position = pub.position_of(researcher.id)
        weight = fractional_contribution(pub.byline, position, convention)
        total += (pub.citations / baseline) * weight
    return ProductivityScore(researcher.id, total / t, t, n_pubs)


def percentile_rank(values) -> list[float]:
    """Ascending average-rank percentiles on a 0-100 scale, worst to best.

    Ties share their average rank; a single-element cohort maps to 100.
    """
    n = len(values)
    if n == 0:
        return []
    if n == 1:
        return [100.0]
    order = sorted(range(n), key=lambda i: values[i])
    percentiles = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg_rank = (i + j) / 2 + 1  # 1-based mean rank of the tied run
        for k in range(i, j + 1):
            percentiles[order[k]] = 100.0 * (avg_rank - 1) / (n - 1)
        i = j + 1
    return percentiles


@dataclass
class ScoreTable:
    scores: dict[str, ProductivityScore] = field(default_factory=dict)
    window: tuple[int, int] = (0, 0)
    skipped: list[str] = field(default_factory=list)  # no career years in window
    n_baseline_cells: int = 0

    def percentile_of(self, researcher_id: str) -> float | None:
        score = self.scores.get(researcher_id)
        return None if score is None else score.percentile

    def fss_of(self, researcher_id: str) -> float | None:
        score = self.scores.get(researcher_id)
        return None if score is None else score.fss


def score_corpus(corpus: Corpus) -> ScoreTable:
    """Score every roster researcher and rank within SDS × rank cohorts."""
    baselines = compute_baselines(corpus)
    table = ScoreTable(window=corpus.productivity_window,
                       n_baseline_cells=len(baselines))

    cohorts: dict[tuple[str, str], list[str]] = {}
    for rid in sorted(corpus.researchers):
        researcher = corpus.researchers[rid]
        try:
            score = compute_fss(researcher, corpus, baselines)
        except NoCareerOverlap:
            table.skipped.append(rid)
            continue
        table.scores[rid] = score
        cohorts.setdefault((researcher.sds_id, researcher.rank.value), []).append(rid)

    for members in cohorts.values():
        ranks = percentile_rank([table.scores[rid].fss for rid in members])
        for rid, pct in zip(members, ranks):
            table.scores[rid].percentile = pct
    return table


def median_fss_by_sds(table: ScoreTable, corpus: Corpus) -> dict[str, float]:
    """Median raw score per SDS over the assistant-professor cohort."""
    by_sds: dict[str, list[float]] = {}
    for rid, score in table.scores.items():
        researcher = corpus.researchers[rid]
        if researcher.rank is Rank.ASSISTANT:
            by_sds.setdefault(researcher.sds_id, []).append(score.fss)
    medians = {}
    for sds, values in by_sds.items():
        values.sort()
        n = len(values)
        mid = n // 2
        medians[sds] = values[mid] if n % 2 else (values[mid - 1] + values[mid]) / 2
    return medians


def write_scores(table: ScoreTable, corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["researcher_id", "sds", "rank", "t", "n_pubs", "fss", "percentile"])
        for rid in sorted(table.scores):
            score = table.scores[rid]
            researcher = corpus.researchers[rid]
            writer.writerow([
                rid, researcher.sds_id, researcher.rank.value,
                score.t, score.n_pubs, repr(score.fss), repr(score.percentile),
            ])


def score_meta(table: ScoreTable) -> dict:
    """The JSON twin of a score table (``score_meta.json``)."""
    return {
        "window": list(table.window),
        "n_scored": len(table.scores),
        "n_skipped_no_career_overlap": len(table.skipped),
        "skipped": table.skipped,
        "n_baseline_cells": table.n_baseline_cells,
        "notes": [
            "citation baselines are computed from this corpus, not a national reference",
            "percentile cohorts contain only the researchers present in this corpus",
        ],
    }

