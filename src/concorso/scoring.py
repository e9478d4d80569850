"""Field-normalized productivity scoring.

A researcher's yearly productivity is the sum, over their publications in
the observation window, of citations normalized by the mean citations of
cited publications from the same year and subject category, weighted by the
researcher's fractional contribution to the byline, divided by the career
years falling inside the window. The contribution is the weight of the
researcher's first byline position under the byline convention of their own
field. ``score_corpus`` builds every researcher's sum in one credit pass over
the window's publications. Scores are then ranked 0-100 within each SDS and
academic-rank cohort (worst to best).

Baselines come from the loaded corpus itself, not a national reference, and
percentile cohorts contain only the researchers the corpus happens to hold.
Both limitations are recorded in the score metadata.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Convention, Corpus, Rank, write_table
from .errors import InvalidByline

# Weights under the contribution-ordered convention.
FIRST_LAST_SAME_UNI = 0.40   # first and last author, same university
FIRST_LAST_DIFF_UNI = 0.30   # first and last author, different universities
SECOND_SLOT_DIFF_UNI = 0.15
OTHERS_SHARE_DIFF_UNI = 0.10


@dataclass(slots=True)
class ProductivityScore:
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

    first_uni, last_uni = (focal_university if e.university is None else e.university
                           for e in (byline[0], byline[-1]))
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


def percentile_rank(values) -> list[float]:
    """Ascending average-rank percentiles on a 0-100 scale, worst to best.

    Ties share their average rank; a single-element cohort maps to 100.
    """
    n = len(values)
    if n == 1:
        return [100.0]
    # each value's first and last 0-based position in sorted order; equal
    # values (0.0 and -0.0 too) share one dict key, so one tie run
    first: dict[float, int] = {}
    last: dict[float, int] = {}
    for position, value in enumerate(sorted(values)):
        first.setdefault(value, position)
        last[value] = position
    return [100.0 * ((first[v] + last[v]) / 2) / (n - 1) for v in values]


@dataclass
class ScoreTable:
    scores: dict[str, ProductivityScore] = field(default_factory=dict)
    window: tuple[int, int] = (0, 0)
    skipped: list[str] = field(default_factory=list)  # no career years in window
    n_baseline_cells: int = 0


def score_corpus(corpus: Corpus) -> ScoreTable:
    """Score every roster researcher and rank within SDS × rank cohorts.

    One credit pass over the publications in the productivity window, in
    id order, so no score depends on the order of the input lines: each
    roster author of a publication is counted once, at their first byline
    position, and a cited publication adds its normalized citations times
    that position's weight under the byline convention of the author's own
    field. Zero-cited publications count towards ``n_pubs`` only.
    Researchers with no career years in the window are listed in
    ``skipped``; every other total is divided by those years.
    """
    window = corpus.productivity_window
    researchers = corpus.researchers
    baselines = compute_baselines(corpus)
    totals = dict.fromkeys(researchers, 0.0)
    n_pubs = dict.fromkeys(researchers, 0)
    for pid in sorted(corpus.publications):
        pub = corpus.publications[pid]
        if not window[0] <= pub.year <= window[1]:
            continue
        first: dict[str | None, int] = {}
        for position, entry in enumerate(pub.byline):
            first.setdefault(entry.author, position)
        weights: dict[Convention, list[float]] = {}
        for rid, position in first.items():
            if rid not in totals:
                continue  # unknown or external author
            n_pubs[rid] += 1
            if pub.citations < 1:
                continue
            convention = corpus.taxonomy[researchers[rid].sds_id].convention
            shares = weights.get(convention)
            if shares is None:
                shares = weights[convention] = publication_weights(pub.byline, convention)
            baseline = baselines[pub.year, pub.subject_category_id]
            totals[rid] += (pub.citations / baseline) * shares[position]

    table = ScoreTable(window=window, n_baseline_cells=len(baselines))
    cohorts: dict[tuple[str, str], list[str]] = {}
    for rid in sorted(researchers):
        researcher = researchers[rid]
        t = researcher.career_years_in(window)
        if t == 0:
            table.skipped.append(rid)
            continue
        table.scores[rid] = ProductivityScore(totals[rid] / t, t, n_pubs[rid])
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
    return {sds: statistics.median(values) for sds, values in by_sds.items()}


def write_scores(table: ScoreTable, corpus: Corpus, path: str | Path) -> None:
    write_table(path, ["researcher_id", "sds", "rank", "t", "n_pubs", "fss", "percentile"],
                ([rid, corpus.researchers[rid].sds_id, corpus.researchers[rid].rank.value,
                  score.t, score.n_pubs, score.fss, score.percentile]
                 for rid, score in sorted(table.scores.items())))


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

