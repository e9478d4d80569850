"""Per-applicant regressors and eligibility filters for competition outcomes.

For every eligible applicant of a competition the extractor produces the
outcome flag plus the connection and similarity signals used by the bias
audit and the outcome regression: productivity percentile, a surname match
against full professors of the hiring university, career-year co-location
with the committee president and with the other members, coauthorship with
the president and members inside the collaboration window, and gender
matches with the president and the committee majority. Co-location (CP/CE)
counts a year only when both were at the same university in the same SDS.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Competition, Corpus, Gender, Rank
from .errors import ConfigError, MissingScore
from .scoring import ScoreTable
from .stats import DesignMatrix

MIN_CAREER_YEARS = 3  # applicants hired more recently are excluded


@dataclass
class ApplicantFeatures:
    competition_id: str
    researcher_id: str
    won: int                      # E
    female: int                   # G
    merit_pct: float              # FSS, 0-100 percentile
    surname_match: int            # NE
    years_with_president: int     # CP
    years_with_members: int       # CE
    president_coauth_share: float  # PP, 0-100
    coauthoring_members: int      # PE
    same_gender_president: int    # SP
    same_gender_majority: int     # SE
    merit_raw: float = 0.0        # raw score behind merit_pct, for median tests


# The regressors by code, in design order, with the ApplicantFeatures field
# each code reads. The design, the features.csv columns after E, and the
# per-gender report tables all follow this order.
FEATURES = {
    "G": "female",
    "FSS": "merit_pct",
    "NE": "surname_match",
    "CP": "years_with_president",
    "CE": "years_with_members",
    "PP": "president_coauth_share",
    "PE": "coauthoring_members",
    "SP": "same_gender_president",
    "SE": "same_gender_majority",
}
EXPORT_COLUMNS = ["competition_id", "researcher_id", "E", *FEATURES]


def normalize_family_name(name: str) -> str:
    return " ".join(name.split()).casefold()


@dataclass
class EligibilityResult:
    eligible: dict[str, list[str]]      # competition id → eligible applicant ids
    retained_competitions: list[str]    # audit set: >=1 winner and >=1 non-winner


def _is_eligible(corpus: Corpus, comp: Competition, applicant_id: str) -> bool:
    researcher = corpus.researchers.get(applicant_id)
    if researcher is None or researcher.rank is not Rank.ASSISTANT:
        return False
    return comp.year - researcher.career_start_year >= MIN_CAREER_YEARS


def filter_eligible(corpus: Corpus) -> EligibilityResult:
    """Keep incumbent assistant professors with enough seniority.

    A competition stays in the audit set only when the eligible applicants
    still include at least one winner and one non-winner; competitions that
    fail this carry no within-competition comparison.
    """
    eligible: dict[str, list[str]] = {}
    retained: list[str] = []
    for comp_id in sorted(corpus.competitions):
        comp = corpus.competitions[comp_id]
        kept = [a for a in comp.applicants if _is_eligible(corpus, comp, a)]
        eligible[comp_id] = kept
        winner_set = set(comp.winners)
        n_winners = sum(1 for a in kept if a in winner_set)
        if n_winners >= 1 and len(kept) - n_winners >= 1:
            retained.append(comp_id)
    return EligibilityResult(eligible=eligible, retained_competitions=retained)


class _Index:
    """Lookups shared by the competitions of one extraction call: surnames of
    full professors by university (one pass over researchers per year), and
    per-researcher affiliation timelines and publication ids in the corpus's
    collaboration window.
    """

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        self.lo, self.hi = corpus.collaboration_window
        self._names: dict[int, dict[str, set[str]]] = {}
        self._timelines: dict[str, tuple[tuple[str, str] | None, ...]] = {}
        self._pubs: dict[str, set[str]] = {}

    def full_professor_names(self, university: str, year: int) -> set[str]:
        by_university = self._names.get(year)
        if by_university is None:
            by_university = self._names[year] = {}
            for researcher in self.corpus.researchers.values():
                if researcher.rank is not Rank.FULL:
                    continue
                affiliation = researcher.affiliation_in(year)
                if affiliation is not None:
                    by_university.setdefault(affiliation[0], set()).add(
                        normalize_family_name(researcher.family_name))
        return by_university.get(university, set())

    def timeline(self, researcher_id: str) -> tuple[tuple[str, str] | None, ...]:
        """(university, sds) per window year, None outside the career."""
        line = self._timelines.get(researcher_id)
        if line is None:
            line = self._timelines[researcher_id] = self.corpus.researchers[
                researcher_id].timeline(self.lo, self.hi)
        return line

    def window_pub_ids(self, researcher_id: str) -> set[str]:
        pubs = self._pubs.get(researcher_id)
        if pubs is None:
            pubs = self._pubs[researcher_id] = {
                p.id for p in self.corpus.publications_by_author(researcher_id)
                if self.lo <= p.year <= self.hi}
        return pubs


def _shared_years(a, b) -> int:
    """Window years two timelines spent at the same university and SDS."""
    return sum(1 for fa, fb in zip(a, b) if fa is not None and fa == fb)


def extract_features(
    comp: Competition,
    corpus: Corpus,
    scores: ScoreTable,
) -> list[ApplicantFeatures]:
    """Feature rows for one competition's eligible applicants, sorted by id."""
    eligible = [a for a in comp.applicants if _is_eligible(corpus, comp, a)]
    return _competition_rows(comp, _Index(corpus), scores, eligible)


def _competition_rows(comp: Competition, index: _Index, scores: ScoreTable,
                      eligible: list[str]) -> list[ApplicantFeatures]:
    corpus = index.corpus
    local_names = index.full_professor_names(comp.university_id, comp.year)
    president = corpus.researchers[comp.president]
    members = [corpus.researchers[m] for m in comp.members]
    president_line = index.timeline(comp.president)
    member_lines = [index.timeline(m) for m in comp.members]
    president_pubs = index.window_pub_ids(comp.president)
    member_pubs = [index.window_pub_ids(m) for m in comp.members]
    committee_genders = [president.gender] + [m.gender for m in members]
    winner_set = set(comp.winners)

    rows = []
    for rid in sorted(set(eligible)):
        applicant = corpus.researchers[rid]
        percentile = scores.percentile_of(rid)
        if percentile is None:
            raise MissingScore(f"applicant {rid} has no productivity score")
        applicant_pubs = index.window_pub_ids(rid)
        line = index.timeline(rid)

        cp = _shared_years(line, president_line)
        ce = sum(_shared_years(line, m) for m in member_lines)
        if president_pubs:
            pp = 100.0 * len(president_pubs & applicant_pubs) / len(president_pubs)
        else:
            pp = 0.0
        pe = sum(1 for pubs in member_pubs if pubs & applicant_pubs)
        same_gender = sum(1 for g in committee_genders if g == applicant.gender)

        rows.append(ApplicantFeatures(
            competition_id=comp.id,
            researcher_id=rid,
            won=1 if rid in winner_set else 0,
            female=1 if applicant.gender is Gender.FEMALE else 0,
            merit_pct=percentile,
            surname_match=1 if normalize_family_name(applicant.family_name)
            in local_names else 0,
            years_with_president=cp,
            years_with_members=ce,
            president_coauth_share=pp,
            coauthoring_members=pe,
            same_gender_president=1 if applicant.gender == president.gender else 0,
            same_gender_majority=1 if same_gender >= 3 else 0,
            merit_raw=scores.fss_of(rid),
        ))
    return rows


def extract_all(
    corpus: Corpus,
    scores: ScoreTable,
    eligibility: EligibilityResult | None = None,
) -> list[ApplicantFeatures]:
    """Features for every competition's eligible applicants, in fixed order."""
    if eligibility is None:
        eligibility = filter_eligible(corpus)
    index = _Index(corpus)
    rows = []
    for comp_id in sorted(corpus.competitions):
        rows.extend(_competition_rows(
            corpus.competitions[comp_id], index, scores,
            eligibility.eligible[comp_id]))
    return rows


def by_gender(rows) -> tuple[tuple[str, list], tuple[str, list]]:
    """The rows of female and of male applicants, as ``(("female", rows),
    ("male", rows))``: the one gender split behind every per-gender table.
    """
    return (("female", [r for r in rows if r.female]),
            ("male", [r for r in rows if not r.female]))


def build_design(rows, base_columns=None, interactions: bool = True) -> DesignMatrix:
    """Regression design from feature rows: intercept, base regressors, and
    (optionally) the interaction of each non-gender regressor with gender.
    Rows cluster by competition.
    """
    if base_columns is None:
        base_columns = list(FEATURES)
    unknown = [c for c in base_columns if c not in FEATURES]
    if unknown:
        raise ConfigError(f"unknown design columns: {unknown}")
    if interactions and "G" not in base_columns:
        raise ConfigError("interactions require the gender column")
    n = len(rows)
    values = {c: np.array([getattr(r, FEATURES[c]) for r in rows], dtype=float)
              for c in base_columns}
    names = ["const"]
    columns = [np.ones(n)]
    if interactions:
        g = values["G"]
        names.append("G")
        columns.append(g)
        for c in base_columns:
            if c == "G":
                continue
            names.extend([c, f"G*{c}"])
            columns.extend([values[c], g * values[c]])
    else:
        for c in base_columns:
            names.append(c)
            columns.append(values[c])
    return DesignMatrix(
        X=np.column_stack(columns) if n else np.empty((0, len(names))),
        y=np.array([r.won for r in rows], dtype=float),
        clusters=np.array([r.competition_id for r in rows]),
        columns=names,
    )


def write_features(rows, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(EXPORT_COLUMNS)
        for r in rows:
            # csv writes a float as its repr
            writer.writerow([r.competition_id, r.researcher_id, r.won,
                             *(getattr(r, attr) for attr in FEATURES.values())])
