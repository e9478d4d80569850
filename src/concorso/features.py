"""Per-applicant regressors for competition outcomes, and the eligibility rule.

An applicant is eligible when they are an assistant professor hired at least
``MIN_CAREER_YEARS`` before the competition; ``filter_eligible`` maps each
competition to its eligible applicants, and ``extract_all`` gives a row to
each of them. ``extract_features`` gives one competition's rows, as
``extract_all`` does for a corpus that holds that competition alone. Which
competitions a bias audit compares is read from the rows and the cohort
medians, by ``bias.audit_set``.

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

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .corpus import Competition, Corpus, Gender, Rank, write_table
from .errors import ConfigError, MissingScore
from .scoring import ScoreTable
from .stats import DesignMatrix

MIN_CAREER_YEARS = 3  # applicants hired more recently are excluded


@dataclass(slots=True)
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
    merit_raw: float              # raw score behind merit_pct, for median tests


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


def filter_eligible(corpus: Corpus) -> dict[str, list[str]]:
    """Each competition's eligible applicants in application order, by
    competition id: incumbent assistant professors with at least
    ``MIN_CAREER_YEARS`` of seniority."""
    return {comp_id: [a for a in comp.applicants
                      if (r := corpus.researchers.get(a)) is not None
                      and r.rank is Rank.ASSISTANT
                      and comp.year - r.career_start_year >= MIN_CAREER_YEARS]
            for comp_id, comp in sorted(corpus.competitions.items())}


class _Index:
    """Tables shared by the competitions of one extraction call, built once:
    ``places``, researcher rows (``row`` maps an id to its row) by window
    years, each cell 0 outside the career or else a code per (university,
    SDS), so two researchers share a place in a year when their cells are
    equal and nonzero; ``surnames``, the normalized family names of full
    professors by (university, year) for the years of the corpus's
    competitions; and ``pub_ids``, each roster researcher's window
    publication ids in corpus order without repeats, as tuples (a fraction
    of a set's memory; a competition builds sets for its committee only).
    """

    def __init__(self, corpus: Corpus) -> None:
        self.corpus = corpus
        lo, hi = corpus.collaboration_window
        codes: dict[tuple[str, str] | None, int] = {None: 0}
        self.row = {rid: i for i, rid in enumerate(corpus.researchers)}
        self.places = np.array(
            [[codes.setdefault(place, len(codes)) for place in r.timeline(lo, hi)]
             for r in corpus.researchers.values()], dtype=np.int64)
        self.surnames: dict[tuple[str, int], set[str]] = {}
        full = [r for r in corpus.researchers.values() if r.rank is Rank.FULL]
        for year in {comp.year for comp in corpus.competitions.values()}:
            for r in full:
                affiliation = r.affiliation_in(year)
                if affiliation is not None:
                    self.surnames.setdefault((affiliation[0], year), set()).add(
                        normalize_family_name(r.family_name))
        pub_ids: dict[str, list[str]] = {rid: [] for rid in corpus.researchers}
        for pub in corpus.publications.values():
            if lo <= pub.year <= hi:
                for entry in pub.byline:
                    ids = pub_ids.get(entry.author)
                    # an author listed twice: the publication is already their last id
                    if ids is not None and (not ids or ids[-1] != pub.id):
                        ids.append(pub.id)
        self.pub_ids = {rid: tuple(ids) for rid, ids in pub_ids.items()}


def extract_features(
    comp: Competition,
    corpus: Corpus,
    scores: ScoreTable,
) -> list[ApplicantFeatures]:
    """Feature rows for one competition's eligible applicants, sorted by id:
    the rows ``extract_all`` gives for ``corpus`` holding ``comp`` alone.
    Each call builds the index of the whole corpus, so a caller that needs
    many competitions calls ``extract_all`` once instead."""
    return extract_all(replace(corpus, competitions={comp.id: comp}), scores)


def _competition_rows(comp: Competition, index: _Index, scores: ScoreTable,
                      eligible: list[str]) -> list[ApplicantFeatures]:
    corpus = index.corpus
    local_names = index.surnames.get((comp.university_id, comp.year), ())
    president = corpus.researchers[comp.president]
    committee_genders = [corpus.researchers[c].gender for c in comp.committee]
    president_pubs = set(index.pub_ids[comp.president])
    member_pubs = [set(index.pub_ids[m]) for m in comp.members]
    winner_set = set(comp.winners)
    applicants = sorted(set(eligible))
    # years each applicant shared a place with each committee member,
    # president first: CP is the first count, CE the sum of the others
    committee = index.places[[index.row[c] for c in comp.committee]]
    places = index.places[[index.row[rid] for rid in applicants]][:, None, :]
    shared_years = ((places == committee) & (places > 0)).sum(axis=2).tolist()

    rows = []
    for rid, (cp, *member_years) in zip(applicants, shared_years):
        applicant = corpus.researchers[rid]
        score = scores.scores.get(rid)
        if score is None:
            raise MissingScore(f"applicant {rid} has no productivity score")
        applicant_pubs = index.pub_ids[rid]
        if president_pubs:
            shared = sum(1 for pid in applicant_pubs if pid in president_pubs)
            pp = 100.0 * shared / len(president_pubs)
        else:
            pp = 0.0
        pe = sum(1 for pubs in member_pubs if not pubs.isdisjoint(applicant_pubs))
        same_gender = sum(1 for g in committee_genders if g == applicant.gender)

        rows.append(ApplicantFeatures(
            competition_id=comp.id,
            researcher_id=rid,
            won=1 if rid in winner_set else 0,
            female=1 if applicant.gender is Gender.FEMALE else 0,
            merit_pct=score.percentile,
            surname_match=1 if normalize_family_name(applicant.family_name)
            in local_names else 0,
            years_with_president=cp,
            years_with_members=sum(member_years),
            president_coauth_share=pp,
            coauthoring_members=pe,
            same_gender_president=1 if applicant.gender == president.gender else 0,
            same_gender_majority=1 if same_gender >= 3 else 0,
            merit_raw=score.fss,
        ))
    return rows


def extract_all(
    corpus: Corpus,
    scores: ScoreTable,
    eligible: dict[str, list[str]] | None = None,
) -> list[ApplicantFeatures]:
    """Features for every competition's eligible applicants, in fixed order.
    ``eligible`` is the map of ``filter_eligible``, computed when not given.
    """
    if eligible is None:
        eligible = filter_eligible(corpus)
    index = _Index(corpus)
    rows = []
    for comp_id in sorted(corpus.competitions):
        rows.extend(_competition_rows(corpus.competitions[comp_id], index,
                                      scores, eligible[comp_id]))
    return rows


def by_competition(rows) -> dict[str, list[ApplicantFeatures]]:
    """Each competition's rows, in row order, by competition id."""
    grouped: dict[str, list[ApplicantFeatures]] = {}
    for r in rows:
        grouped.setdefault(r.competition_id, []).append(r)
    return grouped


def build_design(rows, base_columns=None, interactions: bool = True) -> DesignMatrix:
    """Regression design from feature rows: intercept, base regressors, and
    (optionally) the interaction of each non-gender regressor with gender.
    Rows cluster by competition. The one read of the rows into columns: the
    report tables read the fit's design."""
    if base_columns is None:
        base_columns = list(FEATURES)
    unknown = [c for c in base_columns if c not in FEATURES]
    if unknown:
        raise ConfigError(f"unknown design columns: {unknown}")
    if interactions and "G" not in base_columns:
        raise ConfigError("interactions require the gender column")
    n = len(rows)
    values = {code: np.array([getattr(r, attr) for r in rows], dtype=float)
              for code, attr in {"E": "won", **FEATURES}.items()}
    if interactions:
        names = ["const", "G", *(name for c in base_columns if c != "G"
                                 for name in (c, f"G*{c}"))]
    else:
        names = ["const", *base_columns]
    values["const"] = np.ones(n)
    columns = [values["G"] * values[name[2:]] if name.startswith("G*")
               else values[name] for name in names]
    return DesignMatrix(
        X=np.column_stack(columns) if n else np.empty((0, len(names))),
        y=values["E"],
        clusters=np.array([r.competition_id for r in rows]),
        columns=names,
    )


def write_features(rows, path: str | Path) -> None:
    write_table(path, EXPORT_COLUMNS,
                ([r.competition_id, r.researcher_id, r.won,
                  *(getattr(r, attr) for attr in FEATURES.values())] for r in rows))
