"""Seeded synthetic corpora with exact ground truth.

Generation is a single pass over one seeded generator in a fixed order
(universities, fields, researchers, publications, committees, applicants,
then selection noise), so identical configs produce byte-identical files.

Winner selection works in two phases: competitions are first materialized
with empty winner lists, the regular scoring and feature extraction run on
that provisional corpus, and each competition's winners are then the top
applicants by a latent score that mixes the merit percentile with the
connection features under configurable weights plus Gaussian noise. The
merit-only winner set, the selected set, and an injected flag (the two sets
differ) are recorded per competition as ground truth.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .corpus import (
    DEFAULT_COLLABORATION_WINDOW,
    DEFAULT_PRODUCTIVITY_WINDOW,
    BylineEntry,
    Competition,
    Convention,
    Corpus,
    CorpusPaths,
    Gender,
    Publication,
    Rank,
    Researcher,
    SdsRecord,
    write_corpus,
)
from .errors import InfeasibleConfig
# extract_features stays bound: perfbench/tracer.py counts its calls from here
from .features import MIN_CAREER_YEARS, extract_all, extract_features  # noqa: F401
from .scoring import score_corpus

GROUND_TRUTH_FILE = "ground_truth.jsonl"

PUBLICATION_INTENSITY = 1.2   # mean publications per career year
CITATION_MEAN = 4.0
CITATION_DISPERSION = 1.0     # gamma shape mixing the Poisson rate
CONTRIBUTION_SHARE = 0.5      # fraction of fields ordering by contribution
COAUTHOR_FULL_RATE = 0.35     # chance a publication adds local full professors
COAUTHOR_PEER_RATE = 0.30     # chance it adds a same-field colleague
COMPETITION_YEAR = 2008
# the latest career start that leaves an applicant eligible in the competition
LATEST_ELIGIBLE_START = COMPETITION_YEAR - MIN_CAREER_YEARS


@dataclass
class LatentWeights:
    """Mix of merit and connection channels in the selection score."""

    merit: float = 1.0   # weight on the 0-100 productivity percentile
    cp: float = 0.0      # years co-located with the president
    ce: float = 0.0      # years co-located with the other members
    pp: float = 0.0      # share of the president's publications coauthored
    ne: float = 0.0      # surname match at the hiring university
    sp: float = 0.0      # gender match with the president
    noise_sd: float = 0.0


@dataclass
class GenConfig:
    seed: int = 0
    n_sds: int = 5
    n_universities: int = 6
    researchers_per_sds: int = 40
    female_share: float = 0.45
    surname_pool: int = 40                 # smaller pool = more surname collisions
    weights: LatentWeights = field(default_factory=LatentWeights)
    competitions_per_sds: int = 6
    winners_per_competition: int = 1
    applicants_per_competition: int = 8
    mobility_rate: float = 0.10            # chance of one mid-window move
    productivity_window: tuple[int, int] = DEFAULT_PRODUCTIVITY_WINDOW
    collaboration_window: tuple[int, int] = DEFAULT_COLLABORATION_WINDOW


@dataclass
class CompetitionTruth:
    competition_id: str
    merit_winners: list[str]
    selected_winners: list[str]
    injected: bool
    latent: dict[str, float]


@dataclass
class GroundTruth:
    competitions: dict[str, CompetitionTruth] = field(default_factory=dict)

    @property
    def injected_fraction(self) -> float:
        if not self.competitions:
            return 0.0
        injected = sum(1 for t in self.competitions.values() if t.injected)
        return injected / len(self.competitions)


def _rank_split(n: int) -> tuple[int, int, int]:
    n_full = max(5, round(0.30 * n))
    n_aso = round(0.15 * n)
    return n_full, n_aso, n - n_full - n_aso


def validate_config(cfg: GenConfig) -> None:
    def bad(message: str):
        raise InfeasibleConfig(message)

    if cfg.n_sds < 1:
        bad(f"n_sds must be >= 1, got {cfg.n_sds}")
    if cfg.n_universities < 1:
        bad(f"n_universities must be >= 1, got {cfg.n_universities}")
    if cfg.researchers_per_sds < 1:
        bad(f"researchers_per_sds must be >= 1, got {cfg.researchers_per_sds}")
    n_full, n_aso, n_ast = _rank_split(cfg.researchers_per_sds)
    if n_ast < cfg.winners_per_competition + 1:  # winners and a non-winner
        bad(f"researchers_per_sds={cfg.researchers_per_sds} leaves "
            f"{max(n_ast, 0)} assistant professors after seating {n_full} full "
            f"and {n_aso} associate professors; need at least "
            f"{cfg.winners_per_competition + 1}")
    if not 0.0 <= cfg.female_share <= 1.0:
        bad(f"female_share must lie in [0,1], got {cfg.female_share}")
    if cfg.surname_pool < 1:
        bad("surname_pool must be >= 1")
    if cfg.winners_per_competition not in (1, 2):
        bad(f"winners_per_competition must be 1 or 2, "
            f"got {cfg.winners_per_competition}")
    if cfg.applicants_per_competition < cfg.winners_per_competition + 1:
        bad("applicants_per_competition must exceed winners_per_competition")
    if cfg.competitions_per_sds < 1:
        bad("competitions_per_sds must be >= 1")
    if not 0.0 <= cfg.mobility_rate <= 1.0:
        bad("mobility_rate must lie in [0,1]")
    for weight in fields(LatentWeights):
        value = getattr(cfg.weights, weight.name)
        if not math.isfinite(value):
            bad(f"weights.{weight.name} must be finite, got {value}")
    if cfg.weights.noise_sd < 0:
        bad("noise_sd must be >= 0")
    for window in (cfg.productivity_window, cfg.collaboration_window):
        if window[0] > window[1]:
            bad(f"window {window[0]}:{window[1]} is reversed")
    # every eligible applicant starts by this year and needs a score
    if cfg.productivity_window[1] < LATEST_ELIGIBLE_START:
        bad(f"productivity window ends {cfg.productivity_window[1]}, before "
            f"{LATEST_ELIGIBLE_START}: eligible applicants would go unscored")


def _zipf_probs(pool: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, pool + 1)
    return weights / weights.sum()


def _nth_free(k: int, taken: list[int]) -> int:
    """Position of the k-th (0-based) entry of a sequence once the positions
    in ``taken`` (distinct) are skipped."""
    for t in sorted(taken):
        if t > k:
            break
        k += 1
    return k


def generate(cfg: GenConfig) -> tuple[Corpus, GroundTruth]:
    """Build a corpus plus its ground truth; deterministic in cfg.seed."""
    validate_config(cfg)
    rng = np.random.default_rng(cfg.seed)

    corpus = Corpus(productivity_window=cfg.productivity_window,
                    collaboration_window=cfg.collaboration_window)
    year_lo, year_hi = corpus.year_range
    universities = [f"U{i + 1:02d}" for i in range(cfg.n_universities)]
    name_probs = _zipf_probs(cfg.surname_pool)

    sds_ids = []
    for i in range(cfg.n_sds):
        sds_id = f"S{i + 1:02d}"
        sds_ids.append(sds_id)
        convention = (Convention.CONTRIBUTION
                      if rng.random() < CONTRIBUTION_SHARE
                      else Convention.ALPHABETICAL)
        corpus.taxonomy[sds_id] = SdsRecord(sds_id, f"A{i // 2 + 1:02d}", convention)

    n_full, n_aso, n_ast = _rank_split(cfg.researchers_per_sds)
    guaranteed_eligible = cfg.winners_per_competition + 1

    fulls: dict[str, list[str]] = {s: [] for s in sds_ids}
    assistants: dict[str, list[str]] = {s: [] for s in sds_ids}
    peers: dict[str, list[str]] = {s: [] for s in sds_ids}

    for sds_id in sds_ids:
        for j in range(cfg.researchers_per_sds):
            rid = f"r-{sds_id}-{j + 1:03d}"
            if j < n_full:
                rank = Rank.FULL
                start = int(rng.integers(1980, 1996))
            elif j < n_full + n_aso:
                rank = Rank.ASSOCIATE
                start = int(rng.integers(1985, 2001))
            else:
                rank = Rank.ASSISTANT
                # the first few assistants are guaranteed eligible so every
                # competition can field a winner and a comparison loser
                if j < n_full + n_aso + guaranteed_eligible:
                    start = int(rng.integers(1996, LATEST_ELIGIBLE_START + 1))
                else:
                    start = int(rng.integers(1996, COMPETITION_YEAR))
            gender = Gender.FEMALE if rng.random() < cfg.female_share else Gender.MALE
            surname = f"fam{int(rng.choice(cfg.surname_pool, p=name_probs)):03d}"
            base_uni = universities[int(rng.integers(0, cfg.n_universities))]
            moves: tuple[tuple[int, str, str], ...] = ()
            if cfg.n_universities > 1 and rng.random() < cfg.mobility_rate:
                first_possible = max(start, year_lo) + 1
                if first_possible <= year_hi:
                    switch = int(rng.integers(first_possible, year_hi + 1))
                    offset = int(rng.integers(1, cfg.n_universities))
                    new_uni = universities[
                        (universities.index(base_uni) + offset) % cfg.n_universities]
                    moves = tuple((y, new_uni, sds_id)
                                  for y in range(switch, year_hi + 1))
            researcher = Researcher(
                id=rid, gender=gender, family_name=surname,
                university_id=base_uni, sds_id=sds_id, rank=rank,
                career_start_year=start, career_end_year=None,
                affiliations=moves)
            corpus.researchers[rid] = researcher
            peers[sds_id].append(rid)
            if rank is Rank.FULL:
                fulls[sds_id].append(rid)
            elif rank is Rank.ASSISTANT:
                assistants[sds_id].append(rid)

    # each researcher's byline university per corpus year, base outside the career
    byline_unis = {
        rid: tuple(affiliation[0] if affiliation else r.university_id
                   for affiliation in r.timeline(year_lo, year_hi))
        for rid, r in corpus.researchers.items()}

    # publications: per researcher-year Poisson counts with sampled coauthors
    pub_counter = 0
    ext_counter = 0
    for sds_id in sds_ids:
        field_peers = peers[sds_id]
        place = {p: i for i, p in enumerate(field_peers)}
        for rid in field_peers:
            researcher = corpus.researchers[rid]
            full_pool = [f for f in fulls[sds_id] if f != rid]
            for year in range(max(year_lo, researcher.career_start_year), year_hi + 1):
                for _ in range(int(rng.poisson(PUBLICATION_INTENSITY))):
                    pub_counter += 1
                    authors = [rid]
                    if rng.random() < COAUTHOR_FULL_RATE:
                        take = min(len(full_pool), int(rng.integers(1, 3)))
                        if take:
                            picks = rng.choice(len(full_pool), size=take, replace=False)
                            authors.extend(full_pool[p] for p in sorted(picks))
                    if rng.random() < COAUTHOR_PEER_RATE:
                        # every author so far is a distinct peer of this field
                        n_free = len(field_peers) - len(authors)
                        if n_free:
                            k = int(rng.integers(0, n_free))
                            authors.append(field_peers[
                                _nth_free(k, [place[a] for a in authors])])
                    for _ in range(int(rng.integers(0, 4))):
                        ext_counter += 1
                        authors.append(f"x{ext_counter:05d}")
                    order = rng.permutation(len(authors))
                    byline = []
                    for pos in order:
                        author = authors[pos]
                        known = byline_unis.get(author)
                        if known is not None:
                            uni = known[year - year_lo]
                        else:
                            uni = (None if rng.random() < 0.5 else
                                   universities[int(rng.integers(0, cfg.n_universities))])
                        byline.append(BylineEntry(author, uni))
                    rate = rng.gamma(CITATION_DISPERSION,
                                     CITATION_MEAN / CITATION_DISPERSION)
                    corpus.publications[f"p{pub_counter:06d}"] = Publication(
                        id=f"p{pub_counter:06d}", year=year,
                        subject_category_id=f"{sds_id}:c{int(rng.integers(1, 3))}",
                        citations=int(rng.poisson(rate)), byline=byline)

    # competitions, provisional (winners assigned after feature extraction)
    # validate_config guarantees 5 full professors (a committee) and
    # guaranteed_eligible eligible assistants per SDS
    for sds_id in sds_ids:
        eligible_pool = [a for a in assistants[sds_id]
                         if corpus.researchers[a].career_start_year
                         <= LATEST_ELIGIBLE_START]
        pool = fulls[sds_id]
        # full professors by university in the competition year, in pool order
        local_fulls: dict[str, list[str]] = {}
        for f in pool:
            affiliation = corpus.researchers[f].affiliation_in(COMPETITION_YEAR)
            if affiliation is not None:
                local_fulls.setdefault(affiliation[0], []).append(f)
        for c in range(cfg.competitions_per_sds):
            comp_id = f"c-{sds_id}-{c + 1:02d}"
            comp_uni = universities[int(rng.integers(0, cfg.n_universities))]
            # the president comes from the hiring university when it has one
            president_pool = local_fulls.get(comp_uni) or pool
            president = president_pool[int(rng.integers(0, len(president_pool)))]
            rest = [f for f in pool if f != president]
            picks = rng.choice(len(rest), size=4, replace=False)
            members = [rest[p] for p in sorted(picks)]

            n_app = min(cfg.applicants_per_competition, len(assistants[sds_id]))
            n_elig = min(len(eligible_pool),
                         max(guaranteed_eligible, round(0.75 * n_app)))
            picks = rng.choice(len(eligible_pool), size=n_elig, replace=False)
            applicants = [eligible_pool[p] for p in sorted(picks)]
            leftover = [a for a in assistants[sds_id] if a not in applicants]
            extra = min(n_app - n_elig, len(leftover))
            if extra > 0:
                picks = rng.choice(len(leftover), size=extra, replace=False)
                applicants.extend(leftover[p] for p in sorted(picks))
            corpus.competitions[comp_id] = Competition(
                id=comp_id, sds_id=sds_id, university_id=comp_uni,
                year=COMPETITION_YEAR, president=president,
                members=members, applicants=sorted(applicants), winners=[])

    # phase two: score the provisional corpus and select winners; extraction
    # draws nothing from rng and reads no winners, so one extract_all serves all
    scores = score_corpus(corpus)
    rows_by_comp: dict[str, list] = {}
    for row in extract_all(corpus, scores):
        rows_by_comp.setdefault(row.competition_id, []).append(row)
    truth = GroundTruth()
    w = cfg.weights
    k = cfg.winners_per_competition
    for comp_id in sorted(corpus.competitions):
        comp = corpus.competitions[comp_id]
        rows = rows_by_comp.get(comp_id, [])
        latent: dict[str, float] = {}
        for r in rows:
            noise = float(rng.normal(0.0, w.noise_sd)) if w.noise_sd > 0 else 0.0
            latent[r.researcher_id] = (
                w.merit * r.merit_pct
                + w.cp * r.years_with_president
                + w.ce * r.years_with_members
                + w.pp * r.president_coauth_share
                + w.ne * r.surname_match
                + w.sp * r.same_gender_president
                + noise)
        selected = sorted(latent, key=lambda rid: (-latent[rid], rid))[:k]
        by_merit = sorted(rows, key=lambda r: (-r.merit_pct, r.researcher_id))
        merit_winners = [r.researcher_id for r in by_merit[:k]]
        comp.winners = sorted(selected)
        truth.competitions[comp_id] = CompetitionTruth(
            competition_id=comp_id,
            merit_winners=sorted(merit_winners),
            selected_winners=sorted(selected),
            injected=set(selected) != set(merit_winners),
            latent=latent)

    return corpus, truth


def write_ground_truth(truth: GroundTruth, directory: str | Path) -> Path:
    path = Path(directory) / GROUND_TRUTH_FILE
    with open(path, "w", encoding="utf-8") as fh:
        for comp_id in sorted(truth.competitions):
            t = truth.competitions[comp_id]
            fh.write(json.dumps({
                "competition": t.competition_id,
                "merit_winners": t.merit_winners,
                "selected_winners": t.selected_winners,
                "injected": t.injected,
            }) + "\n")
    return path


def generate_to_dir(cfg: GenConfig, directory: str | Path) -> tuple[Corpus, GroundTruth, CorpusPaths]:
    corpus, truth = generate(cfg)
    paths = write_corpus(corpus, directory)
    write_ground_truth(truth, directory)
    return corpus, truth, paths
