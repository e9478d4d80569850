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

The bounded draws (``integers``, ``choice`` without replacement) run numpy's
own algorithms on the bit generator's ``next_uint32``, so the bytes rest on
numpy's PCG64 ``Generator`` algorithms; ``tests/test_synthgen.py`` fails by
name if a numpy release changes them.
"""

from __future__ import annotations

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
    Gender,
    Publication,
    Rank,
    Researcher,
    SdsRecord,
    check_windows,
    write_corpus,
    write_lines,
)
from .errors import InfeasibleConfig
from .features import MIN_CAREER_YEARS, by_competition, extract_all
# extract_features stays bound: perfbench/tracer.py counts its calls from here
from .features import extract_features  # noqa: F401
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


# the bounds of the numeric GenConfig fields: (name, low, high or None)
CONFIG_BOUNDS = (("seed", 0, None), ("n_sds", 1, None), ("n_universities", 1, None),
                 ("researchers_per_sds", 1, None), ("surname_pool", 1, None),
                 ("competitions_per_sds", 1, None), ("female_share", 0, 1),
                 ("mobility_rate", 0, 1), ("winners_per_competition", 1, 2))


def validate_config(cfg: GenConfig) -> None:
    def bad(message: str):
        raise InfeasibleConfig(message)

    for name, low, high in CONFIG_BOUNDS:
        value = getattr(cfg, name)
        if not (low <= value if high is None else low <= value <= high):  # NaN fails
            rule = f"be >= {low}" if high is None else f"lie in [{low},{high}]"
            bad(f"{name} must {rule}, got {value}")
    n_full, n_aso, n_ast = _rank_split(cfg.researchers_per_sds)
    if n_ast < cfg.winners_per_competition + 1:  # winners and a non-winner
        bad(f"researchers_per_sds={cfg.researchers_per_sds} leaves "
            f"{max(n_ast, 0)} assistant professors after seating {n_full} full "
            f"and {n_aso} associate professors; need at least "
            f"{cfg.winners_per_competition + 1}")
    if cfg.applicants_per_competition < cfg.winners_per_competition + 1:
        bad(f"applicants_per_competition={cfg.applicants_per_competition} must "
            f"exceed winners_per_competition={cfg.winners_per_competition}")
    for weight in fields(LatentWeights):
        value = getattr(cfg.weights, weight.name)
        if not math.isfinite(value):
            bad(f"weights.{weight.name} must be finite, got {value}")
    if cfg.weights.noise_sd < 0:
        bad(f"noise_sd must be >= 0, got {cfg.weights.noise_sd}")
    check_windows(InfeasibleConfig, productivity_window=cfg.productivity_window,
                  collaboration_window=cfg.collaboration_window)
    # every eligible applicant starts by this year and needs a score
    if cfg.productivity_window[1] < LATEST_ELIGIBLE_START:
        bad(f"productivity window ends {cfg.productivity_window[1]}, before "
            f"{LATEST_ELIGIBLE_START}: eligible applicants would go unscored")


def _zipf_cdf(pool: int) -> np.ndarray:
    """Cumulative Zipf surname shares, built as ``Generator.choice`` builds
    its cdf from ``p``: searching it with one ``random()`` draw picks the
    index, and consumes the draw, that ``choice(pool, p=probs)`` would."""
    weights = 1.0 / np.arange(1, pool + 1)
    cdf = (weights / weights.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def _nth_free(k: int, taken: list[int]) -> int:
    """Position of the k-th (0-based) entry of a sequence once the positions
    in ``taken`` (distinct) are skipped."""
    for t in sorted(taken):
        if t > k:
            break
        k += 1
    return k


def _bounded_draws(rng: np.random.Generator):
    """``integers(lo, hi)`` and ``sample(n, k)``: ``int(rng.integers(lo, hi))``
    and ``sorted(rng.choice(n, k, replace=False))`` from the same draws, made
    by numpy's algorithms on ``next_uint32``, whose half-word buffer ``rng``'s
    own methods share, so the calls interleave with theirs."""
    bits = rng.bit_generator.ctypes
    next32, state = bits.next_uint32, bits.state

    def integers(lo: int, hi: int) -> int:
        n = hi - lo
        if not 1 < n <= 0x100000000:  # numpy's ValueError, no-draw or 64-bit path
            return int(rng.integers(lo, hi))
        # Lemire's multiply-and-reject: the high word of an unbiased product
        m = next32(state) * n
        if m & 0xFFFFFFFF < n:
            threshold = (0x100000000 - n) % n
            while m & 0xFFFFFFFF < threshold:
                m = next32(state) * n
        return lo + (m >> 32)

    def sample(n: int, k: int) -> list[int]:
        if not 0 <= k <= n or n > 10000 and k > n // 50:  # ValueError, tail shuffle
            return sorted(rng.choice(n, k, replace=False).tolist())
        picked: set[int] = set()
        for j in range(n - k, n):  # Floyd's: a draw from [0, j], else j itself
            v = integers(0, j + 1)
            picked.add(j if v in picked else v)
        for i in range(k - 1, 0, -1):  # the draws of choice's shuffle, whose
            integers(0, i + 1)         # order sorting discards
        return sorted(picked)

    return integers, sample


def generate(cfg: GenConfig) -> tuple[Corpus, GroundTruth]:
    """Build a corpus plus its ground truth; deterministic in cfg.seed."""
    validate_config(cfg)
    rng = np.random.default_rng(cfg.seed)
    integers, sample = _bounded_draws(rng)
    random, poisson, gamma, shuffle = rng.random, rng.poisson, rng.gamma, rng.shuffle

    corpus = Corpus(productivity_window=cfg.productivity_window,
                    collaboration_window=cfg.collaboration_window)
    year_lo, year_hi = corpus.year_range
    universities = [f"U{i + 1:02d}" for i in range(cfg.n_universities)]
    name_cdf = _zipf_cdf(cfg.surname_pool)

    for i in range(cfg.n_sds):
        sds_id = f"S{i + 1:02d}"
        convention = (Convention.CONTRIBUTION
                      if random() < CONTRIBUTION_SHARE
                      else Convention.ALPHABETICAL)
        corpus.taxonomy[sds_id] = SdsRecord(sds_id, f"A{i // 2 + 1:02d}", convention)

    n_full, n_aso, n_ast = _rank_split(cfg.researchers_per_sds)
    n_senior = n_full + n_aso
    guaranteed_eligible = cfg.winners_per_competition + 1

    # each field's researcher ids by index, so by rank: full professors
    # (peers[:n_full]), associates, then assistants (peers[n_senior:])
    peers: dict[str, list[str]] = {}
    for sds_id in corpus.taxonomy:
        peers[sds_id] = [f"r-{sds_id}-{j + 1:03d}"
                         for j in range(cfg.researchers_per_sds)]
        for j, rid in enumerate(peers[sds_id]):
            if j < n_full:
                rank = Rank.FULL
                start = integers(1980, 1996)
            elif j < n_senior:
                rank = Rank.ASSOCIATE
                start = integers(1985, 2001)
            else:
                rank = Rank.ASSISTANT
                # the first few assistants are guaranteed eligible so every
                # competition can field a winner and a comparison loser
                if j < n_senior + guaranteed_eligible:
                    start = integers(1996, LATEST_ELIGIBLE_START + 1)
                else:
                    start = integers(1996, COMPETITION_YEAR)
            gender = Gender.FEMALE if random() < cfg.female_share else Gender.MALE
            surname = f"fam{int(name_cdf.searchsorted(random(), side='right')):03d}"
            base_uni = universities[integers(0, cfg.n_universities)]
            moves: tuple[tuple[int, str, str], ...] = ()
            if cfg.n_universities > 1 and random() < cfg.mobility_rate:
                first_possible = max(start, year_lo) + 1
                if first_possible <= year_hi:
                    switch = integers(first_possible, year_hi + 1)
                    offset = integers(1, cfg.n_universities)
                    new_uni = universities[
                        (universities.index(base_uni) + offset) % cfg.n_universities]
                    moves = tuple((y, new_uni, sds_id)
                                  for y in range(switch, year_hi + 1))
            corpus.researchers[rid] = Researcher(
                id=rid, gender=gender, family_name=surname,
                university_id=base_uni, sds_id=sds_id, rank=rank,
                career_start_year=start, career_end_year=None,
                affiliations=moves)

    # each researcher's byline entry per corpus year (base university outside
    # the career): one entry per university, shared by every byline
    byline_entries = {}
    for rid, r in corpus.researchers.items():
        unis = [affiliation[0] if affiliation else r.university_id
                for affiliation in r.timeline(year_lo, year_hi)]
        entry = {uni: BylineEntry(rid, uni) for uni in set(unis)}
        byline_entries[rid] = tuple(entry[uni] for uni in unis)

    # publications: per researcher-year Poisson counts with sampled coauthors
    pub_counter = 0
    ext_counter = 0
    for sds_id, field_peers in peers.items():
        place = {p: i for i, p in enumerate(field_peers)}
        categories = (f"{sds_id}:c1", f"{sds_id}:c2")
        for rid in field_peers:
            researcher = corpus.researchers[rid]
            full_pool = [f for f in field_peers[:n_full] if f != rid]
            for year in range(max(year_lo, researcher.career_start_year), year_hi + 1):
                for _ in range(int(poisson(PUBLICATION_INTENSITY))):
                    pub_counter += 1
                    authors = [rid]
                    if random() < COAUTHOR_FULL_RATE:
                        take = min(len(full_pool), integers(1, 3))
                        if take:
                            authors.extend(full_pool[p] for p in sample(len(full_pool), take))
                    if random() < COAUTHOR_PEER_RATE:
                        # every author so far is a distinct peer of this field
                        n_free = len(field_peers) - len(authors)
                        if n_free:
                            k = integers(0, n_free)
                            authors.append(field_peers[
                                _nth_free(k, [place[a] for a in authors])])
                    for _ in range(integers(0, 4)):
                        ext_counter += 1
                        authors.append(f"x{ext_counter:05d}")
                    # the draws and order of indexing by rng.permutation
                    shuffle(authors)
                    byline = []
                    for author in authors:
                        known = byline_entries.get(author)
                        if known is not None:
                            byline.append(known[year - year_lo])
                        else:
                            uni = (None if random() < 0.5 else
                                   universities[integers(0, cfg.n_universities)])
                            byline.append(BylineEntry(author, uni))
                    rate = gamma(CITATION_DISPERSION, CITATION_MEAN / CITATION_DISPERSION)
                    pid = f"p{pub_counter:06d}"
                    corpus.publications[pid] = Publication(
                        id=pid, year=year,
                        subject_category_id=categories[integers(1, 3) - 1],
                        citations=int(poisson(rate)), byline=byline)

    # competitions, provisional (winners assigned after feature extraction)
    # validate_config guarantees 5 full professors (a committee) and
    # guaranteed_eligible eligible assistants per SDS
    for sds_id, field_peers in peers.items():
        pool, assistants = field_peers[:n_full], field_peers[n_senior:]
        eligible_pool = [a for a in assistants
                         if corpus.researchers[a].career_start_year
                         <= LATEST_ELIGIBLE_START]
        # full professors by university in the competition year, in pool order
        local_fulls: dict[str, list[str]] = {}
        for f in pool:
            affiliation = corpus.researchers[f].affiliation_in(COMPETITION_YEAR)
            if affiliation is not None:
                local_fulls.setdefault(affiliation[0], []).append(f)
        for c in range(cfg.competitions_per_sds):
            comp_id = f"c-{sds_id}-{c + 1:02d}"
            comp_uni = universities[integers(0, cfg.n_universities)]
            # the president comes from the hiring university when it has one
            president_pool = local_fulls.get(comp_uni) or pool
            president = president_pool[integers(0, len(president_pool))]
            rest = [f for f in pool if f != president]
            members = [rest[p] for p in sample(len(rest), 4)]

            n_app = min(cfg.applicants_per_competition, n_ast)
            n_elig = min(len(eligible_pool),
                         max(guaranteed_eligible, round(0.75 * n_app)))
            applicants = [eligible_pool[p] for p in sample(len(eligible_pool), n_elig)]
            leftover = [a for a in assistants if a not in applicants]
            extra = min(n_app - n_elig, len(leftover))
            if extra > 0:
                applicants.extend(leftover[p] for p in sample(len(leftover), extra))
            corpus.competitions[comp_id] = Competition(
                id=comp_id, sds_id=sds_id, university_id=comp_uni,
                year=COMPETITION_YEAR, president=president,
                members=members, applicants=sorted(applicants), winners=[])

    # phase two: score the provisional corpus and select winners; extraction
    # draws nothing from rng and reads no winners, so one extract_all serves all
    scores = score_corpus(corpus)
    rows_by_comp = by_competition(extract_all(corpus, scores))
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


def write_ground_truth(truth: GroundTruth, directory: str | Path) -> None:
    write_lines(Path(directory) / GROUND_TRUTH_FILE,
                ({"competition": t.competition_id, "merit_winners": t.merit_winners,
                  "selected_winners": t.selected_winners, "injected": t.injected}
                 for _, t in sorted(truth.competitions.items())))


def generate_to_dir(cfg: GenConfig, directory: str | Path) -> tuple[Corpus, GroundTruth]:
    corpus, truth = generate(cfg)
    write_corpus(corpus, directory)
    write_ground_truth(truth, directory)
    return corpus, truth
