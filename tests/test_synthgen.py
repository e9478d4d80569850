"""Tests for the synthetic corpus generator."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concorso.corpus import Rank, load_corpus, validate_corpus
from concorso.errors import InfeasibleConfig
from concorso.features import MIN_CAREER_YEARS, filter_eligible
from concorso.scoring import score_corpus
from concorso.synthgen import (
    COMPETITION_YEAR,
    GenConfig,
    _bounded_draws,
    _nth_free,
    _zipf_cdf,
    LatentWeights,
    generate,
    generate_to_dir,
    validate_config,
)

SMALL = dict(n_sds=2, n_universities=3, researchers_per_sds=14,
             competitions_per_sds=2, applicants_per_competition=5)

CORPUS_FILES = ("researchers.csv", "publications.jsonl", "competitions.jsonl",
                "taxonomy.csv", "ground_truth.jsonl")


def test_same_seed_byte_identical(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    generate_to_dir(GenConfig(seed=42, **SMALL), d1)
    generate_to_dir(GenConfig(seed=42, **SMALL), d2)
    for name in CORPUS_FILES:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_bytes_do_not_depend_on_the_string_hash_seed(tmp_path):
    # the generator builds sets (a researcher's universities, a sample's
    # picks); their iteration order must not reach a byte. Each run is a
    # fresh interpreter, since PYTHONHASHSEED is read at start-up.
    runs = {}
    for hash_seed in ("0", "12345"):
        out = tmp_path / hash_seed
        runs[hash_seed] = (out, subprocess.Popen(
            [sys.executable, "-m", "concorso.cli", "gen", "--out-dir", str(out),
             "--seed", "1", "--n-sds", "2", "--researchers-per-sds", "14",
             "--competitions-per-sds", "2", "--applicants-per-competition", "5",
             "--mobility-rate", "0.5", "--w-cp", "6", "--noise-sd", "8"],
            env={**os.environ, "PYTHONHASHSEED": hash_seed},
            stdout=subprocess.DEVNULL))
    digests = []
    for out, proc in runs.values():
        assert proc.wait() == 0
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in CORPUS_FILES})
    assert digests[0] == digests[1]

def test_different_seeds_differ(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir()
    d2.mkdir()
    generate_to_dir(GenConfig(seed=1, **SMALL), d1)
    generate_to_dir(GenConfig(seed=2, **SMALL), d2)
    assert any((d1 / n).read_bytes() != (d2 / n).read_bytes()
               for n in CORPUS_FILES)


def test_roundtrip_through_files(tmp_path):
    cfg = GenConfig(seed=9, **SMALL)
    corpus, _ = generate_to_dir(cfg, tmp_path)
    loaded = load_corpus(tmp_path)
    assert loaded.researchers == corpus.researchers
    assert loaded.publications == corpus.publications
    assert loaded.competitions == corpus.competitions
    assert loaded.taxonomy == corpus.taxonomy


def test_generated_corpora_validate_clean():
    for seed in range(100):
        corpus, _ = generate(GenConfig(seed=seed, **SMALL))
        report = validate_corpus(corpus)
        assert report.ok, f"seed {seed}: {report.violations[:3]}"


def test_merit_only_selection_matches_merit_winners():
    for seed in (0, 1, 2, 3):
        corpus, truth = generate(GenConfig(seed=seed, **SMALL))  # merit only
        assert truth.injected_fraction == 0.0
        for t in truth.competitions.values():
            assert t.selected_winners == t.merit_winners
            assert not t.injected
            assert corpus.competitions[t.competition_id].winners == t.selected_winners


def test_merit_only_latent_equals_percentile():
    cfg = GenConfig(seed=4, **SMALL)  # merit only, no noise
    corpus, truth = generate(cfg)
    unselected = {c.id: c for c in corpus.competitions.values()}
    for comp_id, t in truth.competitions.items():
        unselected[comp_id].winners = []
    scores = score_corpus(corpus)
    for comp_id, t in truth.competitions.items():
        for rid, value in t.latent.items():
            assert value == scores.scores[rid].percentile


def test_winner_invariants():
    cfg = GenConfig(seed=12, weights=LatentWeights(merit=1.0, cp=10.0, noise_sd=3.0),
                    winners_per_competition=2, **SMALL)
    corpus, truth = generate(cfg)
    for comp in corpus.competitions.values():
        assert len(comp.winners) == 2
        assert set(comp.winners) <= set(comp.applicants)
        for rid in comp.winners:
            researcher = corpus.researchers[rid]
            assert researcher.rank is Rank.ASSISTANT
            assert comp.year - researcher.career_start_year >= MIN_CAREER_YEARS
        assert comp.winners == truth.competitions[comp.id].selected_winners


def test_every_competition_retained_for_audit():
    # each competition must keep an eligible winner and an eligible loser
    for seed in range(10):
        corpus, _ = generate(GenConfig(seed=seed, **SMALL))
        eligible = filter_eligible(corpus)
        for comp in corpus.competitions.values():
            outcomes = {rid in comp.winners for rid in eligible[comp.id]}
            assert outcomes == {True, False}, comp.id


def test_latent_weights_shift_selection_away_from_merit():
    fractions = []
    for w_cp in (0.0, 3.0, 20.0):
        total = 0.0
        for seed in range(15):
            weights = LatentWeights(merit=1.0, cp=w_cp)
            _, truth = generate(GenConfig(seed=seed, weights=weights, **SMALL))
            total += truth.injected_fraction
        fractions.append(total / 15)
    assert fractions[0] == 0.0
    assert fractions[1] > 0.0
    assert fractions[2] > fractions[1]


def test_same_seed_same_roster_across_weights():
    base, _ = generate(GenConfig(seed=6, **SMALL))
    other, _ = generate(GenConfig(
        seed=6, weights=LatentWeights(merit=0.5, cp=9.0, ne=40.0), **SMALL))
    assert base.researchers == other.researchers
    assert base.publications == other.publications
    assert {c: base.competitions[c].applicants for c in base.competitions} \
        == {c: other.competitions[c].applicants for c in other.competitions}


def test_female_share_extremes_and_balance():
    corpus, _ = generate(GenConfig(seed=3, female_share=0.0, **SMALL))
    assert all(r.gender.value == "M" for r in corpus.researchers.values())
    corpus, _ = generate(GenConfig(seed=3, female_share=1.0, **SMALL))
    assert all(r.gender.value == "F" for r in corpus.researchers.values())
    cfg = GenConfig(seed=3, female_share=0.45, n_sds=5, researchers_per_sds=60)
    corpus, _ = generate(cfg)
    n = len(corpus.researchers)
    share = sum(r.gender.value == "F" for r in corpus.researchers.values()) / n
    # 5 binomial standard deviations around the configured share
    assert abs(share - 0.45) < 5 * (0.45 * 0.55 / n) ** 0.5


def test_mobility_rate_controls_moves():
    corpus, _ = generate(GenConfig(seed=8, mobility_rate=0.0, **SMALL))
    assert all(not r.affiliations for r in corpus.researchers.values())
    corpus, _ = generate(GenConfig(seed=8, mobility_rate=1.0, **SMALL))
    moved = sum(1 for r in corpus.researchers.values() if r.affiliations)
    assert moved > len(corpus.researchers) // 2


def test_host_rule_uses_local_presidents_when_available():
    corpus, _ = generate(GenConfig(seed=21, mobility_rate=0.0, **SMALL))
    for comp in corpus.competitions.values():
        president = corpus.researchers[comp.president]
        locals_exist = any(
            r.rank is Rank.FULL and r.sds_id == comp.sds_id
            and r.university_id == comp.university_id
            for r in corpus.researchers.values())
        if locals_exist:
            assert president.university_id == comp.university_id


def test_assistant_career_starts_span_twelve_years():
    cfg = GenConfig(seed=2, n_sds=4, researchers_per_sds=60)
    corpus, _ = generate(cfg)
    starts = {r.career_start_year for r in corpus.researchers.values()
              if r.rank is Rank.ASSISTANT}
    assert max(starts) - min(starts) >= 11
    assert any(s > COMPETITION_YEAR - MIN_CAREER_YEARS for s in starts)


def test_publication_years_inside_corpus_range():
    corpus, _ = generate(GenConfig(seed=5, **SMALL))
    lo, hi = corpus.year_range
    for pub in corpus.publications.values():
        assert lo <= pub.year <= hi
        assert pub.citations >= 0
        assert pub.byline


def test_ground_truth_file_format(tmp_path):
    _, truth = generate_to_dir(GenConfig(seed=13, **SMALL), tmp_path)
    lines = (tmp_path / "ground_truth.jsonl").read_text().splitlines()
    assert len(lines) == len(truth.competitions)
    ids = []
    for line in lines:
        record = json.loads(line)
        assert set(record) == {"competition", "merit_winners",
                               "selected_winners", "injected"}
        entry = truth.competitions[record["competition"]]
        assert record["merit_winners"] == entry.merit_winners
        assert record["selected_winners"] == entry.selected_winners
        assert record["injected"] == entry.injected
        ids.append(record["competition"])
    assert ids == sorted(ids)


def test_infeasible_configs_rejected():
    # each config with the text its message must hold: the field, and the
    # value where one is shown
    cases = [
        (dict(seed=-1), "seed must be >= 0, got -1"),  # numpy seeds are non-negative
        (dict(researchers_per_sds=0), "researchers_per_sds must be >= 1, got 0"),
        (dict(researchers_per_sds=6), "researchers_per_sds=6 leaves 0 assistant"),
        # 2 assistants: enough for one winner, not for two plus a non-winner
        (dict(researchers_per_sds=8, winners_per_competition=2),
         "researchers_per_sds=8 leaves 2 assistant"),
        (dict(n_sds=0), "n_sds must be >= 1, got 0"),
        (dict(n_universities=0), "n_universities must be >= 1, got 0"),
        (dict(female_share=1.5), "female_share must lie in [0,1], got 1.5"),
        (dict(female_share=math.nan), "female_share must lie in [0,1], got nan"),
        (dict(winners_per_competition=3), "winners_per_competition must lie in [1,2], got 3"),
        (dict(applicants_per_competition=1),
         "applicants_per_competition=1 must exceed winners_per_competition=1"),
        (dict(applicants_per_competition=2, winners_per_competition=2),
         "applicants_per_competition=2 must exceed winners_per_competition=2"),
        (dict(competitions_per_sds=0), "competitions_per_sds must be >= 1, got 0"),
        (dict(surname_pool=0), "surname_pool must be >= 1, got 0"),
        (dict(mobility_rate=2.0), "mobility_rate must lie in [0,1], got 2.0"),
        (dict(mobility_rate=math.nan), "mobility_rate must lie in [0,1], got nan"),
        (dict(productivity_window=(2008, 2004)),
         "productivity_window 2008:2004 is reversed"),
        (dict(collaboration_window=(2008, 2004)),
         "collaboration_window 2008:2004 is reversed"),
        (dict(weights=LatentWeights(noise_sd=-1.0)), "noise_sd must be >= 0, got -1.0"),
        (dict(weights=LatentWeights(noise_sd=math.nan)),
         "weights.noise_sd must be finite, got nan"),
        (dict(weights=LatentWeights(cp=math.nan)), "weights.cp must be finite, got nan"),
        (dict(weights=LatentWeights(merit=math.inf)),
         "weights.merit must be finite, got inf"),
        (dict(weights=LatentWeights(sp=-math.inf)), "weights.sp must be finite, got -inf"),
        # eligible applicants start by 2005 and would have no score
        (dict(productivity_window=(1990, 1995)), "productivity window ends 1995"),
        (dict(productivity_window=(2000, 2004)), "productivity window ends 2004"),
    ]
    for overrides, text in cases:
        cfg = replace(GenConfig(seed=0), **overrides)
        for check in (validate_config, generate):
            with pytest.raises(InfeasibleConfig) as err:
                check(cfg)
            assert text in str(err.value)


NON_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def small_configs(draw):
    """Small generator configs with random weights and windows. Most are
    feasible; the rest break one rule of validate_config: a non-finite
    weight, a productivity window that ends before 2005, or too few
    researchers or applicants."""
    fault = draw(st.sampled_from((None,) * 8 + ("weight", "window",
                                                "researchers", "applicants")))
    weights = {name: draw(st.floats(-10, 10))
               for name in ("merit", "cp", "ce", "pp", "ne", "sp")}
    weights["noise_sd"] = draw(st.floats(0, 10))
    if fault == "weight":
        weights[draw(st.sampled_from(sorted(weights)))] = draw(
            st.sampled_from(NON_FINITE))
    fss_end = draw(st.integers(1990, 2004) if fault == "window"
                   else st.integers(2005, 2012))
    collab_start = draw(st.integers(1990, 2012))
    winners = draw(st.integers(1, 2))
    return GenConfig(
        seed=draw(st.integers(0, 2**16)),
        n_sds=draw(st.integers(1, 2)),
        n_universities=draw(st.integers(1, 3)),
        researchers_per_sds=draw(st.integers(1, 7) if fault == "researchers"
                                 else st.integers(9, 14)),
        female_share=draw(st.floats(0, 1)),
        surname_pool=draw(st.integers(1, 20)),
        weights=LatentWeights(**weights),
        competitions_per_sds=draw(st.integers(1, 2)),
        winners_per_competition=winners,
        applicants_per_competition=draw(
            st.integers(1, winners) if fault == "applicants"
            else st.integers(winners + 1, 6)),
        mobility_rate=draw(st.floats(0, 1)),
        productivity_window=(fss_end - draw(st.integers(0, 6)), fss_end),
        collaboration_window=(collab_start,
                              collab_start + draw(st.integers(0, 8))),
    )


@settings(max_examples=150, deadline=None)
@given(cfg=small_configs())
def test_validate_config_decides_whether_generate_succeeds(cfg):
    # validate_config is the whole feasibility contract: generate fails only
    # where it fails, and only with InfeasibleConfig; an accepted config
    # yields a valid corpus whose latent selection scores are all numbers
    try:
        validate_config(cfg)
    except InfeasibleConfig:
        with pytest.raises(InfeasibleConfig):
            generate(cfg)
        return
    corpus, truth = generate(cfg)
    report = validate_corpus(corpus)
    assert report.ok, report.violations[:3]
    assert all(math.isfinite(value) for t in truth.competitions.values()
               for value in t.latent.values())


def test_surname_pool_bounds_distinct_names():
    corpus, _ = generate(GenConfig(seed=7, surname_pool=5, **SMALL))
    names = {r.family_name for r in corpus.researchers.values()}
    assert len(names) <= 5
    corpus, _ = generate(GenConfig(seed=7, surname_pool=500,
                                   n_sds=5, researchers_per_sds=60))
    wide = {r.family_name for r in corpus.researchers.values()}
    assert len(wide) > len(names)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 40), data=st.data())
def test_nth_free_equals_filtered_list_pick(n, data):
    # the peer coauthor pick: index arithmetic on the peer list instead of
    # building the list of peers that are not yet authors
    peers = [f"r{i:03d}" for i in range(n)]
    authors = data.draw(st.lists(st.sampled_from(peers), unique=True,
                                 max_size=n) if n else st.just([]))
    place = {p: i for i, p in enumerate(peers)}
    free = [p for p in peers if p not in authors]
    for k in range(len(free)):
        assert peers[_nth_free(k, [place[a] for a in authors])] == free[k]


# The generator draws a surname by searching _zipf_cdf and orders a byline
# with a list shuffle, in place of Generator.choice(p=...) and
# Generator.permutation, and makes its bounded draws with _bounded_draws, in
# place of Generator.integers and Generator.choice(replace=False). The output
# bytes rest on these being the same draws; a numpy release that changes
# either fails here by name.

@pytest.mark.parametrize("pool", [1, 2, 40])
def test_surname_cdf_search_draws_what_choice_draws(pool):
    weights = 1.0 / np.arange(1, pool + 1)
    probs = weights / weights.sum()
    cdf = _zipf_cdf(pool)
    for seed in range(200):
        fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            assert (int(cdf.searchsorted(fast.random(), side="right"))
                    == int(ref.choice(pool, p=probs)))
            assert fast.random() == ref.random()


@pytest.mark.parametrize("n", range(1, 8))
def test_list_shuffle_draws_what_permutation_draws(n):
    # shuffle swaps by position, whatever the list holds, so the generator
    # shuffles its author list itself
    for seed in range(200):
        fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(5):
            order = list(range(n))
            fast.shuffle(order)
            assert order == ref.permutation(n).tolist()
            assert fast.random() == ref.random()


# hi - lo of 1 (no draw), powers of two, other sizes, 2**32 and past it;
# 2**30 + 1 and 2**32 // 3 + 1 reject about 1 draw in 4 and 1 in 3
BOUNDS = [(0, 1), (7, 8), (0, 2), (1, 3), (0, 3), (0, 4), (1980, 1996),
          (0, 40), (-5, 200), (0, 2**16), (0, 2**16 + 1), (0, 1000003),
          (0, 2**30 + 1), (0, 2**32 // 3 + 1), (0, 2**31 + 1),
          (3, 3 + 3 * 2**30), (0, 2**32 - 1), (0, 2**32), (-9, 2**32 - 9),
          (0, 2**32 + 1), (0, 2**40)]
# k = 0, k = n, Floyd's loop past n = 10000, and numpy's tail-shuffle branch
# (n > 10000 and k > n // 50) on either side of its edge
SAMPLES = [(0, 0), (1, 0), (12000, 0), (1, 1), (2, 2), (3, 1), (7, 2),
           (39, 4), (40, 30), (500, 300), (20000, 3), (20000, 400),
           (20000, 401), (10001, 10001)]


@pytest.mark.parametrize("seed", range(20))
def test_bounded_draws_draw_what_integers_and_choice_draw(seed):
    # each call is checked against numpy's on a twin generator, among
    # numpy's own draws, so the two streams are shown to stay in step
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    integers, sample = _bounded_draws(fast)
    plan = random.Random(seed)
    for _ in range(300):
        op = plan.randrange(8)
        if op == 0:
            lo, hi = plan.choice(BOUNDS)
            assert integers(lo, hi) == int(ref.integers(lo, hi))
        elif op == 1:
            n, k = plan.choice(SAMPLES)
            assert sample(n, k) == sorted(ref.choice(n, k, replace=False))
        elif op == 2:
            assert fast.random() == ref.random()
        elif op == 3:
            assert fast.poisson(1.2) == ref.poisson(1.2)
        elif op == 4:
            assert fast.gamma(1.0, 4.0) == ref.gamma(1.0, 4.0)
        elif op == 5:
            n = plan.randrange(1, 8)
            mine, theirs = list(range(n)), list(range(n))
            fast.shuffle(mine)
            ref.shuffle(theirs)
            assert mine == theirs
        elif op == 6:
            lo, hi = plan.choice(BOUNDS)
            assert fast.integers(lo, hi) == ref.integers(lo, hi)
        else:
            assert fast.normal(0.0, 8.0) == ref.normal(0.0, 8.0)
    assert fast.bit_generator.state == ref.bit_generator.state


def test_bounded_draws_raise_what_numpy_raises():
    integers, sample = _bounded_draws(np.random.default_rng(0))
    for lo, hi in ((3, 3), (3, 2), (0, 2**64)):
        with pytest.raises(ValueError):
            integers(lo, hi)
    for n, k in ((3, 4), (3, -1)):
        with pytest.raises(ValueError):
            sample(n, k)
