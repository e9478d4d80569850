"""Baselines, fractional byline weights, productivity scores, percentiles."""

import math

import numpy as np
import pytest
import scipy.stats

from concorso.corpus import (
    BylineEntry,
    Convention,
    Corpus,
    Gender,
    Publication,
    Rank,
    Researcher,
    SdsRecord,
)
from concorso.errors import InvalidByline, NoCareerOverlap
from concorso.scoring import (
    compute_baselines,
    compute_fss,
    fractional_contribution,
    median_fss_by_sds,
    percentile_rank,
    publication_weights,
    score_corpus,
    write_scores,
)

ALPHA = Convention.ALPHABETICAL
CONTRIB = Convention.CONTRIBUTION


def entries(*universities):
    return [BylineEntry(f"a{i}", u) for i, u in enumerate(universities)]


def make_corpus(researchers=(), publications=(), conventions=None):
    corpus = Corpus()
    for sds, conv in (conventions or {"S1": ALPHA}).items():
        corpus.taxonomy[sds] = SdsRecord(sds, "U", conv)
    for r in researchers:
        corpus.researchers[r.id] = r
    for p in publications:
        corpus.publications[p.id] = p
    return corpus


def researcher(rid, sds="S1", rank=Rank.ASSISTANT, start=2000, end=None):
    return Researcher(rid, Gender.FEMALE, f"Fam{rid}", "U1", sds, rank, start, end)


def pub(pid, year, category, citations, byline):
    return Publication(pid, year, category, citations, byline)


# --- baselines ---------------------------------------------------------------

def test_baseline_single_cited_pub():
    corpus = make_corpus(publications=[
        pub("p1", 2005, "X", 10, entries("U1"))])
    table = compute_baselines(corpus)
    assert table.get((2005, "X")) == 10.0


def test_baseline_excludes_zero_cited():
    corpus = make_corpus(publications=[
        pub("p1", 2005, "X", 0, entries("U1")),
        pub("p2", 2005, "X", 4, entries("U1")),
        pub("p3", 2005, "X", 8, entries("U1"))])
    table = compute_baselines(corpus)
    assert table.get((2005, "X")) == 6.0


def test_baseline_all_zero_cell_absent():
    corpus = make_corpus(publications=[
        pub("p1", 2005, "X", 0, entries("U1")),
        pub("p2", 2005, "X", 0, entries("U1"))])
    table = compute_baselines(corpus)
    assert table.get((2005, "X")) is None
    assert len(table) == 0


def test_baseline_cells_split_by_year_and_category():
    corpus = make_corpus(publications=[
        pub("p1", 2005, "X", 2, entries("U1")),
        pub("p2", 2005, "Y", 8, entries("U1")),
        pub("p3", 2006, "X", 4, entries("U1")),
        pub("p4", 2009, "X", 100, entries("U1"))])  # outside window
    table = compute_baselines(corpus)
    assert table.get((2005, "X")) == 2.0
    assert table.get((2005, "Y")) == 8.0
    assert table.get((2006, "X")) == 4.0
    assert table.get((2009, "X")) is None


# --- fractional weights ------------------------------------------------------

def test_alphabetical_split():
    weights = publication_weights(entries("U1", "U2", "U1", "U3"), ALPHA)
    assert weights == [0.25, 0.25, 0.25, 0.25]


def test_contribution_same_university_five_authors():
    weights = publication_weights(entries("U1", "U2", "U3", "U2", "U1"), CONTRIB)
    expected = [0.40, 0.20 / 3, 0.20 / 3, 0.20 / 3, 0.40]
    assert weights == pytest.approx(expected, abs=1e-15)
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)


def test_contribution_different_university_six_authors():
    weights = publication_weights(entries("U1", "U1", "U1", "U2", "U2", "U2"), CONTRIB)
    assert weights == pytest.approx([0.30, 0.15, 0.05, 0.05, 0.15, 0.30], abs=1e-15)


def test_contribution_degenerate_sizes():
    assert publication_weights(entries("U1"), CONTRIB) == [1.0]
    assert publication_weights(entries("U1", "U2"), CONTRIB) == [0.5, 0.5]
    assert publication_weights(entries("U1", "U1"), CONTRIB) == [0.5, 0.5]
    # three authors, different universities: the single middle author takes
    # both inner slots plus the residual share
    weights = publication_weights(entries("U1", "U9", "U2"), CONTRIB)
    assert weights == pytest.approx([0.30, 0.40, 0.30], abs=1e-15)
    # four authors: residual splits between the two inner authors
    weights = publication_weights(entries("U1", "U9", "U9", "U2"), CONTRIB)
    assert weights == pytest.approx([0.30, 0.20, 0.20, 0.30], abs=1e-15)


def test_three_authors_same_university():
    weights = publication_weights(entries("U1", "U2", "U1"), CONTRIB)
    assert weights == pytest.approx([0.40, 0.20, 0.40], abs=1e-15)


def test_unknown_affiliations_use_focal_university():
    byline = [BylineEntry("a0", None), BylineEntry("a1", "U2"), BylineEntry("a2", "U1")]
    # without a focal university the endpoints cannot match
    assert publication_weights(byline, CONTRIB)[0] == pytest.approx(0.30)
    # with focal U1 the unknown first author matches the last author's U1
    assert publication_weights(byline, CONTRIB, focal_university="U1")[0] == \
        pytest.approx(0.40)
    # two unknowns match each other only when a focal university is given
    both = [BylineEntry("a0", None), BylineEntry("a1", "U2"), BylineEntry("a2", None)]
    assert publication_weights(both, CONTRIB)[0] == pytest.approx(0.30)
    assert publication_weights(both, CONTRIB, focal_university="U3")[0] == \
        pytest.approx(0.40)


def test_empty_byline_rejected():
    with pytest.raises(InvalidByline):
        publication_weights([], ALPHA)
    with pytest.raises(InvalidByline):
        fractional_contribution(entries("U1"), 3, ALPHA)


def test_weight_closure_random_bylines():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        n = int(rng.integers(1, 26))
        unis = [None if rng.random() < 0.2 else f"U{int(rng.integers(1, 5))}"
                for _ in range(n)]
        byline = [BylineEntry(f"a{i}", u) for i, u in enumerate(unis)]
        conv = CONTRIB if rng.random() < 0.5 else ALPHA
        rng.random()  # this draw once chose a residual mode; it keeps the bylines
        focal = None if rng.random() < 0.5 else "U1"
        weights = publication_weights(byline, conv, focal)
        assert abs(sum(weights) - 1.0) < 1e-12
        assert all(w > 0 for w in weights)


# --- FSS ---------------------------------------------------------------------

def test_fss_unity_case():
    r1 = researcher("r1", start=2008)
    corpus = make_corpus([r1], [pub("p1", 2008, "X", 7, [BylineEntry("r1", "U1")])])
    baselines = compute_baselines(corpus)
    score = compute_fss(r1, corpus, baselines)
    assert score.t == 1
    assert score.n_pubs == 1
    assert score.fss == 1.0


def test_fss_no_publications():
    r1 = researcher("r1")
    corpus = make_corpus([r1])
    score = compute_fss(r1, corpus, {})
    assert score.fss == 0.0
    assert score.t == 5
    assert score.n_pubs == 0


def test_fss_worked_example():
    # two normalized terms 2.0 x 0.5 and 1.0 x 0.25 over five career years
    r1 = researcher("r1")
    pubs = [
        pub("pa", 2005, "X", 12, [BylineEntry("r1", "U1"), BylineEntry("e1", "U2")]),
        pub("px1", 2005, "X", 4, [BylineEntry("e2", "U2")]),
        pub("px2", 2005, "X", 2, [BylineEntry("e3", "U2")]),
        pub("pb", 2006, "Y", 3, [BylineEntry("e1", "U2"), BylineEntry("r1", "U1"),
                                 BylineEntry("e2", "U2"), BylineEntry("e3", "U2")]),
    ]
    corpus = make_corpus([r1], pubs)
    baselines = compute_baselines(corpus)
    assert baselines.get((2005, "X")) == 6.0
    assert baselines.get((2006, "Y")) == 3.0
    score = compute_fss(r1, corpus, baselines)
    assert score.fss == 0.25
    assert score.n_pubs == 2


def test_fss_zero_cited_contributes_nothing():
    r1 = researcher("r1")
    corpus = make_corpus([r1], [
        pub("p1", 2005, "X", 0, [BylineEntry("r1", "U1")]),
        pub("p2", 2005, "X", 5, [BylineEntry("e1", "U2")])])
    baselines = compute_baselines(corpus)
    score = compute_fss(r1, corpus, baselines)
    assert score.fss == 0.0
    assert score.n_pubs == 1


def test_fss_missing_baseline_cell_contributes_nothing():
    r1 = researcher("r1")
    corpus = make_corpus([r1], [pub("p1", 2005, "X", 9, [BylineEntry("r1", "U1")])])
    score = compute_fss(r1, corpus, {})
    assert score.fss == 0.0


def test_fss_outside_window_ignored():
    r1 = researcher("r1")
    corpus = make_corpus([r1], [
        pub("p1", 2003, "X", 9, [BylineEntry("r1", "U1")]),
        pub("p2", 2009, "X", 9, [BylineEntry("r1", "U1")])])
    baselines = compute_baselines(corpus)
    score = compute_fss(r1, corpus, baselines)
    assert score.fss == 0.0
    assert score.n_pubs == 0


def test_fss_requires_career_overlap():
    r1 = researcher("r1", start=2010)
    corpus = make_corpus([r1])
    with pytest.raises(NoCareerOverlap):
        compute_fss(r1, corpus, {})


def test_fss_monotone_in_added_cited_pub_fixed_baselines():
    # with the baseline table held fixed, a new cited publication with a
    # resolvable cell can only add a nonnegative term
    rng = np.random.default_rng(11)
    baselines = {(2005, "X"): 5.0, (2006, "Y"): 3.0}
    for _ in range(200):
        r1 = researcher("r1")
        pubs = []
        for j in range(int(rng.integers(0, 6))):
            n_auth = int(rng.integers(1, 6))
            byline = [BylineEntry("r1" if k == int(rng.integers(0, n_auth)) else f"e{k}",
                                  "U1") for k in range(n_auth)]
            if not any(e.author == "r1" for e in byline):
                byline[0] = BylineEntry("r1", "U1")
            year, cat = (2005, "X") if rng.random() < 0.5 else (2006, "Y")
            pubs.append(pub(f"p{j}", year, cat, int(rng.poisson(3)), byline))
        before = compute_fss(r1, make_corpus([r1], pubs), baselines).fss
        extra = pub("pnew", 2005, "X", int(rng.integers(1, 20)),
                    [BylineEntry("r1", "U1"), BylineEntry("e9", "U2")])
        after = compute_fss(r1, make_corpus([r1], pubs + [extra]), baselines).fss
        assert after >= before


# --- percentiles -------------------------------------------------------------

def test_percentile_endpoints():
    assert percentile_rank([1.0, 2.0, 3.0]) == [0.0, 50.0, 100.0]


def test_percentile_ties_share_average_rank():
    assert percentile_rank([5.0, 5.0]) == [50.0, 50.0]
    assert percentile_rank([1.0, 2.0, 2.0]) == [0.0, 75.0, 75.0]


def test_percentile_singleton():
    assert percentile_rank([3.7]) == [100.0]


def test_percentile_matches_rankdata_oracle():
    rng = np.random.default_rng(3)
    for _ in range(300):
        n = int(rng.integers(1, 40))
        values = np.round(rng.random(n) * 10, 1)  # coarse grid forces ties
        ours = percentile_rank(list(values))
        if n == 1:
            assert ours == [100.0]
            continue
        ranks = scipy.stats.rankdata(values, method="average")
        expected = 100.0 * (ranks - 1) / (n - 1)
        assert ours == pytest.approx(list(expected), abs=1e-12)


def test_percentile_invariant_under_monotone_transform():
    rng = np.random.default_rng(5)
    values = list(np.round(rng.random(25) * 100, 1))
    transformed = [math.exp(v / 50) for v in values]
    assert percentile_rank(values) == percentile_rank(transformed)


# --- corpus-level scoring ----------------------------------------------------

def scaled_copy(corpus, k):
    scaled = make_corpus(list(corpus.researchers.values()),
                         conventions={s: rec.convention
                                      for s, rec in corpus.taxonomy.items()})
    for p in corpus.publications.values():
        scaled.publications[p.id] = Publication(
            p.id, p.year, p.subject_category_id, p.citations * k, p.byline)
    return scaled


def random_corpus(rng, conv=ALPHA):
    corpus = make_corpus(conventions={"S1": conv})
    for i in range(20):
        corpus.researchers[f"r{i}"] = researcher(f"r{i}", start=int(rng.integers(1995, 2008)))
    for j in range(60):
        n_auth = int(rng.integers(1, 7))
        ids = rng.choice(20, size=min(n_auth, 20), replace=False)
        byline = [BylineEntry(f"r{i}", f"U{int(rng.integers(1, 4))}") for i in ids]
        corpus.publications[f"p{j}"] = pub(
            f"p{j}", int(rng.integers(2004, 2009)), rng.choice(["X", "Y"]),
            int(rng.poisson(4)), byline)
    return corpus


@pytest.mark.parametrize("conv", [ALPHA, CONTRIB])
def test_citation_scaling_invariance(conv):
    rng = np.random.default_rng(17)
    corpus = random_corpus(rng, conv)
    base = score_corpus(corpus)
    scaled = score_corpus(scaled_copy(corpus, 3))
    assert sorted(base.scores) == sorted(scaled.scores)
    for rid, score in base.scores.items():
        other = scaled.scores[rid]
        if score.fss == 0.0:
            assert other.fss == 0.0
        else:
            assert abs(other.fss - score.fss) <= 1e-12 * abs(score.fss)
        assert other.percentile == score.percentile


def test_score_corpus_cohorts_are_sds_by_rank():
    r1 = researcher("r1", rank=Rank.ASSISTANT)
    r2 = researcher("r2", rank=Rank.FULL)
    r3 = researcher("r3", sds="S2", rank=Rank.ASSISTANT)
    corpus = make_corpus([r1, r2, r3], conventions={"S1": ALPHA, "S2": ALPHA})
    table = score_corpus(corpus)
    # every researcher sits alone in their cohort, so all rank at the top
    assert [table.scores[r].percentile for r in ("r1", "r2", "r3")] == [100.0] * 3


def test_score_corpus_skips_no_overlap():
    r1 = researcher("r1")
    r2 = researcher("r2", start=2011)
    corpus = make_corpus([r1, r2])
    table = score_corpus(corpus)
    assert "r2" not in table.scores
    assert table.skipped == ["r2"]


def test_median_fss_by_sds():
    corpus = make_corpus(
        [researcher("r1"), researcher("r2"), researcher("r3"),
         researcher("r4", rank=Rank.FULL)],
        conventions={"S1": ALPHA})
    table = score_corpus(corpus)
    table.scores["r1"].fss = 1.0
    table.scores["r2"].fss = 3.0
    table.scores["r3"].fss = 2.0
    table.scores["r4"].fss = 50.0  # full professor, not in the cohort
    assert median_fss_by_sds(table, corpus) == {"S1": 2.0}
    table.scores["r4"].fss = 4.0
    corpus.researchers["r4"] = researcher("r4", rank=Rank.ASSISTANT)
    assert median_fss_by_sds(table, corpus) == {"S1": 2.5}


def test_write_scores_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    corpus = random_corpus(rng)
    table = score_corpus(corpus)
    path = tmp_path / "scores.csv"
    write_scores(table, corpus, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "researcher_id,sds,rank,t,n_pubs,fss,percentile"
    assert len(lines) == 1 + len(table.scores)
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    score = table.scores[row["researcher_id"]]
    assert float(row["fss"]) == score.fss
    assert float(row["percentile"]) == score.percentile
    assert int(row["t"]) == score.t
