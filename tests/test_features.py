"""Eligibility filtering and applicant feature extraction."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concorso.corpus import (
    BylineEntry,
    Competition,
    Convention,
    Corpus,
    Gender,
    Publication,
    Rank,
    Researcher,
    SdsRecord,
)
from concorso.errors import ConfigError, MissingScore
from concorso.features import (
    build_design,
    extract_all,
    extract_features,
    filter_eligible,
    normalize_family_name,
    write_features,
)
from concorso.scoring import ProductivityScore, ScoreTable
from concorso.synthgen import GenConfig, generate

F, M = Gender.FEMALE, Gender.MALE


def researcher(rid, gender=F, name=None, uni="UA", sds="S1", rank=Rank.ASSISTANT,
               start=2001, end=None, moves=()):
    return Researcher(rid, gender, name or f"Fam-{rid}", uni, sds, rank,
                      start, end, tuple(sorted(moves)))


def make_corpus(researchers, publications=(), competitions=(), extra_sds=()):
    corpus = Corpus()
    for sds in ("S1", *extra_sds):
        corpus.taxonomy[sds] = SdsRecord(sds, "U1", Convention.ALPHABETICAL)
    for r in researchers:
        corpus.researchers[r.id] = r
    for p in publications:
        corpus.publications[p.id] = p
    for c in competitions:
        corpus.competitions[c.id] = c
    return corpus


def committee(president_gender=M, member_genders=(M, M, M, M), uni="UA"):
    rows = [researcher("pr", gender=president_gender, uni=uni, rank=Rank.FULL,
                       start=1990)]
    for i, g in enumerate(member_genders, start=1):
        rows.append(researcher(f"m{i}", gender=g, uni=uni, rank=Rank.FULL,
                               start=1990))
    return rows


def competition(applicants, winners, year=2008, cid="c1"):
    return Competition(cid, "S1", "UA", year, "pr",
                       ["m1", "m2", "m3", "m4"], list(applicants), list(winners))


def make_scores(entries):
    table = ScoreTable(window=(2004, 2008))
    for rid, (raw, pct) in entries.items():
        table.scores[rid] = ProductivityScore(rid, raw, 5, 3, pct)
    return table


def default_scores(corpus):
    return make_scores({rid: (1.0, 50.0) for rid in corpus.researchers})


def test_normalize_family_name():
    assert normalize_family_name("  De   Rossi ") == "de rossi"
    assert normalize_family_name("ROSSI") == normalize_family_name("rossi")


# --- eligibility -------------------------------------------------------------

def test_filter_eligible_rules():
    rows = committee() + [
        researcher("a1", start=2005),             # exactly 3 years: kept
        researcher("a2", start=2006),             # 2 years: excluded
        researcher("a3", start=1999, rank=Rank.ASSOCIATE),  # wrong rank
        researcher("a4", start=2000),
    ]
    comps = [competition(["a1", "a2", "a3", "a4", "ext-x"], ["a1"])]
    result = filter_eligible(make_corpus(rows, competitions=comps))
    assert result.eligible["c1"] == ["a1", "a4"]
    assert result.retained_competitions == ["c1"]


def test_competition_without_retained_nonwinner_dropped():
    rows = committee() + [researcher("a1", start=2000),
                          researcher("a2", start=2007)]
    comps = [competition(["a1", "a2"], ["a1"], cid="c1"),
             competition(["a1", "a2"], ["a2"], cid="c2")]
    result = filter_eligible(make_corpus(rows, competitions=comps))
    # c1: only eligible applicant is the winner; c2: eligible winner missing
    assert result.eligible["c1"] == ["a1"]
    assert result.eligible["c2"] == ["a1"]
    assert result.retained_competitions == []


def test_filter_eligible_matches_naive_recount():
    rng = np.random.default_rng(19)
    rows = committee()
    for i in range(40):
        rows.append(researcher(
            f"a{i}",
            rank=Rank.ASSISTANT if rng.random() < 0.8 else Rank.ASSOCIATE,
            start=int(rng.integers(1998, 2009))))
    comps = []
    for j in range(12):
        pool = [f"a{i}" for i in rng.choice(40, size=8, replace=False)]
        comps.append(competition(pool, [pool[0]], cid=f"c{j:02d}",
                                 year=int(rng.integers(2006, 2011))))
    corpus = make_corpus(rows, competitions=comps)
    result = filter_eligible(corpus)

    for comp in comps:
        naive = []
        for a in comp.applicants:
            r = corpus.researchers.get(a)
            if r is not None and r.rank == Rank.ASSISTANT and \
                    comp.year - r.career_start_year >= 3:
                naive.append(a)
        assert result.eligible[comp.id] == naive
        winners = [a for a in naive if a in comp.winners]
        losers = [a for a in naive if a not in comp.winners]
        assert (comp.id in result.retained_competitions) == \
            (bool(winners) and bool(losers))


# --- single-feature checks ---------------------------------------------------

def test_all_zero_applicant():
    # male applicant, all-female committee, different university, no pubs
    rows = committee(president_gender=F, member_genders=(F, F, F, F)) + [
        researcher("a1", gender=M, uni="UB")]
    comp = competition(["a1"], [])
    corpus = make_corpus(rows, competitions=[comp])
    feats = extract_features(comp, corpus, default_scores(corpus))
    assert len(feats) == 1
    f1 = feats[0]
    assert (f1.won, f1.surname_match, f1.years_with_president,
            f1.years_with_members, f1.president_coauth_share,
            f1.coauthoring_members, f1.same_gender_president,
            f1.same_gender_majority) == (0, 0, 0, 0, 0.0, 0, 0, 0)
    assert f1.female == 0
    assert f1.merit_pct == 50.0


def test_cp_full_window_colocation():
    rows = committee() + [researcher("a1")]
    comp = competition(["a1"], ["a1"])
    corpus = make_corpus(rows, competitions=[comp])
    corpus.collaboration_window = (2001, 2010)
    feats = extract_features(comp, corpus, default_scores(corpus))
    assert feats[0].years_with_president == 10  # window-length maximum
    assert feats[0].won == 1


def test_ce_sums_across_members():
    # m1 shares all 10 window years, m2 joins in 2003 for 8, m3/m4 elsewhere
    rows = [researcher("pr", gender=M, uni="UB", rank=Rank.FULL, start=1990),
            researcher("m1", gender=M, uni="UA", rank=Rank.FULL, start=1990),
            researcher("m2", gender=M, uni="UA", rank=Rank.FULL, start=2003),
            researcher("m3", gender=M, uni="UB", rank=Rank.FULL, start=1990),
            researcher("m4", gender=M, uni="UB", rank=Rank.FULL, start=1990),
            researcher("a1")]
    comp = competition(["a1"], [])
    corpus = make_corpus(rows, competitions=[comp])
    feats = extract_features(comp, corpus, default_scores(corpus))
    assert feats[0].years_with_members == 18
    assert feats[0].years_with_president == 0


def test_affiliation_moves_change_overlap():
    moves = [(y, "UB", "S1") for y in range(2006, 2011)]
    rows = committee() + [researcher("a1", moves=moves)]
    comp = competition(["a1"], [])
    corpus = make_corpus(rows, competitions=[comp])
    feats = extract_features(comp, corpus, default_scores(corpus))
    # 2001-2005 at UA with the president, 2006-2010 away
    assert feats[0].years_with_president == 5


def test_cp_counts_only_years_in_the_same_sds():
    # same university as the president for all ten years, but another SDS
    rows = committee() + [researcher("a1", sds="S2")]
    comp = competition(["a1"], [])
    corpus = make_corpus(rows, competitions=[comp], extra_sds=("S2",))
    feats = extract_features(comp, corpus, default_scores(corpus))
    assert feats[0].years_with_president == 0


def pub(pid, year, authors):
    return Publication(pid, year, "X", 1,
                       [BylineEntry(a, "UA") for a in authors])


def test_pp_share_of_president_pubs():
    rows = committee() + [researcher("a1", gender=M)]
    pubs = [pub("p1", 2003, ["pr", "a1"]),
            pub("p2", 2004, ["pr"]),
            pub("p3", 2005, ["pr"]),
            pub("p4", 2006, ["pr"]),
            pub("p5", 1999, ["pr", "a1"])]  # outside the window
    comp = competition(["a1"], [])
    corpus = make_corpus(rows, pubs, [comp])
    feats = extract_features(comp, corpus, default_scores(corpus))
    assert feats[0].president_coauth_share == 25.0


def test_pp_zero_when_president_unpublished():
    rows = committee() + [researcher("a1")]
    comp = competition(["a1"], [])
    corpus = make_corpus(rows, [pub("p1", 2003, ["a1", "m1"])], [comp])
    feats = extract_features(comp, corpus, default_scores(corpus))
    assert feats[0].president_coauth_share == 0.0
    assert feats[0].coauthoring_members == 1


def test_pe_counts_distinct_members():
    rows = committee() + [researcher("a1")]
    pubs = [pub("p1", 2003, ["a1", "m1"]),
            pub("p2", 2004, ["a1", "m1"]),   # same member twice: still one
            pub("p3", 2005, ["a1", "m2"]),
            pub("p4", 2006, ["a1", "pr"])]   # president does not count in PE
    comp = competition(["a1"], [])
    corpus = make_corpus(rows, pubs, [comp])
    feats = extract_features(comp, corpus, default_scores(corpus))
    assert feats[0].coauthoring_members == 2
    assert feats[0].president_coauth_share == 100.0


def test_gender_match_features():
    rows = committee(president_gender=F, member_genders=(F, F, M, M)) + [
        researcher("af", gender=F), researcher("am", gender=M)]
    comp = competition(["af", "am"], [])
    corpus = make_corpus(rows, competitions=[comp])
    feats = {f.researcher_id: f for f in
             extract_features(comp, corpus, default_scores(corpus))}
    assert feats["af"].same_gender_president == 1
    assert feats["af"].same_gender_majority == 1  # 3 of 5 are female
    assert feats["am"].same_gender_president == 0
    assert feats["am"].same_gender_majority == 0
    assert feats["af"].female == 1 and feats["am"].female == 0


def test_se_invariant_to_member_permutation_and_threshold():
    base_rows = committee(president_gender=M, member_genders=(F, F, M, M))
    applicant = researcher("a1", gender=F)
    comp = competition(["a1"], [])
    corpus = make_corpus(base_rows + [applicant], competitions=[comp])
    se_before = extract_features(comp, corpus, default_scores(corpus))[0]
    assert se_before.same_gender_majority == 0  # 2 of 5 female

    # permuting members leaves SP and SE unchanged
    shuffled = Competition("c1", "S1", "UA", 2008, "pr",
                           ["m3", "m1", "m4", "m2"], ["a1"], [])
    corpus.competitions["c1"] = shuffled
    f_shuffled = extract_features(shuffled, corpus, default_scores(corpus))[0]
    assert f_shuffled.same_gender_majority == se_before.same_gender_majority
    assert f_shuffled.same_gender_president == se_before.same_gender_president

    # flipping one male member across the threshold flips SE
    corpus.researchers["m3"] = researcher("m3", gender=F, uni="UA",
                                          rank=Rank.FULL, start=1990)
    f_flipped = extract_features(shuffled, corpus, default_scores(corpus))[0]
    assert f_flipped.same_gender_majority == 1


def test_surname_match():
    rows = committee() + [
        researcher("a1", name="de  Rossi"),
        researcher("a2", name="Bianchi"),
        researcher("a3", name="Verdi"),
        researcher("fp1", name=" DE ROSSI ", uni="UA", rank=Rank.FULL, start=1980),
        researcher("fp2", name="Bianchi", uni="UB", rank=Rank.FULL, start=1980),
        researcher("as1", name="Verdi", uni="UA", rank=Rank.ASSOCIATE, start=1980),
    ]
    comp = competition(["a1", "a2", "a3"], [])
    corpus = make_corpus(rows, competitions=[comp])
    feats = {f.researcher_id: f for f in
             extract_features(comp, corpus, default_scores(corpus))}
    assert feats["a1"].surname_match == 1   # full professor at UA, same name
    assert feats["a2"].surname_match == 0   # namesake is at another university
    assert feats["a3"].surname_match == 0   # namesake is not a full professor


def test_surname_match_respects_move_year():
    rows = committee() + [
        researcher("a1", name="Neri"),
        researcher("fp1", name="Neri", uni="UB", rank=Rank.FULL, start=1980,
                   moves=[(2008, "UA", "S1")]),
    ]
    comp = competition(["a1"], [], year=2008)
    corpus = make_corpus(rows, competitions=[comp])
    feats = extract_features(comp, corpus, default_scores(corpus))
    assert feats[0].surname_match == 1  # moved to the hiring university that year
    later = competition(["a1"], [], year=2009, cid="c2")
    corpus.competitions["c2"] = later
    feats = extract_features(later, corpus, default_scores(corpus))
    assert feats[0].surname_match == 0  # back at UB in 2009


def test_missing_score_raises():
    rows = committee() + [researcher("a1")]
    comp = competition(["a1"], [])
    corpus = make_corpus(rows, competitions=[comp])
    with pytest.raises(MissingScore):
        extract_features(comp, corpus, make_scores({}))


# --- whole-corpus extraction -------------------------------------------------

def two_competition_corpus():
    rows = committee() + [researcher("a1"), researcher("a2"), researcher("a3")]
    comps = [competition(["a2", "a3"], ["a2"], cid="c2"),
             competition(["a1", "a3"], ["a1"], cid="c1")]
    return make_corpus(rows, competitions=comps)


def test_extract_all_order_and_determinism():
    corpus = two_competition_corpus()
    scores = default_scores(corpus)
    rows1 = extract_all(corpus, scores)
    rows2 = extract_all(corpus, scores)
    assert rows1 == rows2
    assert [(r.competition_id, r.researcher_id) for r in rows1] == [
        ("c1", "a1"), ("c1", "a3"), ("c2", "a2"), ("c2", "a3")]


def test_write_features(tmp_path):
    corpus = two_competition_corpus()
    rows = extract_all(corpus, default_scores(corpus))
    path = tmp_path / "features.csv"
    write_features(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "competition_id,researcher_id,E,G,FSS,NE,CP,CE,PP,PE,SP,SE"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "c1" and first[1] == "a1"
    assert first[2] == "1"          # winner
    assert float(first[4]) == 50.0  # FSS percentile


# --- design assembly ---------------------------------------------------------

def feature_row(cid, rid, won, female, pct, **kw):
    from concorso.features import ApplicantFeatures
    defaults = dict(surname_match=0, years_with_president=0, years_with_members=0,
                    president_coauth_share=0.0, coauthoring_members=0,
                    same_gender_president=0, same_gender_majority=0, merit_raw=pct)
    defaults.update(kw)
    return ApplicantFeatures(cid, rid, won, female, pct, **defaults)


def test_build_design_full_interactions():
    rows = [feature_row("c1", "a1", 1, 1, 80.0, years_with_president=4),
            feature_row("c1", "a2", 0, 0, 30.0, years_with_president=2),
            feature_row("c2", "a3", 1, 0, 55.0, same_gender_president=1)]
    design = build_design(rows)
    assert design.columns == [
        "const", "G", "FSS", "G*FSS", "NE", "G*NE", "CP", "G*CP", "CE", "G*CE",
        "PP", "G*PP", "PE", "G*PE", "SP", "G*SP", "SE", "G*SE"]
    assert design.X.shape == (3, 18)
    g = design.X[:, 1]
    fss = design.X[:, 2]
    assert list(design.X[:, 3]) == list(g * fss)
    cp = design.X[:, design.columns.index("CP")]
    assert list(cp) == [4.0, 2.0, 0.0]
    assert list(design.X[:, design.columns.index("G*CP")]) == [4.0, 0.0, 0.0]
    assert list(design.y) == [1.0, 0.0, 1.0]
    assert list(design.clusters) == ["c1", "c1", "c2"]


def test_build_design_reduced():
    rows = [feature_row("c1", "a1", 1, 1, 80.0),
            feature_row("c1", "a2", 0, 0, 30.0)]
    design = build_design(rows, base_columns=["G", "FSS", "CP"], interactions=False)
    assert design.columns == ["const", "G", "FSS", "CP"]
    assert design.X.shape == (2, 4)


def test_build_design_rejects_bad_config():
    rows = [feature_row("c1", "a1", 1, 1, 80.0)]
    with pytest.raises(ConfigError):
        build_design(rows, base_columns=["G", "XX"])
    with pytest.raises(ConfigError):
        build_design(rows, base_columns=["FSS"], interactions=True)


# --- indexed extraction against a brute-force reference ---------------------

def reference_overlap_years(a, b, window):
    """Per-year recount, as extraction did before the per-call index."""
    count = 0
    for year in range(window[0], window[1] + 1):
        fa = a.affiliation_in(year)
        fb = b.affiliation_in(year)
        if fa is None or fb is None or fa[0] != fb[0]:
            continue
        if fa[1] != fb[1]:
            continue
        count += 1
    return count


def reference_full_professor_names(corpus, university, year):
    """Full scan of the roster for one competition."""
    names = set()
    for r in corpus.researchers.values():
        if r.rank is not Rank.FULL:
            continue
        affiliation = r.affiliation_in(year)
        if affiliation is not None and affiliation[0] == university:
            names.add(normalize_family_name(r.family_name))
    return names


def reference_rows(corpus, window):
    """(competition, applicant, NE, CP, CE, PP, PE) for every eligible row."""
    def pub_ids(rid):
        return {p.id for p in corpus.publications.values()
                if window[0] <= p.year <= window[1]
                and any(e.author == rid for e in p.byline)}

    rows = []
    eligibility = filter_eligible(corpus)
    for comp_id in sorted(corpus.competitions):
        comp = corpus.competitions[comp_id]
        names = reference_full_professor_names(corpus, comp.university_id,
                                               comp.year)
        president = corpus.researchers[comp.president]
        members = [corpus.researchers[m] for m in comp.members]
        president_pubs = pub_ids(comp.president)
        for rid in sorted(set(eligibility.eligible[comp_id])):
            a = corpus.researchers[rid]
            a_pubs = pub_ids(rid)
            pp = (100.0 * len(president_pubs & a_pubs) / len(president_pubs)
                  if president_pubs else 0.0)
            rows.append((
                comp_id, rid,
                int(normalize_family_name(a.family_name) in names),
                reference_overlap_years(a, president, window),
                sum(reference_overlap_years(a, m, window) for m in members),
                pp,
                sum(1 for m in comp.members if pub_ids(m) & a_pubs)))
    return rows


def indexed_rows(rows):
    return [(r.competition_id, r.researcher_id, r.surname_match,
             r.years_with_president, r.years_with_members,
             r.president_coauth_share, r.coauthoring_members) for r in rows]


def assert_index_matches_reference(corpus, window):
    corpus.collaboration_window = window
    scores = default_scores(corpus)
    rows = extract_all(corpus, scores)
    assert indexed_rows(rows) == reference_rows(corpus, window)
    # the single-competition entry point builds its own index
    single = [row for cid in sorted(corpus.competitions)
              for row in extract_features(corpus.competitions[cid], corpus,
                                          scores)]
    assert single == rows


def test_index_hand_fixture_career_end_and_years():
    # m1 leaves the profession in 2005; the namesake full professor in 2007
    rows = [researcher("pr", gender=M, rank=Rank.FULL, start=1990),
            researcher("m1", gender=M, rank=Rank.FULL, start=1990, end=2005),
            researcher("m2", gender=M, uni="UB", rank=Rank.FULL, start=1990),
            researcher("m3", gender=M, uni="UB", rank=Rank.FULL, start=1990),
            researcher("m4", gender=M, uni="UB", rank=Rank.FULL, start=1990,
                       moves=[(2004, "UA", "S2"), (2005, "UA", "S1")]),
            researcher("fp", name="Neri", rank=Rank.FULL, start=1980, end=2007),
            researcher("a1", name="Neri"),
            researcher("a2", start=2000, moves=[(2009, "UB", "S1")])]
    comps = [competition(["a1", "a2"], ["a1"], year=2006, cid="c1"),
             competition(["a1", "a2"], ["a2"], year=2009, cid="c2")]
    corpus = make_corpus(rows, competitions=comps, extra_sds=("S2",))
    feats = {(f.competition_id, f.researcher_id): f
             for f in extract_all(corpus, default_scores(corpus))}
    # the namesake counts while employed at UA, not after the career ends
    assert feats["c1", "a1"].surname_match == 1
    assert feats["c2", "a1"].surname_match == 0
    assert feats["c1", "a1"].years_with_president == 10
    # m1 shares 2001-2005; m4 shares 2005 only (S2 in 2004)
    assert feats["c1", "a1"].years_with_members == 6
    assert feats["c2", "a2"].years_with_president == 9  # at UB in 2009
    for window in ((2001, 2010), (1995, 2020)):
        assert_index_matches_reference(corpus, window)


def perturb(corpus, rng, years):
    """Random career ends, cross-SDS overrides and competition years, so that
    the index meets more than the generator's single year and SDS."""
    universities = sorted({r.university_id for r in corpus.researchers.values()})
    sds_ids = sorted(corpus.taxonomy)
    for rid, r in list(corpus.researchers.items()):
        if rng.random() < 0.2:
            r = replace(r, career_end_year=int(rng.integers(1998, 2012)))
        if rng.random() < 0.3:
            overrides = {int(y): (universities[int(rng.integers(len(universities)))],
                                  sds_ids[int(rng.integers(len(sds_ids)))])
                         for y in rng.integers(1995, 2016, size=4)}
            r = replace(r, affiliations=tuple(
                (y, uni, sds) for y, (uni, sds) in sorted(overrides.items())))
        corpus.researchers[rid] = r
    for comp in corpus.competitions.values():
        comp.year = int(rng.choice(years))


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**16),
       lo=st.integers(1995, 2008),
       length=st.integers(0, 15),
       years=st.lists(st.integers(2006, 2011), min_size=1, max_size=3))
def test_index_matches_reference_on_generated_corpora(seed, lo, length, years):
    cfg = GenConfig(seed=seed, n_sds=2, n_universities=3, researchers_per_sds=14,
                    competitions_per_sds=3, applicants_per_competition=6,
                    mobility_rate=1.0)
    corpus, _ = generate(cfg)
    window = (lo, lo + length)  # may run past corpus.year_range (2001-2010)
    assert_index_matches_reference(corpus, window)
    perturb(corpus, np.random.default_rng(seed), years)
    assert_index_matches_reference(corpus, window)
