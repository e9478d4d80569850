"""Bias detectors against a naive condition enumerator, plus aggregation."""

import numpy as np
import pytest

from concorso.bias import (
    BiasKind,
    aggregate_bias,
    detect_all,
    detect_negative,
    detect_positive,
    write_findings,
)
from concorso.corpus import Competition, Convention, Corpus, SdsRecord
from concorso.features import ApplicantFeatures
from concorso.stats import two_sample_t


def row(cid, rid, won, pct, raw=None, female=0):
    return ApplicantFeatures(
        competition_id=cid, researcher_id=rid, won=won, female=female,
        merit_pct=float(pct), surname_match=0, years_with_president=0,
        years_with_members=0, president_coauth_share=0.0,
        coauthoring_members=0, same_gender_president=0,
        same_gender_majority=0,
        merit_raw=float(pct) / 10 if raw is None else float(raw))


# --- naive enumerators (independent condition-by-condition evaluation) -------

def naive_negative(rows, median, thr):
    winner_pcts = [r.merit_pct for r in rows if r.won == 1]
    losers = [r for r in rows if r.won == 0]
    if len(winner_pcts) == 0 or len(losers) == 0:
        return []
    passed = []
    for r in losers:
        cond_i = any(r.merit_pct - w >= thr for w in winner_pcts)
        cond_ii = not (r.merit_raw < median)
        if cond_i and cond_ii:
            passed.append(r)
    out = []
    for s in passed:
        # condition iii: nobody who passed i+ii outranks s by more than thr
        dominated = any(s2.merit_pct - s.merit_pct > thr for s2 in passed)
        if not dominated:
            worst = sorted(winner_pcts)[0]
            out.append((s.researcher_id, s.merit_pct - worst - thr,
                        ("N-i", "N-ii", "N-iii")))
    return sorted(out)


def naive_positive(rows, median, thr):
    winners = [r for r in rows if r.won == 1]
    loser_pcts = [r.merit_pct for r in rows if r.won == 0]
    if len(winners) == 0 or len(loser_pcts) == 0:
        return []
    out = []
    for w in winners:
        triggers = []
        if any(lp - w.merit_pct >= thr for lp in loser_pcts):
            triggers.append("P-i")
        if w.merit_raw < median:
            triggers.append("P-ii")
        if triggers:
            best = loser_pcts[0]
            for lp in loser_pcts[1:]:
                if lp > best:
                    best = lp
            out.append((w.researcher_id, best - w.merit_pct - thr,
                        tuple(triggers)))
    return sorted(out)


# --- worked examples ----------------------------------------------------------

def test_negative_worked_example():
    rows = [row("c1", "w1", 1, 40), row("c1", "w2", 1, 60),
            row("c1", "n1", 0, 80, raw=9.9)]
    findings = detect_negative("c1", rows, sds_median_fss=1.0)
    assert len(findings) == 1
    f = findings[0]
    assert f.researcher_id == "n1"
    assert f.level == 20.0
    assert f.triggers == ("N-i", "N-ii", "N-iii")
    assert f.kind is BiasKind.NEGATIVE


def test_negative_below_threshold_not_flagged():
    rows = [row("c1", "w1", 1, 40), row("c1", "n1", 0, 55)]
    assert detect_negative("c1", rows, 0.0) == []


def test_negative_stage_two_prunes_weaker_candidates():
    rows = [row("c1", "w1", 1, 40),
            row("c1", "n1", 0, 90), row("c1", "n2", 0, 65)]
    findings = detect_negative("c1", rows, 0.0)
    assert [f.researcher_id for f in findings] == ["n1"]
    assert findings[0].level == 30.0


def test_negative_multiple_findings():
    rows = [row("c1", "w1", 1, 40),
            row("c1", "n1", 0, 85), row("c1", "n2", 0, 90)]
    findings = detect_negative("c1", rows, 0.0)
    assert [(f.researcher_id, f.level) for f in findings] == [("n1", 25.0),
                                                              ("n2", 30.0)]


def test_negative_median_rule():
    rows = [row("c1", "w1", 1, 10, raw=5.0),
            row("c1", "n1", 0, 80, raw=1.0),   # strong rank, weak raw score
            row("c1", "n2", 0, 75, raw=2.0)]   # exactly at the median: kept
    findings = detect_negative("c1", rows, sds_median_fss=2.0)
    assert [f.researcher_id for f in findings] == ["n2"]


def test_negative_exact_threshold_boundary():
    rows = [row("c1", "w1", 1, 40), row("c1", "n1", 0, 60, raw=9.0)]
    findings = detect_negative("c1", rows, 0.0)
    assert len(findings) == 1
    assert findings[0].level == 0.0


def test_positive_worked_example():
    rows = [row("c1", "w1", 1, 30, raw=9.0), row("c1", "n1", 0, 70)]
    findings = detect_positive("c1", rows, 0.0)
    assert len(findings) == 1
    assert findings[0].level == 20.0
    assert findings[0].triggers == ("P-i",)
    assert findings[0].kind is BiasKind.POSITIVE


def test_positive_median_only_negative_level():
    rows = [row("c1", "w1", 1, 30, raw=1.0), row("c1", "n1", 0, 35)]
    findings = detect_positive("c1", rows, sds_median_fss=2.0)
    assert len(findings) == 1
    assert findings[0].triggers == ("P-ii",)
    assert findings[0].level == -15.0


def test_positive_top_winner_not_flagged():
    rows = [row("c1", "w1", 1, 100, raw=9.0), row("c1", "n1", 0, 50)]
    assert detect_positive("c1", rows, 0.0) == []


def test_positive_median_tie_not_flagged():
    # raw score exactly at the median is not "below" it
    rows = [row("c1", "w1", 1, 90, raw=2.0), row("c1", "n1", 0, 50)]
    assert detect_positive("c1", rows, sds_median_fss=2.0) == []


def test_detectors_empty_without_both_sides():
    only_winners = [row("c1", "w1", 1, 40)]
    only_losers = [row("c1", "n1", 0, 80)]
    for rows in (only_winners, only_losers, []):
        assert detect_negative("c1", rows, 0.0) == []
        assert detect_positive("c1", rows, 0.0) == []


# --- randomized agreement with the naive enumerator ---------------------------

def random_competition(rng, cid):
    n = int(rng.integers(2, 31))
    n_winners = 1 if n == 2 else int(rng.integers(1, 3))
    pct_grid = np.arange(0, 101, 5, dtype=float)
    rows = []
    for i in range(n):
        pct = float(rng.choice(pct_grid))
        raw = float(rng.integers(0, 11)) / 2.0  # coarse grid forces median ties
        rows.append(row(cid, f"r{i:02d}", 1 if i < n_winners else 0, pct, raw=raw))
    return rows


def test_randomized_agreement_with_naive_oracle():
    rng = np.random.default_rng(83)
    thr = 20.0
    for trial in range(300):
        rows = random_competition(rng, f"c{trial}")
        median = float(rng.integers(0, 11)) / 2.0
        ours_n = detect_negative(f"c{trial}", rows, median, thr)
        ours_p = detect_positive(f"c{trial}", rows, median, thr)
        got_n = sorted((f.researcher_id, f.level, f.triggers) for f in ours_n)
        got_p = sorted((f.researcher_id, f.level, f.triggers) for f in ours_p)
        want_n = naive_negative(rows, median, thr)
        want_p = naive_positive(rows, median, thr)
        assert [g[0] for g in got_n] == [w[0] for w in want_n]
        assert [g[0] for g in got_p] == [w[0] for w in want_p]
        for g, w in zip(got_n + got_p, want_n + want_p):
            assert abs(g[1] - w[1]) <= 1e-12
            assert g[2] == w[2]

        # properties: D >= 0 always, F >= 0 whenever P-i fired
        for f in ours_n:
            assert f.level >= 0.0
        for f in ours_p:
            if "P-i" in f.triggers:
                assert f.level >= 0.0
        # a discriminated non-winner implies a favored winner via P-i
        if ours_n:
            assert any("P-i" in f.triggers for f in ours_p)


def test_stage1_shrinks_as_threshold_grows():
    rng = np.random.default_rng(89)
    for trial in range(100):
        rows = random_competition(rng, "c")
        median = 2.0
        winner_pcts = [r.merit_pct for r in rows if r.won]
        losers = [r for r in rows if not r.won]
        if not winner_pcts or not losers:
            continue
        stage1 = {}
        for thr in (20.0, 30.0):
            worst = min(winner_pcts)
            stage1[thr] = {r.researcher_id for r in losers
                           if r.merit_pct - worst >= thr
                           and r.merit_raw >= median}
        assert stage1[30.0] <= stage1[20.0]


# --- detect_all and aggregation ------------------------------------------------

def audit_corpus():
    corpus = Corpus()
    corpus.taxonomy["SA"] = SdsRecord("SA", "A", Convention.ALPHABETICAL)
    corpus.taxonomy["SB"] = SdsRecord("SB", "B", Convention.ALPHABETICAL)
    for cid, sds in (("c1", "SA"), ("c2", "SB")):
        corpus.competitions[cid] = Competition(
            cid, sds, "U1", 2008, "pr", ["m1", "m2", "m3", "m4"], [], [])
    return corpus


def test_detect_all_uses_sds_medians():
    corpus = audit_corpus()
    features = [
        row("c1", "w1", 1, 10, raw=0.5), row("c1", "n1", 0, 80, raw=3.0),
        row("c2", "w2", 1, 10, raw=0.5), row("c2", "n2", 0, 80, raw=3.0),
    ]
    medians = {"SA": 2.0, "SB": 5.0}
    findings = detect_all(features, corpus, medians,
                          retained=["c1", "c2"])
    kinds = {(f.competition_id, f.kind.value, f.researcher_id) for f in findings}
    # c1: n1 above its median -> negative finding; c2: n2 below median -> none
    assert ("c1", "negative", "n1") in kinds
    assert ("c2", "negative", "n2") not in kinds
    # both winners sit below their cohort medians -> positive everywhere
    assert ("c1", "positive", "w1") in kinds
    assert ("c2", "positive", "w2") in kinds


def test_aggregate_counts_and_levels():
    corpus = audit_corpus()
    features = [
        row("c1", "w1", 1, 10, raw=9.0, female=0),
        row("c1", "n1", 0, 80, raw=9.0, female=1),
        row("c1", "n2", 0, 30, raw=9.0, female=0),
        row("c2", "w2", 1, 20, raw=9.0, female=1),
        row("c2", "n3", 0, 90, raw=9.0, female=1),
        row("c2", "n4", 0, 85, raw=9.0, female=0),
    ]
    findings = detect_all(features, corpus, {"SA": 1.0, "SB": 1.0},
                          retained=["c1", "c2"])
    table = aggregate_bias(findings, features, corpus, BiasKind.NEGATIVE)

    assert [r.uda for r in table.rows] == ["A", "B"]
    uda_a, uda_b = table.rows
    # c1: n1 flagged (D = 80-30 = 50); c2: n3 and n4 both flagged
    assert uda_a.female.n_flagged == 1
    assert uda_a.female.n_applicants == 1
    assert uda_a.female.share == 1.0
    assert uda_a.female.level_mean == 50.0
    assert uda_a.female.level_sd is None          # single finding
    assert uda_a.female.level_max == 50.0
    assert uda_a.male.n_flagged == 0
    assert uda_a.male.n_applicants == 2
    assert uda_b.female.n_flagged == 1             # n3, D = 90-40 = 50
    assert uda_b.male.n_flagged == 1               # n4, D = 85-40 = 45
    assert uda_b.male.level_mean == 45.0
    assert table.overall.female.n_flagged == 2
    assert table.overall.male.n_flagged == 1
    assert table.overall.female.n_applicants == 3
    assert table.overall.male.n_applicants == 3
    assert table.n_findings == 3
    assert table.n_competitions == 2

    # incidence test equals a direct recomputation on the 0/1 vectors
    direct = two_sample_t([1.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    assert table.overall.incidence_test.statistic == direct.statistic
    assert table.overall.incidence_test.p_two_sided == direct.p_two_sided


def test_aggregate_no_findings():
    corpus = audit_corpus()
    features = [row("c1", "w1", 1, 90, raw=9.0, female=1),
                row("c1", "n1", 0, 10, raw=9.0, female=0)]
    table = aggregate_bias([], features, corpus, BiasKind.NEGATIVE)
    assert table.n_findings == 0
    cell = table.rows[0].female
    assert cell.n_flagged == 0 and cell.n_applicants == 1
    assert cell.level_mean is None and cell.level_max is None
    assert table.rows[0].level_test is None        # nothing to compare
    assert table.overall.incidence_test is None    # all-zero incidence vectors


def test_aggregate_bonferroni_family_size():
    corpus = audit_corpus()
    features = [
        row("c1", "w1", 1, 10, raw=9.0, female=1),
        row("c1", "n1", 0, 80, raw=9.0, female=1),
        row("c1", "n2", 0, 70, raw=9.0, female=0),
        row("c1", "n5", 0, 20, raw=9.0, female=0),
        row("c2", "w2", 1, 10, raw=9.0, female=0),
        row("c2", "n3", 0, 90, raw=9.0, female=1),
        row("c2", "n4", 0, 85, raw=9.0, female=0),
        row("c2", "n6", 0, 30, raw=9.0, female=1),
    ]
    findings = detect_all(features, corpus, {"SA": 1.0, "SB": 1.0},
                          retained=["c1", "c2"])
    table = aggregate_bias(findings, features, corpus, BiasKind.NEGATIVE)
    computable = [r.incidence_test for r in table.rows if r.incidence_test]
    m = len(computable)
    assert m == 2
    for t in computable:
        assert t.p_bonferroni == min(1.0, m * t.p_two_sided)


def test_aggregate_levels_include_p_ii_only_findings():
    corpus = audit_corpus()
    features = [
        row("c1", "w1", 1, 30, raw=0.5, female=1),  # P-ii only, F = -15
        row("c1", "n1", 0, 35, raw=9.0, female=0),
        row("c2", "w2", 1, 10, raw=9.0, female=1),  # P-i, F = 60
        row("c2", "n3", 0, 90, raw=9.0, female=0),
    ]
    findings = detect_all(features, corpus, {"SA": 2.0, "SB": 2.0},
                          retained=["c1", "c2"])
    everything = aggregate_bias(findings, features, corpus, BiasKind.POSITIVE)
    assert everything.overall.female.n_flagged == 2
    assert everything.overall.female.level_mean == pytest.approx((60.0 - 15.0) / 2)


def test_aggregate_welch_flag_changes_df():
    corpus = audit_corpus()
    rng = np.random.default_rng(97)
    features = []
    for i in range(40):
        cid = "c1" if i % 2 else "c2"
        features.append(row(cid, f"r{i}", int(i % 7 == 0),
                            float(rng.integers(0, 101)),
                            raw=9.0, female=int(i % 3 == 0)))
    findings = detect_all(features, corpus, {"SA": 1.0, "SB": 1.0},
                          retained=["c1", "c2"])
    pooled = aggregate_bias(findings, features, corpus, BiasKind.POSITIVE)
    welch = aggregate_bias(findings, features, corpus, BiasKind.POSITIVE,
                           welch=True)
    assert pooled.overall.incidence_test.df != welch.overall.incidence_test.df


def test_write_findings(tmp_path):
    findings = [
        detect_positive("c2", [row("c2", "w1", 1, 10, raw=9.0),
                               row("c2", "n1", 0, 80)], 0.0)[0],
        detect_negative("c1", [row("c1", "w1", 1, 10),
                               row("c1", "n1", 0, 80, raw=9.0)], 0.0)[0],
    ]
    path = tmp_path / "findings.csv"
    write_findings(findings, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "competition_id,researcher_id,kind,level,triggers"
    assert lines[1].startswith("c1,n1,negative,50.0,N-i;N-ii;N-iii")
    assert lines[2].startswith("c2,w1,positive,50.0,P-i")
