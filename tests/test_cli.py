"""Tests for the command line and the report rendering layer."""

import csv
import hashlib
import json
import math
import subprocess
import sys

import pytest

from concorso.bias import detect_all
from concorso.corpus import Corpus, load_corpus, write_corpus
from concorso.cli import main, parse_window
from concorso.errors import ConfigError
from concorso.features import extract_all, write_features
from concorso.report import fmt, render_regression, regression_dict, stars
from concorso.scoring import median_fss_by_sds, score_corpus

GEN_SMALL = ["--n-sds", "2", "--researchers-per-sds", "14",
             "--competitions-per-sds", "2", "--applicants-per-competition", "5"]

MACHINE_OUTPUTS = ["scores.csv", "score_meta.json", "findings.csv",
                   "bias_negative.json", "bias_positive.json",
                   "features.csv", "descriptives.json", "correlations.json",
                   "regression.json"]
TEXT_OUTPUTS = ["bias_negative.txt", "bias_positive.txt", "descriptives.txt",
                "correlations.txt", "regression.txt"]


def run_gen(out_dir, *extra, small=True):
    size = GEN_SMALL if small else []
    return main(["gen", "--out-dir", str(out_dir), *size, *extra])


def test_stars_thresholds():
    assert stars(0.009) == "***"
    assert stars(0.01) == "**"
    assert stars(0.049) == "**"
    assert stars(0.05) == "*"
    assert stars(0.099) == "*"
    assert stars(0.10) == ""
    assert stars(None) == ""


def test_fmt_dashes_and_precision():
    assert fmt(None) == "-"
    assert fmt(0.12345) == "0.123"
    assert fmt(1.5, 1) == "1.5"
    assert fmt(7) == "7"


def test_parse_window():
    assert parse_window("2004:2008") == (2004, 2008)
    for bad in ("2004", "a:b", "2008:2004", "2004:2005:2006"):
        with pytest.raises(ConfigError):
            parse_window(bad)


def test_pipeline_runs_and_is_deterministic(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert run_gen(corpus_dir, "--seed", "5", "--w-cp", "8.0",
                   "--noise-sd", "4.0", small=False) == 0
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        assert main(["report", "--input-dir", str(corpus_dir),
                     "--out-dir", str(out_dir)]) == 0
        outputs.append(out_dir)
    capsys.readouterr()
    for name in MACHINE_OUTPUTS + TEXT_OUTPUTS:
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, name
        assert a, name


def test_gen_same_seed_identical_files(tmp_path, capsys):
    d1, d2 = tmp_path / "g1", tmp_path / "g2"
    assert run_gen(d1, "--seed", "9") == 0
    assert run_gen(d2, "--seed", "9") == 0
    capsys.readouterr()
    for name in ("researchers.csv", "publications.jsonl",
                 "competitions.jsonl", "taxonomy.csv", "ground_truth.jsonl"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_missing_input_path_is_data_error(tmp_path, capsys):
    missing = tmp_path / "nowhere"
    code = main(["score", "--input-dir", str(missing),
                 "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert "nowhere" in err


def test_all_male_corpus_is_rank_deficient(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert run_gen(corpus_dir, "--seed", "2", "--female-share", "0") == 0
    code = main(["regress", "--input-dir", str(corpus_dir),
                 "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "RankDeficient" in err


def test_infeasible_generator_config(tmp_path, capsys):
    code = main(["gen", "--out-dir", str(tmp_path / "x"),
                 "--researchers-per-sds", "0"])
    err = capsys.readouterr().err
    assert code == 3
    assert "researchers_per_sds" in err


def test_bad_flags_exit_config(tmp_path, capsys):
    assert main(["frobnicate"]) == 3
    assert main([]) == 3
    assert main(["gen"]) == 3  # --out-dir is required
    assert main(["score", "--input-dir", str(tmp_path),
                 "--out-dir", str(tmp_path), "--window-fss", "bogus"]) == 3
    assert main(["audit", "--input-dir", str(tmp_path),
                 "--out-dir", str(tmp_path), "--threshold", "0"]) == 3
    capsys.readouterr()


def test_empty_corpus_scores_cleanly(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    write_corpus(Corpus(), corpus_dir)
    out_dir = tmp_path / "out"
    assert main(["score", "--input-dir", str(corpus_dir),
                 "--out-dir", str(out_dir)]) == 0
    rows = (out_dir / "scores.csv").read_text().splitlines()
    assert rows == ["researcher_id,sds,rank,t,n_pubs,fss,percentile"]
    assert main(["audit", "--input-dir", str(corpus_dir),
                 "--out-dir", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert "warning" in captured.err
    twin = json.loads((out_dir / "bias_negative.json").read_text())
    assert twin["n_findings"] == 0
    assert twin["rows"] == []


def test_window_flags_propagate(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert run_gen(corpus_dir, "--seed", "4") == 0
    out_dir = tmp_path / "out"
    assert main(["score", "--input-dir", str(corpus_dir),
                 "--out-dir", str(out_dir),
                 "--window-fss", "2005:2007"]) == 0
    capsys.readouterr()
    meta = json.loads((out_dir / "score_meta.json").read_text())
    assert tuple(meta["window"]) == (2005, 2007)


def test_threshold_flag_propagates(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert run_gen(corpus_dir, "--seed", "6", "--w-cp", "10.0",
                   "--noise-sd", "5.0") == 0
    findings_at = {}
    for threshold in ("20", "30"):
        out_dir = tmp_path / f"out{threshold}"
        assert main(["audit", "--input-dir", str(corpus_dir),
                     "--out-dir", str(out_dir),
                     "--threshold", threshold]) == 0
        with open(out_dir / "findings.csv", newline="") as fh:
            findings_at[threshold] = list(csv.DictReader(fh))
        twin = json.loads((out_dir / "bias_negative.json").read_text())
        assert twin["threshold"] == float(threshold)
    capsys.readouterr()

    # the exported findings must equal a direct detector run at the same
    # threshold on the same corpus
    corpus = load_corpus(corpus_dir)
    table = score_corpus(corpus)
    rows = extract_all(corpus, table)
    medians = median_fss_by_sds(table, corpus)
    direct = detect_all(rows, corpus, medians, threshold=30.0)
    exported = {(r["competition_id"], r["researcher_id"], r["kind"])
                for r in findings_at["30"]}
    assert exported == {(f.competition_id, f.researcher_id, f.kind.value)
                        for f in direct}


def test_rendered_odds_ratio_matches_exp_b(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert run_gen(corpus_dir, "--seed", "8", "--w-cp", "6.0",
                   "--noise-sd", "6.0", small=False) == 0
    out_dir = tmp_path / "out"
    assert main(["regress", "--input-dir", str(corpus_dir),
                 "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    twin = json.loads((out_dir / "regression.json").read_text())
    assert len(twin["coefficients"]) == 18
    for row in twin["coefficients"]:
        if row["name"] == "Constant":
            assert row["odds_ratio"] is None
        else:
            assert round(row["odds_ratio"], 3) == round(math.exp(row["b"]), 3)
    text = (out_dir / "regression.txt").read_text()
    assert "Statistical significance: *p-value <0.10, **p-value <0.05, " \
           "***p-value <0.01." in text
    assert f"adjusted for {twin['n_clusters']} clusters" in text
    for row in twin["coefficients"]:
        if row["binary"]:
            assert row["b_stdx"] is None
    assert "[§]" in text


def test_regression_render_from_twin_roundtrip(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert run_gen(corpus_dir, "--seed", "1", "--w-cp", "5.0",
                   "--noise-sd", "10.0") == 0
    capsys.readouterr()
    corpus = load_corpus(corpus_dir)
    table = score_corpus(corpus)
    rows = extract_all(corpus, table)
    from concorso.features import build_design
    from concorso.stats import fit_logit
    result = fit_logit(build_design(rows, base_columns=["FSS", "CP"],
                                    interactions=False))
    twin = regression_dict(result)
    rehydrated = json.loads(json.dumps(twin))
    assert render_regression(rehydrated) == render_regression(twin)


def test_module_entrypoint_subprocess(tmp_path):
    out = tmp_path / "corpus"
    proc = subprocess.run(
        [sys.executable, "-m", "concorso.cli", "gen",
         "--out-dir", str(out), *GEN_SMALL, "--seed", "0"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "seed 0" in proc.stdout
    assert (out / "researchers.csv").exists()


def test_merit_only_pipeline_winners_match_truth(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert run_gen(corpus_dir, "--seed", "17") == 0  # default weights: merit only
    capsys.readouterr()
    corpus = load_corpus(corpus_dir)
    truth_lines = (corpus_dir / "ground_truth.jsonl").read_text().splitlines()
    for line in truth_lines:
        record = json.loads(line)
        comp = corpus.competitions[record["competition"]]
        assert comp.winners == record["merit_winners"]
        assert not record["injected"]


# sha256 of `concorso gen --seed 1 --w-cp 6 --noise-sd 8` at the default
# 5x40x6 scale, and of features.csv written by write_features(extract_all(...))
# on that corpus, as produced before extraction moved to a per-call index.
# They hold the generator's outputs byte for byte across refactors; a numpy
# release that changes its Generator streams would move them too.
GOLDEN_GEN_S = {
    "competitions.jsonl": "2946f0d0f4d00cbad029a1c0f04864796602fb206d338e36eee3b281d1351e6e",
    "ground_truth.jsonl": "c382fcfebe7fcd6607313db6513af6983c163789ec39d9e45c0dc9f930b8746d",
    "publications.jsonl": "223bf1cac7d7ce6b2412614ef416d8cbf2932f0cd4b5be2e3d84f79ea2104b34",
    "researchers.csv": "56c7da1c0072ca66ed4e02d3bd055f238121ac94a534ecd81b171d142633eb5d",
    "taxonomy.csv": "8dbdf405dc88a428110be928e4cbf621a829e5e2168e993f4bac6d7ec6626850",
    "features.csv": "65b614ca330f7fd38751be9952566c4ab283b55b6170a6ee3def35e7aaab1375",
}


def test_gen_and_features_golden_hashes(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert run_gen(corpus_dir, "--seed", "1", "--w-cp", "6", "--noise-sd", "8",
                   small=False) == 0
    corpus = load_corpus(corpus_dir)
    write_features(extract_all(corpus, score_corpus(corpus)),
                   corpus_dir / "features.csv")
    digests = {name: hashlib.sha256((corpus_dir / name).read_bytes()).hexdigest()
               for name in GOLDEN_GEN_S}
    assert digests == GOLDEN_GEN_S
    assert sorted(p.name for p in corpus_dir.iterdir()) == sorted(GOLDEN_GEN_S)
