"""Tests for the command line and the report rendering layer."""

import csv
import gc
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concorso import bias
from concorso.bias import BiasKind, aggregate_bias, detect_all
from concorso.corpus import Corpus, load_corpus, write_corpus
from concorso import cli
from concorso.cli import main, window
from concorso.features import extract_all, write_features
from concorso.report import (
    fmt,
    render_bias_table,
    render_regression,
    regression_dict,
    stars,
)
from concorso.scoring import median_fss_by_sds, score_corpus
from concorso.synthgen import GenConfig, GroundTruth, LatentWeights

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
    assert window("2004:2008") == (2004, 2008)
    assert window("2008:2004") == (2008, 2004)  # check_windows refuses it
    for bad in ("2004", "a:b", "2004:2005:2006"):
        with pytest.raises(ValueError):
            window(bad)


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
    corpus_dir = tmp_path / "corpus"
    corpus_dir.mkdir()
    write_corpus(Corpus(), corpus_dir)
    (corpus_dir / "taxonomy.csv").unlink()
    (corpus_dir / "taxonomy.csv").mkdir()  # there, but not readable as a file
    for input_dir, named in ((tmp_path / "nowhere", "nowhere"),
                             (corpus_dir, str(corpus_dir / "taxonomy.csv"))):
        code = main(["score", "--input-dir", str(input_dir),
                     "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert named in err


def test_all_male_corpus_is_rank_deficient(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert run_gen(corpus_dir, "--seed", "2", "--female-share", "0") == 0
    code = main(["regress", "--input-dir", str(corpus_dir),
                 "--out-dir", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2
    assert "RankDeficient" in err


def test_report_fit_failure_exits_2_after_score_and_audit(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    assert run_gen(corpus_dir, "--seed", "2", "--female-share", "0") == 0
    capsys.readouterr()
    out_dir = tmp_path / "out"
    code = main(["report", "--input-dir", str(corpus_dir),
                 "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert "RankDeficient" in captured.err
    assert captured.out.startswith("scored ")
    assert "audited " in captured.out
    assert "fitted " not in captured.out
    written = {p.name for p in out_dir.iterdir()}
    assert {"scores.csv", "findings.csv", "bias_positive.txt"} <= written
    assert "regression.json" not in written


def test_infeasible_generator_config(tmp_path, capsys):
    for flag, value, named in (("--researchers-per-sds", "0",
                                "researchers_per_sds"),
                               ("--noise-sd", "nan", "noise_sd")):
        code = main(["gen", "--out-dir", str(tmp_path / "x"), flag, value])
        err = capsys.readouterr().err
        assert code == 3
        assert named in err
        assert not (tmp_path / "x").exists()  # a rejected gen writes nothing


def test_bad_flags_exit_config(tmp_path, capsys):
    assert main(["frobnicate"]) == 3
    assert main([]) == 3
    assert main(["gen"]) == 3  # --out-dir is required
    capsys.readouterr()
    # numpy takes no negative seed; it is refused before any work
    assert main(["gen", "--out-dir", str(tmp_path / "neg"), "--seed", "-1"]) == 3
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "neg").exists()
    assert main(["score", "--input-dir", str(tmp_path),
                 "--out-dir", str(tmp_path), "--window-fss", "bogus"]) == 3
    assert "invalid window value: 'bogus'" in capsys.readouterr().err
    for threshold in ("0", "nan", "inf", "-1"):  # a bias band is finite and > 0
        for command in ("audit", "report"):
            assert main([command, "--input-dir", str(tmp_path),
                         "--out-dir", str(tmp_path / "out"),
                         "--threshold", threshold]) == 3
            assert (f"must be finite and > 0, got {threshold}"
                    in capsys.readouterr().err)
            assert not (tmp_path / "out").exists()
    for command in ("regress", "report"):  # clustering is always by competition
        assert main([command, "--input-dir", str(tmp_path),
                     "--out-dir", str(tmp_path), "--clusters", "competition"]) == 3
    corpus_dir = tmp_path / "corpus"
    assert run_gen(corpus_dir) == 0
    out_file = tmp_path / "out_file"
    out_file.write_bytes(b"kept\n")
    capsys.readouterr()
    # an --out-dir that is a file, or under one, is refused before any work,
    # and the file is left as it is
    for command in (["gen", *GEN_SMALL], ["report", "--input-dir", str(corpus_dir)]):
        for out_dir in (out_file, out_file / "sub"):
            assert main([*command, "--out-dir", str(out_dir)]) == 3
            assert str(out_file) in capsys.readouterr().err
            assert out_file.read_bytes() == b"kept\n"
    # so is a dangling symbolic link, which Path.exists() calls missing
    dangling = tmp_path / "dangling"
    dangling.symlink_to(tmp_path / "nowhere")
    for command in (["gen", *GEN_SMALL], ["report", "--input-dir", str(corpus_dir)]):
        for out_dir in (dangling, dangling / "sub"):
            assert main([*command, "--out-dir", str(out_dir)]) == 3
            assert (f"error: --out-dir {out_dir}: {dangling} is not a directory"
                    in capsys.readouterr().err)
            assert dangling.is_symlink() and not (tmp_path / "nowhere").exists()
    # so is a name too long for the OS to look up, which Path.exists() raises on
    too_long = tmp_path / ("x" * 300)
    listing = sorted(os.listdir(tmp_path))
    for command in (["gen", *GEN_SMALL], ["report", "--input-dir", str(corpus_dir)]):
        assert main([*command, "--out-dir", str(too_long)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: --out-dir {too_long}: ")
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == listing


def test_reversed_window_is_refused_by_check_windows(tmp_path, capsys):
    # the window flags only split Y0:Y1; corpus.check_windows alone refuses a
    # reversed window, before gen draws or an analysis reads a file
    corpus_dir = tmp_path / "corpus"
    assert run_gen(corpus_dir) == 0
    out_dir = tmp_path / "out"
    commands = [["gen", *GEN_SMALL]] + [
        [name, "--input-dir", str(corpus_dir)]
        for name in ("score", "audit", "regress", "report")]
    for flag, name in (("--window-fss", "productivity_window"),
                       ("--window-collab", "collaboration_window")):
        for command in commands:
            capsys.readouterr()
            assert main([*command, "--out-dir", str(out_dir),
                         flag, "2010:2001"]) == 3, (command, flag)
            assert capsys.readouterr().err == f"error: {name} 2010:2001 is reversed\n"
            assert not out_dir.exists()


def test_gen_flag_defaults_are_the_config_defaults(tmp_path, monkeypatch,
                                                  capsys):
    seen = []

    def capture(cfg, directory):
        seen.append(cfg)
        return Corpus(), GroundTruth()

    monkeypatch.setattr(cli, "generate_to_dir", capture)
    assert main(["gen", "--out-dir", str(tmp_path / "x")]) == 0
    capsys.readouterr()
    assert seen == [GenConfig()]
    assert seen[0].weights == LatentWeights()


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

    # the collaboration window reaches the features and not the scores; a
    # corpus made with the default windows holds publications outside the
    # narrow one, which are ignored
    corpus_dir = tmp_path / "corpus-seed1"
    assert run_gen(corpus_dir, "--seed", "1", "--w-cp", "6", "--noise-sd", "8",
                   small=False) == 0
    features = {}
    for name, flags in (("default", []),
                        ("narrow", ["--window-collab", "2005:2008"])):
        assert main(["report", "--input-dir", str(corpus_dir),
                     "--out-dir", str(tmp_path / name), *flags]) == 0
        features[name] = (tmp_path / name / "features.csv").read_bytes()
    capsys.readouterr()
    for name in ("scores.csv", "score_meta.json"):
        assert ((tmp_path / "narrow" / name).read_bytes()
                == (tmp_path / "default" / name).read_bytes())
    corpus = load_corpus(corpus_dir, collaboration_window=(2005, 2008))
    write_features(extract_all(corpus, score_corpus(corpus)),
                   tmp_path / "direct.csv")
    assert features["narrow"] == (tmp_path / "direct.csv").read_bytes()
    assert features["narrow"] != features["default"]


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


def python_with(threads, code):
    """A fresh interpreter running ``code``, with the caller's environment
    asking for ``threads`` BLAS threads."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads}
    return subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, text=True)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_cli_runs_blas_on_one_thread():
    # numpy and scipy each load an OpenBLAS; with two threads asked for,
    # each would start a worker thread beside the main one
    proc = python_with("2", "import concorso.cli, scipy.special\n"
                            "print(open('/proc/self/status').read())")
    status = proc.communicate()[0]
    assert proc.returncode == 0
    assert [line for line in status.splitlines() if line.startswith("Threads:")] \
        == ["Threads:\t1"]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc/self/status")
def test_tests_run_blas_on_one_thread():
    # tests/conftest.py pins the thread count before any test module loads
    # numpy, so the in-process golden tests fit as the command does
    import numpy  # noqa: F401
    import scipy.special  # noqa: F401
    with open("/proc/self/status") as fh:
        threads = [line.strip() for line in fh if line.startswith("Threads:")]
    assert threads == ["Threads:\t1"]


# a seeded 12,000 x 18 design, the L fit's shape: at this size OpenBLAS
# splits X.T @ (X * w) across threads, and the split changes the sums' bits
FIT_SEEDED_DESIGN = """
import concorso.cli
import json
import numpy as np
from concorso.report import regression_dict
from concorso.stats import DesignMatrix, fit_logit
rng = np.random.default_rng(20)
n, k = 12000, 18
X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
p = 1.0 / (1.0 + np.exp(-X @ rng.normal(scale=0.3, size=k)))
design = DesignMatrix(X=X, y=(rng.random(n) < p).astype(float),
                      clusters=np.arange(n) // 6,
                      columns=["const"] + [f"x{i}" for i in range(1, k)])
print(json.dumps(regression_dict(fit_logit(design))))
"""


def test_fit_bits_do_not_depend_on_the_callers_blas_threads():
    procs = [python_with(threads, FIT_SEEDED_DESIGN) for threads in ("1", "2")]
    outputs = [proc.communicate()[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outputs[0] == outputs[1]


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

# sha256 of the 14 `concorso report` outputs on that corpus, as produced when
# report still ran score, audit and regress as three separate passes; the four
# JSON files with p-values were re-pinned when stats.py came to compute its
# own t, chi-squared and normal tails (last-digit changes, every .txt equal),
# and correlations.json when stats.vif came to invert the correlation matrix.
GOLDEN_REPORT_S = {
    "bias_negative.json": "a8b4a51c204fc259674c413da170ce815bbc9b16c180e1607c057e72730a1393",
    "bias_negative.txt": "b5d311b370e67f3c8e7d173ec7cfc342dd266d2cbf7b742119cc11b001084b6c",
    "bias_positive.json": "2405b55b88c99b05fc2818fbeee627eb9e0b1f5eb03fcd224971d4f900b2ec7d",
    "bias_positive.txt": "4a2a589929243504f27e260503468b5533d41e4c3430d4c09cfbf9d37b6e1161",
    "correlations.json": "06ae578fadc03328944af9bbf6d51081f123d4db6491c9ed4b3b64bb6fa4c9d7",
    "correlations.txt": "738e0e387058ebc16d3bf5f9378bb2e25a4d7c23b77b8a74956de86133a70703",
    "descriptives.json": "2fd74869d46f0c0f76eb663df1a386089cd56800e265e60e11deca27e7a74e7e",
    "descriptives.txt": "2c48c7e3c553e118c64ec50e1a2ba7f9869624c9279c436f0ca74743c201b771",
    "features.csv": "65b614ca330f7fd38751be9952566c4ab283b55b6170a6ee3def35e7aaab1375",
    "findings.csv": "e79c1a346b70f41120460de577abca588eecdc9c50b8e5cd0ba9836261469328",
    "regression.json": "6a360fcc992c970bc3671d8c0a51f52caefafffd6867c175252921f5a143b841",
    "regression.txt": "e2b1c88e72685095e3c46f0b7bd1fa5cfe17ac4f76d0d3037767fda7299a6ccb",
    "score_meta.json": "295baa72988d611762c3c0dd3c636b196214df53aefcefa1f65ce3b6f2d86f57",
    "scores.csv": "a1709c3e1e6ea6beaebd697d88fb56db43674140fd093c0cefb6e9557fec6df5",
}


# The same at M: `concorso gen --n-sds 20 --researchers-per-sds 100
# --competitions-per-sds 20 --seed 1 --w-cp 6 --noise-sd 8` and the 14
# `concorso report` outputs on that corpus, as produced before the generator
# shared its coauthor pools and affiliation timelines across publications
# (the four JSON files with p-values and correlations.json re-pinned as at S).
GOLDEN_GEN_M = {
    "competitions.jsonl": "fe4929fc47ea380d15e6db61607091828c4887fcfb8f81fd26d271d5c3d485e1",
    "ground_truth.jsonl": "babbd2e8aef5ddefa0475d3ea7c3a447e99728aac8a5ffc7ac5298d71bc5dff2",
    "publications.jsonl": "8589998fc411d2bde543df66b47b9fc51e692bf8cf50f5fb98abedef623ba41e",
    "researchers.csv": "21c6b8bccca89c57deceaab3bd559765d7a783bcae38e4373d5bddf30f3719e4",
    "taxonomy.csv": "4dbdc886e6ab869381565b4330f4525862ee8c320b02ea357eb212de22cb0a90",
}
GOLDEN_REPORT_M = {
    "bias_negative.json": "d97503ae46fed289e927c4fd5459cac2aa272a5b6d7434952fd10027c32b6937",
    "bias_negative.txt": "0562f4863638ddf3d1982b5045972943621ec29bc612db67e43276ec7d34d87c",
    "bias_positive.json": "7727966fbab8bcc1278f35f2e72cd6e8650bc26a09364bce6de0e82fdff11bfe",
    "bias_positive.txt": "9da20c1edd34990efcb02ce7f0ac00b27e54ca867ce3a58d92eba9d1822c0f83",
    "correlations.json": "31896b90b35a586b3759c29638224fd34b4594fc816e7efc13960b7e53ff68a1",
    "correlations.txt": "72d33ba02820267ab165a8cba5501a1f65c01f30ae74c9466500bf4b9328cd9c",
    "descriptives.json": "433d079b4cb5ade3eb9e0ca6315e7bf4979a75abcc0f7897e740113b2f410a5c",
    "descriptives.txt": "a8444eee65f25ade165093e89a578c700b9df948cb94a9f3244bfc76c267b456",
    "features.csv": "6498bc05e9363428fb5c2e03f1b0d4eca6097b0a7bdbc2c4811b5790b7181dc8",
    "findings.csv": "cb106c7f53870e380498e1e4dbae0de7397e5dc08c2a7f35f3af89ba86518324",
    "regression.json": "743d8c958e332af4eb65bedc43d7815f33a0fa81466242142b0ae586cf757e76",
    "regression.txt": "bd4a6412a986d2b621c14590828a798cb587b0b1a11c218779925c5ce6bc1abd",
    "score_meta.json": "b3c419c0ba61bd97f57bb3c1efed82518b4b6f7ededc270faa571928954d9276",
    "scores.csv": "ee9750ac6f44e362e5c250ba33109dc5ca7fe68aeb3eaca932a517e3b2a1b3c2",
}
GEN_M = ["--n-sds", "20", "--researchers-per-sds", "100",
         "--competitions-per-sds", "20"]


def digests(directory):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in directory.iterdir()}


@pytest.fixture(scope="module")
def golden_corpus(tmp_path_factory):
    """The seed-1 corpus at the default 5x40x6 scale, generated once."""
    corpus_dir = tmp_path_factory.mktemp("golden") / "corpus"
    assert run_gen(corpus_dir, "--seed", "1", "--w-cp", "6", "--noise-sd", "8",
                   small=False) == 0
    return corpus_dir


def test_gen_and_features_golden_hashes(golden_corpus, tmp_path, capsys):
    corpus = load_corpus(golden_corpus)
    write_features(extract_all(corpus, score_corpus(corpus)),
                   tmp_path / "features.csv")
    assert digests(golden_corpus) | digests(tmp_path) == GOLDEN_GEN_S


def test_report_golden_hashes(golden_corpus, tmp_path, capsys):
    assert main(["report", "--input-dir", str(golden_corpus),
                 "--out-dir", str(tmp_path)]) == 0
    assert digests(tmp_path) == GOLDEN_REPORT_S


def test_report_releases_publications_after_extraction(golden_corpus, tmp_path,
                                                      monkeypatch, capsys):
    # the golden digests show that no later stage needed them
    seen = []

    def spy(findings, rows, corpus, medians, **kwargs):
        seen.append(len(corpus.publications))
        return aggregate_bias(findings, rows, corpus, medians, **kwargs)

    monkeypatch.setattr(cli, "aggregate_bias", spy)
    assert main(["report", "--input-dir", str(golden_corpus),
                 "--out-dir", str(tmp_path)]) == 0
    assert seen == [0]


def test_report_does_not_depend_on_publication_order(golden_corpus, tmp_path,
                                                    capsys):
    corpus_dir = tmp_path / "corpus"
    shutil.copytree(golden_corpus, corpus_dir)
    path = corpus_dir / "publications.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    random.Random(0).shuffle(lines)
    path.write_text("".join(lines))
    assert main(["report", "--input-dir", str(corpus_dir),
                 "--out-dir", str(tmp_path / "out")]) == 0
    assert digests(tmp_path / "out") == GOLDEN_REPORT_S


def test_invalid_corpus_exits_1_naming_the_violation(golden_corpus, tmp_path,
                                                     capsys):
    corpus_dir, out_dir = tmp_path / "corpus", tmp_path / "out"
    shutil.copytree(golden_corpus, corpus_dir)
    path = corpus_dir / "publications.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    record["citations"] = -3
    lines[0] = json.dumps(record) + "\n"
    path.write_text("".join(lines))
    code = main(["report", "--input-dir", str(corpus_dir),
                 "--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 1
    assert "corpus failed validation" in err
    assert f"publication {record['id']}: negative citations -3" in err
    assert not out_dir.exists()


def test_stages_one_by_one_equal_report(golden_corpus, tmp_path, capsys):
    stages_dir, report_dir = tmp_path / "stages", tmp_path / "report"
    for stage in ("score", "audit", "regress"):
        assert main([stage, "--input-dir", str(golden_corpus),
                     "--out-dir", str(stages_dir)]) == 0
    stage_lines = capsys.readouterr().out.replace(str(stages_dir), "OUT")
    assert main(["report", "--input-dir", str(golden_corpus),
                 "--out-dir", str(report_dir)]) == 0
    report_lines = capsys.readouterr().out.replace(str(report_dir), "OUT")
    assert report_lines == stage_lines
    assert len(report_lines.splitlines()) == 3
    assert digests(stages_dir) == digests(report_dir)


# The files each analysis stage writes, as the README's stage table lists them.
STAGE_OUTPUTS = {
    "score": {"scores.csv", "score_meta.json"},
    "audit": {"findings.csv", "bias_negative.json", "bias_negative.txt",
              "bias_positive.json", "bias_positive.txt"},
    "regress": {"features.csv", "descriptives.json", "descriptives.txt",
                "correlations.json", "correlations.txt", "regression.json",
                "regression.txt"},
}


@pytest.mark.parametrize("stage", sorted(STAGE_OUTPUTS))
def test_each_stage_writes_its_own_files_into_a_fresh_dir(golden_corpus,
                                                          tmp_path, capsys,
                                                          stage):
    out_dir = tmp_path / "fresh" / stage
    assert main([stage, "--input-dir", str(golden_corpus),
                 "--out-dir", str(out_dir)]) == 0
    assert {p.name for p in out_dir.iterdir()} == STAGE_OUTPUTS[stage]
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1
    assert out.startswith({"score": "scored ", "audit": "audited ",
                           "regress": "fitted "}[stage])


# The names perfbench/tracer.py wraps in concorso.cli: a stage that stops
# calling through one of them drops out of the traced run's spans.
TRACED_CLI_NAMES = ("load_corpus", "validate_corpus", "score_corpus",
                    "filter_eligible", "extract_all", "detect_all",
                    "aggregate_bias", "correlations_dict", "fit_logit")


def test_one_load_score_extract_per_run(golden_corpus, tmp_path, monkeypatch,
                                        capsys):
    calls = dict.fromkeys(TRACED_CLI_NAMES, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in TRACED_CLI_NAMES:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    not_called = {"report": (),
                  "score": TRACED_CLI_NAMES[3:],
                  "audit": ("correlations_dict", "fit_logit"),
                  "regress": ("detect_all", "aggregate_bias")}
    for command, skipped in not_called.items():
        calls.update(dict.fromkeys(TRACED_CLI_NAMES, 0))
        assert main([command, "--input-dir", str(golden_corpus),
                     "--out-dir", str(tmp_path / command)]) == 0
        assert calls == {name: int(name not in skipped)
                         for name in TRACED_CLI_NAMES}, command


def bias_twins(corpus_dir, **kwargs):
    """Both bias twins of a corpus, built as the audit stage builds them."""
    corpus = load_corpus(corpus_dir)
    table = score_corpus(corpus)
    rows = extract_all(corpus, table)
    medians = median_fss_by_sds(table, corpus)
    findings = detect_all(rows, corpus, medians)
    return aggregate_bias(findings, rows, corpus, medians, **kwargs)


def test_bias_render_from_twin_roundtrip(golden_corpus):
    for welch in (False, True):
        twins = bias_twins(golden_corpus, welch=welch)
        assert list(twins) == [BiasKind.NEGATIVE, BiasKind.POSITIVE]
        for kind, twin in twins.items():
            assert twin["kind"] == kind.value
            rehydrated = json.loads(json.dumps(twin))
            for one_sided in (False, True):
                assert (render_bias_table(rehydrated, one_sided=one_sided)
                        == render_bias_table(twin, one_sided=one_sided))


def test_bias_twins_share_their_correlation_cells(golden_corpus):
    twins = bias_twins(golden_corpus)
    cells = {}
    for kind, twin in twins.items():
        cells[kind] = [
            {key: value for key, value in row[label].items()
             if key.startswith("corr_")}
            for row in twin["rows"] + [twin["overall"]]
            for label in ("female", "male")]
    assert cells[BiasKind.NEGATIVE] == cells[BiasKind.POSITIVE]
    assert any(cell["corr_p_adj"] is not None
               for cell in cells[BiasKind.NEGATIVE])


def test_one_aggregate_pass_per_audit(golden_corpus, tmp_path, monkeypatch,
                                      capsys):
    calls = {"aggregate_bias": 0, "pearson": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "aggregate_bias",
                        counting("aggregate_bias", cli.aggregate_bias))
    monkeypatch.setattr(bias, "pearson", counting("pearson", bias.pearson))
    for command, passes in (("report", 1), ("audit", 1), ("score", 0),
                            ("regress", 0)):
        calls.update(aggregate_bias=0, pearson=0)
        out_dir = tmp_path / command
        assert main([command, "--input-dir", str(golden_corpus),
                     "--out-dir", str(out_dir)]) == 0
        cells = 0
        if passes:
            twin = json.loads((out_dir / "bias_negative.json").read_text())
            cells = sum(1 for row in twin["rows"] + [twin["overall"]]
                        for label in ("female", "male")
                        if row[label]["n_applicants"] >= 3)
            assert cells > 0
        # one merit-vs-outcome correlation per cell with 3+ applicants
        assert calls == {"aggregate_bias": passes, "pearson": cells}, command
    capsys.readouterr()


CORPUS_FILES = ("taxonomy.csv", "researchers.csv", "publications.jsonl",
                "competitions.jsonl")


@settings(max_examples=100, deadline=None)
@example(name="taxonomy.csv", op="replace", at=0.5, byte=0xff)
@example(name="researchers.csv", op="insert", at=0.3, byte=0xe9)
@example(name="publications.jsonl", op="replace", at=0.9, byte=0x80)
@example(name="competitions.jsonl", op="insert", at=0.0, byte=0xc3)
@given(name=st.sampled_from(CORPUS_FILES),
       op=st.sampled_from(("replace", "insert", "delete")),
       at=st.floats(0.0, 1.0, exclude_max=True),
       byte=st.integers(0, 255))
def test_report_on_any_byte_edit_exits_cleanly(golden_corpus, name, op, at,
                                                byte):
    # one byte replaced, inserted or deleted in one input file: report ends
    # with an exit code, never a traceback
    with tempfile.TemporaryDirectory() as tmp:
        corpus_dir = Path(tmp) / "corpus"
        shutil.copytree(golden_corpus, corpus_dir)
        path = corpus_dir / name
        data = path.read_bytes()
        assert data.isascii()
        pos = int(at * len(data))
        tail = data[pos + 1:] if op in ("replace", "delete") else data[pos:]
        path.write_bytes(data[:pos] + (b"" if op == "delete" else bytes([byte]))
                         + tail)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["report", "--input-dir", str(corpus_dir),
                         "--out-dir", str(Path(tmp) / "out")])
    assert code in (0, 1, 2), err.getvalue()
    if op != "delete" and byte >= 0x80:  # not UTF-8 in an ASCII file
        line = data[:pos].count(b"\n") + 1
        assert code == 1
        assert f"{name}:{line}:" in err.getvalue()


def test_gen_and_report_golden_hashes_at_m(tmp_path, capsys):
    corpus_dir, report_dir = tmp_path / "corpus", tmp_path / "report"
    assert run_gen(corpus_dir, *GEN_M, "--seed", "1", "--w-cp", "6",
                   "--noise-sd", "8", small=False) == 0
    assert digests(corpus_dir) == GOLDEN_GEN_M
    assert main(["report", "--input-dir", str(corpus_dir),
                 "--out-dir", str(report_dir)]) == 0
    assert digests(report_dir) == GOLDEN_REPORT_M


def test_main_restores_the_callers_gc_state(tmp_path, capsys):
    # main() pauses cyclic GC for the run; it must hand back the state it
    # found whatever the exit code, or every later in-process caller would
    # run without (or with) collection
    corpus_dir = tmp_path / "corpus"
    runs = [
        (["gen", "--out-dir", str(corpus_dir), *GEN_SMALL, "--seed", "2",
          "--female-share", "0"], 0),
        (["score", "--input-dir", str(tmp_path / "nowhere"),
          "--out-dir", str(tmp_path / "out")], 1),
        (["regress", "--input-dir", str(corpus_dir),
          "--out-dir", str(tmp_path / "out")], 2),
        (["audit", "--input-dir", str(corpus_dir),
          "--out-dir", str(tmp_path / "out"), "--threshold", "0"], 3),
        (["frobnicate"], 3),
    ]
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for argv, code in runs:
                assert main(argv) == code, argv
                assert gc.isenabled() is enabled, (argv, enabled)
    finally:
        gc.enable()
    capsys.readouterr()


def test_main_pauses_gc_during_the_run_and_restores_it_on_a_crash(monkeypatch):
    seen = []

    def crash(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_gen", crash)
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        main(["gen", "--out-dir", "unused"])
    assert seen == [False]
    assert gc.isenabled()
