"""Metamorphic properties of the command line over generated corpora: a
change to the input that carries no meaning must leave every output as it
was."""

import contextlib
import csv
import io
import json
import random
import re

import pytest

from concorso.cli import main
from concorso.corpus import CorpusPaths
from concorso.synthgen import GenConfig, LatentWeights, generate_to_dir

# (n_sds, researchers_per_sds, competitions_per_sds) x seeds, odd seeds with
# a CP effect: 12 corpora small enough to report in a few seconds together,
# 7 of which fit a model (exit 0) and 5 stop at SeparationDetected (exit 2).
SCALES = [(5, 40, 6), (6, 30, 8), (8, 40, 5)]
SEEDS = range(4)
CP_EFFECT = LatentWeights(cp=6.0, noise_sd=8.0)
EXTERNAL_PREFIX = "renamed-"  # the namespace of renamed external authors
ROSTER_PREFIX = "roster-"     # the namespace of renamed roster researchers


def _report(input_dir, out_dir):
    """Exit code, stdout and stderr with the directories mapped, and the bytes
    of every output file, of one ``report`` run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", "--input-dir", str(input_dir),
                     "--out-dir", str(out_dir)])
    outputs = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))}
    mapped = [text.getvalue().replace(str(out_dir), "<OUT>")
              .replace(str(input_dir), "<IN>") for text in (out, err)]
    return code, mapped, outputs


@pytest.fixture(scope="module", params=SCALES,
                ids=lambda s: "x".join(map(str, s)))
def originals(request, tmp_path_factory):
    """Per seed: a generated corpus directory and its report, made once for
    every transform."""
    n_sds, researchers, competitions = request.param
    runs = []
    for seed in SEEDS:
        root = tmp_path_factory.mktemp(f"seed{seed}")
        weights = CP_EFFECT if seed % 2 else LatentWeights()
        generate_to_dir(GenConfig(seed=seed, n_sds=n_sds, researchers_per_sds=researchers,
                                  competitions_per_sds=competitions, weights=weights),
                        root / "corpus")
        expected = _report(root / "corpus", root / "out")
        assert expected[0] in (0, 2), expected[1]
        runs.append((seed, root, expected))
    return runs


def _shuffled_copy(source, dest, rng):
    """Write the lines of one input file to dest in a shuffled order; a CSV
    header stays first."""
    lines = source.read_bytes().splitlines(keepends=True)
    assert all(line.endswith(b"\n") for line in lines)
    head = lines[:1] if source.suffix == ".csv" else []
    body = lines[len(head):]
    rng.shuffle(body)
    dest.write_bytes(b"".join(head + body))


def test_report_ignores_input_line_order(originals):
    for seed, root, expected in originals:
        shuffled = root / "shuffled"
        shuffled.mkdir()
        paths, rng = CorpusPaths.in_dir(root / "corpus"), random.Random(seed)
        for source in (paths.researchers, paths.publications, paths.competitions,
                       paths.taxonomy):
            _shuffled_copy(source, shuffled / source.name, rng)
            assert (shuffled / source.name).read_bytes() != source.read_bytes()

        assert _report(shuffled, root / "out_shuffled") == expected


# a byline author as publications.jsonl writes it; null authors do not match
AUTHOR = re.compile(r'"author": "([^"]*)"')


def _roster(corpus_dir):
    with open(CorpusPaths.in_dir(corpus_dir).researchers, newline="",
              encoding="utf-8") as fh:
        return {row["id"] for row in csv.DictReader(fh)}


def _byline_authors(corpus_dir):
    text = CorpusPaths.in_dir(corpus_dir).publications.read_text(encoding="utf-8")
    return set(AUTHOR.findall(text))


def _renamed_copy(source_dir, dest_dir, new_name):
    """Copy a corpus with each researcher id and byline author that is a key
    of ``new_name`` renamed to its value, in every field that holds one: the
    researchers.csv id, bylines, and each competition's president, members,
    applicants and winners."""
    source, dest = CorpusPaths.in_dir(source_dir), CorpusPaths.in_dir(dest_dir)
    def rename(rid):
        return new_name.get(rid, rid)

    dest_dir.mkdir()
    with open(source.researchers, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        researchers = list(reader)
    with open(dest.researchers, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, reader.fieldnames)
        writer.writeheader()
        writer.writerows({**r, "id": rename(r["id"])} for r in researchers)
    dest.publications.write_text(AUTHOR.sub(
        lambda m: f'"author": "{rename(m[1])}"',
        source.publications.read_text(encoding="utf-8")), encoding="utf-8")
    competitions = [json.loads(line) for line in
                    source.competitions.read_text(encoding="utf-8").splitlines()]
    for record in competitions:
        record["president"] = rename(record["president"])
        for field in ("members", "applicants", "winners"):
            record[field] = [rename(rid) for rid in record[field]]
    dest.competitions.write_text("".join(json.dumps(r) + "\n" for r in competitions),
                                 encoding="utf-8")
    dest.taxonomy.write_bytes(source.taxonomy.read_bytes())


def test_report_ignores_external_author_names(originals):
    for seed, root, expected in originals:
        roster = _roster(root / "corpus")
        assert not any(rid.startswith(EXTERNAL_PREFIX) for rid in roster)
        externals = sorted(_byline_authors(root / "corpus") - roster)
        assert externals
        numbers = random.Random(seed).sample(range(len(externals)), len(externals))
        new_name = {a: f"{EXTERNAL_PREFIX}{n}" for a, n in zip(externals, numbers)}
        _renamed_copy(root / "corpus", root / "renamed", new_name)
        assert _report(root / "renamed", root / "out_renamed") == expected


def test_report_ignores_roster_id_names(originals):
    """Renaming roster ids in an order-preserving way changes the outputs only
    by the ids: mapped back, every byte is as it was. External authors keep
    their names."""
    for _, root, expected in originals:
        roster = sorted(_roster(root / "corpus"))
        new_name = {rid: f"{ROSTER_PREFIX}{i:05d}" for i, rid in enumerate(roster)}
        # the renaming keeps the order of the roster ids among every id, so
        # every sort of ids comes out in the same order
        ids = set(roster) | _byline_authors(root / "corpus")
        assert ([new_name.get(i, i) for i in sorted(ids)]
                == sorted(new_name.get(i, i) for i in ids))
        _renamed_copy(root / "corpus", root / "renumbered", new_name)
        code, streams, outputs = _report(root / "renumbered", root / "out_renumbered")

        old_name = {new.encode(): rid.encode() for rid, new in new_name.items()}
        pattern = re.compile(re.escape(ROSTER_PREFIX).encode() + rb"\d{5}")
        mapped_back = {name: pattern.sub(lambda m: old_name[m.group()], data)
                       for name, data in outputs.items()}
        assert not any(ROSTER_PREFIX.encode() in data for data in expected[2].values())
        assert any(data != mapped_back[name] for name, data in outputs.items())
        assert (code, streams, mapped_back) == expected


EXIT_CODE_DEPENDS_ON_CODING = set()


def _mirrored_copy(source_dir, dest_dir):
    """Copy a corpus with every researcher's gender flipped."""
    source, dest = CorpusPaths.in_dir(source_dir), CorpusPaths.in_dir(dest_dir)
    with open(source.researchers, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    flipped = {"F": "M", "M": "F"}
    gender = header.index("gender")
    dest_dir.mkdir()
    with open(dest.researchers, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            row[gender] = flipped[row[gender]]
            writer.writerow(row)
    for name in ("publications", "competitions", "taxonomy"):
        getattr(dest, name).write_bytes(getattr(source, name).read_bytes())


def _swapped(twin):
    """A copy of a dict with its "female" and "male" entries exchanged."""
    return {**twin, "female": twin["male"], "male": twin["female"]}


def _assert_tests_negated(test, mirrored):
    if test is None:
        assert mirrored is None
        return
    assert mirrored["statistic"] == -test["statistic"]
    for key in ("df", "p_two_sided", "p_bonferroni"):
        assert mirrored[key] == test[key]


def _assert_bias_twins_mirror(twin, mirrored):
    assert len(mirrored["rows"]) == len(twin["rows"])
    for row, mirrored_row in zip(twin["rows"] + [twin["overall"]],
                                 mirrored["rows"] + [mirrored["overall"]]):
        assert mirrored_row["uda"] == row["uda"]
        assert (mirrored_row["female"], mirrored_row["male"]) == (row["male"],
                                                                  row["female"])
        for test in ("incidence_test", "level_test"):
            _assert_tests_negated(row[test], mirrored_row[test])
    drop = ("rows", "overall")
    assert ({k: v for k, v in mirrored.items() if k not in drop}
            == {k: v for k, v in twin.items() if k not in drop})


def _assert_logit_reparametrised(fit, mirrored):
    """With G' = 1 - G the same model is fitted in the mirrored coding:
    b(G) = -b'(G), b(const) = b'(const) + b'(G), b(x) = b'(x) + b'(G*x) and
    b(G*x) = -b'(G*x), with se(G*x) unchanged."""
    assert mirrored["n_iterations"] == fit["n_iterations"]
    assert mirrored["log_likelihood"] == pytest.approx(fit["log_likelihood"],
                                                       rel=1e-12)
    assert mirrored["wald_chi2"] == pytest.approx(fit["wald_chi2"], rel=1e-6)
    b = {c["name"]: c["b"] for c in fit["coefficients"]}
    se = {c["name"]: c["se"] for c in fit["coefficients"]}
    b_m = {c["name"]: c["b"] for c in mirrored["coefficients"]}
    se_m = {c["name"]: c["se"] for c in mirrored["coefficients"]}
    assert list(b_m) == list(b)
    close = dict(rel=1e-6, abs=1e-6)
    assert b["G"] == pytest.approx(-b_m["G"], **close)
    assert b["Constant"] == pytest.approx(b_m["Constant"] + b_m["G"], **close)
    for x in (name for name in b if name not in ("Constant", "G")
              and not name.startswith("G*")):
        assert b[x] == pytest.approx(b_m[x] + b_m[f"G*{x}"], **close)
        assert b[f"G*{x}"] == pytest.approx(-b_m[f"G*{x}"], **close)
        assert se[f"G*{x}"] == pytest.approx(se_m[f"G*{x}"], rel=1e-6)


def test_gender_mirror_swaps_every_contrast(originals, request):
    scale = request.node.callspec.params["originals"]
    mismatched = set()
    for seed, root, expected in originals:
        _mirrored_copy(root / "corpus", root / "mirrored")
        code, streams, outputs = _report(root / "mirrored", root / "out_mirrored")
        if code != expected[0]:
            mismatched.add((scale, seed))
        assert code in (0, 2)
        original = expected[2]
        for name in ("scores.csv", "score_meta.json", "findings.csv"):
            assert outputs[name] == original[name]
        for name in ("bias_negative.json", "bias_positive.json"):
            _assert_bias_twins_mirror(json.loads(original[name]),
                                      json.loads(outputs[name]))
        if code == expected[0] == 2:  # the same reason, in the same words
            assert streams == expected[1]
        if code == expected[0] == 0:
            for name in ("descriptives.json", "correlations.json"):
                assert json.loads(outputs[name]) == _swapped(
                    json.loads(original[name]))
            _assert_logit_reparametrised(json.loads(original["regression.json"]),
                                         json.loads(outputs["regression.json"]))
    assert mismatched == {case for case in EXIT_CODE_DEPENDS_ON_CODING
                          if case[0] == scale}


def _csv_rows(data):
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def test_report_outputs_agree_with_each_other(originals):
    """The counts one report states in several files are the same counts."""
    for _, _, (code, _, outputs) in originals:
        features = _csv_rows(outputs["features.csv"])
        findings = _csv_rows(outputs["findings.csv"])
        outcomes = {}
        for row in features:
            outcomes.setdefault(row["competition_id"], set()).add(row["E"])
        # only competitions with a winner and a non-winner are audited
        audited = {cid for cid, seen in outcomes.items() if seen == {"0", "1"}}
        n_audited_rows = sum(row["competition_id"] in audited for row in features)
        for kind in ("negative", "positive"):
            twin = json.loads(outputs[f"bias_{kind}.json"])
            assert twin["n_findings"] == sum(f["kind"] == kind for f in findings)
            overall = twin["overall"]
            for gender in ("female", "male"):
                assert (sum(row[gender]["n_flagged"] for row in twin["rows"])
                        == overall[gender]["n_flagged"])
            assert (overall["female"]["n_applicants"] + overall["male"]["n_applicants"]
                    == n_audited_rows)
            assert twin["n_competitions"] == len(audited)
        if code == 0:
            fit = json.loads(outputs["regression.json"])
            assert (fit["n_obs"], fit["n_clusters"]) == (len(features), len(outcomes))
