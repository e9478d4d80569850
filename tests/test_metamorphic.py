"""Metamorphic properties of the command line over generated corpora: a
change to the input that carries no meaning must leave every output as it
was."""

import contextlib
import csv
import io
import json
import random

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


def _renamed_externals_copy(source_dir, dest_dir, rng):
    """Copy a corpus with every byline author outside the roster renamed,
    one to one and in shuffled order, into ``EXTERNAL_PREFIX`` names."""
    source, dest = CorpusPaths.in_dir(source_dir), CorpusPaths.in_dir(dest_dir)
    with open(source.researchers, newline="", encoding="utf-8") as fh:
        roster = {row["id"] for row in csv.DictReader(fh)}
    assert not any(rid.startswith(EXTERNAL_PREFIX) for rid in roster)
    records = [json.loads(line) for line in
               source.publications.read_text(encoding="utf-8").splitlines()]
    externals = sorted({e["author"] for r in records for e in r["byline"]
                        if e["author"] is not None and e["author"] not in roster})
    assert externals
    numbers = rng.sample(range(len(externals)), len(externals))
    new_name = {a: f"{EXTERNAL_PREFIX}{n}" for a, n in zip(externals, numbers)}
    for record in records:
        for entry in record["byline"]:
            entry["author"] = new_name.get(entry["author"], entry["author"])
    dest_dir.mkdir()
    dest.publications.write_text("".join(json.dumps(r) + "\n" for r in records),
                                 encoding="utf-8")
    for name in ("researchers", "competitions", "taxonomy"):
        getattr(dest, name).write_bytes(getattr(source, name).read_bytes())


def test_report_ignores_external_author_names(originals):
    for seed, root, expected in originals:
        _renamed_externals_copy(root / "corpus", root / "renamed", random.Random(seed))
        assert _report(root / "renamed", root / "out_renamed") == expected
