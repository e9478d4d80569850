"""Metamorphic properties of the command line over generated corpora: a
change to the input that carries no meaning must leave every output as it
was."""

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


def _shuffled_copy(source, dest, rng):
    """Write the lines of one input file to dest in a shuffled order; a CSV
    header stays first."""
    lines = source.read_bytes().splitlines(keepends=True)
    assert all(line.endswith(b"\n") for line in lines)
    head = lines[:1] if source.suffix == ".csv" else []
    body = lines[len(head):]
    rng.shuffle(body)
    dest.write_bytes(b"".join(head + body))


def _report(input_dir, out_dir, capsys):
    code = main(["report", "--input-dir", str(input_dir), "--out-dir", str(out_dir)])
    captured = capsys.readouterr()
    outputs = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*"))}
    mapped = [text.replace(str(out_dir), "<OUT>").replace(str(input_dir), "<IN>")
              for text in (captured.out, captured.err)]
    return code, mapped, outputs


@pytest.mark.parametrize("scale", SCALES, ids=lambda s: "x".join(map(str, s)))
def test_report_ignores_input_line_order(tmp_path, capsys, scale):
    n_sds, researchers, competitions = scale
    for seed in SEEDS:
        original = tmp_path / f"corpus{seed}"
        weights = CP_EFFECT if seed % 2 else LatentWeights()
        generate_to_dir(GenConfig(seed=seed, n_sds=n_sds, researchers_per_sds=researchers,
                                  competitions_per_sds=competitions, weights=weights),
                        original)
        shuffled = tmp_path / f"shuffled{seed}"
        shuffled.mkdir()
        paths, rng = CorpusPaths.in_dir(original), random.Random(seed)
        for source in (paths.researchers, paths.publications, paths.competitions,
                       paths.taxonomy):
            _shuffled_copy(source, shuffled / source.name, rng)
            assert (shuffled / source.name).read_bytes() != source.read_bytes()

        expected = _report(original, tmp_path / f"out{seed}", capsys)
        assert expected[0] in (0, 2), expected[1]
        assert _report(shuffled, tmp_path / f"out_shuffled{seed}", capsys) == expected
