"""Output checks for one CLI invocation and for one benchmark session.

Every timed invocation must exit 0, write every expected file, and write
JSON that parses with NaN and Infinity rejected (bare ``NaN`` is not JSON,
and a report that contains it has published a number it cannot defend).
The sha256 of every output file is returned so that repetitions within a
session, and sessions on different commits, can be compared byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import json
import sys
from pathlib import Path

GEN_OUTPUTS = ("researchers.csv", "publications.jsonl", "competitions.jsonl",
               "taxonomy.csv", "ground_truth.jsonl")
REPORT_OUTPUTS = (
    "scores.csv", "score_meta.json",
    "findings.csv", "bias_negative.json", "bias_negative.txt",
    "bias_positive.json", "bias_positive.txt",
    "features.csv", "descriptives.json", "descriptives.txt",
    "correlations.json", "correlations.txt",
    "regression.json", "regression.txt",
)
EXPECTED_OUTPUTS = {"gen": GEN_OUTPUTS, "report": REPORT_OUTPUTS}


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token}")


def strict_json_problems(path: Path) -> list[str]:
    """Problems found parsing a .json file, or each line of a .jsonl file,
    with NaN and Infinity rejected."""
    with open(path, encoding="utf-8") as fh:
        docs = enumerate(fh, start=1) if path.suffix == ".jsonl" else [(1, fh.read())]
        for line_no, doc in docs:
            try:
                json.loads(doc, parse_constant=_reject_constant)
            except ValueError as exc:
                where = f"{path.name}:{line_no}" if path.suffix == ".jsonl" else path.name
                return [f"{where}: invalid JSON ({exc})"]
    return []


def digest_dir(directory: Path) -> dict[str, str]:
    """sha256 of every regular file in a directory, by file name."""
    digests = {}
    for path in sorted(directory.iterdir()):
        if path.is_file():
            digest = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(chunk)
            digests[path.name] = digest.hexdigest()
    return digests


def check_invocation(exit_code: int, out_dir: Path, command: str
                     ) -> tuple[list[str], dict[str, str]]:
    """Problems with one invocation's outputs, and the digests of its files."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if not out_dir.is_dir():
        return problems + [f"output directory {out_dir.name} missing"], {}
    for name in EXPECTED_OUTPUTS[command]:
        path = out_dir / name
        if not path.is_file():
            problems.append(f"{name} missing")
        elif path.suffix in (".json", ".jsonl"):
            problems.extend(strict_json_problems(path))
    return problems, digest_dir(out_dir)


def count_records(corpus_dir: Path) -> int:
    """Researchers, publications and competitions in a corpus directory."""
    total = 0
    with open(corpus_dir / "researchers.csv", newline="", encoding="utf-8") as fh:
        total += sum(1 for _ in csv.reader(fh)) - 1
    for name in ("publications.jsonl", "competitions.jsonl"):
        with open(corpus_dir / name, "rb") as fh:
            total += sum(1 for line in fh if line.strip())
    return total


def session_problems(corpus_dir: Path, report_dir: Path | None) -> list[str]:
    """In-process checks made once per session, outside the timing.

    The corpus must load and validate. When a report directory is given,
    ``features.csv`` must hold exactly as many rows as an in-process
    ``extract_all`` over the same corpus returns.

    The benchmark runs these in a child (``python3 checks.py CORPUS
    [REPORT]``): a child's ru_maxrss includes the peak RSS of the process
    that started it, so the benchmark itself must never hold a corpus.
    """
    from concorso import extract_all, load_corpus, score_corpus, validate_corpus

    corpus = load_corpus(corpus_dir)
    report = validate_corpus(corpus)
    problems = [f"corpus invalid: {v.entity_type} {v.entity_id}: {v.message}"
                for v in report.violations]
    if report_dir is not None:
        expected = len(extract_all(corpus, score_corpus(corpus)))
        with open(report_dir / "features.csv", newline="", encoding="utf-8") as fh:
            written = sum(1 for _ in csv.reader(fh)) - 1
        if written != expected:
            problems.append(f"features.csv has {written} rows, "
                            f"extract_all returns {expected}")
    return problems


if __name__ == "__main__":
    found = session_problems(Path(sys.argv[1]),
                             Path(sys.argv[2]) if len(sys.argv) > 2 else None)
    for problem in found:
        print(problem, file=sys.stderr)
    sys.exit(1 if found else 0)
