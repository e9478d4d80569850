"""Command line orchestrating the pipeline: gen, score, audit, regress, report.

Exit codes: 0 success, 1 data error (unreadable or invalid corpus), 2
numerical error (degenerate or non-convergent estimation), 3 configuration
error (bad flags, infeasible generator settings).

Each stage writes machine-readable outputs (CSV or JSON); the audit and
regression stages also write text tables rendered from the JSON twins.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
from pathlib import Path

from .bias import (
    DEFAULT_THRESHOLD,
    BiasKind,
    aggregate_bias,
    detect_all,
    write_findings,
)
from .corpus import (
    DEFAULT_COLLABORATION_WINDOW,
    DEFAULT_PRODUCTIVITY_WINDOW,
    Corpus,
    load_corpus,
    validate_corpus,
)
from .errors import ConfigError, DataError, NumericError
from .features import build_design, extract_all, filter_eligible, write_features
from .report import (
    correlations_dict,
    descriptives_dict,
    regression_dict,
    render_bias_table,
    render_correlations,
    render_descriptives,
    render_regression,
)
from .scoring import (
    ScoreTable,
    median_fss_by_sds,
    score_corpus,
    score_meta,
    write_scores,
)
from .stats import fit_logit
from .synthgen import GenConfig, LatentWeights, generate_to_dir


def parse_window(text: str) -> tuple[int, int]:
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"invalid window {text!r}: expected Y0:Y1")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ConfigError(f"invalid window {text!r}: years must be integers")
    if lo > hi:
        raise ConfigError(f"invalid window {text!r}: start year after end year")
    return lo, hi


def _windows(args: argparse.Namespace) -> dict[str, tuple[int, int]]:
    """The corpus windows given by --window-fss and --window-collab, as
    keyword arguments of ``load_corpus`` and ``GenConfig``."""
    windows = {}
    if args.window_fss:
        windows["productivity_window"] = parse_window(args.window_fss)
    if args.window_collab:
        windows["collaboration_window"] = parse_window(args.window_collab)
    return windows


def _load(input_dir: Path, windows: dict[str, tuple[int, int]]) -> Corpus:
    corpus = load_corpus(input_dir, **windows)
    report = validate_corpus(corpus)
    if not report.ok:
        lines = [f"  {v.entity_type} {v.entity_id}: {v.message}"
                 for v in report.violations]
        raise DataError("corpus failed validation:\n" + "\n".join(lines))
    return corpus


def _write_twin(stem: Path, twin: dict, text: str | None = None) -> None:
    """The one writer of a twin pair: ``<stem>.json`` (two-space indent,
    final newline) and, when given, its rendering as ``<stem>.txt``."""
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(twin, fh, indent=2)
        fh.write("\n")
    if text is not None:
        stem.with_suffix(".txt").write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

# The `gen` flags: each GenConfig field here is set by the flag of its name
# (`n_sds` by `--n-sds`), each LatentWeights field here by `--w-<name>`, and
# `noise_sd` by `--noise-sd`. The flag defaults are the dataclass defaults.
GEN_FIELDS = ("seed", "n_sds", "n_universities", "researchers_per_sds",
              "competitions_per_sds", "applicants_per_competition",
              "winners_per_competition", "female_share", "surname_pool",
              "mobility_rate")
WEIGHT_FIELDS = ("merit", "cp", "ce", "pp", "ne", "sp")


def cmd_gen(args: argparse.Namespace) -> int:
    weights = LatentWeights(
        noise_sd=args.noise_sd,
        **{name: getattr(args, f"w_{name}") for name in WEIGHT_FIELDS})
    gen_cfg = GenConfig(
        weights=weights,
        **{name: getattr(args, name) for name in GEN_FIELDS},
        **_windows(args))
    corpus, truth, _ = generate_to_dir(gen_cfg, args.out_dir)
    print(f"generated corpus with seed {gen_cfg.seed}: "
          f"{len(corpus.researchers)} researchers, "
          f"{len(corpus.publications)} publications, "
          f"{len(corpus.competitions)} competitions "
          f"({truth.injected_fraction:.1%} with injected bias) "
          f"-> {args.out_dir}")
    return 0


def _write_score_stage(out_dir: Path, corpus: Corpus, table: ScoreTable) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_scores(table, corpus, out_dir / "scores.csv")
    _write_twin(out_dir / "score_meta", score_meta(table))
    print(f"scored {len(table.scores)} researchers over "
          f"{table.window[0]}:{table.window[1]} "
          f"({len(table.skipped)} skipped, no career overlap) "
          f"-> {out_dir / 'scores.csv'}")


def _write_audit_stage(args: argparse.Namespace, corpus: Corpus,
                       table: ScoreTable, rows, retained: list[str]) -> None:
    kept = set(retained)
    audit_rows = [r for r in rows if r.competition_id in kept]
    medians = median_fss_by_sds(table, corpus)
    findings = detect_all(audit_rows, corpus, medians, retained,
                          threshold=args.threshold)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    write_findings(findings, args.out_dir / "findings.csv")
    twins = aggregate_bias(findings, audit_rows, corpus,
                           threshold=args.threshold, welch=args.welch)
    for kind, twin in twins.items():
        _write_twin(args.out_dir / f"bias_{kind.value}", twin,
                    render_bias_table(twin, one_sided=args.one_sided))
    if not retained:
        print("warning: no competition retained an eligible winner and "
              "non-winner; tables are empty", file=sys.stderr)
    print(f"audited {len(retained)} competitions "
          f"at threshold {args.threshold:g}: "
          f"{twins[BiasKind.NEGATIVE]['n_findings']} negative and "
          f"{twins[BiasKind.POSITIVE]['n_findings']} positive findings "
          f"-> {args.out_dir / 'findings.csv'}")


def _write_regress_stage(out_dir: Path, rows) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_features(rows, out_dir / "features.csv")

    twin = descriptives_dict(rows)
    _write_twin(out_dir / "descriptives", twin, render_descriptives(twin))
    twin = correlations_dict(rows)
    _write_twin(out_dir / "correlations", twin, render_correlations(twin))
    result = fit_logit(build_design(rows))
    twin = regression_dict(result)
    _write_twin(out_dir / "regression", twin, render_regression(twin))
    print(f"fitted logistic model on {result.n_obs} applicant rows in "
          f"{result.n_clusters} competition clusters "
          f"(log likelihood {result.log_likelihood:.4f}) "
          f"-> {out_dir / 'regression.txt'}")


# The analysis subcommands: name -> (help, the stages it writes). Each takes
# --input-dir, --out-dir and the window flags, and one that audits also takes
# --threshold, --welch and --one-sided.
ANALYSES = {
    "score": ("compute productivity scores", ("score",)),
    "audit": ("detect bias in competition outcomes", ("audit",)),
    "regress": ("fit the outcome model", ("regress",)),
    "report": ("run score, audit, and regress in one pass",
               ("score", "audit", "regress")),
}


def cmd_pipeline(args: argparse.Namespace) -> int:
    """score, audit, regress, or all three for report, in one pass: the
    corpus is loaded and scored once, and the feature rows that audit and
    regress share are extracted once.
    """
    windows = _windows(args)
    stages = args.stages
    if "audit" in stages and not (math.isfinite(args.threshold)
                                  and args.threshold > 0):
        raise ConfigError(
            f"threshold must be finite and > 0, got {args.threshold:g}")
    corpus = _load(args.input_dir, windows)
    table = score_corpus(corpus)
    if "score" in stages:
        _write_score_stage(args.out_dir, corpus, table)
    if stages == ("score",):
        return 0
    eligibility = filter_eligible(corpus)
    rows = extract_all(corpus, table, eligibility=eligibility)
    if "audit" in stages:
        _write_audit_stage(args, corpus, table, rows,
                           eligibility.retained_competitions)
    if "regress" in stages:
        _write_regress_stage(args.out_dir, rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window-fss", metavar="Y0:Y1",
                   help="productivity window (default %d:%d)"
                   % DEFAULT_PRODUCTIVITY_WINDOW)
    p.add_argument("--window-collab", metavar="Y0:Y1",
                   help="collaboration window (default %d:%d)"
                   % DEFAULT_COLLABORATION_WINDOW)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concorso",
        description="Score researcher productivity, audit recruitment "
                    "competitions for bias, and model outcomes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--out-dir", type=Path, required=True)
    for name in GEN_FIELDS:
        default = getattr(GenConfig, name)
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       default=default)
    for name in WEIGHT_FIELDS:
        p.add_argument(f"--w-{name}", type=float,
                       default=getattr(LatentWeights, name))
    p.add_argument("--noise-sd", type=float, default=LatentWeights.noise_sd)
    _add_window_flags(p)
    p.set_defaults(func=cmd_gen)

    for name, (help_text, stages) in ANALYSES.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--input-dir", type=Path, required=True)
        p.add_argument("--out-dir", type=Path, required=True)
        _add_window_flags(p)
        if "audit" in stages:
            p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                           help="bias threshold in percentile points "
                                "(default %(default)g)")
            p.add_argument("--welch", action="store_true",
                           help="Welch t-tests instead of pooled variance")
            p.add_argument("--one-sided", action="store_true",
                           help="render one-sided p-values in text tables")
        p.set_defaults(func=cmd_pipeline, stages=stages)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 3
    # Cyclic GC is paused for the run: it builds a large heap of records that
    # hold no reference cycles, so each full collection would only rescan it
    # (about a second in all at gen L), and reference counting frees the heap
    # anyway. The caller's GC state is restored on every way out.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
