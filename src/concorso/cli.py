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
import os
import sys
from pathlib import Path
# Set before numpy loads: idle OpenBLAS workers spin, and the fit's bits vary with their count
os.environ["OPENBLAS_NUM_THREADS"] = "1"
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
    median_fss_by_sds,
    score_corpus,
    score_meta,
    write_scores,
)
from .stats import fit_logit
from .synthgen import GenConfig, LatentWeights, generate_to_dir


def window(text: str) -> tuple[int, int]:
    """The ``Y0:Y1`` of a window flag as two years; any other text is a
    ValueError. ``corpus.check_windows`` refuses a reversed window."""
    lo, hi = text.split(":")
    return int(lo), int(hi)


def threshold(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def _load(args: argparse.Namespace) -> Corpus:
    corpus = load_corpus(args.input_dir, args.productivity_window,
                         args.collaboration_window)
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
        productivity_window=args.productivity_window,
        collaboration_window=args.collaboration_window,
        **{name: getattr(args, name) for name in GEN_FIELDS})
    corpus, truth = generate_to_dir(gen_cfg, args.out_dir)
    print(f"generated corpus with seed {gen_cfg.seed}: "
          f"{len(corpus.researchers)} researchers, "
          f"{len(corpus.publications)} publications, "
          f"{len(corpus.competitions)} competitions "
          f"({truth.injected_fraction:.1%} with injected bias) "
          f"-> {args.out_dir}")
    return 0


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
    regress share are extracted once. The stages write in that order, so a
    fit that fails (exit 2) leaves the score and audit files, features.csv
    and the descriptives and correlations twins.
    """
    out_dir = args.out_dir
    corpus = _load(args)
    table = score_corpus(corpus)
    if "score" in args.stages:
        out_dir.mkdir(parents=True, exist_ok=True)
        write_scores(table, corpus, out_dir / "scores.csv")
        _write_twin(out_dir / "score_meta", score_meta(table))
        print(f"scored {len(table.scores)} researchers over "
              f"{table.window[0]}:{table.window[1]} "
              f"({len(table.skipped)} skipped, no career overlap) "
              f"-> {out_dir / 'scores.csv'}")
    if args.stages == ("score",):
        return 0
    rows = extract_all(corpus, table, filter_eligible(corpus))
    corpus.publications.clear()  # nothing reads them from here on: free them
    out_dir.mkdir(parents=True, exist_ok=True)
    if "audit" in args.stages:
        medians = median_fss_by_sds(table, corpus)
        findings = detect_all(rows, corpus, medians, threshold=args.threshold)
        write_findings(findings, out_dir / "findings.csv")
        twins = aggregate_bias(findings, rows, corpus, medians,
                               threshold=args.threshold, welch=args.welch)
        for kind, twin in twins.items():
            _write_twin(out_dir / f"bias_{kind.value}", twin,
                        render_bias_table(twin, one_sided=args.one_sided))
        n_audited = twins[BiasKind.NEGATIVE]["n_competitions"]
        if not n_audited:
            print("warning: no competition retained an eligible winner and "
                  "non-winner; tables are empty", file=sys.stderr)
        print(f"audited {n_audited} competitions "
              f"at threshold {args.threshold:g}: "
              f"{twins[BiasKind.NEGATIVE]['n_findings']} negative and "
              f"{twins[BiasKind.POSITIVE]['n_findings']} positive findings "
              f"-> {out_dir / 'findings.csv'}")
    if "regress" in args.stages:
        write_features(rows, out_dir / "features.csv")
        design = build_design(rows)
        twin = descriptives_dict(design)
        _write_twin(out_dir / "descriptives", twin, render_descriptives(twin))
        twin = correlations_dict(design)
        _write_twin(out_dir / "correlations", twin, render_correlations(twin))
        result = fit_logit(design)
        twin = regression_dict(result)
        _write_twin(out_dir / "regression", twin, render_regression(twin))
        print(f"fitted logistic model on {result.n_obs} applicant rows in "
              f"{result.n_clusters} competition clusters "
              f"(log likelihood {result.log_likelihood:.4f}) "
              f"-> {out_dir / 'regression.txt'}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window-fss", type=window, metavar="Y0:Y1",
                   dest="productivity_window", default=DEFAULT_PRODUCTIVITY_WINDOW,
                   help="productivity window (default %d:%d)"
                   % DEFAULT_PRODUCTIVITY_WINDOW)
    p.add_argument("--window-collab", type=window, metavar="Y0:Y1",
                   dest="collaboration_window", default=DEFAULT_COLLABORATION_WINDOW,
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
            p.add_argument("--threshold", type=threshold, default=DEFAULT_THRESHOLD,
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
        # checked before any work: mkdir fails only once the outputs are ready;
        # a dangling symbolic link exists, though not as a directory
        try:
            existing = next(p for p in (args.out_dir, *args.out_dir.parents)
                            if p.exists() or p.is_symlink())
        except OSError as exc:  # a name too long to look up, say
            raise ConfigError(f"--out-dir {args.out_dir}: {exc.strerror}")
        if not existing.is_dir():
            raise ConfigError(f"--out-dir {args.out_dir}: {existing} is not a directory")
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
