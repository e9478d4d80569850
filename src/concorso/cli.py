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
import sys
from dataclasses import dataclass
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
    bias_table_dict,
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
    write_score_meta,
    write_scores,
)
from .stats import fit_logit
from .synthgen import GenConfig, LatentWeights, generate_to_dir


@dataclass
class RunConfig:
    input_dir: Path | None
    out_dir: Path
    productivity_window: tuple[int, int] = DEFAULT_PRODUCTIVITY_WINDOW
    collaboration_window: tuple[int, int] = DEFAULT_COLLABORATION_WINDOW
    threshold: float = DEFAULT_THRESHOLD
    one_sided: bool = False
    welch: bool = False


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


def _run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(
        input_dir=Path(args.input_dir) if getattr(args, "input_dir", None) else None,
        out_dir=Path(args.out_dir),
    )
    if getattr(args, "window_fss", None):
        cfg.productivity_window = parse_window(args.window_fss)
    if getattr(args, "window_collab", None):
        cfg.collaboration_window = parse_window(args.window_collab)
    if hasattr(args, "threshold"):
        if args.threshold <= 0:
            raise ConfigError(f"threshold must be > 0, got {args.threshold:g}")
        cfg.threshold = args.threshold
    cfg.one_sided = getattr(args, "one_sided", False)
    cfg.welch = getattr(args, "welch", False)
    return cfg


def _load(cfg: RunConfig) -> Corpus:
    corpus = load_corpus(cfg.input_dir,
                         productivity_window=cfg.productivity_window,
                         collaboration_window=cfg.collaboration_window)
    report = validate_corpus(corpus)
    if not report.ok:
        lines = [f"  {v.entity_type} {v.entity_id}: {v.message}"
                 for v in report.violations]
        raise DataError("corpus failed validation:\n" + "\n".join(lines))
    return corpus


def _write_json(twin: dict, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(twin, fh, indent=2)
        fh.write("\n")


def _write_text(text: str, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args: argparse.Namespace) -> int:
    cfg = _run_config(args)
    weights = LatentWeights(merit=args.w_merit, cp=args.w_cp, ce=args.w_ce,
                            pp=args.w_pp, ne=args.w_ne, sp=args.w_sp,
                            noise_sd=args.noise_sd)
    gen_cfg = GenConfig(
        seed=args.seed,
        n_sds=args.n_sds,
        n_universities=args.n_universities,
        researchers_per_sds=args.researchers_per_sds,
        female_share=args.female_share,
        surname_pool=args.surname_pool,
        weights=weights,
        competitions_per_sds=args.competitions_per_sds,
        winners_per_competition=args.winners_per_competition,
        applicants_per_competition=args.applicants_per_competition,
        mobility_rate=args.mobility_rate,
        productivity_window=cfg.productivity_window,
        collaboration_window=cfg.collaboration_window,
    )
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    corpus, truth, _ = generate_to_dir(gen_cfg, cfg.out_dir)
    print(f"generated corpus with seed {gen_cfg.seed}: "
          f"{len(corpus.researchers)} researchers, "
          f"{len(corpus.publications)} publications, "
          f"{len(corpus.competitions)} competitions "
          f"({truth.injected_fraction:.1%} with injected bias) "
          f"-> {cfg.out_dir}")
    return 0


def _write_score_stage(cfg: RunConfig, corpus: Corpus, table: ScoreTable) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_scores(table, corpus, cfg.out_dir / "scores.csv")
    write_score_meta(table, corpus, cfg.out_dir / "score_meta.json")
    print(f"scored {len(table.scores)} researchers over "
          f"{cfg.productivity_window[0]}:{cfg.productivity_window[1]} "
          f"({len(table.skipped)} skipped, no career overlap) "
          f"-> {cfg.out_dir / 'scores.csv'}")


def _write_audit_stage(cfg: RunConfig, corpus: Corpus, table: ScoreTable,
                       rows, retained: list[str]) -> None:
    kept = set(retained)
    audit_rows = [r for r in rows if r.competition_id in kept]
    medians = median_fss_by_sds(table, corpus)
    findings = detect_all(audit_rows, corpus, medians,
                          threshold=cfg.threshold, retained=retained)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_findings(findings, cfg.out_dir / "findings.csv")
    for kind, stem in ((BiasKind.NEGATIVE, "bias_negative"),
                       (BiasKind.POSITIVE, "bias_positive")):
        bias_table = aggregate_bias(findings, audit_rows, corpus, kind,
                                    threshold=cfg.threshold, welch=cfg.welch)
        twin = bias_table_dict(bias_table)
        _write_json(twin, cfg.out_dir / f"{stem}.json")
        _write_text(render_bias_table(twin, one_sided=cfg.one_sided),
                    cfg.out_dir / f"{stem}.txt")
    if not retained:
        print("warning: no competition retained an eligible winner and "
              "non-winner; tables are empty", file=sys.stderr)
    n_neg = sum(1 for f in findings if f.kind is BiasKind.NEGATIVE)
    n_pos = sum(1 for f in findings if f.kind is BiasKind.POSITIVE)
    print(f"audited {len(retained)} competitions "
          f"at threshold {cfg.threshold:g}: {n_neg} negative and "
          f"{n_pos} positive findings -> {cfg.out_dir / 'findings.csv'}")


def _write_regress_stage(cfg: RunConfig, rows) -> None:
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    write_features(rows, cfg.out_dir / "features.csv")

    twin = descriptives_dict(rows)
    _write_json(twin, cfg.out_dir / "descriptives.json")
    _write_text(render_descriptives(twin), cfg.out_dir / "descriptives.txt")

    twin = correlations_dict(rows)
    _write_json(twin, cfg.out_dir / "correlations.json")
    _write_text(render_correlations(twin), cfg.out_dir / "correlations.txt")

    design = build_design(rows)
    result = fit_logit(design)
    twin = regression_dict(result)
    _write_json(twin, cfg.out_dir / "regression.json")
    _write_text(render_regression(twin), cfg.out_dir / "regression.txt")
    print(f"fitted logistic model on {result.n_obs} applicant rows in "
          f"{result.n_clusters} competition clusters "
          f"(log likelihood {result.log_likelihood:.4f}) "
          f"-> {cfg.out_dir / 'regression.txt'}")


def cmd_pipeline(args: argparse.Namespace) -> int:
    """score, audit, regress, or all three for report, in one pass: the
    corpus is loaded and scored once, and the feature rows that audit and
    regress share are extracted once.
    """
    cfg = _run_config(args)
    stages = (("score", "audit", "regress") if args.command == "report"
              else (args.command,))
    corpus = _load(cfg)
    table = score_corpus(corpus, cfg.productivity_window)
    if "score" in stages:
        _write_score_stage(cfg, corpus, table)
    if stages == ("score",):
        return 0
    eligibility = filter_eligible(corpus)
    rows = extract_all(corpus, table, window=cfg.collaboration_window,
                       eligibility=eligibility)
    if "audit" in stages:
        _write_audit_stage(cfg, corpus, table, rows,
                           eligibility.retained_competitions)
    if "regress" in stages:
        _write_regress_stage(cfg, rows)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_window_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window-fss", metavar="Y0:Y1",
                   help="productivity window (default 2004:2008)")
    p.add_argument("--window-collab", metavar="Y0:Y1",
                   help="collaboration window (default 2001:2010)")


def _add_audit_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                   help="bias threshold in percentile points (default 20)")
    p.add_argument("--welch", action="store_true",
                   help="Welch t-tests instead of pooled variance")
    p.add_argument("--one-sided", action="store_true",
                   help="render one-sided p-values in text tables")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concorso",
        description="Score researcher productivity, audit recruitment "
                    "competitions for bias, and model outcomes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-sds", type=int, default=5)
    p.add_argument("--n-universities", type=int, default=6)
    p.add_argument("--researchers-per-sds", type=int, default=40)
    p.add_argument("--competitions-per-sds", type=int, default=6)
    p.add_argument("--applicants-per-competition", type=int, default=8)
    p.add_argument("--winners-per-competition", type=int, default=1)
    p.add_argument("--female-share", type=float, default=0.45)
    p.add_argument("--surname-pool", type=int, default=40)
    p.add_argument("--mobility-rate", type=float, default=0.10)
    p.add_argument("--w-merit", type=float, default=1.0)
    p.add_argument("--w-cp", type=float, default=0.0)
    p.add_argument("--w-ce", type=float, default=0.0)
    p.add_argument("--w-pp", type=float, default=0.0)
    p.add_argument("--w-ne", type=float, default=0.0)
    p.add_argument("--w-sp", type=float, default=0.0)
    p.add_argument("--noise-sd", type=float, default=0.0)
    _add_window_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("score", help="compute productivity scores")
    p.add_argument("--input-dir", required=True)
    p.add_argument("--out-dir", required=True)
    _add_window_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("audit", help="detect bias in competition outcomes")
    p.add_argument("--input-dir", required=True)
    p.add_argument("--out-dir", required=True)
    _add_window_flags(p)
    _add_audit_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("regress", help="fit the outcome model")
    p.add_argument("--input-dir", required=True)
    p.add_argument("--out-dir", required=True)
    _add_window_flags(p)
    p.set_defaults(func=cmd_pipeline)

    p = sub.add_parser("report", help="run score, audit, and regress in one pass")
    p.add_argument("--input-dir", required=True)
    p.add_argument("--out-dir", required=True)
    _add_window_flags(p)
    _add_audit_flags(p)
    p.set_defaults(func=cmd_pipeline)

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
