"""Report twins and their text renderings.

Every table the command line emits exists first as a machine-readable dict
(the "twin", serialized to JSON); the human-readable text table is rendered
from that twin alone. Render functions therefore take twins, never model
objects, so the two files can never disagree.

Significance stars follow the shared legend (built from Bonferroni-adjusted
p-values where a test family applies). Cells that are undefined - empty
groups, constant columns, degenerate tests - render as a dash.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError
from .features import FEATURES, build_design, by_gender
from .stats import RegressionResult, adjust_family, bonferroni, pearson, vif

SIGNIFICANCE_LEGEND = (
    "Statistical significance: *p-value <0.10, **p-value <0.05, "
    "***p-value <0.01.")
BONFERRONI_NOTE = (
    "Statistical significance level adjusted using Bonferroni corrections.")
AUDIT_CAVEAT = (
    "The usual warnings in the interpretation of results apply: findings "
    "flag score patterns relative to a threshold, not proof of intent.")
BASELINE_NOTE = (
    "Citation baselines and percentile cohorts are computed from the loaded "
    "corpus itself, not from a national reference.")

REGRESSOR_VARS = [c for c in FEATURES if c != "G"]
CORRELATION_VARS = ["E"] + REGRESSOR_VARS


def stars(p: float | None) -> str:
    if p is None:
        return ""
    if p < 0.01:
        return "***"
    if p < 0.05:
        return "**"
    if p < 0.10:
        return "*"
    return ""


def fmt(value, nd: int = 3) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.{nd}f}"
    return str(value)


def _layout(rows: list[list[str]]) -> str:
    """Left-align the first column, right-align the rest."""
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    lines = []
    for r in rows:
        cells = [r[0].ljust(widths[0])]
        cells += [r[i].rjust(widths[i]) for i in range(1, len(r))]
        lines.append("  ".join(cells).rstrip())
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# bias tables (flagged counts, levels, incidence and level tests by UDA); the
# twins come from bias.aggregate_bias
# ---------------------------------------------------------------------------

def _bracket(count: int, total: int) -> str:
    if total == 0:
        return "-"
    return f"{count} ({100.0 * count / total:.1f})"


def _adjusted_p(test: dict | None, m: int, one_sided: bool) -> float | None:
    if test is None:
        return None
    if one_sided:
        return bonferroni([test["p_one_sided"]], max(m, 1))[0]
    return test["p_bonferroni"]


def render_bias_table(twin: dict, one_sided: bool = False) -> str:
    kind = twin["kind"]
    title = ("Bias against non-winners (negative)" if kind == "negative"
             else "Bias in favor of winners (positive)")
    sided = "one-sided" if one_sided else "two-sided"
    out = [title, "=" * len(title), ""]
    out.append(f"Threshold: {twin['threshold']:g} percentile points; "
               f"{twin['n_findings']} findings across "
               f"{twin['n_competitions']} retained competitions.")
    out.append("")

    all_rows = twin["rows"] + [twin["overall"]]

    out.append("Flagged candidates and applicants by gender and UDA "
               "(% of row total in brackets)")
    grid = [["UDA", "Flagged F", "Flagged M", "Tot",
             "Applicants F", "Applicants M", "Tot", "Corr F", "Corr M"]]
    for row in all_rows:
        f, m = row["female"], row["male"]
        tot_flagged = f["n_flagged"] + m["n_flagged"]
        tot_applicants = f["n_applicants"] + m["n_applicants"]
        grid.append([
            row["uda"],
            _bracket(f["n_flagged"], tot_flagged),
            _bracket(m["n_flagged"], tot_flagged),
            str(tot_flagged) if tot_flagged else "-",
            _bracket(f["n_applicants"], tot_applicants),
            _bracket(m["n_applicants"], tot_applicants),
            str(tot_applicants) if tot_applicants else "-",
            fmt(f["corr_r"]) + stars(f["corr_p_adj"]),
            fmt(m["corr_r"]) + stars(m["corr_p_adj"]),
        ])
    out.append(_layout(grid))
    out.append("")

    out.append("Level of bias among flagged candidates, by gender and UDA")
    grid = [["UDA", "F avg", "F SD", "F max", "M avg", "M SD", "M max",
             "t", f"p ({sided})", "p (adj)"]]
    m_level = twin["n_level_tests"]
    for row in all_rows:
        f, m = row["female"], row["male"]
        test = row["level_test"]
        adj = _adjusted_p(test, m_level, one_sided) if row["uda"] != "all" else None
        grid.append([
            row["uda"],
            fmt(f["level_mean"], 1), fmt(f["level_sd"], 1), fmt(f["level_max"], 1),
            fmt(m["level_mean"], 1), fmt(m["level_sd"], 1), fmt(m["level_max"], 1),
            fmt(None if test is None else test["statistic"], 2),
            fmt(None if test is None else
                test["p_one_sided" if one_sided else "p_two_sided"]),
            fmt(adj) + stars(adj),
        ])
    out.append(_layout(grid))
    out.append("")

    out.append(f"Gender difference in incidence of flagging ({sided} "
               "two-sample t-test on flag indicators)")
    grid = [["UDA", "t", "df", f"p ({sided})", "p (adj)"]]
    m_inc = twin["n_incidence_tests"]
    for row in all_rows:
        test = row["incidence_test"]
        adj = _adjusted_p(test, m_inc, one_sided) if row["uda"] != "all" else None
        grid.append([
            row["uda"],
            fmt(None if test is None else test["statistic"], 2),
            fmt(None if test is None else test["df"], 1),
            fmt(None if test is None else
                test["p_one_sided" if one_sided else "p_two_sided"]),
            fmt(adj) + stars(adj),
        ])
    out.append(_layout(grid))
    out.append("")
    out.append(SIGNIFICANCE_LEGEND)
    out.append(BONFERRONI_NOTE)
    out.append(BASELINE_NOTE)
    out.append(AUDIT_CAVEAT)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# descriptive statistics by gender (winners / non-winners / total)
# ---------------------------------------------------------------------------

def _group_stats(values: list[float]) -> dict:
    if not values:
        return {"n": 0, "avg": None, "sd": None, "max": None}
    arr = np.asarray(values, dtype=float)
    return {
        "n": int(arr.size),
        "avg": float(arr.mean()),
        "sd": float(arr.std(ddof=1)) if arr.size > 1 else None,
        "max": float(arr.max()),
    }


def descriptives_dict(rows) -> dict:
    twin: dict = {}
    for label, subset in by_gender(rows):
        winners = [r for r in subset if r.won]
        losers = [r for r in subset if not r.won]
        block = {
            "n_winners": len(winners),
            "n_non_winners": len(losers),
            "n_total": len(subset),
            "variables": {},
        }
        for var in REGRESSOR_VARS:
            attr = FEATURES[var]
            block["variables"][var] = {
                "winners": _group_stats([getattr(r, attr) for r in winners]),
                "non_winners": _group_stats([getattr(r, attr) for r in losers]),
                "total": _group_stats([getattr(r, attr) for r in subset]),
            }
        twin[label] = block
    return twin


def render_descriptives(twin: dict) -> str:
    title = "Descriptive statistics for regression variables, by applicant gender"
    out = [title, "=" * len(title)]
    for label in ("female", "male"):
        block = twin[label]
        out.append("")
        out.append(f"{label.capitalize()} applicants "
                   f"(winners {block['n_winners']}, "
                   f"non-winners {block['n_non_winners']}, "
                   f"total {block['n_total']})")
        grid = [["Var.", "W avg", "W SD", "W max",
                 "NW avg", "NW SD", "NW max",
                 "Tot avg", "Tot SD", "Tot max"]]
        for var in REGRESSOR_VARS:
            cells = twin[label]["variables"][var]
            line = [var]
            for group in ("winners", "non_winners", "total"):
                g = cells[group]
                line += [fmt(g["avg"], 2), fmt(g["sd"], 2), fmt(g["max"], 2)]
            grid.append(line)
        out.append(_layout(grid))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# correlations among regressors plus VIF, by gender
# ---------------------------------------------------------------------------

def correlations_dict(rows) -> dict:
    twin: dict = {"variables": CORRELATION_VARS}
    for label, subset in by_gender(rows):
        values = {"E": [float(r.won) for r in subset]}
        for var in REGRESSOR_VARS:
            values[var] = [float(getattr(r, FEATURES[var])) for r in subset]
        pairs: dict[str, dict | None] = {}
        for i, a in enumerate(CORRELATION_VARS):
            for b in CORRELATION_VARS[i + 1:]:
                key = f"{a}:{b}"
                try:
                    res = pearson(values[a], values[b])
                    pairs[key] = {"r": res.r, "p": res.p_two_sided,
                                  "p_adj": None}
                except NumericError:
                    pairs[key] = None
        m = adjust_family(pairs.values(), "p", "p_adj")
        block = {"n": len(subset), "n_tests": m, "pairs": pairs,
                 "vif": None, "vif_average": None, "vif_note": None}
        try:
            design = build_design(subset, base_columns=REGRESSOR_VARS,
                                  interactions=False)
            per_column, average = vif(design)
            block["vif"] = per_column
            block["vif_average"] = average
        except NumericError as exc:
            block["vif_note"] = f"{type(exc).__name__}: {exc}"
        twin[label] = block
    return twin


def render_correlations(twin: dict) -> str:
    title = "Correlation among variables, by applicant gender"
    out = [title, "=" * len(title)]
    names = twin["variables"]
    for label in ("female", "male"):
        block = twin[label]
        out.append("")
        out.append(f"{label.capitalize()} applicants (n = {block['n']})")
        grid = [[""] + names]
        for i, a in enumerate(names):
            line = [a]
            for j, b in enumerate(names):
                if j > i:
                    line.append("")
                elif j == i:
                    line.append("1")
                else:
                    pair = block["pairs"].get(f"{b}:{a}")
                    if pair is None:
                        line.append("-")
                    else:
                        line.append(fmt(pair["r"]) + stars(pair["p_adj"]))
            grid.append(line)
        out.append(_layout(grid))
        if block["vif_average"] is not None:
            per = "  ".join(f"{k}={fmt(v, 2)}"
                            for k, v in block["vif"].items())
            out.append(f"VIF: {per}; average VIF = "
                       f"{fmt(block['vif_average'], 2)}")
        else:
            note = block["vif_note"] or "not computable"
            out.append(f"VIF: not computable ({note})")
    out.append("")
    out.append(SIGNIFICANCE_LEGEND)
    out.append(BONFERRONI_NOTE)
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# regression table
# ---------------------------------------------------------------------------

def regression_dict(result: RegressionResult) -> dict:
    rows = []
    for c in result.coefficients:
        rows.append({
            "name": "Constant" if c.name == "const" else c.name,
            "b": c.b,
            "odds_ratio": None if c.name == "const" else c.odds_ratio,
            "se": c.se,
            "z": c.z,
            "p": c.p,
            "b_stdx": c.b_stdx,
            "binary": c.b_stdx is None and c.name != "const",
        })
    return {
        "coefficients": rows,
        "n_obs": result.n_obs,
        "n_clusters": result.n_clusters,
        "log_likelihood": result.log_likelihood,
        "null_log_likelihood": result.null_log_likelihood,
        "pseudo_r2": result.pseudo_r2,
        "wald_chi2": result.wald_chi2,
        "wald_df": result.wald_df,
        "wald_p": result.wald_p,
        "n_iterations": result.n_iterations,
    }


def render_regression(twin: dict) -> str:
    title = "Logistic regression predicting competition outcomes"
    out = [title, "=" * len(title), ""]
    grid = [["", "b", "OR", "Std Err", "z", "p>|z|", "b_StdX"]]
    any_binary = False
    for row in twin["coefficients"]:
        if row["binary"]:
            any_binary = True
            stdx = "- [§]"
        elif row["b_stdx"] is None:
            stdx = ""
        else:
            stdx = fmt(row["b_stdx"])
        grid.append([
            row["name"],
            fmt(row["b"]) + stars(row["p"]),
            fmt(row["odds_ratio"]),
            fmt(row["se"]),
            fmt(row["z"], 2),
            fmt(row["p"]),
            stdx,
        ])
    out.append(_layout(grid))
    out.append("")
    if any_binary:
        out.append("[§] standardized coefficient not considered because the "
                   "explanatory variable is binary.")
    out.append(SIGNIFICANCE_LEGEND)
    out.append(f"Number of observations = {twin['n_obs']}.")
    if twin["wald_chi2"] is not None:
        out.append(f"Wald chi2({twin['wald_df']}) = "
                   f"{twin['wald_chi2']:.2f}; Prob > chi2 = "
                   f"{twin['wald_p']:.4f}.")
    out.append(f"Log likelihood = {twin['log_likelihood']:.4f}; "
               f"Pseudo R2 = {twin['pseudo_r2']:.4f}; "
               f"Std Err. adjusted for {twin['n_clusters']} clusters "
               "(competitions).")
    return "\n".join(out) + "\n"
