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
from .features import FEATURES
from .stats import DesignMatrix, RegressionResult, adjust_family, bonferroni, pearson, vif

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

def _count_shares(female: int, male: int) -> list[str]:
    """F and M, each with its % of their total in brackets, then the total;
    three dashes when the total is 0."""
    total = female + male
    if total == 0:
        return ["-"] * 3
    return [f"{n} ({100.0 * n / total:.1f})" for n in (female, male)] + [str(total)]


def _test_cells(test: dict | None, one_sided: bool, m: int | None) -> list[str]:
    """A gender test's t, df, p and Bonferroni-adjusted p with its stars, or
    dashes where the test is undefined. ``m`` is the size of the test's
    family, None for the overall row, which no family adjusts; two-sided,
    the adjusted p equals the twin's ``p_bonferroni``."""
    if test is None:
        return ["-"] * 4
    p = test["p_one_sided" if one_sided else "p_two_sided"]
    adj = None if m is None else bonferroni([p], m)[0]
    return [fmt(test["statistic"], 2), fmt(test["df"], 1), fmt(p),
            fmt(adj) + stars(adj)]


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

    # the per-UDA rows, then the overall row, which no family adjusts
    all_rows = twin["rows"] + [twin["overall"]]
    n_uda = len(twin["rows"])

    out.append("Flagged candidates and applicants by gender and UDA "
               "(% of row total in brackets)")
    grid = [["UDA", "Flagged F", "Flagged M", "Tot",
             "Applicants F", "Applicants M", "Tot", "Corr F", "Corr M"]]
    for row in all_rows:
        f, m = row["female"], row["male"]
        grid.append([
            row["uda"],
            *_count_shares(f["n_flagged"], m["n_flagged"]),
            *_count_shares(f["n_applicants"], m["n_applicants"]),
            fmt(f["corr_r"]) + stars(f["corr_p_adj"]),
            fmt(m["corr_r"]) + stars(m["corr_p_adj"]),
        ])
    out.append(_layout(grid))
    out.append("")

    out.append("Level of bias among flagged candidates, by gender and UDA")
    grid = [["UDA", "F avg", "F SD", "F max", "M avg", "M SD", "M max",
             "t", f"p ({sided})", "p (adj)"]]
    for i, row in enumerate(all_rows):
        f, m = row["female"], row["male"]
        t, _, p, adj = _test_cells(row["level_test"], one_sided,
                                   twin["n_level_tests"] if i < n_uda else None)
        grid.append([
            row["uda"],
            fmt(f["level_mean"], 1), fmt(f["level_sd"], 1), fmt(f["level_max"], 1),
            fmt(m["level_mean"], 1), fmt(m["level_sd"], 1), fmt(m["level_max"], 1),
            t, p, adj,
        ])
    out.append(_layout(grid))
    out.append("")

    out.append(f"Gender difference in incidence of flagging ({sided} "
               "two-sample t-test on flag indicators)")
    grid = [["UDA", "t", "df", f"p ({sided})", "p (adj)"]]
    for i, row in enumerate(all_rows):
        grid.append([row["uda"], *_test_cells(
            row["incidence_test"], one_sided,
            twin["n_incidence_tests"] if i < n_uda else None)])
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

def _by_gender(design: DesignMatrix) -> list[tuple[str, DesignMatrix]]:
    """The fit's design split by ``G``: ``[("female", part), ("male", part)]``,
    each part a design on the intercept and ``REGRESSOR_VARS``, in row order."""
    names = ["const", *REGRESSOR_VARS]
    idx = [design.columns.index(c) for c in names]
    female = design.X[:, design.columns.index("G")] != 0
    return [(label, DesignMatrix(design.X[np.ix_(mask, idx)], design.y[mask],
                                 design.clusters[mask], names))
            for label, mask in (("female", female), ("male", ~female))]


def _group_stats(values: np.ndarray) -> dict:
    if not values.size:
        return {"n": 0, "avg": None, "sd": None, "max": None}
    return {
        "n": int(values.size),
        "avg": float(values.mean()),
        "sd": float(values.std(ddof=1)) if values.size > 1 else None,
        "max": float(values.max()),
    }


def descriptives_dict(design: DesignMatrix) -> dict:
    twin: dict = {}
    for label, part in _by_gender(design):
        values = dict(zip(part.columns, part.X.T))
        won = part.y != 0
        groups = {"winners": won, "non_winners": ~won, "total": np.ones_like(won)}
        twin[label] = {
            **{f"n_{group}": int(mask.sum()) for group, mask in groups.items()},
            "variables": {var: {group: _group_stats(values[var][mask])
                                for group, mask in groups.items()}
                          for var in REGRESSOR_VARS},
        }
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

def correlations_dict(design: DesignMatrix) -> dict:
    twin: dict = {"variables": CORRELATION_VARS}
    for label, part in _by_gender(design):
        values = {"E": part.y, **dict(zip(part.columns, part.X.T))}
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
        block = {"n": part.n_obs, "n_tests": m, "pairs": pairs,
                 "vif": None, "vif_average": None, "vif_note": None}
        try:
            per_column, average = vif(part)
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
