"""The regress tables read the fit's design: the descriptives and correlation
twins built from ``build_design(rows)`` equal a row-based reference on
corpora whose gender groups are empty, tiny, collinear or have a VIF."""

import json

import numpy as np
import pytest

from concorso.errors import NumericError
from concorso.features import FEATURES, build_design, extract_all
from concorso.report import (
    CORRELATION_VARS,
    REGRESSOR_VARS,
    correlations_dict,
    descriptives_dict,
)
from concorso.scoring import score_corpus
from concorso.stats import adjust_family, pearson, vif
from concorso.synthgen import GenConfig, generate

# 5x40x6 at seed 3: with 0 and 2 female rows the female VIF has too few
# observations, at 0.05 and 1.0 the groups with more rows have collinear
# regressors, and at 0.5 both groups have a VIF
FEMALE_SHARES = (0.0, 0.02, 0.05, 0.5, 1.0)


def _arrays(rows):
    """The outcome and each feature as a float array, read from the rows."""
    return {code: np.array([getattr(r, attr) for r in rows], dtype=float)
            for code, attr in {"E": "won", **FEATURES}.items()}


def _by_gender(rows):
    return (("female", [r for r in rows if r.female]),
            ("male", [r for r in rows if not r.female]))


def _stats(values):
    if not values.size:
        return {"n": 0, "avg": None, "sd": None, "max": None}
    return {"n": int(values.size), "avg": float(values.mean()),
            "sd": float(values.std(ddof=1)) if values.size > 1 else None,
            "max": float(values.max())}


def reference_descriptives(rows):
    values = _arrays(rows)
    won = values["E"] != 0
    twin = {}
    for label, gender in (("female", values["G"] != 0), ("male", values["G"] == 0)):
        groups = {"winners": gender & won, "non_winners": gender & ~won,
                  "total": gender}
        twin[label] = {
            **{f"n_{group}": int(mask.sum()) for group, mask in groups.items()},
            "variables": {var: {group: _stats(values[var][mask])
                                for group, mask in groups.items()}
                          for var in REGRESSOR_VARS},
        }
    return twin


def reference_correlations(rows):
    twin = {"variables": CORRELATION_VARS}
    for label, subset in _by_gender(rows):
        values = _arrays(subset)
        pairs = {}
        for i, a in enumerate(CORRELATION_VARS):
            for b in CORRELATION_VARS[i + 1:]:
                try:
                    res = pearson(values[a], values[b])
                    pairs[f"{a}:{b}"] = {"r": res.r, "p": res.p_two_sided,
                                         "p_adj": None}
                except NumericError:
                    pairs[f"{a}:{b}"] = None
        block = {"n": len(subset), "n_tests": adjust_family(pairs.values(), "p", "p_adj"),
                 "pairs": pairs, "vif": None, "vif_average": None, "vif_note": None}
        try:
            block["vif"], block["vif_average"] = vif(
                build_design(subset, REGRESSOR_VARS, interactions=False))
        except NumericError as exc:
            block["vif_note"] = f"{type(exc).__name__}: {exc}"
        twin[label] = block
    return twin


@pytest.fixture(scope="module")
def tables():
    """Per female share: (descriptives, correlations, their references)."""
    out = {}
    for share in FEMALE_SHARES:
        corpus, _ = generate(GenConfig(seed=3, female_share=share))
        rows = extract_all(corpus, score_corpus(corpus))
        design = build_design(rows)
        out[share] = (descriptives_dict(design), correlations_dict(design),
                      reference_descriptives(rows), reference_correlations(rows))
    return out


def test_tables_from_the_design_equal_the_row_reference(tables):
    for share, (desc, corr, ref_desc, ref_corr) in tables.items():
        assert json.dumps(desc) == json.dumps(ref_desc), share
        assert json.dumps(corr) == json.dumps(ref_corr), share


def test_cases_reach_the_tables_edge_paths(tables):
    notes = {share: [corr[label]["vif_note"] for label in ("female", "male")]
             for share, (_, corr, _, _) in tables.items()}
    for share, n_female in ((0.0, 0), (0.02, 2)):
        assert notes[share][0] == (
            "DegenerateInput: VIF needs more observations than regressors, "
            f"got {n_female} rows for 8 columns")
    collinear = "RankDeficient: base regressors are exactly collinear"
    assert notes[0.05] == [collinear, collinear]
    assert notes[0.5] == [None, None]
    assert list(tables[0.5][1]["female"]["vif"]) == REGRESSOR_VARS

    desc = tables[0.0][0]
    assert desc["female"]["n_total"] == 0  # an empty gender group
    assert desc["female"]["variables"]["FSS"]["total"] == {
        "n": 0, "avg": None, "sd": None, "max": None}
    assert tables[0.0][1]["female"]["pairs"]["E:FSS"] is None
    one_row_groups = [cells for d, *_ in tables.values()
                      for block in (d["female"], d["male"])
                      for cells in block["variables"]["FSS"].values()
                      if cells["n"] == 1]
    assert one_row_groups and all(c["sd"] is None for c in one_row_groups)
