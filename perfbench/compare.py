"""Compare two result files written by ``run.py --out``.

Each file holds one JSON line per run. For every workload and metric the
values of all runs on each side are summarised by median and quartiles. An
end-to-end metric whose head median is worse than the base median by more
than the metric's bound in BENCHMARK.json is flagged REGRESSION; per-layer
metrics have no bound and are shown for reading, not judged. A workload,
metric or output that the base has and the head lacks, as after a crash,
is flagged REGRESSION too. Output digests are compared per workload and
seed, so a change to any output file shows. Files whose runs measured for
different ``seconds`` are refused, as their figures are not comparable.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path


def load_runs(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _values(runs: list[dict]) -> dict[tuple[str, str], list[float]]:
    out: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for metric, entry in run["result"]["metrics"].items():
            out.setdefault((run["workload"], metric), []).append(entry["value"])
    return out


def _failures(runs: list[dict]) -> dict[str, tuple[int, int]]:
    out: dict[str, tuple[int, int]] = {}
    for run in runs:
        failed, attempted = out.get(run["workload"], (0, 0))
        out[run["workload"]] = (failed + run["result"]["failed"],
                                attempted + run["result"]["attempted"])
    return out


def _digests(runs: list[dict]) -> dict[tuple[str, int], dict]:
    return {(r["workload"], r["seed"]): r["digests"] for r in runs}


def compare(base_path: Path, head_path: Path, spec: dict) -> int:
    """Print the comparison; return 1 if any metric regressed beyond its
    bound, is missing from the head, or the head failed more operations;
    return 2 if the files cannot be compared; else 0."""
    base_runs, head_runs = load_runs(base_path), load_runs(head_path)
    lengths = {r["seconds"] for r in base_runs + head_runs}
    if len(lengths) > 1:
        print(f"error: runs measured for different --seconds {sorted(lengths)}; "
              "compare runs of one length")
        return 2
    base, head = _values(base_runs), _values(head_runs)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    print(f"{'workload':10s} {'metric':32s} {'unit':6s} "
          f"{'base q1 / median / q3':>34s} {'head q1 / median / q3':>34s} "
          f"{'change':>8s}")
    for workload, metric in sorted(base.keys() - head.keys()):
        print(f"{workload:10s} {metric:32s} REGRESSION (missing from head)")
        regressions += 1
    for key in sorted(base.keys() & head.keys()):
        workload, metric = key
        b, h = _summary(base[key]), _summary(head[key])
        change = (h[1] - b[1]) / b[1] if b[1] else None
        info = declared.get(metric, {"unit": "?", "better": "lower"})
        flag = ""
        if "bound" in info and change is not None:
            worse = change if info["better"] == "lower" else -change
            if worse > info["bound"]:
                flag = f"REGRESSION (bound {info['bound']:.0%})"
                regressions += 1
        print(f"{workload:10s} {metric:32s} {info['unit']:6s} "
              f"{b[0]:10.4g} {b[1]:11.4g} {b[2]:11.4g} "
              f"{h[0]:10.4g} {h[1]:11.4g} {h[2]:11.4g} "
              f"{'-' if change is None else format(change, '+8.1%'):>8s} {flag}")
    base_failed, head_failed = _failures(base_runs), _failures(head_runs)
    for workload in sorted(base_failed.keys() - head_failed.keys()):
        print(f"{workload:10s} REGRESSION (no head run)")
        regressions += 1
    for workload in sorted(base_failed.keys() & head_failed.keys()):
        bf, hf = base_failed[workload], head_failed[workload]
        flag = ""
        if hf[0] / hf[1] > bf[0] / bf[1]:
            flag = "REGRESSION (more failed operations)"
            regressions += 1
        print(f"{workload:10s} failed_ops base {bf[0]}/{bf[1]}  head {hf[0]}/{hf[1]} {flag}")
    base_digests, head_digests = _digests(base_runs), _digests(head_runs)
    for key in sorted(base_digests.keys() - head_digests.keys()):
        print(f"{key[0]:10s} seed {key[1]} outputs MISSING from head")
    for key in sorted(base_digests.keys() & head_digests.keys()):
        b, h = base_digests[key], head_digests[key]
        changed = sorted(n for n in b.keys() | h.keys() if b.get(n) != h.get(n))
        print(f"{key[0]:10s} seed {key[1]} outputs "
              + (f"DIFFER: {changed}" if changed else "identical"))
    return 1 if regressions else 0
