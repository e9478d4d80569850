"""Traced run of the concorso CLI, for the benchmark's per-layer metrics.

    python3 perfbench/tracer.py SPANS_JSON CLI_ARG...

runs ``concorso.cli.main(CLI_ARG...)`` in this process with a span around
each call into a layer, and writes the spans and counters to SPANS_JSON
when the run ends. The package is not edited: each public function is
replaced by a wrapper in the module that calls it, where that module
bound the name on import (``concorso.cli.load_corpus``, not
``concorso.corpus.load_corpus``). A call from inside the defining module,
such as ``extract_all`` calling ``extract_features``, is not a layer
boundary and gets no span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (calling module, name it binds, span name)
BINDINGS = (
    ("concorso.cli", "load_corpus", "corpus.load_corpus"),
    ("concorso.cli", "validate_corpus", "corpus.validate_corpus"),
    ("concorso.cli", "score_corpus", "scoring.score_corpus"),
    ("concorso.cli", "filter_eligible", "features.filter_eligible"),
    ("concorso.cli", "extract_all", "features.extract_all"),
    ("concorso.cli", "detect_all", "bias.detect_all"),
    ("concorso.cli", "aggregate_bias", "bias.aggregate_bias"),
    ("concorso.cli", "correlations_dict", "report.correlations_dict"),
    ("concorso.cli", "fit_logit", "stats.fit_logit"),
    ("concorso.report", "vif", "stats.vif"),
    ("concorso.report", "pearson", "stats.pearson"),
    ("concorso.bias", "pearson", "stats.pearson"),
    ("concorso.synthgen", "generate", "synthgen.generate"),
    ("concorso.synthgen", "score_corpus", "scoring.score_corpus"),
    ("concorso.synthgen", "extract_features", "features.extract_features"),
    ("concorso.synthgen", "write_corpus", "corpus.write_corpus"),
)
ROOT_SPAN = "cli.main"


def _bytes_written(paths) -> int:
    return sum(Path(p).stat().st_size for p in
               (paths.researchers, paths.publications, paths.competitions,
                paths.taxonomy))


# span name -> (counter name, amount of work in the span's return value)
COUNTERS = {
    "features.extract_all": ("features.rows", len),
    "bias.detect_all": ("bias.findings", len),
    "stats.fit_logit": ("stats.newton_iterations", lambda r: r.n_iterations),
    "corpus.write_corpus": ("corpus.bytes_written", _bytes_written),
}
SPAN_NAMES = tuple(dict.fromkeys([ROOT_SPAN] + [b[2] for b in BINDINGS]))
COUNTER_NAMES = tuple(c[0] for c in COUNTERS.values())


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.unbound: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                self.counters[counter[0]] += counter[1](result)
            return result
        return traced

    def install(self) -> None:
        for module_name, attr, name in BINDINGS:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                setattr(module, attr, self.wrap(name, getattr(module, attr)))
            else:
                self.unbound.append(f"{module_name}.{attr}")


def self_times(spans) -> dict[str, tuple[float, int]]:
    """Per span name: summed self time (duration minus the time covered by
    direct children) and number of calls."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, tuple[float, int]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        self_s, calls = totals.get(name, (0.0, 0))
        totals[name] = (self_s + (end - start) - child_time[index], calls + 1)
    return totals


def main(argv: list[str]) -> int:
    spans_path, cli_args = Path(argv[0]), argv[1:]
    import concorso.cli

    tracer = Tracer()
    tracer.install()
    try:
        return tracer.wrap(ROOT_SPAN, concorso.cli.main)(cli_args)
    finally:
        spans_path.write_text(json.dumps({
            "spans": tracer.spans, "counters": tracer.counters,
            "unbound": tracer.unbound}))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
