"""Benchmark of the concorso command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--out RESULTS.jsonl]
    python3 perfbench/run.py --workload all ...
    python3 perfbench/run.py --compare BASE.jsonl HEAD.jsonl

Run from the root of a checkout. The package under ``src/`` is run from
source, one child process at a time: a closed loop with one client, since
the CLI is a batch job that a user waits for. README.md in this directory
says how to read the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checks
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
WORK = BENCH / "_work"

# What the installed ``concorso`` console script runs.
CLI = "import sys; from concorso.cli import main; sys.exit(main())"
SETUP_REPEATS = 3
# Recorded as found and never set: users run the default threading.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "GOTO_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    command: str  # "gen" or "report"
    n_sds: int
    researchers_per_sds: int
    competitions_per_sds: int


# Scales are ROADMAP's M and L (SDS x researchers per SDS x competitions per
# SDS). gen runs at L only: it is the one workload that writes a corpus, and
# its time is the generator plus 1,600 uncached extract_features calls.
# report runs at M, the scale ROADMAP item 1 names. It does not run at L:
# that costs ~12 s per invocation, and at L seed 1 it writes bare NaN into
# regression.json (ROADMAP item 2), which test_checker.py shows the checker
# failing. Nor at S (5x40x6): there the model has 19 parameters for 30
# winners, and report exits 2 with SeparationDetected for 9 of seeds 1-59,
# so a seeded S workload cannot run without failed operations.
WORKLOADS = {
    "gen-L": Workload("gen", 40, 200, 40),
    "report-M": Workload("report", 20, 100, 20),
}


def gen_args(w: Workload, seed: int, out_dir: Path) -> list[str]:
    return ["gen", "--out-dir", str(out_dir), "--seed", str(seed),
            "--n-sds", str(w.n_sds),
            "--researchers-per-sds", str(w.researchers_per_sds),
            "--competitions-per-sds", str(w.competitions_per_sds),
            "--w-cp", "6", "--noise-sd", "8"]


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def run_child(argv: list[str], env: dict[str, str], log_dir: Path) -> Child:
    """Run one child to completion. CPU time and peak RSS come from wait4,
    so they are this child's own, not the largest child reaped so far. The
    child's ru_maxrss also covers this process's own peak RSS at the time
    it started the child, so this process stays small."""
    err_path = log_dir / "stderr.txt"
    with open(log_dir / "stdout.txt", "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0,
                 err_path.read_text(encoding="utf-8", errors="replace"))


def import_times(env: dict[str, str], log_dir: Path) -> dict[str, float]:
    """Cumulative import times from ``python -X importtime``."""
    child = run_child([sys.executable, "-X", "importtime", "-c", "import concorso"],
                      env, log_dir)
    if child.code != 0:
        raise RuntimeError(f"import concorso exited {child.code}:\n{child.stderr}")
    cumulative: dict[str, float] = {}
    for line in child.stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[1].strip().isdigit():
            cumulative[fields[2].strip()] = int(fields[1]) / 1e6
    return {"import.concorso_s": cumulative["concorso"],
            "import.scipy_stats_s": cumulative.get("scipy.stats", 0.0)}


def environment() -> dict:
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
        lines = git.stdout.split()
        in_repo = git.returncode == 0 and len(lines) == 2 and Path(lines[0]) == ROOT
    except OSError:  # no git on this machine
        in_repo = False
    return {
        "git_sha": lines[1] if in_repo else "unknown",
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


class Session:
    """One workload at one seed: its inputs, its invocations and their checks."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.seed, self.work = seed, work
        self.workload = WORKLOADS[name]
        self.env = child_env()
        self.corpus = work / "corpus" if self.workload.command == "report" else None
        self.out = work / "out"
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def fail(self, problem: str) -> None:
        """Count an operation outside the timed invocations, such as the
        set-up, as attempted and failed."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)

    def set_up(self) -> float:
        """Make the inputs, untimed by the workload: the corpus a report
        reads, or for gen, which reads none, one import of the package.
        Either also warms the file cache and the bytecode cache."""
        start = time.perf_counter()
        if self.corpus is None:
            argv = [sys.executable, "-c", "import concorso"]
        else:
            shutil.rmtree(self.corpus, ignore_errors=True)
            argv = [sys.executable, "-c", CLI] + gen_args(self.workload, self.seed, self.corpus)
        child = run_child(argv, self.env, self.work)
        if child.code != 0:
            raise RuntimeError(f"set-up exited {child.code}:\n{child.stderr}")
        return time.perf_counter() - start

    def cli_args(self) -> list[str]:
        if self.corpus is None:
            return gen_args(self.workload, self.seed, self.out)
        return ["report", "--input-dir", str(self.corpus), "--out-dir", str(self.out)]

    def invoke(self, prefix: list[str]) -> Child:
        """One checked invocation; outputs must match the session's first."""
        shutil.rmtree(self.out, ignore_errors=True)
        child = run_child(prefix + self.cli_args(), self.env, self.work)
        problems, digests = checks.check_invocation(child.code, self.out,
                                                    self.workload.command)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(k for k in digests.keys() | self.reference.keys()
                             if digests.get(k) != self.reference.get(k))
            problems.append(f"outputs differ from the first invocation: {changed}")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"invocation {self.attempted}: {p}" for p in problems)
            if child.stderr:
                self.problems.append(f"invocation {self.attempted} stderr: "
                                     + child.stderr.strip()[-500:])
        return child

    def check_once(self) -> None:
        """checks.session_problems, run in a child (see its docstring)."""
        argv = [sys.executable, str(BENCH / "checks.py"), str(self.corpus or self.out)]
        if self.corpus is not None:
            argv.append(str(self.out))
        child = run_child(argv, self.env, self.work)
        if child.code != 0:
            self.problems.append("session check: " + child.stderr.strip()[-2000:])


def repeat_within(seconds: float, step, at_least: int = 1) -> None:
    """Call step() as many whole times as fit in ``seconds``, judging the
    next call by the last one's duration, and at least ``at_least`` times."""
    start = time.perf_counter()
    done = 0
    while True:
        began = time.perf_counter()
        step()
        done += 1
        now = time.perf_counter()
        if done >= at_least and (now - start) + (now - began) > seconds:
            return


def run_untraced(session: Session, seconds: float, setups: list[float]) -> tuple[dict, dict]:
    children: list[Child] = []
    repeat_within(seconds, lambda: children.append(
        session.invoke([sys.executable, "-c", CLI])))
    samples = {
        "wall_s": [c.wall_s for c in children],
        "cpu_s": [c.cpu_s for c in children],
        "peak_rss_mb": [c.peak_rss_mb for c in children],
        "setup_s": setups,
    }
    values = {k: statistics.median(v) for k, v in samples.items()}
    session.check_once()
    if session.failed == 0:  # a failed gen may have left no corpus to count
        records = checks.count_records(session.corpus or session.out)
        values["records_per_s"] = records / values["wall_s"]
    return values, samples


def layer_values(trace: dict) -> dict[str, float]:
    values: dict[str, float] = dict.fromkeys(tracer.COUNTER_NAMES, 0)
    for name in tracer.SPAN_NAMES:
        values[f"{name}_s"] = 0.0
        values[f"{name}.calls"] = 0
    for name, (self_s, calls) in tracer.self_times(trace["spans"]).items():
        values[f"{name}_s"] = self_s
        values[f"{name}.calls"] = calls
    values.update(trace["counters"])
    return values


def run_traced(session: Session, seconds: float, count_names: set[str]
               ) -> tuple[dict, dict]:
    """Alternate an import-time probe, an untraced and a traced invocation,
    at least twice. Self times are medians; counts must repeat exactly."""
    spans_path = session.work / "spans.json"
    traced_prefix = [sys.executable, str(BENCH / "tracer.py"), str(spans_path)]
    plain, traced, rows = [], [], []

    def iteration() -> None:
        row = import_times(session.env, session.work)
        plain.append(session.invoke([sys.executable, "-c", CLI]).wall_s)
        spans_path.unlink(missing_ok=True)
        child = session.invoke(traced_prefix)
        traced.append(child.wall_s)
        if not spans_path.is_file():
            if child.code == 0:
                session.problems.append("the traced invocation wrote no spans")
            return
        trace = json.loads(spans_path.read_text())
        if trace["unbound"] and not rows:
            session.problems.append(f"names no longer bound: {trace['unbound']}")
        row.update(layer_values(trace))
        rows.append(row)

    repeat_within(seconds, iteration, at_least=2)
    session.check_once()
    if not rows:
        return {}, {}
    values = {k: statistics.median([r[k] for r in rows]) for k in rows[0]}
    for name in sorted(count_names):
        seen = {r[name] for r in rows}
        if len(seen) > 1:
            session.problems.append(f"count {name} varies between traced runs: {sorted(seen)}")
        values[name] = rows[0][name]
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    samples = {"untraced_wall_s": plain, "traced_wall_s": traced}
    return values, samples


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4g}  q3 {q3:.4g}  n={len(values)}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """Run one workload for one seed; print its metrics and return its record."""
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = Session(name, seed, work)
    declared = spec["per_layer" if trace else "end_to_end"]
    try:
        setups = [session.set_up() for _ in range(1 if trace else SETUP_REPEATS)]
        if trace:
            counts = {m["name"] for m in declared if m["unit"] != "s"}
            values, samples = run_traced(session, seconds, counts)
        else:
            values, samples = run_untraced(session, seconds, setups)
    except RuntimeError as exc:  # the set-up or an import probe failed
        session.fail(str(exc))
        values, samples = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # A metric that could not be measured is left out, not guessed.
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}
    correct = session.failed == 0 and not session.problems
    print(f"== {name}  seed {seed}  trace {int(trace)}  "
          f"failed_ops {session.failed}/{session.attempted}")
    for metric, entry in metrics.items():
        detail = _spread(samples[metric]) if metric in samples else ""
        value = entry["value"]
        shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
        print(f"  {metric:32s} {shown} {entry['unit']:6s} {detail}")
    for key in samples.keys() - metrics.keys():
        print(f"  {key:32s} {statistics.median(samples[key]):>14.6g} s      {_spread(samples[key])}")
    for file_name, digest in sorted((session.reference or {}).items()):
        print(f"  sha256 {digest}  {file_name}")
    for problem in session.problems:
        print(f"  FAILED {problem}")
    result = {"correct": correct, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            "result": result, "samples": samples,
            "digests": session.reference or {}, "problems": session.problems}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="append one JSON line per run to this file")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"),
                        help="compare two result files written by --out")
    args = parser.parse_args(argv)
    spec = json.loads(SPEC_PATH.read_text())
    if args.compare:
        import compare
        return compare.compare(Path(args.compare[0]), Path(args.compare[1]), spec)
    if args.workload is None:
        parser.error("--workload or --compare is required")
    if not (SRC / "concorso" / "cli.py").is_file():
        print(f"error: no concorso sources under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        record = run_workload(name, args.seed, seconds, bool(args.trace), spec)
        record["env"] = env
        all_correct &= record["result"]["correct"]
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        print(json.dumps(record["result"]), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
