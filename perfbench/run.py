"""Benchmark of the septenary CLI: end-to-end metrics, or a traced per-layer run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ghz-sweep --seed 1 --seconds 20 --trace 0

The package is not installed: every child runs the checkout's ``src``. The
loop is closed, with one client: each invocation is a fresh child process,
started only after the previous one has exited. The last line of stdout is
the result, ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it record the environment and a readable summary. See README.md.

``--trace 0`` runs one workload: it times ``septenary --version`` several
times (set-up), runs one discarded warm-up pass, then repeats passes until
``--seconds`` of pass wall time are measured, and reports medians.

``--trace 1`` runs every workload twice untraced and twice traced (through
``traced.py``), plus each check suite alone, and reports the per-layer
metrics of every workload, keyed ``<workload>.<layer metric>``: most layers
run on only one or two workloads, so one traced run covers all three.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
TRACED = Path(__file__).resolve().parent / "traced.py"
_CLK_TCK = os.sysconf("SC_CLK_TCK")

SETUP_SAMPLES = 9       # timed `--version` children per run, after one warm-up
MIN_PASSES = 3          # measured passes per run, however long they take
TRACE_PAIRS = 2         # untraced + traced pass pairs per workload, --trace 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")

SUITES = ("product-table", "associativity", "norm-composition",
          "conservation", "source-recovery", "sphere-maps", "chain-forms",
          "outcome-maps")

# per-layer metric -> (unit, span, field). Fields: time of the outermost
# spans, self time, calls, or a counter the tracer attaches to the span.
LAYER_METRICS = {
    "cli.import_s": ("s", "cli.import", "time"),
    "cli.main_s": ("s", "cli.main", "time"),
    "algebra.mul_batch_s": ("s", "algebra.mul_batch", "time"),
    "algebra.mul_batch_calls": ("count", "algebra.mul_batch", "calls"),
    "algebra.mul_batch_rows": ("count", "algebra.mul_batch", "rows"),
    "algebra.mul_batch_flops": ("flop", "algebra.mul_batch", "flops"),
    "algebra.mul_batch_bytes": ("B", "algebra.mul_batch", "bytes"),
    "engine.run_trials_s": ("s", "engine.run_trials", "time"),
    "engine.run_trials_self_s": ("s", "engine.run_trials", "self"),
    "engine.gauss_pairs_s": ("s", "engine.gauss_pairs", "time"),
    "engine.gauss_pairs_draws": ("count", "engine.gauss_pairs", "draws"),
    "engine.columns_bytes": ("B", "engine.run_trials", "columns_bytes"),
    "engine.write_csv_s": ("s", "engine.write_csv", "time"),
    "engine.write_csv_bytes": ("B", "engine.write_csv", "bytes"),
    "engine.write_summary_json_s": ("s", "engine.write_summary_json", "time"),
    "svgplot.write_run_svg_s": ("s", "svgplot.write_run_svg", "time"),
    "engine.chsh_scan_s": ("s", "engine.chsh_scan", "time"),
    "engine.chsh_scan_points": ("count", "engine.chsh_scan", "points"),
    "algebra.mv_mul_s": ("s", "algebra.mv_mul", "time"),
    "algebra.mv_mul_calls": ("count", "algebra.mv_mul", "calls"),
    "oracle.nfold_scalar_part_s": ("s", "oracle.nfold_scalar_part", "time"),
    "oracle.nfold_scalar_part_calls": ("count", "oracle.nfold_scalar_part",
                                       "calls"),
    "spin.s": ("s", "spin", "time"),
    "spin.calls": ("count", "spin", "calls"),
    "conformal.s": ("s", "conformal", "time"),
    "conformal.calls": ("count", "conformal", "calls"),
}
LAYER_METRICS.update({"checks.%s_s" % s: ("s", "checks.%s" % s, "time")
                      for s in SUITES})

_RUN = ("algebra.mul_batch_s", "algebra.mul_batch_calls",
        "algebra.mul_batch_rows", "algebra.mul_batch_flops",
        "algebra.mul_batch_bytes", "engine.run_trials_s",
        "engine.run_trials_self_s", "engine.gauss_pairs_s",
        "engine.gauss_pairs_draws", "engine.columns_bytes",
        "engine.write_summary_json_s")
# the layers each workload calls; README.md says which end-to-end metric each
# should move
WORKLOAD_LAYERS = {
    "ghz-sweep": ("cli.import_s", "cli.main_s") + _RUN,
    "epr-io": ("cli.import_s", "cli.main_s") + _RUN + (
        "engine.write_csv_s", "engine.write_csv_bytes",
        "svgplot.write_run_svg_s"),
    "check-scan": ("cli.import_s", "cli.main_s", "engine.chsh_scan_s",
                   "engine.chsh_scan_points", "algebra.mv_mul_s",
                   "algebra.mv_mul_calls", "oracle.nfold_scalar_part_s",
                   "oracle.nfold_scalar_part_calls", "spin.s", "spin.calls",
                   "conformal.s", "conformal.calls")
                  + tuple("checks.%s_s" % s for s in SUITES),
}


class Timing(NamedTuple):
    """One child, or a pass: the sums of its children's wall, steal and CPU
    time and the largest of their peak RSS."""

    wall: float     # spawn to exit, s
    steal: float    # host steal while the child ran, s; diagnostic only
    cpu: float      # user + sys, s
    rss_mb: float   # peak RSS, MiB


def spawn(argv, cwd: Path, stdout, stderr, env) -> tuple:
    """Run one child to exit; return (Timing, exit code).

    CPU time and peak RSS come from this child's own wait4 rusage, not from
    RUSAGE_CHILDREN, whose ru_maxrss is a high-water mark over every child
    reaped so far.
    """
    s0 = host_steal_s()
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=stdout, stderr=stderr)
    try:
        _, status, ru = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - t0
    steal = host_steal_s() - s0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Timing(wall, steal, ru.ru_utime + ru.ru_stime,
                  ru.ru_maxrss / 1024.0), proc.returncode


class Runner:
    """Runs invocations in one work directory and counts failures."""

    def __init__(self, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.env = dict(os.environ)
        # SEPTENARY_SEED silently overrides --seed
        self.env.pop("SEPTENARY_SEED", None)
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
        self._spans = 0

    def spans_path(self) -> Path:
        self._spans += 1
        return self.work / ("spans-%d.json" % self._spans)

    def invoke(self, inv: wl.Invocation, trace: tuple | None = None) -> Timing:
        """Run one invocation and check its output outside the timed window.

        With trace = (run id, spans file), the child is traced.py.
        """
        for name in inv.outputs:
            (self.work / name).unlink(missing_ok=True)
        argv = [sys.executable, "-m", "septenary", *inv.args]
        if trace is not None:
            argv = [sys.executable, str(TRACED), str(trace[1]), trace[0],
                    "cli", *inv.args]
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            child, rc = spawn(argv, self.work, out, err, self.env)
        self.attempted += 1
        problem = None
        if rc != 0:
            problem = "exit code %d: %s" % (rc, err_path.read_text()[-2000:])
        else:
            try:
                inv.check(self.work, out_path.read_text())
            except (ValueError, OSError, KeyError, TypeError) as exc:
                problem = "%s: %s" % (type(exc).__name__, exc)
        if problem:
            self.failed += 1
            print("FAILED septenary %s: %s" % (" ".join(inv.args), problem),
                  file=sys.stderr)
        return child

    def run_pass(self, invs, traced: str | None = None, spans=None) -> Timing:
        """One pass; with traced set to a run id prefix, each child is traced
        and its spans are appended to the spans list."""
        children = []
        for i, inv in enumerate(invs):
            if traced is None:
                children.append(self.invoke(inv))
                continue
            path = self.spans_path()
            children.append(self.invoke(inv, ("%s/%d" % (traced, i), path)))
            if path.is_file():
                spans.append(_load_spans(path))
        return Timing(sum(c.wall for c in children),
                      sum(c.steal for c in children),
                      sum(c.cpu for c in children),
                      max(c.rss_mb for c in children))

    def run_suites(self, samples: int, run_id: str, spans: list) -> None:
        """Each check suite alone, through run_checks(names=[suite])."""
        path = self.spans_path()
        argv = [sys.executable, str(TRACED), str(path), run_id, "suites",
                str(samples)]
        with open(self.work / "stderr", "wb") as err:
            _, rc = spawn(argv, self.work, subprocess.DEVNULL, err, self.env)
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            print("FAILED check suites alone: exit code %d" % rc,
                  file=sys.stderr)
            return
        spans.append(_load_spans(path))


def _load_spans(path: Path) -> list:
    data = wl.load_json(path.read_text())
    return [(name, t0, t1, parent, attrs or {})
            for name, t0, t1, parent, attrs in data["spans"]]


# ---------------------------------------------------------------------------
# aggregation of spans

def nesting_errors(runs: list) -> list:
    """Spans whose children do not fit inside them, by start, end or total."""
    errors = []
    for spans in runs:
        covered = [0.0] * len(spans)
        for i, (name, t0, t1, parent, _) in enumerate(spans):
            if t1 < t0:
                errors.append("%s ends before it starts" % name)
            if parent is not None:
                p = spans[parent]
                covered[parent] += t1 - t0
                if t0 < p[1] or t1 > p[2]:
                    errors.append("%s lies outside its parent %s" % (name, p[0]))
        for (name, t0, t1, _, _), c in zip(spans, covered):
            if c > t1 - t0:
                errors.append("children of %s cover %.9f s of its %.9f s"
                              % (name, c, t1 - t0))
    return errors


def span_totals(runs: list) -> dict:
    """Per span name: time, self time and calls of the outermost spans (those
    with no ancestor of the same name), and the sum of their counters."""
    totals = {}
    for spans in runs:
        child_time = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        for i, (name, t0, t1, parent, attrs) in enumerate(spans):
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is not None:
                continue
            t = totals.setdefault(name, {"time": 0.0, "self": 0.0, "calls": 0})
            t["time"] += t1 - t0
            t["self"] += t1 - t0 - child_time[i]
            t["calls"] += 1
            for key, value in attrs.items():
                t[key] = t.get(key, 0) + value
    return totals


def layer_metrics(name: str, totals: dict) -> dict:
    out = {}
    for metric in WORKLOAD_LAYERS[name]:
        unit, span, field = LAYER_METRICS[metric]
        if span not in totals:
            print("warning: %s made no %s span" % (name, span), file=sys.stderr)
        out[metric] = (totals.get(span, {}).get(field, 0), unit)
    return out


# ---------------------------------------------------------------------------
# the two kinds of run

def measure(runner: Runner, name: str, seed: int, seconds: float,
            sizes: dict) -> dict:
    """End-to-end metrics of one workload, tracing off."""
    setup = [runner.invoke(wl.VERSION) for _ in range(1 + SETUP_SAMPLES)][1:]
    invs = wl.invocations(name, seed, sizes)
    runner.run_pass(invs)                               # warm-up, discarded
    passes = []
    while len(passes) < MIN_PASSES or sum(p.wall for p in passes) < seconds:
        passes.append(runner.run_pass(invs))
    print(json.dumps({"workload": name,
                      "setup": [c._asdict() for c in setup],
                      "passes": [p._asdict() for p in passes]}))
    wall = statistics.median(p.wall for p in passes)
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(p.cpu for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in passes), "MB"),
        "trials_per_s": (wl.trials(name, sizes) / wall, "trials/s"),
        "setup_s": (statistics.median(c.wall for c in setup), "s"),
    }


def trace(runner: Runner, seed: int, sizes: dict) -> tuple:
    """Per-layer metrics of every workload, and any span nesting errors.

    Untraced and traced passes alternate, TRACE_PAIRS of each, so that
    trace.overhead_s is a mean over pairs; the layer metrics come from the
    last traced pass.
    """
    runner.invoke(wl.VERSION)                           # warm-up, discarded
    metrics, errors = {}, []
    for name in wl.NAMES:
        invs = wl.invocations(name, seed, sizes)
        plain, traced = [], []
        for k in range(TRACE_PAIRS):
            plain.append(runner.run_pass(invs).wall)
            runs = []
            traced.append(runner.run_pass(
                invs, traced="%s/%d/%d" % (name, seed, k), spans=runs).wall)
            errors += nesting_errors(runs)
        if name == "check-scan":
            suites = []
            runner.run_suites(sizes["check_samples"],
                              "%s/%d/suites" % (name, seed), suites)
            errors += nesting_errors(suites)
            runs += suites
        layers = layer_metrics(name, span_totals(runs))
        overhead = (sum(traced) - sum(plain)) / TRACE_PAIRS
        layers["trace.overhead_s"] = (overhead, "s")
        print(json.dumps({"workload": name, "untraced_s": plain,
                          "traced_s": traced}))
        metrics.update({"%s.%s" % (name, k): v for k, v in layers.items()})
    return metrics, errors


# ---------------------------------------------------------------------------

def host_steal_s() -> float:
    """CPU time the hypervisor has taken from this machine's CPUs while they
    had work, from /proc/stat; 0 where there is no such file."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / _CLK_TCK


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cli_threads": "default",
    }


def result_line(metrics: dict, runner: Runner, extra_ok: bool = True) -> dict:
    return {
        "correct": runner.failed == 0 and extra_ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run(workload: str, seed: int, seconds: float, traced: bool,
        sizes: dict = wl.FULL) -> dict:
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        runner = Runner(work)
        if traced:
            metrics, errors = trace(runner, seed, sizes)
            for e in errors:
                print("span nesting: %s" % e, file=sys.stderr)
            return result_line(metrics, runner, not errors)
        return result_line(measure(runner, workload, seed, seconds, sizes),
                           runner)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: the running child is killed and reaped, and the
    # work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "septenary" / "__init__.py").is_file():
        print("error: no septenary package under %s" % SRC, file=sys.stderr)
        return 2
    print(json.dumps({"environment": environment()}))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    rate = result["failed"] / result["attempted"]
    print("fail_frac %.6f (%d of %d invocations)"
          % (rate, result["failed"], result["attempted"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
