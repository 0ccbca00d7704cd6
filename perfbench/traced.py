"""One traced child of the benchmark: run septenary with spans around its layers.

Usage::

    python3 traced.py SPANS_JSON RUN_ID cli ARG...      # one CLI invocation
    python3 traced.py SPANS_JSON RUN_ID suites SAMPLES  # each check suite alone

The package is imported from the interpreter's path (the benchmark puts the
checkout's ``src`` there). After the import, the public functions listed in
``TARGETS`` plus every public function of ``septenary.spin`` and
``septenary.conformal`` are replaced by timing wrappers, in every
``septenary`` module that holds a reference to them. Nothing under ``src`` is
edited. Spans stay in memory and are written to SPANS_JSON when the child
ends, as ``[name, start, end, parent, attrs]`` rows sharing RUN_ID.

The CLI runs single-threaded at its default ``--threads``, so one span stack
gives every span its caller.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

_clock = time.perf_counter


class Tracer:
    """Records nested spans for one process."""

    def __init__(self):
        self.spans = []
        self.attrs = {}
        self._stack = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, _clock(), None, parent])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = _clock()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        """A stand-in for fn that records a span.

        count(arguments, result) gives the span's counters; it runs after the
        span has closed, so its cost lands in the caller's self time.
        """
        sig = inspect.signature(fn) if count else None

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.attrs[idx] = count(bound.arguments, result)
            return result

        return traced

    def dump(self, path, run_id):
        rows = [s + [self.attrs.get(i)] for i, s in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"run_id": run_id, "spans": rows}, fh)


# --- counters, computed from arguments and results, never measured --------

def _mul_batch_counts(a, result):
    from septenary.algebra import PRODUCT_TENSOR
    rows = int(a["xs"].shape[0])
    nnz = int((PRODUCT_TENSOR[int(a["lam"])] != 0).sum())
    return {"rows": rows, "flops": rows * 2 * nnz, "bytes": rows * 3 * 64}


def _gauss_counts(a, result):
    return {"draws": int(a["n"])}


def _column_counts(a, result):
    cols = (result.lam, result.phis_deg, result.outcomes, result.corr)
    return {"columns_bytes": int(sum(c.nbytes for c in cols))}


def _csv_counts(a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _scan_counts(a, result):
    import numpy as np
    ng = len(np.arange(0.0, 360.0, float(a["grid_deg"])))
    return {"points": ng ** 3}


# (span name, module, attribute, counter)
TARGETS = (
    ("cli.main", "septenary.cli", "main", None),
    ("algebra.mul_batch", "septenary.algebra", "mul_batch", _mul_batch_counts),
    ("algebra.mv_mul", "septenary.algebra", "mv_mul", None),
    ("oracle.nfold_scalar_part", "septenary.oracle", "nfold_scalar_part", None),
    ("engine.run_trials", "septenary.engine", "run_trials", _column_counts),
    ("engine.gauss_pairs", "septenary.engine", "gauss_pairs", _gauss_counts),
    ("engine.write_csv", "septenary.engine", "TrialRun.write_csv", _csv_counts),
    ("engine.write_summary_json", "septenary.engine",
     "TrialRun.write_summary_json", None),
    ("engine.chsh_scan", "septenary.engine", "chsh_scan", _scan_counts),
    ("svgplot.write_run_svg", "septenary.svgplot", "write_run_svg", None),
)

# every public function of these modules is one layer span
WHOLE_MODULES = (("spin", "septenary.spin"), ("conformal", "septenary.conformal"))


def _targets():
    yield from TARGETS
    for name, modname in WHOLE_MODULES:
        mod = importlib.import_module(modname)
        for attr, obj in sorted(vars(mod).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == modname):
                yield name, modname, attr, None


def install(tracer):
    """Rebind each target in its class or in every septenary module that
    imports it. A target the package no longer has is reported and skipped."""
    modules = [m for n, m in sys.modules.items()
               if n == "septenary" or n.startswith("septenary.")]
    for name, modname, attr, count in _targets():
        owner = importlib.import_module(modname)
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            owner = getattr(owner, cls_name, None)
        fn = getattr(owner, fn_name, None)
        if fn is None:
            print("traced: %s.%s not found, %s not traced"
                  % (modname, attr, name), file=sys.stderr)
            continue
        wrapper = tracer.wrap(name, fn, count)
        if cls_name:
            setattr(owner, fn_name, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, key, wrapper)


def main(argv):
    spans_path, run_id, mode, rest = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer()
    rc = 0
    if mode == "cli":
        idx = tracer.begin("cli.import")
        cli = importlib.import_module("septenary.cli")
        tracer.end(idx)
        install(tracer)
        try:
            rc = cli.main(rest)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    elif mode == "suites":
        checks = importlib.import_module("septenary.checks")
        for suite in checks.SUITE_NAMES:
            idx = tracer.begin("checks.%s" % suite)
            results = checks.run_checks(names=[suite], samples=int(rest[0]))
            tracer.end(idx)
            if not all(r.passed for r in results):
                rc = 1
    else:
        raise SystemExit("traced: unknown mode %r" % mode)
    tracer.dump(spans_path, run_id)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
