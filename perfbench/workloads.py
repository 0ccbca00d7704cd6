"""The benchmark's workloads: the CLI invocations of one pass and their checks.

Each workload is a list of septenary invocations run one after another, one
fresh child process each, as a user would type them. Every invocation's
output is checked against the closed forms at the acceptance tolerances;
output bytes are never compared, so a change that re-pins the bits on
purpose keeps passing. See README.md for why each workload exists.
"""

from __future__ import annotations

import json
import math
import random
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

# sizes at which the layer shares described in README.md hold
FULL = {"ghz_trials": 2_000_000, "epr_trials": 200_000,
        "check_samples": 2000, "chsh_grid_deg": 0.5}
# sizes for the self-check: every path still runs, in well under a second
TOY = {"ghz_trials": 20_000, "epr_trials": 5_000,
       "check_samples": 3, "chsh_grid_deg": 5.0}

NAMES = ("ghz-sweep", "epr-io", "check-scan")
TWO_SQRT2 = 2.0 * math.sqrt(2.0)


class Invalid(ValueError):
    """An invocation's output disagrees with the closed forms."""


class Invocation(NamedTuple):
    args: list
    outputs: tuple                      # files the invocation writes
    check: Callable[[Path, str], None]  # (work dir, stdout) -> raises Invalid


def _reject_constant(name):
    raise Invalid("JSON holds the non-finite constant %s" % name)


def load_json(text: str):
    """Strict JSON: NaN and the infinities are errors."""
    return json.loads(text, parse_constant=_reject_constant)


def _expect(ok: bool, message: str, *args) -> None:
    if not ok:
        raise Invalid(message % args)


def _check_summary(path: Path, trials: int) -> dict:
    summary = load_json(path.read_text())
    _expect(summary["trials"] == trials, "%s: trials %r, wanted %d",
            path.name, summary["trials"], trials)
    total = sum(b["count"] for b in summary["bins"])
    _expect(total == trials, "%s: bins count %d of %d trials",
            path.name, total, trials)
    return summary


def _check_ghz(trials: int):
    def check(work: Path, stdout: str) -> None:
        summary = _check_summary(work / "ghz.json", trials)
        for b in summary["bins"]:
            want = -math.cos(math.radians(b["angle_deg"]))
            _expect(abs(b["mean_corr"] - want) <= 0.01,
                    "ghz bin at %g deg: mean %r, wanted %r within 0.01",
                    b["angle_deg"], b["mean_corr"], want)
    return check


def _check_epr(trials: int):
    def check(work: Path, stdout: str) -> None:
        with open(work / "epr.csv") as fh:
            header = fh.readline().strip().split(",")
            _expect(header == ["k", "lambda", "phi_a", "phi_b", "A", "B", "corr"],
                    "epr.csv: header %r", header)
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        _expect(rows.shape == (trials, 7), "epr.csv: shape %r, wanted (%d, 7)",
                rows.shape, trials)
        _expect(bool((rows[:, 0] == np.arange(trials)).all()),
                "epr.csv: k column is not 0..n-1")
        _expect(bool((rows[:, 4] * rows[:, 5] == -1).all()),
                "epr.csv: an outcome product is not -1")
        want = -np.cos(np.radians(rows[:, 3] - rows[:, 2]))
        err = np.abs(rows[:, 6] - want)
        _expect(bool((err <= 1e-9).all()),
                "epr.csv: corr off -cos(phi_b - phi_a) by up to %r",
                float(err.max()))
        summary = _check_summary(work / "epr.json", trials)
        svg = ET.parse(work / "epr.svg").getroot()
        circles = svg.findall("{http://www.w3.org/2000/svg}circle")
        _expect(len(circles) == len(summary["bins"]),
                "epr.svg: %d markers for %d bins",
                len(circles), len(summary["bins"]))
    return check


def _check_checks(samples: int):
    def check(work: Path, stdout: str) -> None:
        report = load_json(stdout)
        _expect(report["samples"] == samples, "check: samples %r, wanted %d",
                report["samples"], samples)
        _expect(bool(report["suites"]) and report["all_pass"] is True,
                "check: failing suites %r",
                [s["name"] for s in report["suites"] if not s["pass"]])
    return check


def _check_chsh(work: Path, stdout: str) -> None:
    s = load_json(stdout)["max_abs_S"]
    _expect(abs(s - TWO_SQRT2) <= 0.01 and s <= TWO_SQRT2 + 1e-9,
            "chsh: max_abs_S %r, wanted 2*sqrt(2) within 0.01 and not above",
            s)


def _check_version(work: Path, stdout: str) -> None:
    _expect(stdout.startswith("septenary "), "--version printed %r", stdout)


VERSION = Invocation(["--version"], (), _check_version)


def trials(name: str, sizes: dict) -> int:
    """The unit of work trials_per_s counts for one pass of a workload.

    Trials for the two runs; for check-scan, the --samples random
    iterations every check suite makes.
    """
    return {"ghz-sweep": sizes["ghz_trials"], "epr-io": sizes["epr_trials"],
            "check-scan": sizes["check_samples"]}[name]


def invocations(name: str, seed: int, sizes: dict) -> list:
    """One pass of a workload. The run seed comes from the benchmark seed."""
    run_seed = str(random.Random("%s/%d" % (name, seed)).randrange(2 ** 32))
    if name == "ghz-sweep":
        n = sizes["ghz_trials"]
        return [Invocation(["ghz", "--trials", str(n), "--seed", run_seed,
                            "--summary", "ghz.json"],
                           ("ghz.json",), _check_ghz(n))]
    if name == "epr-io":
        n = sizes["epr_trials"]
        return [Invocation(["epr", "--trials", str(n), "--seed", run_seed,
                            "--out", "epr.csv", "--summary", "epr.json",
                            "--plot", "epr.svg"],
                           ("epr.csv", "epr.json", "epr.svg"), _check_epr(n))]
    if name == "check-scan":
        samples = sizes["check_samples"]
        return [Invocation(["check", "--samples", str(samples)], (),
                           _check_checks(samples)),
                Invocation(["chsh", "--grid-deg", str(sizes["chsh_grid_deg"])],
                           (), _check_chsh)]
    raise KeyError(name)
