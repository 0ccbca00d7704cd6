"""Command line front end.

Subcommands
-----------
epr       run the two-party experiment
ghz       run the four-party experiment
chsh      scan the four-term combination over a grid of planar settings
analytic  evaluate the closed-form expectations without simulating
check     run the built-in consistency suites

Exit codes: 0 success, 1 a check suite failed, 2 usage error, 3 could not
read or write a file, 4 invalid values in otherwise well-formed flags.

The environment variable SEPTENARY_SEED, when set, overrides any --seed
flag; summaries record which source won under ``seed_source``. Identical
flags and seed give byte-identical CSV and JSON files; the SVG plot is
rendered from the summary and never feeds back into the numbers.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .checks import DEFAULT_SAMPLES, DEFAULT_TOL, SUITE_NAMES, run_checks
from .engine import TrialConfig, chsh_scan, run_trials
from .errors import SeptenaryError
from .oracle import epr_expectation, ghz_expectation
from .svgplot import epr_reference, ghz_reference, write_run_svg

_ENV_SEED = "SEPTENARY_SEED"


def _resolve_seed(flag_seed: int) -> tuple:
    raw = os.environ.get(_ENV_SEED)
    if raw is None:
        return int(flag_seed), "flag"
    try:
        return int(raw), "env"
    except ValueError:
        raise SeptenaryError(
            "%s must be an integer, got %r" % (_ENV_SEED, raw))


def _json_text(obj) -> str:
    """Indented strict JSON: NaN and infinities raise instead of printing."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _finite(values: list, what: str) -> list:
    if not all(math.isfinite(v) for v in values):
        raise SeptenaryError("%s must be finite, got %s"
                             % (what, ",".join(str(v) for v in values)))
    return values


def _parse_setting(text: str, want: int) -> tuple:
    parts = text.split(",")
    if len(parts) != want:
        raise SeptenaryError(
            "setting %r needs %d comma-separated angles" % (text, want))
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise SeptenaryError("setting %r has a non-numeric angle" % text)


def _add_run_options(sub: argparse.ArgumentParser, parties: int) -> None:
    sub.add_argument("--trials", type=int, default=100000,
                     help="number of events (default 100000)")
    sub.add_argument("--seed", type=int, default=0,
                     help="PRNG seed (default 0; %s overrides)" % _ENV_SEED)
    sub.add_argument("--bin-deg", type=float, default=5.0, metavar="W",
                     help="summary bin width in degrees (default 5)")
    src = sub.add_mutually_exclusive_group()
    src.add_argument("--random", action="store_true",
                     help="draw settings uniformly in the xy plane (default)")
    src.add_argument("--fixed-angles", action="append", metavar="ANGLES",
                     help="setting tuple of %d comma-separated degrees; "
                          "repeat the flag to cycle through a list" % parties)
    sub.add_argument("--out", metavar="CSV",
                     help="write every trial to this CSV file")
    sub.add_argument("--summary", metavar="JSON",
                     help="write the binned summary to this JSON file "
                          "(default: print to stdout)")
    sub.add_argument("--plot", metavar="SVG",
                     help="write an SVG of binned means over the reference")
    sub.add_argument("--threads", type=int, default=1,
                     help="worker threads; results do not depend on this")


def _cmd_run(args, mode: str) -> int:
    if args.trials < 1:
        args.parser.error("--trials must be a positive integer")
    seed, source = _resolve_seed(args.seed)
    parties = 2 if mode == "epr" else 4
    fixed = tuple(_parse_setting(s, parties) for s in args.fixed_angles) \
        if args.fixed_angles else ()
    cfg = TrialConfig(
        trials=args.trials, seed=seed, mode=mode,
        setting_source="fixed-list" if fixed else "random-planar",
        fixed_settings=fixed, bin_width_deg=args.bin_deg,
        threads=args.threads, seed_source=source,
    )
    run = run_trials(cfg)
    if args.out:
        run.write_csv(args.out)
    if args.plot:
        ref = epr_reference if mode == "epr" else ghz_reference
        write_run_svg(args.plot, run.summary, ref)
    if args.summary:
        run.write_summary_json(args.summary)
    else:
        sys.stdout.write(_json_text(run.summary.to_dict()))
    return 0


def _cmd_epr(args) -> int:
    return _cmd_run(args, "epr")


def _cmd_ghz(args) -> int:
    return _cmd_run(args, "ghz")


def _cmd_chsh(args) -> int:
    seed, source = _resolve_seed(args.seed)
    result = chsh_scan(grid_deg=args.grid_deg, source=args.source, seed=seed,
                       trials_per_setting=args.trials_per_setting)
    result["seed"] = seed
    result["seed_source"] = source
    text = _json_text(result)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_angle_list(text: str, what: str) -> list:
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        raise SeptenaryError("%s %r has a non-numeric entry" % (what, text))
    return _finite(values, what)


def _cmd_analytic(args) -> int:
    if args.which == "epr":
        _finite([args.theta], "--theta")
        value = epr_expectation(math.radians(args.theta))
        row = {"mode": "epr", "theta_deg": args.theta, "expectation": value}
    else:
        thetas = _parse_angle_list(args.thetas, "--thetas")
        phis = _parse_angle_list(args.phis, "--phis")
        if len(thetas) != 4 or len(phis) != 4:
            raise SeptenaryError("--thetas and --phis need four angles each")
        value = ghz_expectation([math.radians(t) for t in thetas],
                                [math.radians(p) for p in phis])
        row = {"mode": "ghz", "theta_deg": thetas, "phi_deg": phis,
               "expectation": value}
    if args.format == "json":
        sys.stdout.write(_json_text(row))
    else:
        keys = list(row)
        flat = {k: (";".join(str(x) for x in v)
                    if isinstance(v, list) else str(v))
                for k, v in row.items()}
        sys.stdout.write(",".join(keys) + "\n")
        sys.stdout.write(",".join(flat[k] for k in keys) + "\n")
    return 0


def _cmd_check(args) -> int:
    _finite([args.tol], "--tol")
    try:
        results = run_checks(names=args.suite, tol=args.tol,
                             samples=args.samples)
    except ValueError as exc:
        raise SeptenaryError(str(exc))
    report = {
        "tol": args.tol,
        "samples": args.samples,
        "suites": [
            {"name": r.name, "pass": bool(r.passed), "detail": r.detail}
            for r in results
        ],
        "all_pass": all(r.passed for r in results),
    }
    sys.stdout.write(_json_text(report))
    return 0 if report["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="septenary",
        description="Orientation-tagged algebra runs and their closed forms.",
    )
    parser.add_argument("--version", action="version",
                        version="septenary %s" % __version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_epr = subs.add_parser("epr", help="two-party run")
    _add_run_options(p_epr, 2)
    p_epr.set_defaults(func=_cmd_epr, parser=p_epr)

    p_ghz = subs.add_parser("ghz", help="four-party run")
    _add_run_options(p_ghz, 4)
    p_ghz.set_defaults(func=_cmd_ghz, parser=p_ghz)

    p_chsh = subs.add_parser("chsh", help="four-term scan")
    p_chsh.add_argument("--grid-deg", type=float, default=5.0, metavar="G",
                        help="grid step in degrees (default 5)")
    p_chsh.add_argument("--source", choices=("analytic", "simulated"),
                        default="analytic",
                        help="where pair expectations come from")
    p_chsh.add_argument("--seed", type=int, default=0)
    p_chsh.add_argument("--trials-per-setting", type=int, default=64,
                        help="events per grid point when simulating")
    p_chsh.add_argument("--json", metavar="PATH",
                        help="write the result here instead of stdout")
    p_chsh.set_defaults(func=_cmd_chsh, parser=p_chsh)

    p_an = subs.add_parser("analytic", help="closed-form expectations")
    an_subs = p_an.add_subparsers(dest="which", required=True)
    an_epr = an_subs.add_parser("epr", help="two-party expectation")
    an_epr.add_argument("--theta", type=float, required=True,
                        help="separation angle in degrees")
    an_epr.add_argument("--format", choices=("json", "csv"), default="json")
    an_epr.set_defaults(func=_cmd_analytic, parser=an_epr)
    an_ghz = an_subs.add_parser("ghz", help="four-party expectation")
    an_ghz.add_argument("--thetas", required=True, metavar="T1,T2,T3,T4",
                        help="polar angles in degrees")
    an_ghz.add_argument("--phis", required=True, metavar="P1,P2,P3,P4",
                        help="azimuthal angles in degrees")
    an_ghz.add_argument("--format", choices=("json", "csv"), default="json")
    an_ghz.set_defaults(func=_cmd_analytic, parser=an_ghz)

    p_chk = subs.add_parser("check", help="consistency suites")
    p_chk.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="tolerance for the floating suites "
                            "(default %g)" % DEFAULT_TOL)
    p_chk.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                       help="random iterations per suite (default %d)"
                            % DEFAULT_SAMPLES)
    p_chk.add_argument("--suite", action="append", choices=SUITE_NAMES,
                       help="run only this suite, repeatable")
    p_chk.set_defaults(func=_cmd_check, parser=p_chk)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SeptenaryError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
