"""Command line front end.

Subcommands
-----------
epr       run the two-party experiment
ghz       run the four-party experiment
chsh      scan the four-term combination over a grid of planar settings
analytic  evaluate the closed-form expectations without simulating
check     run the built-in consistency suites

Exit codes: 0 success, 1 a check suite failed, 2 usage error, 3 could not
read or write a file, 4 invalid values in otherwise well-formed flags, 130
interrupted (SIGINT, one "interrupted" line on stderr), 128 + the signal
number on SIGTERM (143) or SIGHUP (129).
This module only turns flags into numbers, and flag text that is not a
number is a usage error. The library checks the values (``TrialConfig`` a
run's settings, the closed forms their angles and ``run_checks`` its
tolerance), and a value it refuses exits 4.

Output targets are checked before any work starts, and an empty one is
refused as unwritable. A missing target or a plain file is written to a
temp beside it, and the temps replace their targets only once every one of
them is written, so a run that fails leaves no partial output behind there;
symlinks, devices and other special targets are written in place. Every
text output goes through ``_write_text``.

The environment variable SEPTENARY_SEED, when set, overrides the --seed
flag of a run; its summary records which source won under ``seed_source``.
``chsh`` takes no seed: no scan result depends on one. Identical flags and
seed give byte-identical CSV and JSON files; the SVG plot is rendered from
the summary and never feeds back into the numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import math
import os
import shutil
import stat
import sys
import tempfile

from . import __version__
from .checks import DEFAULT_SAMPLES, DEFAULT_TOL, SUITE_NAMES, run_checks
from .engine import TrialConfig, chsh_scan, stream_trials
from .errors import SeptenaryError
from .oracle import epr_expectation, ghz_expectation
from .svgplot import render_run_svg

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


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


# Read once at import, before any thread exists: os.umask can only be read
# by setting it, and the setting is shared by the whole process.
_UMASK = os.umask(0)
os.umask(_UMASK)


def _stageable(target: str) -> bool:
    """True if ``target`` can be replaced by a renamed temp without change.

    That holds for a missing path and for a plain file of ours with one
    link. Anything else (a symlink, a device such as /dev/null, a FIFO, a
    hard-linked or foreign file) is written in place, so the rename cannot
    swap it for a plain file, drop a link or change its owner.
    """
    try:
        st = os.lstat(target)
    except FileNotFoundError:
        return True
    return (stat.S_ISREG(st.st_mode) and st.st_nlink == 1
            and st.st_uid == os.geteuid())


@contextlib.contextmanager
def _staged(targets):
    """A path to write each target through, None for a flag not given.

    Every target is checked before the body runs, so an unwritable one, the
    empty path included, fails before any work, as do two that name one
    file: the same device and inode where it exists (hard links included),
    else the same resolved path. Existing targets that are not plain files,
    such as /dev/null, may be given to several flags. A stageable target
    gets a temp beside it, which replaces it only after the whole body
    succeeds; on any error the temps are removed and those targets do not
    change. Other targets are yielded as they are and written in place.
    """
    given = [t for t in targets if t is not None]
    if "" in given:
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), "")
    seen = {}                               # file -> the first target for it
    for target in given:
        try:
            st = os.stat(target)
        except OSError:
            key = os.path.realpath(target)
        else:
            if not stat.S_ISREG(st.st_mode):
                continue
            key = st.st_dev, st.st_ino
        if key in seen:
            raise SeptenaryError("%s and %s name the same file"
                                 % (seen[key], target))
        seen[key] = target
    temps = {}                              # stageable target -> its temp
    try:
        for target in given:
            if os.path.isdir(target):
                raise IsADirectoryError(errno.EISDIR, "Is a directory",
                                        target)
            if not _stageable(target):
                if os.path.exists(target) and not os.access(target, os.W_OK):
                    raise PermissionError(errno.EACCES, "Permission denied",
                                          target)
                continue
            fd, tmp = tempfile.mkstemp(
                dir=os.path.dirname(os.path.abspath(target)),
                prefix=".%s." % os.path.basename(target), suffix=".tmp")
            os.close(fd)
            temps[target] = tmp
            if os.path.exists(target):
                shutil.copymode(target, tmp)
            else:
                os.chmod(tmp, 0o666 & ~_UMASK)
        yield [temps.get(target, target) for target in targets]
        for target, tmp in temps.items():
            os.replace(tmp, target)
    except BaseException:
        for tmp in temps.values():
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise


def _floats(text: str) -> list:
    """The comma-separated numbers of a flag; the library checks them."""
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "%r has a non-numeric entry" % text)


def _cmd_run(args) -> int:
    if args.trials < 1:
        args.parser.error("--trials must be a positive integer")
    seed, source = _resolve_seed(args.seed)
    cfg = TrialConfig(trials=args.trials, seed=seed, mode=args.command,
                      fixed_settings=args.fixed_angles or (),
                      bin_width_deg=args.bin_deg)
    with _staged((args.out, args.plot, args.summary)) as (out, plot, path):
        # the CSV rows go out batch by batch as the run streams
        with (open(out, "w", newline="") if out is not None
              else contextlib.nullcontext()) as csv_file:
            summary = stream_trials(cfg, csv_file)
        if plot is not None:
            _write_text(plot, render_run_svg(summary))
        summary["seed_source"] = source
        text = _json_text(summary)
        if path is not None:
            _write_text(path, text)
    if args.summary is None:
        sys.stdout.write(text)
    return 0


def _cmd_chsh(args) -> int:
    with _staged((args.json,)) as (path,):
        text = _json_text(chsh_scan(grid_deg=args.grid_deg,
                                    source=args.source))
        if path is not None:
            _write_text(path, text)
    if args.json is None:
        sys.stdout.write(text)
    return 0


def _cmd_analytic(args) -> int:
    if args.which == "epr":
        value = epr_expectation(math.radians(args.theta))
        row = {"mode": "epr", "theta_deg": args.theta, "expectation": value}
    else:
        value = ghz_expectation([math.radians(t) for t in args.thetas],
                                [math.radians(p) for p in args.phis])
        row = {"mode": "ghz", "theta_deg": args.thetas,
               "phi_deg": args.phis, "expectation": value}
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
    results = run_checks(names=args.suite, tol=args.tol,
                         samples=args.samples)
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

    for mode, text, parties, example in (
            ("epr", "two-party run", 2, "-30,45"),
            ("ghz", "four-party run", 4, "-30,45,0,90")):
        sub = subs.add_parser(mode, help=text)
        sub.add_argument("--trials", type=int, default=100000,
                         help="number of events (default 100000)")
        sub.add_argument("--seed", type=int, default=0,
                         help="PRNG seed (default 0; %s overrides)"
                              % _ENV_SEED)
        sub.add_argument("--bin-deg", type=float, default=5.0, metavar="W",
                         help="summary bin width in degrees (default 5)")
        sub.add_argument("--fixed-angles", action="append", type=_floats,
                         metavar="ANGLES",
                         help="setting tuple of %d comma-separated degrees; "
                              "repeat the flag to cycle through a list; join "
                              "a tuple that starts with a negative angle with "
                              "'=', as in --fixed-angles=%s (default: draw "
                              "settings uniformly in the xy plane)"
                              % (parties, example))
        sub.add_argument("--out", metavar="CSV",
                         help="write every trial to this CSV file")
        sub.add_argument("--summary", metavar="JSON",
                         help="write the binned summary to this JSON file "
                              "(default: print to stdout)")
        sub.add_argument("--plot", metavar="SVG",
                         help="write an SVG of binned means over the "
                              "reference")
        sub.set_defaults(func=_cmd_run, parser=sub)

    p_chsh = subs.add_parser("chsh", help="four-term scan")
    p_chsh.add_argument("--grid-deg", type=float, default=5.0, metavar="G",
                        help="grid step in degrees (default 5)")
    p_chsh.add_argument("--source", choices=("analytic", "simulated"),
                        default="analytic",
                        help="where pair expectations come from")
    p_chsh.add_argument("--json", metavar="PATH",
                        help="write the result here instead of stdout")
    p_chsh.set_defaults(func=_cmd_chsh)

    p_an = subs.add_parser("analytic", help="closed-form expectations")
    an_subs = p_an.add_subparsers(dest="which", required=True)
    for which, text, flags in (
            ("epr", "two-party expectation",
             {"--theta": dict(type=float,
                              help="separation angle in degrees")}),
            ("ghz", "four-party expectation",
             {"--thetas": dict(type=_floats, metavar="T1,T2,T3,T4",
                               help="polar angles in degrees"),
              "--phis": dict(type=_floats, metavar="P1,P2,P3,P4",
                             help="azimuthal angles in degrees")})):
        sub = an_subs.add_parser(which, help=text)
        for flag, kwargs in flags.items():
            sub.add_argument(flag, required=True, **kwargs)
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        sub.set_defaults(func=_cmd_analytic)

    p_chk = subs.add_parser("check", help="consistency suites")
    p_chk.add_argument("--tol", type=float, default=DEFAULT_TOL,
                       help="tolerance for the floating suites "
                            "(default %g)" % DEFAULT_TOL)
    p_chk.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                       help="random iterations per suite (default %d)"
                            % DEFAULT_SAMPLES)
    p_chk.add_argument("--suite", action="append", choices=SUITE_NAMES,
                       help="run only this suite, repeatable")
    p_chk.set_defaults(func=_cmd_check)

    return parser


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # imported here, so that --version, which exits while parsing, skips it
    import signal
    # SIGTERM and SIGHUP unwind the stack, so _staged removes its temps; a
    # signal the caller ignores (SIGHUP under nohup) stays ignored
    stops = [s for s in (signal.SIGTERM, signal.SIGHUP)
             if signal.getsignal(s) == signal.SIG_DFL]
    for s in stops:
        signal.signal(s, _exit_on_signal)
    try:
        return args.func(args)
    except (SeptenaryError, ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 3
    except KeyboardInterrupt:
        # _staged has removed the temps
        print("interrupted", file=sys.stderr)
        return 130
    finally:
        for s in stops:
            signal.signal(s, signal.SIG_DFL)


if __name__ == "__main__":
    sys.exit(main())
