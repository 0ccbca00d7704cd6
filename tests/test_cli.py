import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import septenary
from septenary import cli, engine
from septenary.checks import SUITE_NAMES, run_checks
from septenary.cli import main

from frozen import CHI2_CRITICAL_70DOF

ROOT2 = math.sqrt(2.0)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("SEPTENARY_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _exit_code(argv) -> int:
    """main's exit code, also where argparse exits on a usage error."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


# ---------------------------------------------------------------------------
# analytic

def test_analytic_epr_sixty_degrees(capsys):
    code, out = run_cli(capsys, "analytic", "epr", "--theta", "60")
    assert code == 0
    row = json.loads(out)
    assert row["mode"] == "epr"
    assert row["expectation"] == pytest.approx(-0.5, abs=1e-12)


def test_analytic_ghz_equatorial_point(capsys):
    code, out = run_cli(capsys, "analytic", "ghz",
                        "--thetas", "90,90,90,90", "--phis", "0,0,0,0")
    assert code == 0
    row = json.loads(out)
    assert row["expectation"] == pytest.approx(-1.0, abs=1e-12)


def test_analytic_csv_format(capsys):
    code, out = run_cli(capsys, "analytic", "epr", "--theta", "0",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mode,theta_deg,expectation"
    cells = lines[1].split(",")
    assert cells[0] == "epr"
    assert float(cells[2]) == -1.0


_ARITY = "four polar and four azimuthal angles required"


@pytest.mark.parametrize("thetas,phis,code,message", [
    pytest.param("1,2,3", "0,0,0,0", 4, "error: " + _ARITY,
                 id="1,2,3-0,0,0,0"),
    pytest.param("1,2,3,4", "0,0", 4, "error: " + _ARITY, id="1,2,3,4-0,0"),
    pytest.param("a,b,c,d", "0,0,0,0", 2,
                 "septenary analytic ghz: error: argument --thetas: "
                 "'a,b,c,d' has a non-numeric entry",
                 id="a,b,c,d-0,0,0,0"),
])
def test_analytic_ghz_rejects_bad_lists(capsys, thetas, phis, code,
                                        message):
    # the CLI only parses the numbers; the closed form checks their count
    assert _exit_code(["analytic", "ghz", "--thetas", thetas,
                       "--phis", phis]) == code
    captured = capsys.readouterr()
    # a usage error prints argparse's usage lines first
    assert captured.err.splitlines()[-1 if code == 2 else 0:] == [message]
    assert captured.out == ""


# ---------------------------------------------------------------------------
# runs

def test_single_fixed_trial(tmp_path, capsys):
    csv_path = tmp_path / "one.csv"
    code, out = run_cli(capsys, "epr", "--trials", "1", "--seed", "5",
                        "--fixed-angles", "0,0", "--out", str(csv_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["trials"] == 1
    assert len(summary["bins"]) == 1
    assert summary["bins"][0]["mean_corr"] == pytest.approx(-1.0, abs=1e-12)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "k,lambda,phi_a,phi_b,A,B,corr"
    cells = lines[1].split(",")
    assert cells[0] == "0"
    assert int(cells[4]) == int(cells[1])
    assert int(cells[5]) == -int(cells[1])
    assert float(cells[6]) == pytest.approx(-1.0, abs=1e-12)


def test_repeat_invocations_are_byte_identical(tmp_path, capsys):
    paths = []
    for tag in ("x", "y"):
        c = tmp_path / ("%s.csv" % tag)
        j = tmp_path / ("%s.json" % tag)
        code, _ = run_cli(capsys, "epr", "--trials", "2000", "--seed", "9",
                          "--out", str(c), "--summary", str(j))
        assert code == 0
        paths.append((c, j))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_plot_does_not_alter_the_summary(tmp_path, capsys):
    plain = tmp_path / "plain.json"
    plotted = tmp_path / "plotted.json"
    svg = tmp_path / "run.svg"
    code, _ = run_cli(capsys, "epr", "--trials", "500", "--seed", "2",
                      "--summary", str(plain))
    assert code == 0
    code, _ = run_cli(capsys, "epr", "--trials", "500", "--seed", "2",
                      "--summary", str(plotted), "--plot", str(svg))
    assert code == 0
    assert plain.read_bytes() == plotted.read_bytes()
    text = svg.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


def test_ghz_fixed_angles_are_binned_under_their_sum(capsys):
    code, out = run_cli(capsys, "ghz", "--trials", "8",
                        "--fixed-angles", "10,20,30,40")
    assert code == 0
    summary = json.loads(out)
    assert len(summary["bins"]) == 1
    b = summary["bins"][0]
    assert b["angle_deg"] == 322.5
    assert b["count"] == 8
    assert b["mean_corr"] == pytest.approx(-math.cos(math.radians(-40.0)),
                                           abs=1e-12)


def test_fixed_angle_list_cycles(capsys):
    code, out = run_cli(capsys, "epr", "--trials", "10",
                        "--fixed-angles", "0,45", "--fixed-angles", "0,90")
    assert code == 0
    summary = json.loads(out)
    got = {b["angle_deg"]: b["count"] for b in summary["bins"]}
    assert got == {47.5: 5, 92.5: 5}


def test_negative_first_angle_runs_in_the_joined_form(tmp_path, capsys):
    # argparse reads a separate "-30,45" as an option, so the tuple is
    # joined to the flag with "="
    csv_path = tmp_path / "neg.csv"
    code, out = run_cli(capsys, "epr", "--trials", "3",
                        "--fixed-angles=-30,45", "--out", str(csv_path))
    assert code == 0
    assert [b["angle_deg"] for b in json.loads(out)["bins"]] == [77.5]
    rows = csv_path.read_text().splitlines()[1:]
    assert [r.split(",")[2:4] for r in rows] == [["-30.0", "45.0"]] * 3


def test_partial_last_bin_is_reported_inside_its_keys(capsys):
    # 81 does not divide 360: the last bin holds keys in [324, 360), so it
    # is reported at their middle, not at 364.5
    code, out = run_cli(capsys, "epr", "--trials", "4", "--bin-deg", "81",
                        "--fixed-angles=-170,170")
    assert code == 0
    assert [(b["angle_deg"], b["count"]) for b in json.loads(out)["bins"]] \
        == [(342.0, 4)]


def test_random_run_covers_the_angle_range(capsys):
    code, out = run_cli(capsys, "epr", "--trials", "20000", "--seed", "1")
    assert code == 0
    summary = json.loads(out)
    assert sum(b["count"] for b in summary["bins"]) == 20000
    # |phi_b - phi_a| of two uniform azimuths has the triangular density
    # 2 (360 - k) / 360^2, so a 5 degree bin [k, k + 5) holds the share
    # ((360 - k)^2 - (355 - k)^2) / 360^2; the last bin expects 3.9 trials
    # and is pooled into its neighbour
    counts = [0] * 72
    for b in summary["bins"]:
        counts[int(b["angle_deg"] // 5.0)] += b["count"]
    expected = [20000 * ((360.0 - k) ** 2 - (355.0 - k) ** 2) / 360.0 ** 2
                for k in range(0, 360, 5)]
    counts[-2] += counts.pop()
    expected[-2] += expected.pop()
    assert min(expected) >= 5.0
    chi2 = sum((c - e) ** 2 / e for c, e in zip(counts, expected))
    assert chi2 < CHI2_CRITICAL_70DOF
    assert abs(summary["ave_outcomes"]["A"]) <= 5.0 / math.sqrt(20000)


# ---------------------------------------------------------------------------
# seed resolution

def test_env_seed_overrides_the_flag(capsys, monkeypatch):
    monkeypatch.setenv("SEPTENARY_SEED", "777")
    code, out = run_cli(capsys, "epr", "--trials", "100", "--seed", "0")
    assert code == 0
    summary = json.loads(out)
    assert summary["seed"] == 777
    assert summary["seed_source"] == "env"


def test_env_seed_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("SEPTENARY_SEED", "lucky")
    code, _ = run_cli(capsys, "epr", "--trials", "100")
    assert code == 4


def test_flag_seed_is_the_default_source(capsys):
    code, out = run_cli(capsys, "epr", "--trials", "100", "--seed", "6")
    assert code == 0
    summary = json.loads(out)
    assert summary["seed"] == 6
    assert summary["seed_source"] == "flag"


# ---------------------------------------------------------------------------
# failure modes

def test_zero_trials_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["epr", "--trials", "0"])
    assert exc.value.code == 2


def test_trial_count_past_int64_is_a_value_error(capsys):
    code = main(["epr", "--trials", str(2 ** 63)])
    captured = capsys.readouterr()
    assert code == 4
    assert "trials must be below 2**63" in captured.err
    assert captured.out == ""


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["entangle"])
    assert exc.value.code == 2


@pytest.mark.parametrize("mode", ["epr", "ghz"])
def test_thread_flag_is_a_usage_error(capsys, mode):
    # a run computes its batches in one process; no flag asks for more
    with pytest.raises(SystemExit) as exc:
        main([mode, "--trials", "10", "--threads", "2"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_random_flag_is_a_usage_error(capsys):
    # a run without --fixed-angles draws its settings; there is no flag
    # that asks for the default
    with pytest.raises(SystemExit) as exc:
        main(["epr", "--trials", "10", "--random"])
    assert exc.value.code == 2
    assert "--random" in capsys.readouterr().err


@pytest.mark.parametrize("setting,code,message", [
    pytest.param("10", 4,
                 "error: each fixed setting needs 2 angles, got (10.0,)",
                 id="10"),
    pytest.param("1,2,3", 4,
                 "error: each fixed setting needs 2 angles, "
                 "got (1.0, 2.0, 3.0)",
                 id="1,2,3"),
    pytest.param("a,b", 2,
                 "septenary epr: error: argument --fixed-angles: 'a,b' has "
                 "a non-numeric entry",
                 id="a,b"),
])
def test_malformed_fixed_angles(capsys, setting, code, message):
    # the CLI only parses the numbers; TrialConfig checks their count
    assert _exit_code(["epr", "--trials", "10", "--fixed-angles",
                       setting]) == code
    captured = capsys.readouterr()
    # a usage error prints argparse's usage lines first
    assert captured.err.splitlines()[-1 if code == 2 else 0:] == [message]
    assert captured.out == ""


# Every numeric flag, with the value given where {} stands: flag text that
# is not a number is a usage error (exit 2, argparse names the flag), and
# a number the library refuses exits 4 with the library's message. An
# integer flag takes no nan or inf.
_NUMERIC_FLAGS = [
    pytest.param(("epr", "--trials", "{}"), id="trials"),
    pytest.param(("epr", "--seed", "{}"), id="seed"),
    pytest.param(("epr", "--bin-deg", "{}"), id="bin-deg"),
    pytest.param(("epr", "--fixed-angles", "0,{}"), id="epr-fixed-angles"),
    pytest.param(("ghz", "--fixed-angles", "0,0,0,{}"),
                 id="ghz-fixed-angles"),
    pytest.param(("chsh", "--grid-deg", "{}"), id="grid-deg"),
    pytest.param(("analytic", "epr", "--theta", "{}"), id="theta"),
    pytest.param(("analytic", "ghz", "--thetas", "90,90,90,{}",
                  "--phis", "0,0,0,0"), id="thetas"),
    pytest.param(("analytic", "ghz", "--thetas", "90,90,90,90",
                  "--phis", "0,0,0,{}"), id="phis"),
    pytest.param(("check", "--tol", "{}"), id="tol"),
    pytest.param(("check", "--samples", "{}"), id="samples"),
]
_INTEGER_FLAGS = ("--trials", "--seed", "--samples")


@pytest.mark.parametrize("text", ["x", "nan", "inf", ""])
@pytest.mark.parametrize("argv", _NUMERIC_FLAGS)
def test_numeric_flags_exit_2_on_text_and_4_on_a_refused_number(
        capsys, argv, text):
    flag = argv[[i for i, a in enumerate(argv) if "{}" in a][0] - 1]
    code = _exit_code(a.format(text) for a in argv)
    captured = capsys.readouterr()
    assert captured.out == ""
    if text in ("nan", "inf") and flag not in _INTEGER_FLAGS:
        # the library's one-line message
        assert code == 4
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
    else:
        # argparse's usage, naming the flag
        assert code == 2
        assert captured.err.startswith("usage: ")
        assert "error: argument %s: " % flag in captured.err


@pytest.mark.parametrize("argv", [
    ("epr", "--trials", "10", "--fixed-angles", "nan,0"),
    ("ghz", "--trials", "10", "--fixed-angles", "0,inf,0,0"),
    ("analytic", "epr", "--theta", "nan"),
    ("analytic", "epr", "--theta=-inf"),
    ("analytic", "ghz", "--thetas", "90,90,nan,90", "--phis", "0,0,0,0"),
    ("analytic", "ghz", "--thetas", "90,90,90,90", "--phis", "0,inf,0,0"),
    ("check", "--tol", "nan"),
])
def test_non_finite_values_are_value_errors(capsys, recwarn, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 4
    assert "must be finite" in captured.err
    assert captured.out == ""
    assert not recwarn.list


def test_bad_bin_width_is_a_value_error(capsys):
    for width in ("0", "0.001"):
        code = main(["epr", "--trials", "10", "--bin-deg", width])
        captured = capsys.readouterr()
        assert code == 4
        assert "bin width must be in [0.01, 360] degrees" in captured.err
        assert captured.out == ""


def test_unwritable_output_path(tmp_path, capsys):
    target = tmp_path / "missing" / "run.csv"
    code, _ = run_cli(capsys, "epr", "--trials", "10", "--out", str(target))
    assert code == 3


def _must_not_run(*args, **kwargs):
    raise AssertionError("computed although an output cannot be written")


@pytest.mark.parametrize("argv,compute", [
    pytest.param(("epr", "--trials", "10", "--out", ""), "stream_trials",
                 id="out"),
    pytest.param(("epr", "--trials", "10", "--plot", ""), "stream_trials",
                 id="plot"),
    pytest.param(("epr", "--trials", "10", "--summary", ""), "stream_trials",
                 id="summary"),
    pytest.param(("chsh", "--grid-deg", "45", "--json", ""), "chsh_scan",
                 id="chsh-json"),
])
def test_empty_output_path_fails_before_running(tmp_path, capsys,
                                                monkeypatch, argv, compute):
    # an empty target is an unwritable path, not a flag left out; its temp
    # would land in the parent of the working directory
    monkeypatch.setattr(cli, compute, _must_not_run)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err ==         "io error: [Errno 2] No such file or directory: ''\n"
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [cwd]
    assert list(cwd.iterdir()) == []


@pytest.mark.parametrize("flags", [
    ("--out", "missing/run.csv"),
    ("--summary", "missing/run.json"),
    ("--out", "run.csv", "--plot", "run.svg", "--summary", "missing/run.json"),
    ("--out", "missing/run.csv", "--summary", "run.json"),
])
def test_unwritable_output_fails_before_running(tmp_path, capsys,
                                                monkeypatch, flags):
    monkeypatch.setattr(cli, "stream_trials", _must_not_run)
    argv = [f if f.startswith("--") else str(tmp_path / f) for f in flags]
    code = main(["epr", "--trials", "10", *argv])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


def test_directory_target_fails_before_running(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.setattr(cli, "stream_trials", _must_not_run)
    csv_path = tmp_path / "run.csv"
    csv_path.write_text("old csv")
    (tmp_path / "somedir").mkdir()
    code = main(["epr", "--trials", "10", "--out", str(csv_path),
                 "--summary", str(tmp_path / "somedir")])
    captured = capsys.readouterr()
    assert code == 3
    assert "Is a directory" in captured.err
    assert captured.out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv",
                                                         "somedir"]
    assert csv_path.read_text() == "old csv"


def test_failed_run_leaves_existing_outputs_alone(tmp_path, capsys,
                                                  monkeypatch):
    def broken(path, text):
        raise OSError("disk full")

    # the summary is the last output written
    monkeypatch.setattr(cli, "_write_text", broken)
    csv_path, json_path = tmp_path / "run.csv", tmp_path / "run.json"
    csv_path.write_text("old csv")
    code = main(["epr", "--trials", "10", "--out", str(csv_path),
                 "--summary", str(json_path)])
    assert code == 3
    assert "disk full" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv"]
    assert csv_path.read_text() == "old csv"


@pytest.mark.parametrize("target", [
    "_csv_rows",        # writing the third batch's rows fails
    "_run_batch",       # computing the third batch fails
    "_draw",            # the third batch's draw stage fails
])
def test_mid_stream_failure_leaves_no_partial_output(tmp_path, capsys,
                                                     monkeypatch, target):
    real = getattr(engine, target)
    calls, written = [], []

    def failing(*args):
        calls.append(args)
        if len(calls) == 3:
            written.extend(p.stat().st_size
                           for p in tmp_path.glob(".run.csv.*.tmp"))
            raise OSError("disk full")
        return real(*args)

    monkeypatch.setattr(engine, target, failing)
    csv_path, json_path = tmp_path / "run.csv", tmp_path / "run.json"
    csv_path.write_text("old csv")
    code = main(["epr", "--trials", "30000",
                 "--out", str(csv_path), "--summary", str(json_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "disk full" in captured.err
    assert captured.out == ""
    # two batches of rows had reached the temp when the failure came
    assert len(written) == 1 and written[0] > 2 * 8192 * 40
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv"]
    assert csv_path.read_text() == "old csv"


def _child_env():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(septenary.__file__)))
    env.pop("SEPTENARY_SEED", None)
    env.pop("OPENBLAS_NUM_THREADS", None)
    return env


# The test process imported numpy before the package, so OpenBLAS holds a
# thread there. These drivers import the package first, as the CLI does,
# and count the forks of each run.
_FORK_COUNTER = """
import hashlib, json, os, pathlib, sys
import septenary
from septenary import cli
forks = []
_fork = os.fork
def _counted_fork():
    forks.append(os.getpid())
    return _fork()
os.fork = _counted_fork
"""

_SAME_BYTES = _FORK_COUNTER + """
def run(argv, d):
    os.mkdir(d)
    paths = [os.path.join(d, "run." + e) for e in ("csv", "json", "svg")]
    code = cli.main([*argv, "--out", paths[0], "--summary", paths[1],
                     "--plot", paths[2]])
    assert code == 0, code
    return [pathlib.Path(p).read_bytes() for p in paths]

tmp, argv = sys.argv[1], sys.argv[2:]
cpus = os.sched_getaffinity(0)
same, digests = [], []
for trials in ("1", "8192", "8193", str(3 * 8192 + 5)):
    case = [*argv, "--trials", trials]
    every = run(case, os.path.join(tmp, trials + "-every"))
    os.sched_setaffinity(0, {min(cpus)})
    one = run(case, os.path.join(tmp, trials + "-one"))
    os.sched_setaffinity(0, cpus)
    same.append(every == one)
    digests.append(hashlib.sha256(b"".join(every)).hexdigest())
print(json.dumps({"forks": len(forks), "same": same, "digests": digests}))
"""


def _same_bytes(tmp_path, argv, **env) -> dict:
    """Forks, one-CPU byte equality and output digests of ``argv`` at each
    trial count, run under ``-W error`` with ``env`` added."""
    tmp_path.mkdir(exist_ok=True)
    out = subprocess.run(
        [sys.executable, "-W", "error", "-c", _SAME_BYTES, str(tmp_path),
         *argv], env=dict(_child_env(), **env), capture_output=True,
        text=True, timeout=120, check=True)
    assert out.stderr == ""
    return json.loads(out.stdout)


_RUNS = [
    pytest.param(("epr",), id="epr"),
    pytest.param(("ghz",), id="ghz"),
    # three tuples cycle across the batch boundaries at a different offset
    # in every batch
    pytest.param(("ghz", "--fixed-angles", "0,45,90,135",
                  "--fixed-angles", "30,60,0,10", "--fixed-angles=-15,0,0,5"),
                 id="ghz-fixed"),
]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the one-CPU run needs sched_setaffinity")
@pytest.mark.parametrize("argv", _RUNS)
def test_csv_runs_fork_nothing_and_write_the_bytes_of_a_one_cpu_run(
        tmp_path, argv):
    # at 1, 8192, 8193 and 3 * 8192 + 5 trials: one batch, a full one, a
    # second of one trial, and four batches
    report = _same_bytes(tmp_path, argv)
    assert report["forks"] == 0
    assert report["same"] == [True] * 4


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the one-CPU run needs sched_setaffinity")
def test_a_process_with_threads_runs_in_process_and_warns_nothing(tmp_path):
    # OpenBLAS holds a second thread here, so a fork could copy a held
    # lock (and Python 3.12 would warn); the run stays in process and
    # writes the bytes of a run without that thread
    threaded = _same_bytes(tmp_path / "threaded", ("epr",),
                           OPENBLAS_NUM_THREADS="2")
    plain = _same_bytes(tmp_path / "plain", ("epr",))
    assert threaded["forks"] == 0
    assert threaded["same"] == [True] * 4
    assert threaded["digests"] == plain["digests"]


_STOPPED = _FORK_COUNTER + """
import signal
# as outside nohup, so that the CLI catches SIGHUP
signal.signal(signal.SIGHUP, signal.SIG_DFL)
tmp = sys.argv[1]
try:
    code = cli.main(["epr", "--trials", "20000000",
                     "--out", os.path.join(tmp, "run.csv"),
                     "--summary", os.path.join(tmp, "run.json")])
except SystemExit as exc:
    code = exc.code
try:
    os.waitpid(-1, os.WNOHANG)
    left = "a child is left"
except ChildProcessError:
    left = "no child left"
print(code, len(forks), left)
sys.exit(code)
"""


def _stop(tmp_path, signum) -> tuple:
    """Exit code, stdout and stderr of a CSV run sent ``signum`` once its
    CSV temp holds a batch's rows."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _STOPPED, str(tmp_path)],
        env=_child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        deadline = time.monotonic() + 60
        while not any(p.stat().st_size > 8192 * 40
                      for p in tmp_path.glob(".run.csv.*.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        proc.send_signal(signum)
        out, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    return proc.returncode, out, err


def test_sigint_exits_130_with_one_line_and_leaves_nothing(tmp_path):
    code, out, err = _stop(tmp_path, signal.SIGINT)
    assert out.split(maxsplit=2) == ["130", "0", "no child left\n"]
    assert code == 130
    assert err == "interrupted\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("signum,want", [(signal.SIGTERM, 143),
                                         (signal.SIGHUP, 129)],
                         ids=["SIGTERM", "SIGHUP"])
def test_sigterm_exits_by_its_number_and_keeps_the_old_targets(
        tmp_path, signum, want):
    # the handler unwinds the stack, so the temps go as on any error
    (tmp_path / "run.csv").write_text("old csv")
    (tmp_path / "run.json").write_text("old json")
    code, out, err = _stop(tmp_path, signum)
    assert out.split(maxsplit=2) == [str(want), "0", "no child left\n"]
    assert code == want
    assert err == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv",
                                                         "run.json"]
    assert (tmp_path / "run.csv").read_text() == "old csv"
    assert (tmp_path / "run.json").read_text() == "old json"


def test_stop_handlers_hold_while_a_command_runs(monkeypatch, capsys):
    # a SIGHUP the caller ignores (nohup) stays ignored, and main puts back
    # the default dispositions it replaced
    seen = []

    def spy(args):
        seen.extend(signal.getsignal(s) for s in (signal.SIGTERM,
                                                  signal.SIGHUP))
        return 0

    monkeypatch.setattr(cli, "_cmd_analytic", spy)
    before = [signal.getsignal(s) for s in (signal.SIGTERM, signal.SIGHUP)]
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGHUP, signal.SIG_IGN)
    try:
        assert main(["analytic", "epr", "--theta", "0"]) == 0
        after = [signal.getsignal(s) for s in (signal.SIGTERM,
                                               signal.SIGHUP)]
    finally:
        for s, handler in zip((signal.SIGTERM, signal.SIGHUP), before):
            signal.signal(s, handler)
    assert seen == [cli._exit_on_signal, signal.SIG_IGN]
    assert after == [signal.SIG_DFL, signal.SIG_IGN]


# On Linux exec keeps the larger of the new process's peak RSS and that of
# the process it was spawned from, so a run spawned straight from the test
# process would report the test process's peak. A small intermediate
# spawns the run and reports the run's own wait4 figures: exit code, peak
# RSS and minor page faults.
_PEAK_RSS = """
import os, sys
argv = [sys.executable, "-m", "septenary", *sys.argv[1:]]
_, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, os.environ), 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss, usage.ru_minflt)
"""


def _child_usage(tmp_path, argv) -> tuple:
    """Exit code, peak RSS in KiB and minor faults of one CLI run."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(septenary.__file__)))
    env.pop("SEPTENARY_SEED", None)
    out = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, *argv, str(tmp_path / "run.json")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
        cwd=tmp_path)
    return tuple(map(int, out.stdout.split()))


@pytest.mark.skipif(sys.platform != "linux",
                    reason="ru_maxrss is in KiB on Linux")
@pytest.mark.parametrize("argv,key,value", [
    # collected, the columns of 2e6 four-party trials alone take 104 MB
    pytest.param(("ghz", "--trials", "2000000", "--summary"),
                 "trials", 2000000, id="ghz"),
    # 49 batches, each computed, tallied and written in process
    pytest.param(("epr", "--trials", "400000", "--out", "run.csv",
                  "--summary"),
                 "trials", 400000, id="epr-csv"),
])
def test_large_run_memory_does_not_grow_with_trials(tmp_path, argv, key,
                                                    value):
    code, maxrss_kib, _ = _child_usage(tmp_path, argv)
    assert code == 0
    assert json.loads((tmp_path / "run.json").read_text())[key] == value
    assert maxrss_kib < 96 * 1024


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the batch memory reuse measured is glibc's")
def test_large_run_page_faults_do_not_grow_with_batches(tmp_path):
    # 220 more batches, computed in process; where glibc trims the heap and
    # grows it again as batches go by, each costs dozens of faults
    faults = []
    for trials in ("200000", "2000000"):
        code, _, minflt = _child_usage(
            tmp_path, ("ghz", "--trials", trials, "--summary"))
        assert code == 0
        faults.append(minflt)
    assert faults[1] - faults[0] < 2000, faults


@pytest.mark.skipif(sys.platform != "linux",
                    reason="the batch memory reuse measured is glibc's")
def test_csv_run_page_faults_per_batch_are_bounded(tmp_path):
    # 85 more batches, each formatted and written in place to /dev/null. A
    # batch costs about 200 faults while the loop holds its text until the
    # next batch's exists, and about 540 where the text goes once written
    faults = []
    for trials in ("100000", "800000"):
        code, _, minflt = _child_usage(
            tmp_path, ("epr", "--trials", trials, "--out", os.devnull,
                       "--summary"))
        assert code == 0
        faults.append(minflt)
    assert (faults[1] - faults[0]) / 85 < 320, faults


def _reject_constant(name):
    raise ValueError("JSON holds the non-finite constant %s" % name)


def _strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def _tree(root: Path) -> dict:
    return {p.name: p.read_bytes() if p.is_file() else None
            for p in root.iterdir()}


_EXT = {"--out": "csv", "--summary": "json", "--plot": "svg"}


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    mode=st.sampled_from(["epr", "ghz"]),
    trials=st.integers(-1, 2000),
    width=st.one_of(st.floats(0.01, 360.0), st.floats()),
    targets=st.fixed_dictionaries({
        flag: st.sampled_from([None, None, "new", "new", "existing",
                               "missing", "dir"])
        for flag in _EXT}),
    data=st.data(),
)
def test_run_arguments_exit_as_documented(capsys, mode, trials, width,
                                          targets, data):
    parties = 2 if mode == "epr" else 4
    # setting tuples mostly of the right length; st.floats() also draws
    # NaN and the infinities
    size = st.sampled_from([parties, parties, parties, 3])
    angles = st.one_of(_FINITE, _FINITE, st.floats())
    fixed = data.draw(st.none() | st.lists(
        size.flatmap(lambda k: st.lists(angles, min_size=k, max_size=k)),
        min_size=1, max_size=2), label="fixed")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "sub").mkdir()
        argv = [mode, "--trials", str(trials), "--bin-deg=%r" % width]
        for angles in fixed or ():
            argv.append("--fixed-angles=%s" % ",".join(map(repr, angles)))
        written = {}
        for flag, kind in targets.items():
            if kind is None:
                continue
            name = "%s.%s" % (kind, _EXT[flag])
            if kind == "existing":
                (root / name).write_text("old")
            path = {"missing": root / "missing" / name,
                    "dir": root / "sub"}.get(kind, root / name)
            argv.append("%s=%s" % (flag, path))
            written[flag] = path
        before = _tree(root)
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()

        if trials < 1:
            want = 2
        elif not (0.01 <= width <= 360.0) or not all(
                len(a) == parties and all(map(math.isfinite, a))
                for a in fixed or ()):
            want = 4
        elif {"missing", "dir"} & set(targets.values()):
            want = 3
        else:
            want = 0
        assert code == want, captured.err
        event("exit %d" % code)
        if code:
            assert captured.out == ""
            assert _tree(root) == before
            return
        assert not [p for p in root.iterdir() if p.name.endswith(".tmp")]
        assert set(_tree(root)) == set(before) | {p.name
                                                  for p in written.values()}
        if "--summary" in written:
            assert captured.out == ""
            summary = _strict_json(written["--summary"].read_text())
        else:
            summary = _strict_json(captured.out)
        assert summary["trials"] == trials
        assert sum(b["count"] for b in summary["bins"]) == trials
        if "--out" in written:
            lines = written["--out"].read_bytes().split(b"\r\n")
            assert len(lines) == trials + 2 and lines[-1] == b""
        if "--plot" in written:
            assert written["--plot"].read_text().startswith("<svg")


def test_outputs_are_moved_into_place_with_the_usual_mode(tmp_path, capsys):
    csv_path, json_path = tmp_path / "run.csv", tmp_path / "run.json"
    code, out = run_cli(capsys, "epr", "--trials", "10", "--out",
                        str(csv_path), "--summary", str(json_path))
    assert code == 0
    assert out == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.csv",
                                                         "run.json"]
    mask = os.umask(0)
    os.umask(mask)
    for path in (csv_path, json_path):
        assert path.stat().st_mode & 0o777 == 0o666 & ~mask


def test_existing_output_keeps_its_mode(tmp_path, capsys):
    csv_path = tmp_path / "run.csv"
    csv_path.write_text("old csv")
    csv_path.chmod(0o600)
    code, _ = run_cli(capsys, "epr", "--trials", "10", "--out",
                      str(csv_path))
    assert code == 0
    assert csv_path.read_text().startswith("k,")
    assert csv_path.stat().st_mode & 0o777 == 0o600
    assert [p.name for p in tmp_path.iterdir()] == ["run.csv"]


def test_symlinked_output_is_written_through_the_link(tmp_path, capsys):
    real = tmp_path / "real.csv"
    real.write_text("old csv")
    link = tmp_path / "link.csv"
    link.symlink_to(real)
    code, _ = run_cli(capsys, "epr", "--trials", "10", "--out", str(link))
    assert code == 0
    assert link.is_symlink()
    assert real.read_text().startswith("k,")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv",
                                                         "real.csv"]


def test_device_output_is_written_in_place(tmp_path, capsys):
    before = os.stat(os.devnull)
    code, _ = run_cli(capsys, "epr", "--trials", "10", "--out", os.devnull,
                      "--summary", str(tmp_path / "run.json"))
    assert code == 0
    after = os.stat(os.devnull)
    assert (after.st_mode, after.st_rdev) == (before.st_mode, before.st_rdev)
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]


def _hard_link(tmp_path):
    (tmp_path / "b").hardlink_to(tmp_path / "a")


def _symlink(tmp_path):
    (tmp_path / "b").symlink_to(tmp_path / "a")


@pytest.mark.parametrize("existing,link,flags", [
    ((), None, ("--out", "a", "--summary", "a", "--plot", "a")),
    ((), None, ("--out", "b", "--summary", "./b")),
    (("a",), None, ("--summary", "a", "--plot", "a")),
    (("a",), _hard_link, ("--out", "a", "--summary", "b")),
    (("a",), _symlink, ("--out", "b", "--plot", "a")),
    ((), _symlink, ("--summary", "a", "--out", "b")),   # a dangling link
], ids=["three-flags", "dot-slash", "existing", "hard-link", "symlink",
        "dangling-symlink"])
def test_one_file_for_two_flags_fails_before_running(tmp_path, capsys,
                                                     monkeypatch, existing,
                                                     link, flags):
    monkeypatch.setattr(cli, "stream_trials", _must_not_run)
    monkeypatch.chdir(tmp_path)
    for name in existing:
        (tmp_path / name).write_text("old " + name)
    if link:
        link(tmp_path)
    before = _tree(tmp_path)
    code = main(["epr", "--trials", "10", *flags])
    captured = capsys.readouterr()
    assert code == 4
    assert "name the same file" in captured.err
    assert captured.out == ""
    assert _tree(tmp_path) == before


def test_device_output_may_be_given_to_several_flags(tmp_path, capsys):
    code, out = run_cli(capsys, "epr", "--trials", "10", "--out", os.devnull,
                        "--summary", os.devnull, "--plot", os.devnull)
    assert code == 0
    assert out == ""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("septenary ")


# ---------------------------------------------------------------------------
# chsh

def test_chsh_scan_output(tmp_path, capsys):
    path = tmp_path / "scan.json"
    code, _ = run_cli(capsys, "chsh", "--grid-deg", "5", "--json", str(path))
    assert code == 0
    data = json.loads(path.read_text())
    assert data["max_abs_S"] == pytest.approx(2.0 * ROOT2, abs=1e-12)
    assert "seed" not in data and "seed_source" not in data
    assert data["argmax_deg"]["a"] == 0.0


def test_chsh_simulated_scan_ignores_the_env_seed(capsys, monkeypatch):
    # a pair's correlation does not depend on the coin, so no seed can move
    # the scan and SEPTENARY_SEED, even one that is not an integer, is unread
    outs = []
    for value in ("12", "junk", None):
        if value is None:
            monkeypatch.delenv("SEPTENARY_SEED")
        else:
            monkeypatch.setenv("SEPTENARY_SEED", value)
        code, out = run_cli(capsys, "chsh", "--source", "simulated",
                            "--grid-deg", "45")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert json.loads(outs[0])["max_abs_S"] == pytest.approx(2.0 * ROOT2,
                                                             abs=1e-9)


def test_chsh_bad_grid(capsys):
    for step in ("0", "1e-300"):
        code = main(["chsh", "--grid-deg", step])
        captured = capsys.readouterr()
        assert code == 4
        assert "grid step must be in [0.1, 90] degrees" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("source", ["analytic", "simulated"])
@pytest.mark.parametrize("flags,message", [
    (("--seed", "-1"), "seed must fit in 64 bits"),
    (("--seed", str(2 ** 64)), "seed must fit in 64 bits"),
    (("--trials-per-setting", "0"), "trials must be a positive integer"),
    (("--trials-per-setting", "-3"), "trials must be a positive integer"),
])
def test_chsh_bad_seed_or_trials(capsys, source, flags, message):
    # either source refuses the flag itself as a usage error before any
    # value check, since a scan has no seed or trial count to validate
    with pytest.raises(SystemExit) as exc:
        main(["chsh", "--grid-deg", "90", "--source", source, *flags])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert "unrecognized arguments" in captured.err
    assert flags[0] in captured.err and message not in captured.err
    assert captured.out == ""


def test_chsh_grid_must_divide_360(capsys):
    for step in ("50", "7", "0.7"):
        code = main(["chsh", "--grid-deg", step])
        captured = capsys.readouterr()
        assert code == 4
        assert "grid step must divide 360 degrees" in captured.err
        assert captured.out == ""


def test_chsh_unwritable_json_fails_before_scanning(tmp_path, capsys,
                                                    monkeypatch):
    monkeypatch.setattr(cli, "chsh_scan", _must_not_run)
    code = main(["chsh", "--json", str(tmp_path / "missing" / "scan.json")])
    assert code == 3
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# check

def test_check_default_passes(capsys):
    code, out = run_cli(capsys, "check", "--samples", "50")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"] is True
    assert [s["name"] for s in report["suites"]] == list(SUITE_NAMES)
    assert all(s["pass"] for s in report["suites"])


def test_check_zero_tolerance_fails_floating_suites(capsys):
    code, out = run_cli(capsys, "check", "--tol", "0", "--samples", "30")
    assert code == 1
    report = json.loads(out)
    assert report["all_pass"] is False
    by_name = {s["name"]: s["pass"] for s in report["suites"]}
    assert by_name["product-table"] is True
    assert not any(v for k, v in by_name.items() if k != "product-table")


def test_check_single_sample_runs_every_suite(capsys):
    code, out = run_cli(capsys, "check", "--samples", "1")
    assert code == 0
    report = json.loads(out)
    assert len(report["suites"]) == len(SUITE_NAMES)


def test_check_suite_filter(capsys):
    code, out = run_cli(capsys, "check", "--samples", "20",
                        "--suite", "sphere-maps", "--suite", "product-table")
    assert code == 0
    report = json.loads(out)
    assert [s["name"] for s in report["suites"]] == ["product-table",
                                                     "sphere-maps"]


def test_each_suite_reports_alone_what_it_reports_in_the_full_run():
    # every suite draws its own stream, so no suite's result depends on
    # which other suites run
    full = run_checks(samples=20)
    assert [r.name for r in full] == list(SUITE_NAMES)
    for result in full:
        assert run_checks([result.name], samples=20) == [result]


_CHECK_REPORTS = """
import sys
from septenary.cli import main
for n in ("2", "3", "7"):
    main(["check", "--samples", n])
"""


def test_unpinned_check_reports_do_not_depend_on_the_cpu_kernels():
    # the two pinned counts are rerun under these kernels with the goldens;
    # counts between them must hold as well: every norm and dot of the
    # report is written out, so no BLAS or SIMD kernel reaches its bits
    baseline = np._core._multiarray_umath.__cpu_baseline__
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(septenary.__file__)))
    env.pop("SEPTENARY_SEED", None)
    env.pop("OPENBLAS_CORETYPE", None)
    env.pop("NPY_ENABLE_CPU_FEATURES", None)
    reports = [
        subprocess.run([sys.executable, "-c", _CHECK_REPORTS],
                       env=dict(env, **extra), capture_output=True,
                       text=True, timeout=120, check=True).stdout
        for extra in ({}, {"OPENBLAS_CORETYPE": "Haswell"},
                      {"OPENBLAS_CORETYPE": "Haswell",
                       "NPY_ENABLE_CPU_FEATURES": ",".join(baseline)})]
    assert reports[0].count('"all_pass": true') == 3
    assert reports[1] == reports[0]
    assert reports[2] == reports[0]


_THREADS = """
import os
import septenary
print(os.environ["OPENBLAS_NUM_THREADS"])
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task")
      else "")
"""


@pytest.mark.parametrize("setting", [None, "2"])
def test_importing_the_package_holds_openblas_to_one_thread(setting):
    # no command makes a BLAS call, so idle OpenBLAS workers would only
    # burn CPU; a setting of the user's own wins
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(septenary.__file__)))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    value, threads = subprocess.run(
        [sys.executable, "-c", _THREADS], env=env, capture_output=True,
        text=True, timeout=120, check=True).stdout.split("\n")[:2]
    assert value == (setting or "1")
    if setting is None and threads:
        assert threads == "1"


def test_check_rejects_zero_samples(capsys):
    code = main(["check", "--samples", "0"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.err == "error: samples must be at least 1\n"
    assert captured.out == ""


@pytest.mark.parametrize("tol", [math.inf, math.nan])
def test_run_checks_refuses_a_non_finite_tolerance(tol):
    # an infinite tolerance would pass every floating suite
    with pytest.raises(ValueError, match="must be finite"):
        run_checks(tol=tol, samples=1)


def test_check_rejects_a_negative_tolerance(capsys):
    # a negative tolerance is an invalid value, not a failed suite;
    # --tol 0 stays valid and exits 1 (see above)
    code = main(["check", "--tol", "-1", "--samples", "1"])
    captured = capsys.readouterr()
    assert code == 4
    assert "tolerance must be non-negative" in captured.err
    assert captured.out == ""
