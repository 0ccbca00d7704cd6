import json
import math

import pytest

from septenary.checks import SUITE_NAMES
from septenary.cli import main

ROOT2 = math.sqrt(2.0)


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("SEPTENARY_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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


@pytest.mark.parametrize("thetas,phis", [
    ("1,2,3", "0,0,0,0"),
    ("1,2,3,4", "0,0"),
    ("a,b,c,d", "0,0,0,0"),
])
def test_analytic_ghz_rejects_bad_lists(capsys, thetas, phis):
    code, _ = run_cli(capsys, "analytic", "ghz",
                      "--thetas", thetas, "--phis", phis)
    assert code == 4


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


def test_thread_flag_keeps_bytes_identical(tmp_path, capsys):
    outs = []
    for tag, threads in (("a", "1"), ("b", "3")):
        c = tmp_path / ("%s.csv" % tag)
        code, _ = run_cli(capsys, "ghz", "--trials", "20000", "--seed", "4",
                          "--threads", threads, "--out", str(c))
        assert code == 0
        outs.append(c.read_bytes())
    assert outs[0] == outs[1]


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


def test_random_run_covers_the_angle_range(capsys):
    code, out = run_cli(capsys, "epr", "--trials", "20000", "--seed", "1")
    assert code == 0
    summary = json.loads(out)
    assert sum(b["count"] for b in summary["bins"]) == 20000
    assert len(summary["bins"]) == 72
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


def test_unknown_command_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["entangle"])
    assert exc.value.code == 2


def test_random_and_fixed_angles_conflict(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["epr", "--random", "--fixed-angles", "0,0"])
    assert exc.value.code == 2


@pytest.mark.parametrize("setting", ["10", "1,2,3", "a,b"])
def test_malformed_fixed_angles(capsys, setting):
    code, _ = run_cli(capsys, "epr", "--trials", "10",
                      "--fixed-angles", setting)
    assert code == 4


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
    code, _ = run_cli(capsys, "epr", "--trials", "10", "--bin-deg", "0")
    assert code == 4


def test_unwritable_output_path(tmp_path, capsys):
    target = tmp_path / "missing" / "run.csv"
    code, _ = run_cli(capsys, "epr", "--trials", "10", "--out", str(target))
    assert code == 3


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
    assert data["seed_source"] == "flag"
    assert data["argmax_deg"]["a"] == 0.0


def test_chsh_env_seed_is_echoed(capsys, monkeypatch):
    monkeypatch.setenv("SEPTENARY_SEED", "12")
    code, out = run_cli(capsys, "chsh", "--grid-deg", "45",
                        "--source", "simulated", "--trials-per-setting", "64")
    assert code == 0
    data = json.loads(out)
    assert data["seed"] == 12
    assert data["seed_source"] == "env"
    assert data["max_abs_S"] == pytest.approx(2.0 * ROOT2, abs=1e-9)


def test_chsh_bad_grid(capsys):
    code, _ = run_cli(capsys, "chsh", "--grid-deg", "0")
    assert code == 4


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


def test_check_rejects_zero_samples(capsys):
    code, _ = run_cli(capsys, "check", "--samples", "0")
    assert code == 4
