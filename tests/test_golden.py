"""Output goldens: SHA-256 of what a few fixed CLI invocations write.

Any change that moves an output bit fails here. A change that moves bits on
purpose re-pins the affected digests and says why in CHANGES.md.

The digests hold for the platform the suite is maintained on (x86-64,
numpy 2.4); a different numpy or libm may round the trigonometry
differently and then needs its own re-pin, which the trigonometry digest
below reports. They must not depend on which SIMD kernels numpy or
OpenBLAS pick for the host CPU, so the goldens are also rerun in a child
process with numpy's dispatch cut down to its baseline and OpenBLAS held
to its AVX2 kernels.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import septenary
from septenary import checks
from septenary.cli import main


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(tmp_path, capsys, *argv) -> dict:
    csv_path = tmp_path / "trials.csv"
    json_path = tmp_path / "summary.json"
    code = main([*argv, "--out", str(csv_path), "--summary", str(json_path)])
    capsys.readouterr()
    assert code == 0
    return {"csv": _sha(csv_path), "summary": _sha(json_path)}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv("SEPTENARY_SEED", raising=False)


RUNS = {
    "epr-random": (
        ("epr", "--trials", "3000", "--seed", "11"),
        {"csv": "93c1b9d0ac985a13ba9a7c7661ec5e214bf5494af37de4d3fe8cef4498441b38",
         "summary": "e27271dc7a946a9097ee37457bb8e6eaa07468b163dca0f61bfd54e6ee8f43c4"},
    ),
    "ghz-random": (
        ("ghz", "--trials", "3000", "--seed", "12"),
        {"csv": "7ec9163a5049bfd5e2ecf23fcece75db94e51894290e5949998545fd5fc543b0",
         "summary": "c73b18ce9c55e94c55744bc1dfa39aa1a6fe26868aa096fdded750d161087125"},
    ),
    "ghz-fixed": (
        ("ghz", "--trials", "200", "--seed", "13",
         "--fixed-angles", "10,20,30,40", "--fixed-angles", "0,90,45,135"),
        {"csv": "25c76b4e4b72a8de0f50580e0caf5f421615bfe6d8f7e693bab40f97ab1b6ecf",
         "summary": "74c8b87f67ffd746b0d97dc3ebaa0c1fce9075f51ec5178056feabf71a210f6a"},
    ),
}

# the SVG that the ghz-fixed run writes with --plot
PLOT = "b9cff2c427e8c43d2269295e91a7e87a3f000326e90741f6416253c7da19336e"

CHSH = {
    ("--grid-deg", "5"):
        "1b305b94cb10162a6d6c6adda631e936da67a73d7842ef95b0fe109b11fe47d3",
    ("--grid-deg", "0.5"):
        "7f180685ab2a69aa5264b79b7aaf4d990078112b5f9ec5358d881581314abd97",
    ("--source", "simulated", "--grid-deg", "30"):
        "579160bf7722ccf81f909995eeb7b4e8ed166b56ea7350b3eab61a6a2837ca39",
}

CHECK = {
    ("--samples", "20"):
        "cf4755d35d8a0bc8db14edcd45d62b6603b8edbb9dbe5a33c9d2bbbe7698b118",
    # the default report, --samples 300
    ():
        "08f94a755e2bcf634e356df8a5a01509394d14ab42f049d3d5d5d60d93faa273",
}


# the bits of np.cos, then of np.sin, at k / 1024 rad for |k| <= 2**15
TRIG = "21c3ca354dfb7d6573bcf4a1b2a7c2cd4ec147882cef3fa05a6f33e065d3c166"


def test_the_trigonometry_rounds_as_where_the_goldens_were_pinned():
    x = np.arange(-2**15, 2**15 + 1) / 1024.0
    got = hashlib.sha256(np.cos(x).tobytes() + np.sin(x).tobytes())
    assert got.hexdigest() == TRIG, (
        "this platform rounds np.cos and np.sin differently from the one the "
        "goldens were pinned on, so the run and scan digests may differ for "
        "that reason alone")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_outputs_match_their_digests(tmp_path, capsys, name):
    argv, want = RUNS[name]
    assert _run(tmp_path, capsys, *argv) == want


def test_plot_output_matches_its_digest(tmp_path, capsys):
    argv, _ = RUNS["ghz-fixed"]
    path = tmp_path / "plot.svg"
    code = main([*argv, "--plot", str(path)])
    capsys.readouterr()
    assert code == 0
    assert _sha(path) == PLOT


def test_chsh_scan_output_matches_its_digest(tmp_path, capsys):
    path = tmp_path / "chsh.json"
    got = {}
    for argv in CHSH:
        code = main(["chsh", *argv, "--json", str(path)])
        capsys.readouterr()
        assert code == 0
        got[argv] = _sha(path)
    assert got == CHSH


def test_check_report_matches_its_digest(capsys):
    got = {}
    for argv in CHECK:
        code = main(["check", *argv])
        out = capsys.readouterr().out
        assert code == 0
        got[argv] = hashlib.sha256(out.encode()).hexdigest()
    assert got == CHECK


@pytest.mark.parametrize("chunk", [1, 7])
def test_check_report_does_not_depend_on_the_chunk_size(capsys, monkeypatch,
                                                        chunk):
    # one-row chunks, and 7 rows per chunk: both reports cross many chunk
    # boundaries, and at 7 the last chunk of each is a partial one
    monkeypatch.setattr(checks, "_CHUNK", chunk)
    test_check_report_matches_its_digest(capsys)


def test_goldens_hold_at_the_numpy_cpu_baseline():
    # NPY_ENABLE_CPU_FEATURES does not reach OpenBLAS; its core type is set
    # apart, to the kernels of an x86 CPU without AVX-512
    baseline = np._core._multiarray_umath.__cpu_baseline__
    env = dict(os.environ,
               NPY_ENABLE_CPU_FEATURES=",".join(baseline),
               OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.path.dirname(os.path.dirname(septenary.__file__)))
    here = Path(__file__).resolve()
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(here), "-k", "not numpy_cpu_baseline"],
        cwd=here.parent.parent, env=env, capture_output=True, text=True,
        timeout=300)
    assert out.returncode == 0, out.stdout + out.stderr
    assert " passed" in out.stdout and "deselected" in out.stdout
