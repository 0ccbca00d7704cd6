"""Output goldens: SHA-256 of the files a few fixed CLI invocations write.

Any change that moves an output bit fails here. A change that moves bits on
purpose re-pins the affected digests and says why in CHANGES.md.

The digests hold for the platform the suite is maintained on (x86-64,
numpy 2.4); a different numpy or libm may round the trigonometry or the
Gaussian draws differently and then needs its own re-pin.
"""

import hashlib

import pytest

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
        {"csv": "be43c73af6d643fbad2181fa69f2814767032b2ab79fec62ac0acf06cd7b449f",
         "summary": "a26d7a04d4a013c5bdd3cfd699e11e9c6c83d7b21b63e920db3cbd3cae321acd"},
    ),
    "ghz-random": (
        ("ghz", "--trials", "3000", "--seed", "12"),
        {"csv": "643c1662e237f68968f60b9786257b16c1a9c9ea81bc2bdf1cea1e378f7c9313",
         "summary": "ece2a169770111e51d373b44e7b18499a750770120070de9ba88d0d8cf3e91b1"},
    ),
    "ghz-fixed": (
        ("ghz", "--trials", "200", "--seed", "13",
         "--fixed-angles", "10,20,30,40", "--fixed-angles", "0,90,45,135"),
        {"csv": "25c76b4e4b72a8de0f50580e0caf5f421615bfe6d8f7e693bab40f97ab1b6ecf",
         "summary": "74c8b87f67ffd746b0d97dc3ebaa0c1fce9075f51ec5178056feabf71a210f6a"},
    ),
}

CHSH_5DEG = "ba30788f1a3d4e236ed0ac6d6ea8d726d915e9a70c9b593704a95d5f37171183"


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_outputs_match_their_digests(tmp_path, capsys, name):
    argv, want = RUNS[name]
    assert _run(tmp_path, capsys, *argv) == want


def test_chsh_scan_output_matches_its_digest(tmp_path, capsys):
    path = tmp_path / "chsh.json"
    code = main(["chsh", "--grid-deg", "5", "--json", str(path)])
    capsys.readouterr()
    assert code == 0
    assert _sha(path) == CHSH_5DEG
