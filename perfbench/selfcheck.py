"""Toy-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs each workload and the traced run at the sizes in ``workloads.TOY`` and
checks that every metric BENCHMARK.json names is emitted with its unit, that
every invocation's output validates, and that no span's children cover more
time than the span itself. Exits 0 when all hold; takes about 20 seconds.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl


def _expect_metrics(where: str, result: dict, declared: list) -> list:
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append("%s: %d of %d invocations failed"
                        % (where, result["failed"], result["attempted"]))
    got = result["metrics"]
    for m in declared:
        if m["name"] not in got:
            problems.append("%s: metric %s missing" % (where, m["name"]))
        elif got[m["name"]]["unit"] != m["unit"]:
            problems.append("%s: %s has unit %r, declared %r" % (
                where, m["name"], got[m["name"]]["unit"], m["unit"]))
    extra = set(got) - {m["name"] for m in declared}
    if extra:
        problems.append("%s: undeclared metrics %s" % (where, sorted(extra)))
    return problems


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(wl.NAMES):
        print("BENCHMARK.json workloads differ from %s" % (wl.NAMES,))
        return 1
    problems = []
    for name in wl.NAMES:
        result = run.run(name, seed=1, seconds=0, traced=False, sizes=wl.TOY)
        problems += _expect_metrics(name, result, spec["end_to_end"])
    # run.run reports span nesting errors as correct = false
    result = run.run(wl.NAMES[0], seed=1, seconds=0, traced=True, sizes=wl.TOY)
    problems += _expect_metrics("trace", result, spec["per_layer"])
    for p in problems:
        print("selfcheck: %s" % p)
    print("selfcheck: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
