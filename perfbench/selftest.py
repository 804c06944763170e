#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Feeds corrupted outputs and corrupted goldens through the measuring loop
and requires each to be counted as a failed item, with the result line
marked not correct; the same outputs uncorrupted must pass.  Exits 0 when
every corruption is caught.  Takes about half a minute.
"""

import dataclasses
import json
import sys
import tempfile
from pathlib import Path

import run as bench
from workloads import DEFAULT_SEED, Analyze, Family, Sweep


def one_pass(workload, tp, item, output) -> dict:
    """Result line of a pass over `item` in which the program returns `output`."""
    workload.passes = lambda: iter([[item]])
    workload.run = lambda tp, item: output
    return bench.result_line(bench.measure(workload, tp, 0.0), {})


def main() -> int:
    tp = bench.import_treepack()
    cases = []     # (name, result line, should fail)

    family = Family(DEFAULT_SEED)
    item = ("Gd", 4, False)
    code, text = family.run(tp, item)
    cases.append(("family: output as recorded", one_pass(family, tp, item, (code, text)), False))
    flipped = text.replace('"passed": true', '"passed": false', 1)
    cases.append(("family: a flipped check", one_pass(family, tp, item, (code, flipped)), True))
    cases.append(("family: exit code 2", one_pass(family, tp, item, (2, text)), True))

    sweep = Sweep(DEFAULT_SEED)
    item = next(sweep.passes())[0]
    rep = sweep.run(tp, item)
    cases.append(("sweep: output as recorded", one_pass(sweep, tp, item, rep), False))
    two = dataclasses.replace(rep, neither=rep.neither + 1)
    cases.append(("sweep: tallies sum to two", one_pass(sweep, tp, item, two), True))
    wrong = str((int(sweep.golden[0]) + 1) % len(Sweep.TALLIES))
    sweep.golden = wrong + sweep.golden[1:]
    cases.append(("sweep: a wrong golden tally", one_pass(sweep, tp, item, rep), True))

    (bench.HERE / ".work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=bench.HERE / ".work") as workdir:
        # the default seed is checked against goldens, any other seed only
        # against the structural checks and numpy's spectrum and determinant
        for seed in (DEFAULT_SEED, DEFAULT_SEED + 1):
            analyze = Analyze(seed)
            analyze.setup(tp, Path(workdir))
            code, text = analyze.run(tp, 0)
            tag = f"analyze seed {seed}"
            cases.append((f"{tag}: output as recorded", one_pass(analyze, tp, 0, (code, text)), False))
            doc = json.loads(text)
            for key, value in (("sigma", doc["sigma"] + 1), ("certificate_valid", False),
                               ("lambda2", doc["lambda2"] + 1e-6)):
                bad = json.dumps({**doc, key: value})
                cases.append((f"{tag}: {key} = {value}", one_pass(analyze, tp, 0, (code, bad)), True))
            if analyze.golden:
                analyze.golden[str(analyze.graph_seeds[0])]["sigma"] += 1
                cases.append((f"{tag}: a wrong sigma in the golden",
                              one_pass(analyze, tp, 0, (code, text)), True))

    missed = 0
    for name, line, should_fail in cases:
        ok = (line["failed"] == line["attempted"] == 1 and not line["correct"]) if should_fail \
            else (line["failed"] == 0 and line["correct"])
        missed += not ok
        print(f"{'ok    ' if ok else 'MISSED'} {name}: failed {line['failed']}/{line['attempted']}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
