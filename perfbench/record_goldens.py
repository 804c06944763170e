#!/usr/bin/env python3
"""Record the golden outputs the benchmark checks against.

    python3 perfbench/record_goldens.py [sweep] [family] [analyze]

Run it only at a commit whose outputs are trusted, and only to
re-baseline on purpose: the goldens are what makes a later change that
alters an output count as a failure.  Takes a few minutes.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import run as bench
from workloads import DEFAULT_SEED, GOLDEN_DIR, Analyze, Family, Sweep

SWEEP_ITEMS = 12_000    # golden tallies for the first items of the default seed


def record_sweep(tp) -> dict:
    sweep = Sweep(DEFAULT_SEED, use_goldens=False)
    tallies = []
    for items in sweep.passes():
        for item in items:
            rep = sweep.run(tp, item)
            reason = sweep.check(item, rep)
            if reason:
                raise SystemExit(f"sweep: {reason}")
            tallies.append(str(sweep.tally(rep)))
        if len(tallies) >= SWEEP_ITEMS:
            break
    return {"seed": DEFAULT_SEED, "tally_names": list(Sweep.TALLIES),
            "tallies": "".join(tallies[:SWEEP_ITEMS])}


def record_family(tp) -> dict:
    family = Family(DEFAULT_SEED, use_goldens=False)
    golden = {}
    for item in sorted(family.items):
        code, text = family.run(tp, item)
        if code != 0:
            raise SystemExit(f"family: {family.key(item)} exited {code}")
        golden[family.key(item)] = hashlib.sha256(text.encode()).hexdigest()
    return golden


def record_analyze(tp, workdir: Path) -> dict:
    analyze = Analyze(DEFAULT_SEED, use_goldens=False)
    analyze.setup(tp, workdir)
    golden = {}
    for item in range(Analyze.POOL):
        code, text = analyze.run(tp, item)
        reason = analyze.check(item, (code, text))
        if reason:
            raise SystemExit(f"analyze: {reason}")
        doc = json.loads(text)
        golden[str(analyze.graph_seeds[item])] = {
            key: doc[key] for key in ("sigma", "kappa_prime", "spanning_trees",
                                      "spanning_tree_routes_agree", "lambda2", "spectrum")}
    return golden


def main() -> int:
    names = sys.argv[1:] or ["sweep", "family", "analyze"]
    tp = bench.import_treepack()
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        if name == "sweep":
            doc = record_sweep(tp)
        elif name == "family":
            doc = record_family(tp)
        elif name == "analyze":
            (bench.HERE / ".work").mkdir(exist_ok=True)
            with tempfile.TemporaryDirectory(dir=bench.HERE / ".work") as workdir:
                doc = record_analyze(tp, Path(workdir))
        else:
            raise SystemExit(f"unknown golden {name!r}")
        (GOLDEN_DIR / f"{name}.json").write_text(json.dumps(doc) + "\n",
                                                 encoding="utf-8")
        print(f"recorded {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
