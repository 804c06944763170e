"""The three benchmark workloads: inputs from the workload seed, one call
into treepack per item, and an output check per item.

Each workload object offers
  setup(tp, workdir)  build the inputs (timed as part of setup_s);
  passes()            an endless sequence of passes, each a list of items;
  TAIL_PERCENTILE     the percentile item_tail_ms reports, fixed so that it
                      has about ten items or more beyond it in a run;
  run(tp, item)       call the program for one item (the timed part);
  check(item, out)    None when the output is correct, else the reason.
``tp`` is a namespace holding the freshly imported treepack modules.
Calls go through module attributes (``tp.cli.main``) so that the tracer's
wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from itertools import count
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
FLOAT_TOL = 1e-9
# analyze reports eigenvalues within 1e-7 of a group's first value as one
# value with a multiplicity, so the expanded spectrum is only that close
SPECTRUM_TOL = 1e-7 + FLOAT_TOL

_MASK64 = (1 << 64) - 1


def splitmix64_stream(seed: int):
    """Endless splitmix64 outputs from ``seed``.  The benchmark keeps its
    own copy so that its inputs stay fixed when the program changes."""
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def load_golden(name: str):
    return json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))


def call_cli(tp, argv: list[str]) -> tuple[int, str]:
    """``treepack <argv>`` in-process: exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tp.cli.main(argv)
    return code, buf.getvalue()


class Sweep:
    """theorem_check(d, n, k, trials=1, seed=s) over the test_08 mix."""

    name = "sweep"
    MIX = [(d, n, k) for d, n in ((6, 30), (8, 32), (10, 44)) for k in (2, 3)]
    PASS_ITEMS = 10 * len(MIX)
    TAIL_PERCENTILE = 99

    def __init__(self, seed: int, use_goldens: bool = True):
        self.seed = seed
        # golden tally (index into TALLIES) of the first items of the
        # default seed; other seeds and later items get structural checks
        use_goldens = use_goldens and seed == DEFAULT_SEED
        self.golden = load_golden("sweep")["tallies"] if use_goldens else ""

    def setup(self, tp, workdir: Path) -> None:
        pass    # item seeds are drawn lazily from the seed stream

    def passes(self):
        seeds = splitmix64_stream(self.seed)
        index = count()
        while True:
            items = []
            for _ in range(self.PASS_ITEMS):
                i = next(index)
                items.append((i, *self.MIX[i % len(self.MIX)], next(seeds)))
            yield items

    def run(self, tp, item):
        _, d, n, k, s = item
        return tp.randgen.theorem_check(d, n, k, 1, s)

    TALLIES = ("premise_and_conclusion", "premise_only", "conclusion_only", "neither")

    def tally(self, rep) -> int:
        counts = [getattr(rep, t) for t in self.TALLIES]
        return counts.index(1) if sorted(counts) == [0, 0, 0, 1] else -1

    def check(self, item, rep) -> str | None:
        i, d, n, k, s = item
        if (rep.d, rep.n, rep.k, rep.trials, rep.seed) != (d, n, k, 1, s):
            return f"item {i}: report echoes the wrong parameters"
        t = self.tally(rep)
        if t < 0:
            return f"item {i}: tallies do not sum to one trial"
        if rep.counterexamples:
            return f"item {i}: counterexample to a proved case (k={k})"
        if i < len(self.golden) and int(self.golden[i]) != t:
            return f"item {i}: tally {self.TALLIES[t]} differs from the golden"
        return None


class Family:
    """`treepack verify-family` for one (family, d, precision) per item."""

    name = "family"
    RANGES = (("Gd", 4, 12), ("Hd", 6, 16))
    TAIL_PERCENTILE = 75

    def __init__(self, seed: int, use_goldens: bool = True):
        self.items = [(fam, d, exact) for fam, lo, hi in self.RANGES
                      for exact in (False, True) for d in range(lo, hi + 1)]
        # the inputs are fixed; the seed only orders them within a pass
        random.Random(seed).shuffle(self.items)
        self.golden = load_golden("family") if use_goldens else {}

    @staticmethod
    def key(item) -> str:
        fam, d, exact = item
        return f"{fam}-d{d}-{'exact' if exact else 'default'}"

    def setup(self, tp, workdir: Path) -> None:
        pass

    def passes(self):
        while True:
            yield list(self.items)

    def run(self, tp, item):
        fam, d, exact = item
        argv = ["verify-family", fam, "--d-min", str(d), "--d-max", str(d)]
        return call_cli(tp, argv + ["--exact-range"] if exact else argv)

    def check(self, item, out) -> str | None:
        code, text = out
        if code != 0:
            return f"{self.key(item)}: exit code {code}"
        if self.golden and \
                hashlib.sha256(text.encode()).hexdigest() != self.golden[self.key(item)]:
            return f"{self.key(item)}: JSON differs from the golden"
        return None


class Analyze:
    """`treepack analyze` on seeded random 10-regular graphs with n = 80."""

    name = "analyze"
    N, D, POOL = 80, 10, 32
    TAIL_PERCENTILE = 75

    def __init__(self, seed: int, use_goldens: bool = True):
        stream = splitmix64_stream(seed)
        self.graph_seeds = [next(stream) for _ in range(self.POOL)]
        use_goldens = use_goldens and seed == DEFAULT_SEED
        self.golden = load_golden("analyze") if use_goldens else {}
        self.paths: list[Path] = []
        self._reference: dict[int, dict] = {}

    def setup(self, tp, workdir: Path) -> None:
        self.paths = []
        for s in self.graph_seeds:
            g = tp.randgen.random_regular(tp.randgen.GenConfig(d=self.D, n=self.N, seed=s))
            path = workdir / f"analyze-{s}.el"
            path.write_text(tp.graphs.to_edge_list(g), encoding="utf-8")
            self.paths.append(path)

    def passes(self):
        for i in count():
            yield [i % self.POOL]

    def run(self, tp, item):
        return call_cli(tp, ["analyze", str(self.paths[item])])

    def reference(self, item) -> dict:
        """Spectrum and log spanning-tree count from numpy, computed by the
        benchmark itself from the edge-list file (not timed)."""
        if item not in self._reference:
            lines = self.paths[item].read_text(encoding="utf-8").split("\n")
            n = int(lines[0].split()[0])
            a = np.zeros((n, n))
            for ln in lines[1:]:
                if ln.strip():
                    u, v = map(int, ln.split())
                    a[u, v] = a[v, u] = 1.0
            lap = np.diag(a.sum(axis=1)) - a
            sign, logdet = np.linalg.slogdet(lap[1:, 1:])
            self._reference[item] = {
                "spectrum": np.linalg.eigvalsh(a)[::-1], "log_trees": logdet, "sign": sign}
        return self._reference[item]

    def check(self, item, out) -> str | None:
        code, text = out
        where = f"graph seed {self.graph_seeds[item]}"
        if code != 0:
            return f"{where}: exit code {code}"
        doc = json.loads(text)
        if (doc["n"], doc["m"], doc["degree"]) != (self.N, self.N * self.D // 2, self.D):
            return f"{where}: wrong n, m or degree"
        if doc["certificate_valid"] is not True:
            return f"{where}: certificate not valid"
        if doc["spanning_tree_routes_agree"] is False:
            return f"{where}: spanning-tree routes disagree"
        ref = self.reference(item)
        spectrum = [v for v, mult in doc["spectrum"] for _ in range(mult)]
        if len(spectrum) != self.N or max(abs(np.array(spectrum) - ref["spectrum"])) > SPECTRUM_TOL:
            return f"{where}: spectrum differs from numpy's"
        if abs(doc["lambda2"] - ref["spectrum"][1]) > FLOAT_TOL:
            return f"{where}: lambda2 differs from numpy's"
        trees = doc["spanning_trees"]
        if ref["sign"] <= 0 or trees <= 0 or \
                abs(math.log(trees) - ref["log_trees"]) > FLOAT_TOL * ref["log_trees"]:
            return f"{where}: spanning-tree count differs from numpy's determinant"
        kappa, sig = doc["kappa_prime"], doc["sigma"]
        if not (1 <= kappa <= self.D and kappa // 2 <= sig <= min(kappa, doc["m"] // (doc["n"] - 1))):
            return f"{where}: sigma={sig}, kappa'={kappa} outside Nash-Williams bounds"
        golden = self.golden.get(str(self.graph_seeds[item]))
        if golden is not None:
            for key in ("sigma", "kappa_prime", "spanning_trees", "spanning_tree_routes_agree"):
                if doc[key] != golden[key]:
                    return f"{where}: {key} differs from the golden"
            if abs(doc["lambda2"] - golden["lambda2"]) > FLOAT_TOL or \
                    len(doc["spectrum"]) != len(golden["spectrum"]) or any(
                        m1 != m2 or abs(v1 - v2) > FLOAT_TOL
                        for (v1, m1), (v2, m2) in zip(doc["spectrum"], golden["spectrum"])):
                return f"{where}: spectrum or lambda2 differs from the golden"
        return None


WORKLOADS = {w.name: w for w in (Sweep, Family, Analyze)}
