"""Command-line front end: analyze, construct, verify-family, hunt, quotient.

Every subcommand emits a single JSON document on stdout (UTF-8, stable
key order, floats at 15 significant digits) so reports can be diffed and
round-tripped byte-identically.  Exit codes: 0 pass, 1 usage or parse
error, 2 failed check (an implementation bug), 3 a `hunt` hit at k >= 4.
The k >= 4 statement is reported proved (Liu, Hong, Gu & Lai, Linear
Algebra Appl. 2014; citation unchecked), so such a hit is a suspected bug
to re-verify, not a discovery; it keeps its own verdict and exit code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from .exact import DEFAULT_PRECISION
from .families import FAMILIES, FamilyReport, build_family, check_family_degree, verify_family
from .graphs import Graph, VertexPartition, parse_edge_list, partition, to_edge_list
from .packing import TreePackingResult, count_spanning_trees, sigma, verify_certificate
from .randgen import TheoremReport, check_sweep_args, theorem_check, theorem_threshold
from .spectra import (
    adjacency_spectrum, check_interlacing, equitable_quotient, multiplicities, quotient_matrix,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_FINDING = 3

# analyze refuses larger graphs before any compute.  Its time grows about
# like n**4 (the exact determinant needs O(n) primes, each an O(n**3)
# elimination, and it is most of the run): on a 2-vCPU x86 host with one
# BLAS thread, over four runs, a random 10-regular graph took 1.5-1.6 s at
# n = 650 and 1.9 s at n = 700 (in a copy with the cap raised), and a
# random 20-regular graph 2.0-2.2 s at n = 650.  Denser graphs take longer.
ANALYZE_MAX_VERTICES = 650
# It also refuses graphs whose packing work m * floor(m / (n - 1)), edges
# times the most trees sigma can pack, is above this.  On the same host,
# with the cap raised in a copy, analyze took 1.7-2.2 s on K140 (work
# 681,100), 2.0-2.8 s on K120,120 (864,000) and 3.1-3.3 s on K160
# (1,017,600, just over the cap) over two runs, so the cap has room; K158
# (979,837, the densest graph admitted) took 2.1-2.8 s over four runs.
ANALYZE_MAX_PACKING_WORK = 1_000_000
# quotient refuses partitions with more blocks before any compute.  Its time
# goes to isolating the real roots of the degree-t characteristic
# polynomial: on the same host, with the 64 singleton blocks of a random
# graph, a whole run took 1.0-1.3 s (4-regular), 1.8-2.2 s (10-regular) and
# 2.7-3.1 s (30-regular) over two runs, of which the characteristic
# polynomial took 0.02-0.03 s.  Denser graphs take longer, since the
# coefficients grow.
QUOTIENT_MAX_BLOCKS = 64
# It also refuses graphs with more vertices, before reading the partition:
# its interlacing check eigensolves the dense n x n adjacency matrix.  With
# two blocks of a random 4-regular graph it took 2.5 s at n = 3000, 6.6 s
# (284 MB peak RSS) at n = 4000, 10.2 s (421 MB) at n = 5000 and 19.0 s
# (592 MB) at n = 6000; a 10-regular graph took 10.6 s at n = 5000.
QUOTIENT_MAX_VERTICES = 5000


def _sig15(x: float) -> float:
    return float(f"{x:.15g}")


def _emit(doc: dict, json_path: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    sys.stdout.write(text)
    if json_path:
        Path(json_path).write_text(text, encoding="utf-8")


def _writable_dir(path: str | Path, flag: str) -> Path:
    """Create `path` if needed and check it can take new files.

    Done before any compute, so a finding is never lost to a bad path.
    """
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValueError(f"{flag} {path}: not a writable directory ({exc.strerror})") from None
    if not os.access(out, os.W_OK | os.X_OK):
        raise ValueError(f"{flag} {path}: not a writable directory")
    return out


def _check_json_dir(args) -> None:
    """Check --json, like --out, before any compute."""
    if args.json:
        if Path(args.json).is_dir():
            raise ValueError(f"--json {args.json}: is a directory")
        _writable_dir(Path(args.json).parent, "--json")


def _load_graph(path: str) -> Graph:
    return parse_edge_list(Path(path).read_text(encoding="utf-8"))


def _blocks_doc(p: VertexPartition | None) -> list[list[int]] | None:
    """Partition blocks, each sorted, ordered by their smallest vertex."""
    if p is None:
        return None
    return sorted((sorted(b) for b in p.blocks), key=lambda b: b[0])


def _certificate_payload(result: TreePackingResult) -> dict:
    return {
        "sigma": result.sigma,
        "trees": [sorted([u, v] for u, v in t) for t in result.trees],
        "witness": _blocks_doc(result.witness_partition),
    }


def _certificate_digest(result: TreePackingResult) -> str:
    blob = json.dumps(_certificate_payload(result), separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# analyze


def _cmd_analyze(args) -> int:
    g = _load_graph(args.graph)
    if g.n > ANALYZE_MAX_VERTICES:
        raise ValueError(f"analyze is limited to {ANALYZE_MAX_VERTICES} vertices, "
                         f"the graph has {g.n}")
    work = g.m * (g.m // (g.n - 1)) if g.n >= 2 else 0
    if work > ANALYZE_MAX_PACKING_WORK:
        raise ValueError(f"analyze is limited to packing work m*floor(m/(n-1)) <= "
                         f"{ANALYZE_MAX_PACKING_WORK}, the graph has m = {g.m}, "
                         f"n = {g.n}, work {work}")
    _check_json_dir(args)
    degree = g.degree_if_regular()
    packing = sigma(g)
    cert = verify_certificate(g, packing)
    spectrum = adjacency_spectrum(g) if g.n else ()
    count = count_spanning_trees(g) if g.n else None

    report: dict = {
        "input": args.graph,
        "n": g.n,
        "m": g.m,
        "degree": degree if degree is not None else "irregular",
        "lambda2": _sig15(spectrum[1]) if g.n >= 2 else None,
        "spectrum": [[_sig15(v), mult] for v, mult in multiplicities(spectrum)],
        "sigma": packing.sigma,
        "certificate_digest": _certificate_digest(packing),
        "certificate_valid": cert.ok,
        "kappa_prime": packing.cut.value if packing.cut else None,
        "spanning_trees": count.exact if count else None,
        "spanning_tree_routes_agree": count.agree if count else None,
    }
    consistent = True
    if degree is None or g.n < 2:
        report["theorems"] = "not applicable: graph is not regular with n >= 2"
    else:
        verdicts = {}
        lam2 = spectrum[1]
        for k in (2, 3):
            # both theorems hypothesize d >= 2k, so the verdict is vacuous
            # below that degree (e.g. the k = 3 statement says nothing
            # about 4-regular graphs)
            applicable = degree >= 2 * k
            premise = lam2 < theorem_threshold(degree, k)
            conclusion = packing.sigma >= k
            ok = not (applicable and premise and not conclusion)
            consistent = consistent and ok
            verdicts[f"k{k}"] = {
                "applicable_degree_at_least_2k": applicable,
                "premise_lambda2_below_threshold": premise,
                "conclusion_sigma_at_least_k": conclusion,
                "consistent": ok,
            }
        report["theorems"] = verdicts

    _emit(report, args.json)
    if not cert.ok or not consistent:
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# construct


def _cmd_construct(args) -> int:
    g = build_family(FAMILIES[args.family], args.d)
    Path(args.output).write_text(to_edge_list(g), encoding="utf-8")
    _emit({"family": args.family, "d": args.d, "n": g.n, "m": g.m,
           "output": args.output}, None)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify-family


def _family_report_doc(rep: FamilyReport) -> dict:
    return {
        "family": rep.family,
        "d": rep.d,
        "n": rep.graph.n,
        "m": rep.graph.m,
        "sigma": rep.sigma,
        "kappa_prime": rep.kappa_prime,
        "lambda2": _sig15(rep.lambda2),
        "lambda2_interval": [str(rep.lambda2_interval[0]), str(rep.lambda2_interval[1])],
        "spectrum_expected": [[_sig15(v), mult] for v, mult in rep.spectrum_expected],
        "all_passed": rep.all_passed,
        "checks": [
            {"name": c.name, "passed": c.passed, "computed": c.computed,
             "claimed": c.claimed, "margin": c.margin}
            for c in rep.checks
        ],
    }


def _cmd_verify_family(args) -> int:
    if args.d_min > args.d_max:
        raise ValueError("--d-min must not exceed --d-max")
    spec = FAMILIES[args.family]
    check_family_degree(spec, args.d_min)
    check_family_degree(spec, args.d_max)
    _check_json_dir(args)
    precision = Fraction(1, 10 ** 30) if args.exact_range else DEFAULT_PRECISION
    reports = [verify_family(spec, d, precision=precision)
               for d in range(args.d_min, args.d_max + 1)]
    doc = {
        "family": args.family,
        "d_min": args.d_min,
        "d_max": args.d_max,
        "exact_range": bool(args.exact_range),
        "all_passed": all(r.all_passed for r in reports),
        "reports": [_family_report_doc(r) for r in reports],
    }
    _emit(doc, args.json)
    return EXIT_OK if doc["all_passed"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# hunt


def _hunt_doc(rep: TheoremReport, found: list[dict], verdict: str) -> dict:
    return {
        "d": rep.d,
        "n": rep.n,
        "k": rep.k,
        "trials": rep.trials,
        "seed": rep.seed,
        "premise_and_conclusion": rep.premise_and_conclusion,
        "premise_only": rep.premise_only,
        "conclusion_only": rep.conclusion_only,
        "neither": rep.neither,
        "counterexamples": found,
        "verdict": verdict,
    }


def _cmd_hunt(args) -> int:
    check_sweep_args(args.d, args.n, args.k, args.trials)
    out = _writable_dir(args.out, "--out")
    _check_json_dir(args)
    rep = theorem_check(args.d, args.n, args.k, args.trials, args.seed)
    if rep.clean:
        verdict = "no finding" if rep.conjecture else "pass"
        code = EXIT_OK
    elif rep.conjecture:
        verdict, code = "finding", EXIT_FINDING
    else:
        verdict, code = "bug", EXIT_CHECK_FAILED
    found = []
    for c in rep.counterexamples:
        doc = {"d": c.d, "n": c.n, "k": c.k, "lambda2": _sig15(c.lambda2),
               "sigma": c.sigma, "seed": c.seed}
        found.append(doc)
        stem = f"counterexample-d{c.d}-n{c.n}-k{c.k}-seed{c.seed}"
        (out / f"{stem}.el").write_text(to_edge_list(c.graph), encoding="utf-8")
        sidecar = {**doc, "witness": _blocks_doc(c.witness)}
        (out / f"{stem}.json").write_text(
            json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")
    _emit(_hunt_doc(rep, found, verdict), args.json)
    return code


# ---------------------------------------------------------------------------
# quotient


def _parse_partition_file(text: str, n: int) -> VertexPartition:
    """One block per line; errors carry 1-based line numbers, like the
    edge-list parser's, and a vertex on no line is named, the smallest
    one first."""
    blocks = []
    line_of: dict[int, int] = {}    # vertex -> line of its block
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            block = [int(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: expected vertex indices") from None
        for v in block:
            if not 0 <= v < n:
                raise ValueError(f"line {lineno}: vertex {v} out of range for n={n}")
            if v in line_of:
                where = "repeated" if line_of[v] == lineno else "already in an earlier block"
                raise ValueError(f"line {lineno}: vertex {v} {where}")
            line_of[v] = lineno
        blocks.append(block)
    if len(line_of) < n:
        raise ValueError(f"blocks do not cover vertex {min(set(range(n)) - line_of.keys())}")
    return partition(n, blocks)


def _cmd_quotient(args) -> int:
    g = _load_graph(args.graph)
    if g.n == 0:
        raise ValueError("quotient needs a graph with at least one vertex, the graph has none")
    if g.n > QUOTIENT_MAX_VERTICES:
        raise ValueError(f"quotient is limited to {QUOTIENT_MAX_VERTICES} vertices, "
                         f"the graph has {g.n}")
    p = _parse_partition_file(Path(args.partition).read_text(encoding="utf-8"), g.n)
    if p.t > QUOTIENT_MAX_BLOCKS:
        raise ValueError(f"quotient is limited to {QUOTIENT_MAX_BLOCKS} blocks, "
                         f"the partition has {p.t}")
    _check_json_dir(args)
    q = quotient_matrix(g, p)
    inner = q.eigenvalues_exact()
    inter = check_interlacing(adjacency_spectrum(g), inner)
    doc = {
        "input": args.graph,
        "t": q.t,
        "blocks": [sorted(b) for b in p.blocks],
        "matrix": [[str(entry) for entry in row] for row in q.entries],
        "equitable": equitable_quotient(g, p) is not None,
        "quotient_eigenvalues": [_sig15(v) for v in inner],
        "interlacing": {"ok": inter.ok, "worst_margin": _sig15(inter.worst_margin)},
    }
    _emit(doc, args.json)
    return EXIT_OK if inter.ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser


_parser: list[argparse.ArgumentParser] = []     # the parser, once built


def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after: a
    build costs about ten times a parse.  A plain memo rather than
    functools.cache, so every call enters this function and the profile in
    tests/test_reach.py sees it whatever ran first in the process."""
    if _parser:
        return _parser[0]
    ap = argparse.ArgumentParser(
        prog="treepack",
        description="Spanning-tree packing, spectra, and edge connectivity "
                    "with constructive certificates.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for an edge-list graph file")
    p.add_argument("graph")
    p.add_argument("--json", help="also write the report to this file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("construct", help="write a family graph as an edge list")
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("--d", type=int, required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify-family", help="re-check family claims over a d range")
    p.add_argument("family", choices=list(FAMILIES))
    p.add_argument("--d-min", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--exact-range", action="store_true",
                   help="tighten exact root isolation to 10^-30")
    p.add_argument("--json", help="also write the report to this file")
    p.set_defaults(func=_cmd_verify_family)

    p = sub.add_parser("hunt", help="random-regular implication sweep "
                                    "(k in {2,3}: a hit is a bug, exit 2; k >= 4: "
                                    "a hit is a suspected bug to re-verify, exit 3)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=".", help="directory for counterexample files")
    p.add_argument("--json", help="also write the report to this file")
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("quotient", help="partition quotient matrix and interlacing")
    p.add_argument("graph")
    p.add_argument("partition")
    p.add_argument("--json", help="also write the report to this file")
    p.set_defaults(func=_cmd_quotient)

    _parser.append(ap)
    return ap


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
