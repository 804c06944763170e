"""Every function defined in the package is reached by a subcommand, or is
named on ALLOWED with the reason it stays.

The five subcommands run in-process on small inputs under `sys.setprofile`,
which sees every Python call.  A function that none of them calls and that
no allow-list reason covers is library-only code: delete it with its tests,
or give it a caller.

No check in the package is an `assert` statement either: `python -O`
strips those.  The package `__init__` imports nothing, so a module and the
test oracles load alone, and the README tour imports each name from its
module and runs.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from test_tracer_names import _layer_functions

import treepack
from treepack.cli import EXIT_FINDING, EXIT_OK, main

PACKAGE = Path(treepack.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]

TRACER = "tracer-bound: perfbench/tracer.py wraps it by name"
TOUR = "README tour: the library tour calls it"
DUNDER = "Python protocol dunder"

# module.qualname -> why it stays although no subcommand calls it
ALLOWED = {
    "exact.IntPoly.__hash__": DUNDER,
    "exact.IntPoly.__repr__": DUNDER,
    "exact.count_real_roots": TRACER,
    "exact.sturm_isolate_largest_root": TRACER,
    "families.verify_Gd": TRACER,
    "families.verify_Hd": TRACER,
    "graphs.petersen_graph": TOUR,
}


def _defined_functions() -> dict[tuple[str, int], str]:
    """(file, first line of its code object) -> module.qualname for every
    def in the package, nested ones included."""
    found = {}

    def visit(node, prefix, path, module):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated function's code object starts at its first decorator
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[path, first] = f"{module}.{prefix}{child.name}"
                visit(child, f"{prefix}{child.name}.", path, module)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path, module)
            else:
                visit(child, prefix, path, module)

    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, "", str(path), path.stem)
    return found


def _run_subcommands(tmp_path) -> None:
    g4, h6 = str(tmp_path / "g4.el"), str(tmp_path / "h6.el")
    copies = tmp_path / "copies.txt"
    copies.write_text("0 1 2 3 4\n5 6 7 8 9\n10 11 12 13 14\n")
    runs = [
        ["construct", "Gd", "--d", "4", "-o", g4],
        ["construct", "Hd", "--d", "6", "-o", h6],
        ["verify-family", "Gd", "--d-min", "4", "--d-max", "4"],
        ["verify-family", "Hd", "--d-min", "6", "--d-max", "6", "--exact-range",
         "--json", str(tmp_path / "hd.json")],
        ["analyze", g4, "--json", str(tmp_path / "g4.json")],
        ["quotient", g4, str(copies)],
        ["hunt", "--d", "6", "--n", "14", "--k", "2", "--trials", "3",
         "--out", str(tmp_path / "k2")],
        ["hunt", "--d", "6", "--n", "14", "--k", "4", "--trials", "3",
         "--out", str(tmp_path / "k4")],
        # the certificate refuses two of these three trials, so their
        # premise takes the float lambda2
        ["hunt", "--d", "4", "--n", "200", "--k", "2", "--trials", "3", "--seed", "0",
         "--out", str(tmp_path / "mixed")],
    ]
    for argv in runs:
        assert main(argv) in (EXIT_OK, EXIT_FINDING), argv


def test_every_function_is_reached_or_allowed(tmp_path, capsys):
    defined = _defined_functions()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        _run_subcommands(tmp_path)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()

    # co_filename is the path the module was imported by, which may be relative
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno) for code in codes}
    names = set(defined.values())
    reached_names = {defined[key] for key in reached if key in defined}
    unreached = sorted(names - reached_names - set(ALLOWED))
    assert not unreached, f"no subcommand calls these and ALLOWED names none: {unreached}"
    # an entry that no longer needs its reason comes off the list
    gone = sorted(set(ALLOWED) - names)
    assert not gone, f"ALLOWED names functions that are gone: {gone}"
    reached_anyway = sorted(set(ALLOWED) & reached_names)
    assert not reached_anyway, f"ALLOWED names reached functions: {reached_anyway}"


def _tour() -> str:
    """The README's python blocks, joined."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return "".join(re.findall(r"```python\n(.*?)```", readme, re.S))


def test_every_allowance_holds():
    tour = _tour()
    traced = {f"{module}.{name}"
              for module, names in _layer_functions().values() for name in names or ()}
    wrong = []
    for qualname, reason in ALLOWED.items():
        name = qualname.rsplit(".", 1)[1]
        holds = {
            TRACER: qualname in traced,
            # a call, not an import or a mention: the tour runs what it names
            TOUR: re.search(rf"\b{name}\(", tour),
            DUNDER: name.startswith("__") and name.endswith("__"),
        }[reason]
        if not holds:
            wrong.append(f"{qualname}: {reason}")
    assert not wrong


def test_no_assert_statements():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements vanish under python -O: {found}"


def test_readme_tour_runs():
    exec(compile(_tour(), "README.md", "exec"), {})


def _treepack_modules_after(code: str, *path: Path) -> list[str]:
    """The treepack modules a fresh interpreter holds after running code."""
    probe = "import sys; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'treepack'))"
    run = subprocess.run([sys.executable, "-c", f"{code}\n{probe}"], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, path))})
    return run.stdout.split()


def test_a_module_loads_only_what_it_imports():
    assert _treepack_modules_after("import treepack.exact, treepack.graphs", PACKAGE.parent) == [
        "treepack", "treepack.exact", "treepack.graphs"]


def test_families_load_no_random_generator():
    # theta_k lives in spectra, so the families need nothing from randgen
    loaded = _treepack_modules_after("import treepack.families", PACKAGE.parent)
    assert "treepack.families" in loaded and "treepack.randgen" not in loaded


def test_oracles_load_none_of_the_algorithms_they_check():
    loaded = _treepack_modules_after("import oracles", PACKAGE.parent, ROOT / "tests")
    assert "treepack.exact" in loaded
    assert not {"treepack.packing", "treepack.connectivity", "treepack.spectra"} & set(loaded)
