"""Per-layer tracing from outside the program.

Wraps the public functions below at every module that binds them (the
package uses ``from .x import f``, so ``pack_trees`` is bound in
``packing``, ``randgen``, ``families`` and the package itself) and records,
per metric key, the number of calls and the self time: span time minus the
time of traced spans nested inside it.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter_ns

# metric key -> (defining module, names of the functions it covers)
LAYER_FUNCTIONS = {
    "randgen.random_regular": ("randgen", ("random_regular",)),
    "spectra.eig_symmetric": ("spectra", ("eig_symmetric",)),
    "packing.pack_trees": ("packing", ("pack_trees",)),
    "packing.sigma": ("packing", ("sigma",)),
    "packing.verify_pack_result": ("packing", ("verify_pack_result",)),
    "packing.verify_certificate": ("packing", ("verify_certificate",)),
    "packing.count_spanning_trees": ("packing", ("count_spanning_trees",)),
    "connectivity.edge_connectivity": ("connectivity", ("edge_connectivity",)),
    "exact.isolate_real_roots": ("exact", ("isolate_real_roots",)),
    "exact.sturm_isolate_largest_root": ("exact", ("sturm_isolate_largest_root",)),
    "exact.count_real_roots": ("exact", ("count_real_roots",)),
    "exact.char_poly_exact": ("exact", ("char_poly_exact",)),
    "exact.det_exact": ("exact", ("det_exact",)),
    "families.verify": ("families", ("verify_Gd", "verify_Hd")),
    "families.build": ("families", None),     # None: every build_* function
    "graphs.parse_edge_list": ("graphs", ("parse_edge_list",)),
    "graphs.make_graph": ("graphs", ("make_graph",)),
    "cli.main": ("cli", ("main",)),
}


class Tracer:
    """Context manager: inside it the layer functions are wrapped."""

    def __init__(self, tp):
        self.tp = tp
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.top_ns = 0           # time inside outermost spans
        self.packs_ok = 0         # pack_trees calls that returned a packing
        self._open: list[int] = []    # per open span: ns of nested spans
        self._wrappers = {}       # id(original) -> (original, wrapper)
        self._patched = []
        for key, (module, names) in LAYER_FUNCTIONS.items():
            mod = getattr(tp, module)
            if names is None:
                names = sorted(a for a in vars(mod) if a.startswith("build_"))
            for name in names:
                fn = getattr(mod, name)
                self._wrappers[id(fn)] = (fn, self._wrap(key, fn))

    def _wrap(self, key, fn):
        open_spans = self._open
        is_pack = key == "packing.pack_trees"

        def span(*args, **kwargs):
            open_spans.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                self.calls[key] += 1
                self.self_ns[key] += dt - open_spans.pop()
                if open_spans:
                    open_spans[-1] += dt
                else:
                    self.top_ns += dt
            if is_pack and result.success:
                self.packs_ok += 1
            return result

        return span

    def __enter__(self):
        for mod in vars(self.tp).values():
            for attr, value in list(vars(mod).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        return self

    def __exit__(self, *exc):
        for mod, attr, value in self._patched:
            setattr(mod, attr, value)
        self._patched.clear()
        return False
