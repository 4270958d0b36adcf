"""Per-layer tracing from outside the package.

Each traced name is replaced, in every `triplets` module that holds it, by
a wrapper that records one span per call.  A span's self time is its
duration minus the durations of the spans opened inside it.  Spans are
aggregated per layer as they close: calls, self seconds and failures.
"""

import sys
from time import perf_counter

# (layer, module, attribute); "Class.method" patches the method on the class.
SPANS = (
    ("core.enumerate_triplets", "core", "enumerate_triplets"),
    ("core.validate", "core", "validate_triplet"),
    ("core.validate", "core", "HomologyTriplet.from_json"),
    ("solver.solve_alpha", "solver", "solve_alpha"),
    ("solver.build_equations", "solver", "build_equations"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.from_basis", "linalg", "from_basis"),
    ("solver.chi_family", "solver", "chi_family"),
    ("solver.betti", "solver", "betti"),
    ("tables.full_table", "tables", "full_table"),
    ("squarefree.rotated_betti_via_strands", "squarefree", "rotated_betti_via_strands"),
    ("squarefree.triplet_betti", "squarefree", "triplet_betti"),
    ("solver.to_json", "solver", "AlphaVector.to_json"),
    ("solver.to_json", "solver", "BettiDiagram.to_json"),
    ("tables.to_json", "tables", "HyperTable.to_json"),
    ("tables.to_json", "tables", "render"),
    ("cli.main", "cli", "main"),
    ("classical.pure_zip", "classical", "pure_zip"),
    ("classical.supernatural_table", "classical", "supernatural_table"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in SPANS))

# (name, module, candidate attributes): the lru_cache or cache whose
# cache_info() measures the layer's reuse.
CACHES = (
    ("degsets.is_balanced", "degsets", ("is_balanced",)),
    ("degsets.strands", "degsets", ("strands",)),
    ("linalg.from_basis", "linalg", ("from_basis", "_from_basis")),
)

# Counters read off a layer's result: chi-family flags (strict degree drops)
# and table cells.  Enumerated triplets are counted by wrap_enumerate.
COUNTERS = {
    "solver.chi_family": ("flags", lambda r: len(r.flags)),
    "tables.full_table": ("cells", lambda r: len(r.entries)),
}


class Tracer:
    def __init__(self):
        self.open = []  # child seconds of each open span, innermost last
        self.stats = {layer: {"calls": 0, "self_s": 0.0, "failed": 0} for layer in LAYERS}
        self.counts = dict.fromkeys(["core.enumerate_triplets.yielded"]
                                    + ["%s.%s" % (layer, c[0]) for layer, c in COUNTERS.items()], 0)
        self.absent = []

    def _close(self, st, t0):
        d = perf_counter() - t0
        st["self_s"] += d - self.open.pop()
        if self.open:
            self.open[-1] += d

    def wrap(self, layer, fn):
        st = self.stats[layer]
        counter = COUNTERS.get(layer)

        def traced(*args, **kwargs):
            st["calls"] += 1
            self.open.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                st["failed"] += 1
                raise
            finally:
                self._close(st, t0)
            if counter:
                self.counts["%s.%s" % (layer, counter[0])] += counter[1](result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_enumerate(self, fn):
        """Like wrap, but also times and counts the items of a lazy result."""
        st = self.stats["core.enumerate_triplets"]
        plain = self.wrap("core.enumerate_triplets", fn)

        def iterate(it):
            while True:
                self.open.append(0.0)
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(st, t0)
                self.counts["core.enumerate_triplets.yielded"] += 1
                yield item

        def traced(*args, **kwargs):
            result = plain(*args, **kwargs)
            if isinstance(result, (list, tuple)):
                self.counts["core.enumerate_triplets.yielded"] += len(result)
                return result
            return iterate(iter(result))

        return traced

    def install(self):
        """Patch every traced name where its callers look it up."""
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "triplets" or name.startswith("triplets."))}
        for layer, module, attr in SPANS:
            mod = mods.get("triplets." + module)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            raw = vars(owner).get(name) if owner is not None else None
            if raw is None:
                self.absent.append("%s:%s" % (module, attr))
                continue
            if owner_name:
                if isinstance(raw, classmethod):
                    setattr(owner, name, classmethod(self.wrap(layer, raw.__func__)))
                else:
                    setattr(owner, name, self.wrap(layer, raw))
                continue
            wrapper = self.wrap_enumerate(raw) if layer == "core.enumerate_triplets" else self.wrap(layer, raw)
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, key, wrapper)

    def report(self):
        out = {}
        for layer, st in self.stats.items():
            out[layer + ".self_s"] = st["self_s"]
            out[layer + ".calls"] = st["calls"]
        out["solver.solve_alpha.failed"] = self.stats["solver.solve_alpha"]["failed"]
        out.update(self.counts)
        return out


def cache_stats():
    """{name: [hits, misses, entries]}; a cache that no longer exists reads 0."""
    out = {}
    for name, module, attrs in CACHES:
        mod = sys.modules.get("triplets." + module)
        fns = [getattr(mod, attr, None) for attr in attrs]
        fns += [getattr(fn, "__wrapped__", None) for fn in fns]  # under a Tracer wrapper
        info = next((fn.cache_info() for fn in fns if hasattr(fn, "cache_info")), None)
        out[name] = [info.hits, info.misses, info.currsize] if info else [0, 0, 0]
    return out
