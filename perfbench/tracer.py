"""In-memory span tracer that wraps pinchlab's public layer functions.

Each wrapped call records a span (key, start, end, parent).  Wrappers are
installed from outside the program: every attribute of ``pinchlab`` and of
its submodules, and every list element, that is the original function
object is replaced, so calls made through ``from .x import f`` names, or
through the package (``pinchlab.f``), are attributed to the layer that
defines ``f``.  Names bound before ``install`` outside pinchlab keep the
originals, so callers look functions up on the package at call time.
``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) -> span key; several functions may share one key.
LAYER_FUNCTIONS = {
    ("configfile", "load_config"): "configfile.load_config",
    ("geometry", "build_chain"): "geometry.build_chain",
    ("geometry", "density_from_callable"): "geometry.density",
    ("geometry", "density_from_spec"): "geometry.density",
    ("spectral", "assemble_mode_operator"): "spectral.assemble_mode_operator",
    ("spectral", "solve_modes"): "spectral.solve_modes",
    ("spectral", "full_spectrum"): "spectral.full_spectrum",
    ("spectral", "truncated_green_min"): "spectral.truncated_green_min",
    ("spectral", "model_functions"): "spectral.model_functions",
    ("potential", "solve_direct"): "potential.solve_direct",
    ("potential", "solve_spectral"): "potential.solve_spectral",
    ("potential", "split_low_high"): "potential.split_low_high",
    ("potential", "estimate_report"): "potential.estimate_report",
    ("pairing", "pairing_value"): "pairing.pairing_value",
    ("pairing", "fit_log_asymptote"): "pairing.fit_log_asymptote",
    ("pairing", "predicted_constant"): "pairing.predicted_constant",
    ("dualgraph", "pseudoinverse"): "dualgraph.pseudoinverse",
    ("dynamics", "birkhoff_limit"): "dynamics.birkhoff_limit",
    ("dynamics", "pushforward_growth"): "dynamics.pushforward_growth",
    ("dynamics", "flat_potential_identity"): "dynamics.flat_potential_identity",
    ("dynamics", "limit_potential_relation"): "dynamics.limit_potential_relation",
    ("nodeintegral", "sample_curve"): "nodeintegral.sample_curve",
    ("reporting", "render_csv"): "reporting.render_csv",
}
CRITERIA = 16


def _operator_bytes(result, args, kwargs):
    S, M = result
    return {"bytes": S.nbytes + M.nbytes}


def _green_pairs(result, args, kwargs):
    eigsys = args[1] if len(args) > 1 else kwargs["eigsys"]
    certified = sum(e.multiplicity for e in eigsys.entries
                    if e.certified and e.lam > 1e-8)
    return {"included": result.included_expanded,
            "certified": certified - eigsys.low_count}


def _csv_size(result, args, kwargs):
    rows = args[1] if len(args) > 1 else kwargs["rows"]
    return {"rows": len(rows), "bytes": len(result.encode())}


# Counters recorded on a span from the call's result.
COUNTERS = {
    "spectral.assemble_mode_operator": _operator_bytes,
    "spectral.truncated_green_min": _green_pairs,
    "reporting.render_csv": _csv_size,
}


class Tracer:
    """Records spans while ``enabled``; spans stay in memory until dumped."""

    def __init__(self):
        self.spans: list[tuple] = []  # (key, start, end, parent_index, counters)
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, key, fn):
        counter = COUNTERS.get(key)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (key, start, end, parent, {})
            if counter is not None:
                self.spans[index][4].update(counter(result, args, kwargs))
            return result

        return wrapper

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name.split(".")[0] == "pinchlab" and mod is not None}
        targets = {}
        for (modname, fname), key in LAYER_FUNCTIONS.items():
            fn = getattr(mods[f"pinchlab.{modname}"], fname)
            targets[id(fn)] = (fn, self._wrap(key, fn))
        acceptance = mods["pinchlab.acceptance"]
        for fn in acceptance.ALL_CRITERIA:
            cid = int(fn.__name__.split("_")[1])
            targets[id(fn)] = (fn, self._wrap(f"acceptance.criterion_{cid:02d}", fn))
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                if id(value) in targets and targets[id(value)][0] is value:
                    setattr(mod, attr, targets[id(value)][1])
                    self._patched.append((mod, attr, value))
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if id(item) in targets and targets[id(item)][0] is item:
                            value[i] = targets[id(item)][1]
                            self._patched.append((value, i, item))

    def uninstall(self):
        for owner, slot, original in reversed(self._patched):
            if isinstance(owner, list):
                owner[slot] = original
            else:
                setattr(owner, slot, original)
        self._patched.clear()

    def dump(self) -> list[dict]:
        return [{"key": k, "start": s, "end": e, "parent": p, **c}
                for k, s, e, p, c in self.spans]


def summarize(spans: list[tuple]) -> dict:
    """Busy time, self time, call count and counters per span key.

    Busy time counts only the outermost span of a key, so a key that calls
    itself (density_from_spec -> density_from_callable) is not counted
    twice.  Self time subtracts the direct children's durations.
    """
    out: dict[str, dict] = {}
    child_time = [0.0] * len(spans)
    for key, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    for i, (key, start, end, parent, counters) in enumerate(spans):
        agg = out.setdefault(key, {"busy": 0.0, "self": 0.0, "calls": 0})
        agg["calls"] += 1
        agg["self"] += (end - start) - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != key:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            agg["busy"] += end - start
        for name, value in counters.items():
            agg[name] = agg.get(name, 0) + value
    # solve_direct calls made inside pairing_value spans
    nested = 0
    for key, _, _, parent, _ in spans:
        if key != "potential.solve_direct":
            continue
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != "pairing.pairing_value":
            ancestor = spans[ancestor][3]
        nested += ancestor >= 0
    out.setdefault("pairing.pairing_value", {"busy": 0.0, "self": 0.0, "calls": 0})
    out["pairing.pairing_value"]["nested_solves"] = nested
    return out
