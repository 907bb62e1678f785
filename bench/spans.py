"""In-memory spans around calls into cryoion's public functions.

A span records (name, start, end, parent, op id, info).  Spans are appended
to a list while the run goes and are summarised or written out when it ends.
Wrappers are installed from outside the program: every binding of a traced
function in a loaded ``cryoion`` module is replaced, so names bound with
``from .fitting import lm_fit`` (qubit, metrology, shielding) or
``from .csvio import read_table`` (cli) are wrapped where the caller looks
them up, not only in the defining module.

This module imports only the standard library so that the cold CLI driver
can load it without adding to the import it measures.
"""
from __future__ import annotations

import sys
import time

NAME, START, END, PARENT, OP, INFO = range(6)


def _rows_returned(args, kwargs, result):
    return len(next(iter(result.values())))


def _rows_written(args, kwargs, result):
    columns = kwargs["columns"] if "columns" in kwargs else args[1]
    return len(next(iter(columns.values())))


def _iterations(args, kwargs, result):
    return result.iterations


#: span name -> (defining module, function, what to record from the call)
TRACED = {
    "trap.find_rf_null": ("cryoion.trap", "find_rf_null", None),
    "trap.secular_spectrum": ("cryoion.trap", "secular_spectrum", None),
    "trap.pseudopotential": ("cryoion.trap", "pseudopotential", None),
    "trap.load_layout": ("cryoion.trap", "load_layout", None),
    "fitting.lm_fit": ("cryoion.fitting", "lm_fit", _iterations),
    "qubit.heating_rate_fit": ("cryoion.qubit", "heating_rate_fit", None),
    "qubit.ramsey_contrast_fit": ("cryoion.qubit", "ramsey_contrast_fit", None),
    "qubit.waist_from_rabi_scan": ("cryoion.qubit", "waist_from_rabi_scan", None),
    "qubit.carrier_rabi_signal": ("cryoion.qubit", "carrier_rabi_signal", None),
    "metrology.lorentzian_linewidth_fit": ("cryoion.metrology", "lorentzian_linewidth_fit", None),
    "metrology.gaussian_profile_fit": ("cryoion.metrology", "gaussian_profile_fit", None),
    "metrology.allan_deviation": ("cryoion.metrology", "allan_deviation", None),
    "metrology.power_spectrum": ("cryoion.metrology", "power_spectrum", None),
    "metrology.fringe_to_displacement": ("cryoion.metrology", "fringe_to_displacement", None),
    "metrology.excursion_stats": ("cryoion.metrology", "excursion_stats", None),
    "shielding.fit_attenuation_regime": ("cryoion.shielding", "fit_attenuation_regime", None),
    "coils.coil_homogeneity": ("cryoion.coils", "coil_homogeneity", None),
    "csvio.read_table": ("cryoion.csvio", "read_table", _rows_returned),
    "csvio.read_timeseries": ("cryoion.csvio", "read_timeseries", None),
    "csvio.write_table": ("cryoion.csvio", "write_table", _rows_written),
    "csvio.render_table": ("cryoion.csvio", "render_table", None),
    "units.parse_quantity": ("cryoion.units", "parse_quantity", None),
}


class Tracer:
    """Collects spans; ``op`` tags every span opened until it is changed."""

    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0.0, parent, self.op, None])
        self._stack.append(index)
        return index

    def end(self, index: int, info=None) -> None:
        self.spans[index][END] = self.clock()
        self.spans[index][INFO] = info
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(index)

    def wrap(self, name: str, fn, record=None):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(index)
                raise
            self.end(index, record(args, kwargs, result) if record else None)
            return result

        traced.__wrapped__ = fn
        return traced


class Patch:
    """Wrappers for every cryoion module attribute bound to a traced function."""

    def __init__(self, tracer: Tracer):
        import importlib

        wrappers = {}
        for name, (module, attr, record) in TRACED.items():
            fn = getattr(importlib.import_module(module), attr)
            wrappers[id(fn)] = tracer.wrap(name, fn, record)
        self._sites = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "cryoion" and not mod_name.startswith("cryoion."):
                continue
            for attr, value in vars(module).items():
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._sites.append((module, attr, value, wrapper))

    def install(self) -> None:
        for module, attr, _, wrapper in self._sites:
            setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original, _ in self._sites:
            setattr(module, attr, original)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    One thread opens all spans, so the children of a span run one after
    another inside it and the time they cover is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


# ---------------------------------------------------------------------------
# python -X importtime
# ---------------------------------------------------------------------------


def parse_importtime(text: str) -> list[dict]:
    """Parse ``-X importtime`` stderr into a forest of module nodes.

    Each node has name, self_s, cumulative_s and children.  The log lists a
    module after everything it imported, one indentation step deeper.
    """
    pending: list[tuple[int, dict]] = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        timing, cumulative_us, name_field = line.split("|")
        self_us = timing.split(":")[1]
        depth = (len(name_field) - len(name_field.lstrip(" ")) - 1) // 2
        node = {"name": name_field.strip(), "self_s": int(self_us) * 1e-6,
                "cumulative_s": int(cumulative_us) * 1e-6, "children": []}
        while pending and pending[-1][0] > depth:
            node["children"].insert(0, pending.pop()[1])
        pending.append((depth, node))
    return [node for _, node in pending]


def _owner(name: str, inherited: str) -> str:
    if inherited == "scipy" or name == "scipy" or name.startswith("scipy."):
        return "scipy"
    if name == "numpy" or name.startswith("numpy."):
        return "numpy"
    if name == "cryoion" or name.startswith("cryoion."):
        return "cryoion"
    return inherited


def import_breakdown(text: str, modules=("cryoion.trap", "cryoion.qubit")) -> dict:
    """Import seconds split by owner, plus the cumulative time of some modules.

    A module belongs to scipy if scipy imported it (``numpy.f2py`` pulled in
    by scipy counts as scipy), else to numpy or cryoion by the same rule; the
    rest, such as the interpreter's own start-up imports, is ``other``.  The
    four owners add up to ``total``.
    """
    totals = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "cryoion": 0.0, "other": 0.0}
    cumulative = {m: 0.0 for m in modules}
    stack = [(node, "other") for node in parse_importtime(text)]
    while stack:
        node, inherited = stack.pop()
        owner = _owner(node["name"], inherited)
        totals[owner] += node["self_s"]
        totals["total"] += node["self_s"]
        if node["name"] in cumulative:
            cumulative[node["name"]] = node["cumulative_s"]
        stack.extend((child, owner) for child in node["children"])
    return {**totals, **cumulative}
