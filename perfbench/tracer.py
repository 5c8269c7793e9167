"""Span tracing for the benchmark's traced runs.

Each traced name is wrapped at every place a ``transitepi`` module binds it,
so calls made through ``from ... import`` are caught as well as calls through
the defining module.  A call records a span ``[id, parent, name, start, end]``
on the process CPU clock (the clock ``cpu_s`` uses) and, for some names, adds
to a counter.  Spans stay in memory; the step writes them out when it ends.

``geo`` is deliberately not wrapped: it is called once per stop inside
``mobility_table``, so a span per call would distort the run, and its cost is
counted under ``mobility``.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

# layer metric -> traced names ("module:qualname" inside the transitepi package)
LAYERS = {
    "synth.synthesize_s": ("synth:synthesize",),
    "ingest.write_s": ("ingest:write_trip_csv",),
    "ingest.parse_s": ("ingest:parse_trip_records",),
    "ingest.filter_s": ("ingest:filter_by_min_trips",),
    "contacts.build_s": ("contacts:build_exposure_log",),
    "contacts.graph_s": ("contacts:connected_components", "contacts:degree_distribution"),
    "mobility.table_s": ("mobility:mobility_table",),
    "classify.population_s": ("classify:classify_population",),
    "sim.run_s": ("sim:run_sir",),
    "sim.uniforms_s": ("sim:exposure_uniforms",),
    "sim.write_s": ("sim:write_infection_csv",),
    "flows.aggregate_s": ("flows:per_group_summary", "flows:group_flow_matrix", "flows:difference_matrix"),
    "flows.write_s": ("flows:GroupMatrix.to_csv", "flows:GroupSummary.to_csv", "flows:chord_export"),
    "cli.self_s": tuple(
        f"cli:cmd_{c}" for c in ("generate", "ingest", "classify", "simulate", "sweep", "analyze")
    ),
}


def _calls(result):
    return 1


def _length(result):
    return len(result)


def _records(result):
    return len(result[0])


# count metric -> (traced name, amount added per call as a function of the result)
COUNTS = {
    "ingest.rows_parsed": ("ingest:parse_trip_records", _records),
    "contacts.builds": ("contacts:build_exposure_log", _calls),
    "contacts.exposures_built": ("contacts:build_exposure_log", _length),
    "mobility.tables": ("mobility:mobility_table", _calls),
    "sim.uniform_draws": ("sim:exposure_uniforms", _length),
}

PACKAGE = "transitepi"


class Tracer:
    def __init__(self) -> None:
        self.spans = []
        self.counts = {name: 0 for name in COUNTS}
        self.missing = []
        self._stack = []

    def install(self) -> None:
        """Import every package module, then wrap each traced name in place."""
        package = importlib.import_module(PACKAGE)
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module(f"{PACKAGE}.{info.name}")
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        names = {n for names in LAYERS.values() for n in names}
        for name in sorted(names):
            self._install_one(name, modules)

    def _install_one(self, name, modules) -> None:
        module_name, qualname = name.split(":")
        owner = sys.modules.get(f"{PACKAGE}.{module_name}")
        path = qualname.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part, None)
        original = getattr(owner, path[-1], None)
        if not callable(original):
            self.missing.append(name)
            return
        counters = [(metric, fn) for metric, (target, fn) in COUNTS.items() if target == name]
        wrapper = self._wrap(name.replace(":", "."), original, counters)
        if len(path) > 1:
            setattr(owner, path[-1], wrapper)
            return
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def _wrap(self, span_name, fn, counters):
        spans = self.spans
        stack = self._stack
        counts = self.counts
        clock = time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else None, span_name, 0.0, 0.0]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            for metric, amount in counters:
                counts[metric] += amount(result)
            return result

        return wrapper

    def export(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "missing": self.missing}


def layer_seconds(spans) -> dict:
    """Self time per layer metric: each span's duration minus its children's."""
    children = {}
    for sid, parent, _, start, end in spans:
        if parent is not None:
            children[parent] = children.get(parent, 0.0) + (end - start)
    metric_of = {n.replace(":", "."): metric for metric, names in LAYERS.items() for n in names}
    out = {metric: 0.0 for metric in LAYERS}
    for sid, _, name, start, end in spans:
        out[metric_of[name]] += (end - start) - children.get(sid, 0.0)
    return out
