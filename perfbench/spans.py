"""Span recording around perifsi's public calls, and the per-layer metrics.

The tracer wraps functions from outside the package: it replaces a function
or method by a wrapper that records one span (name, start, end, parent) per
call.  Spans stay in memory and are written once, when the run ends.  All
perifsi work runs on one thread, so a plain stack gives each span's parent.
"""

import functools
import sys
import time

# (span name, module, attribute path); a dotted path names a method.
# Functions re-exported by name into other perifsi modules are wrapped there
# too, so the span is recorded whichever module the caller imported from.
LAYERS = [
    ("cli.build_model", "perifsi.cli", "build_model"),
    ("cli.build_forcing", "perifsi.cli", "build_forcing"),
    ("cli.write_outputs", "perifsi.cli", "write_energies"),
    ("cli.write_outputs", "perifsi.cli", "write_coefficients"),
    ("cli.write_outputs", "perifsi.cli", "write_summary"),
    ("solver_periodic.outer_fixed_point", "perifsi.solver_periodic", "outer_fixed_point"),
    ("solver_periodic.solve_ivp", "perifsi.solver_periodic", "solve_ivp"),
    ("solver_periodic.periodic_solve", "perifsi.solver_periodic", "periodic_solve"),
    ("solver_periodic.poincare_map", "perifsi.solver_periodic", "poincare_map"),
    ("solver_periodic.step", "perifsi.solver_periodic", "step"),
    ("solver_periodic.ledger", "perifsi.solver_periodic", "EnergyLedger.from_trajectory"),
    ("assembly.sample", "perifsi.assembly", "Assembler.sample"),
    ("assembly.extension_fields", "perifsi.assembly", "GlobalBasis.extension_fields"),
    ("assembly.fluid_tables", "perifsi.assembly", "GlobalBasis.fluid_tables"),
    ("assembly.matrices_at", "perifsi.assembly", "AssembledSystem.matrices_at"),
    ("extension_ops.tables", "perifsi.extension_ops", "ExtensionField.tables"),
    ("extension_ops.extend_dt", "perifsi.extension_ops", "ExtensionOperator.extend_dt"),
    ("extension_ops.piola", "perifsi.extension_ops", "push_piola"),
    ("extension_ops.piola", "perifsi.extension_ops", "push_piola_dt"),
    ("fluidgrid.jets", "perifsi.fluidgrid", "QuadJets.__init__"),
    ("geometry.check_injectivity", "perifsi.geometry", "check_injectivity"),
]


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent index]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.sigma_min_rel = None
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, self.clock(), None, parent])
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = self.clock()
            if name == "solver_periodic.periodic_solve":
                info = result[1]
                self.sigma_min_rel = info["sigma_min"] / info["sigma_max"]
            return result

        return traced

    def install(self):
        """Wrap every call in LAYERS; perifsi must already be imported."""
        for name, module, path in LAYERS:
            owner = sys.modules[module]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            if cls_path:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, raw))
                continue
            original = getattr(owner, attr)
            wrapped = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "perifsi":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)


def covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [
        (end - start) - covered(children[i])
        for i, (name, start, end, parent) in enumerate(spans)
    ]


def layer_metrics(spans, wall_s, sigma_min_rel=None):
    """Per-layer totals, counts and self times from a finished span list.

    A layer's total counts only its outermost spans, so a call that re-enters
    its own layer is not counted twice.  The spans' self times sum to the
    time covered by the top-level spans; `process.unspanned_s` is the rest of
    the traced wall time.
    """
    selfs = self_times(spans)
    total, calls, self_sum, first = {}, {}, {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_sum[name] = self_sum.get(name, 0.0) + selfs[i]
        first.setdefault(name, end - start)
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0.0) + (end - start)
    # the monodromy is periodic_solve without its residual pass (a direct
    # poincare_map child)
    residual_pass = sum(
        end - start
        for name, start, end, parent in spans
        if name == "solver_periodic.poincare_map"
        and parent >= 0
        and spans[parent][0] == "solver_periodic.periodic_solve"
    )

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    span_sum = sum(selfs)
    return {
        "assembly.sample.s": (t("assembly.sample"), "s"),
        "assembly.sample.calls": (n("assembly.sample"), "count"),
        "assembly.sample.self_s": (self_sum.get("assembly.sample", 0.0), "s"),
        "assembly.sample.first_s": (first.get("assembly.sample", 0.0), "s"),
        "assembly.extension_fields.s": (t("assembly.extension_fields"), "s"),
        "assembly.fluid_tables.s": (t("assembly.fluid_tables"), "s"),
        "assembly.matrices_at.s": (t("assembly.matrices_at"), "s"),
        "assembly.matrices_at.calls": (n("assembly.matrices_at"), "count"),
        "extension_ops.tables.s": (t("extension_ops.tables"), "s"),
        "extension_ops.tables.calls": (n("extension_ops.tables"), "count"),
        "extension_ops.extend_dt.s": (t("extension_ops.extend_dt"), "s"),
        "extension_ops.piola.s": (t("extension_ops.piola"), "s"),
        "fluidgrid.jets.s": (t("fluidgrid.jets"), "s"),
        "solver_periodic.periodic_solve.s": (t("solver_periodic.periodic_solve"), "s"),
        "solver_periodic.monodromy.s": (
            t("solver_periodic.periodic_solve") - residual_pass, "s"),
        "solver_periodic.poincare_map.s": (t("solver_periodic.poincare_map"), "s"),
        "solver_periodic.poincare_map.calls": (n("solver_periodic.poincare_map"), "count"),
        "solver_periodic.step.calls": (n("solver_periodic.step"), "count"),
        "solver_periodic.ledger.s": (t("solver_periodic.ledger"), "s"),
        "solver_periodic.sigma_min_rel": (
            sigma_min_rel if sigma_min_rel is not None else 0.0, "ratio"),
        "geometry.check_injectivity.s": (t("geometry.check_injectivity"), "s"),
        "geometry.check_injectivity.calls": (n("geometry.check_injectivity"), "count"),
        "cli.write_outputs.s": (t("cli.write_outputs"), "s"),
        "process.traced_wall_s": (wall_s, "s"),
        "process.span_self_sum_s": (span_sum, "s"),
        "process.unspanned_s": (wall_s - span_sum, "s"),
    }
