"""Layer instrumentation for the filmloop benchmark.

The benchmark drives filmloop from outside, so layers are timed by replacing,
for the duration of one pass, the names through which one module calls
another (``filmloop.optimize.energy_and_gradient``, ``filmloop.sweep.relax``,
``filmloop.cli._COMMANDS`` and so on).  Every replaced name is restored when
the pass ends.

An untraced pass installs only the shim: it counts ``energy_and_gradient``
calls without reading a clock, records each relax result, and marks the start
of every solve (one clock read per sweep point, which gives per-point times).
A traced pass also records a span around every call at a layer boundary.
Spans stay in memory until the run writes them out.
"""

import contextlib
import importlib
import time

# (module, attribute, layer): the cross-module call sites a traced pass wraps.
# A dict attribute means every entry of the dict is wrapped.
SPAN_SITES = [
    ("filmloop.sweep", "energy", "energy"),
    ("filmloop.sweep", "perturb", "optimize"),
    ("filmloop.cli", "run_sweep", "sweep"),
    ("filmloop.cli", "read_manifest", "sweep"),
    ("filmloop.cli", "detect_transitions", "sweep"),
    ("filmloop.sweep", "count_self_intersections", "sweep.si"),
    ("filmloop.sweep", "boundary_geometry", "diffgeo"),
    ("filmloop.sweep", "gaussian_curvature", "diffgeo"),
    ("filmloop.sweep", "gauss_bonnet_defect", "diffgeo"),
    ("filmloop.sweep", "planarity", "diffgeo"),
    ("filmloop.cli", "boundary_geometry", "diffgeo"),
    ("filmloop.cli", "gauss_bonnet_defect", "diffgeo"),
    ("filmloop.cli", "planarity", "diffgeo"),
    ("filmloop.cli", "write_boundary_observables", "diffgeo"),
    ("filmloop.sweep", "boundary_mode_spectrum", "stability"),
    ("filmloop.saddle", "pitchfork_amplitude", "saddle"),
    ("filmloop.saddle", "radius_for_length", "saddle"),
    ("filmloop.saddle", "constrained_energy_series", "saddle"),
    ("filmloop.saddle", "energy_quadrature", "saddle"),
    ("filmloop.saddle", "int_K_quadrature", "saddle"),
    ("filmloop.saddle", "int_abs_kn_quadrature", "saddle"),
    ("filmloop.saddle", "length_quadrature", "saddle"),
    ("filmloop.saddle", "int_K_gauss_bonnet", "saddle"),
    ("filmloop.saddle", "family_trimesh", "saddle"),
    ("filmloop.cli", "generate_disk_mesh", "mesh"),
    ("filmloop.cli", "scale_to_boundary_length", "mesh"),
    ("filmloop.sweep", "generate_disk_mesh", "mesh"),
    ("filmloop.sweep", "scale_to_boundary_length", "mesh"),
    ("filmloop.saddle", "generate_disk_mesh", "mesh"),
    ("filmloop.cli", "write_obj", "meshio"),
    ("filmloop.cli", "_COMMANDS", "cli"),
]

# Where the solver is entered; both the shim and the tracer wrap these.
SOLVE_SITES = [("filmloop.sweep", "relax"), ("filmloop.cli", "relax")]


class Recorder:
    """Counts, solve results and (when tracing) spans of one pass."""

    def __init__(self, tracing, clock=time.perf_counter):
        self.tracing = tracing
        self.clock = clock        # for spans, solve starts and workload timings
        self.energy_calls = 0
        self.solves = []          # (iterations, penalty_rounds, length_error)
        self.solve_starts = []    # clock() at the start of each solve
        self.spans = []           # (layer, name, start, end, parent index)
        self._stack = []

    def span(self, layer, name, fn):
        """fn wrapped so that each call records one span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx] = (layer, name, t0, clock(), parent)

        return traced

    def _energy_shim(self, fn):
        rec = self

        def counted(mesh, x, p):
            rec.energy_calls += 1
            return fn(mesh, x, p)

        if not self.tracing:
            return counted

        # one span name per mesh size, so per-call cost splits by rings
        sized = {}

        def counted_traced(mesh, x, p):
            rec.energy_calls += 1
            n = mesh.vertex_count
            if n not in sized:
                sized[n] = rec.span("energy", f"energy_and_gradient@{n}", fn)
            return sized[n](mesh, x, p)

        return counted_traced

    def _solve_shim(self, fn):
        rec = self

        def solve(*args, **kwargs):
            rec.solve_starts.append(rec.clock())
            res = fn(*args, **kwargs)
            rec.solves.append((res.iterations, res.penalty_rounds,
                               res.length_error))
            return res

        return self.span("optimize", "relax", solve) if self.tracing else solve

    def _preconditioner_shim(self, fn):
        rec = self

        def make(*args, **kwargs):
            apply = fn(*args, **kwargs)
            if apply is None:
                return None
            return rec.span("optimize", "precond_apply", apply)

        return rec.span("optimize", "make_preconditioner", make)


@contextlib.contextmanager
def instrument(rec):
    """Install rec's shim (and spans, if rec.tracing) for one pass."""
    saved = []

    def replace(owner, attr, new):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    try:
        optimize = importlib.import_module("filmloop.optimize")
        replace(optimize, "energy_and_gradient",
                rec._energy_shim(optimize.energy_and_gradient))
        for module_name, attr in SOLVE_SITES:
            owner = importlib.import_module(module_name)
            replace(owner, attr, rec._solve_shim(getattr(owner, attr)))
        if rec.tracing:
            replace(optimize, "make_preconditioner",
                    rec._preconditioner_shim(optimize.make_preconditioner))
            for module_name, attr, layer in SPAN_SITES:
                owner = importlib.import_module(module_name)
                target = getattr(owner, attr)
                if isinstance(target, dict):
                    replace(owner, attr, {
                        key: rec.span(layer, f"cmd_{key}", fn)
                        for key, fn in target.items()})
                else:
                    replace(owner, attr, rec.span(layer, attr, target))
        yield rec
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def self_times(spans):
    """Seconds of self time per layer: span duration minus its children's."""
    child = [0.0] * len(spans)
    for layer, _, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for (layer, _, t0, t1, _), c in zip(spans, child):
        out[layer] = out.get(layer, 0.0) + (t1 - t0) - c
    return out


def totals(spans, layer=None, name=None, prefix=None):
    """(calls, seconds) over spans matching layer / exact name / name prefix."""
    calls, secs = 0, 0.0
    for lay, nm, t0, t1, _ in spans:
        if layer is not None and lay != layer:
            continue
        if name is not None and nm != name:
            continue
        if prefix is not None and not nm.startswith(prefix):
            continue
        calls += 1
        secs += t1 - t0
    return calls, secs


def write_spans(path, spans, origin):
    """One CSV row per span, times in microseconds from origin."""
    with open(path, "w") as fh:
        fh.write("index,layer,name,start_us,end_us,parent\n")
        for i, (layer, name, t0, t1, parent) in enumerate(spans):
            fh.write("%d,%s,%s,%.1f,%.1f,%d\n" % (
                i, layer, name, (t0 - origin) * 1e6, (t1 - origin) * 1e6,
                parent))
