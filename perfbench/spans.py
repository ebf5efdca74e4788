"""In-memory spans and counters recorded around calls into opentoda.

A span is (name, start, end, parent) with parent the index of the enclosing
span or -1. Spans stay in a list until the run writes them out at its end.
The program itself is not edited: `instrument` swaps the public functions of
each opentoda module for wrappers that open a span, and puts the originals
back when the traced section ends.
"""

import collections
import contextlib
import functools
import sys
import time

# Public functions wrapped per module, named "<module>.<function>" in spans.
# Methods are given as "Class.method". The _accel kernels are reached only
# through these callers.
TARGETS = {
    "cli": [
        "main", "load_envelope", "parse_envelope", "make_envelope", "dump_json",
        "suite_roundtrip", "suite_jacobi", "suite_hierarchy", "suite_darboux",
        "suite_casimirs",
    ],
    "tridiag": ["eigen", "flaschka", "unflaschka", "pq_polynomials", "trace_power"],
    "spectral": [
        "direct_transform", "inverse_transform", "inverse_transform_stieltjes",
        "gammas", "weyl_eval", "weyl_rat", "numerator_poly",
    ],
    "flows": [
        "evolve", "rk4", "exact_flow", "lax_rhs", "hamiltonian_field",
        "hamiltonian_gradient", "spectral_field", "Trajectory.build",
        "Trajectory.to_csv", "Trajectory.to_payload",
    ],
    "brackets": [
        "PoissonStructure.tensor", "pi0_cv", "pi1_cv", "pi2_cv", "zrho_tensor",
        "zrho_restricted_tensor", "dirac_restrict", "jacobi_residual",
        "pushforward", "casimir_residual", "bracket_terms", "closed_form_bracket",
        "fd_gradient", "fd_jacobian",
    ],
    "charts": [
        "verify_canonical", "iy_map", "action_angle_map", "gamma_pi_map", "zq_map",
        "numerator_values",
    ],
    "ratfun": ["poly_real_roots", "poly_from_roots", "partial_fractions"],
}


class Tracer:
    """Spans and counters of one traced section, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counts = collections.Counter()
        self._open = []

    def begin(self, name):
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index):
        if not self._open or self._open[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._open.pop()
        self.spans[index][2] = self.clock()

    @contextlib.contextmanager
    def span(self, name):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def durations(self, name, since=0):
        """Durations of the closed spans called name, from index since on."""
        return [
            end - start
            for nm, start, end, _ in self.spans[since:]
            if nm == name and end is not None
        ]


def self_times(spans):
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are merged first)."""
    children = collections.defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def summarize(spans):
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    table = {}
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += own
    return table


def instrument(tracer, package="opentoda"):
    """Wrap every TARGETS function of the imported package in a span.

    A function imported by name into another module (`from .tridiag import
    eigen`) is swapped there too. rk4 also wraps the vector field it is
    given, so each right-hand-side evaluation is a span and a count.
    Returns a function that restores the originals.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    undo = []

    def swap(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    for modname, names in TARGETS.items():
        mod = sys.modules[f"{package}.{modname}"]
        for name in names:
            label = f"{modname}.{name}"
            if "." in name:
                cls_name, meth = name.split(".")
                cls = getattr(mod, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    swap(cls, meth, classmethod(tracer.wrap(label, raw.__func__)))
                else:
                    swap(cls, meth, tracer.wrap(label, raw))
                continue
            orig = getattr(mod, name)
            new = _rk4_wrapper(tracer, orig) if label == "flows.rk4" else tracer.wrap(label, orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        swap(m, attr, new)
                    elif isinstance(value, dict):
                        # registries such as cli._SUITES hold the function itself
                        for key in [k for k, v in value.items() if v is orig]:
                            undo.append((value, key, orig))
                            value[key] = new

    def restore():
        for owner, attr, old in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)

    return restore


def _rk4_wrapper(tracer, rk4):
    def field_counted(field):
        traced = tracer.wrap("flows.rhs", field)

        def rhs(x):
            tracer.counts["flows.rhs_calls"] += 1
            return traced(x)

        return rhs

    @functools.wraps(rk4)
    def traced_rk4(field, state, *args, **kwargs):
        index = tracer.begin("flows.rk4")
        try:
            traj = rk4(field_counted(field), state, *args, **kwargs)
        finally:
            tracer.end(index)
        tracer.counts["flows.rows"] += int(traj.times.size)
        return traj

    return traced_rk4
