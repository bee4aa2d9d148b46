"""Spans and counters recorded around calls into the package's layers.

The tracer replaces a function in every ``cvwitness`` module namespace
that binds it, so calls are seen however the caller looks the function
up: ``fock`` binds ``lambda_product_vacuum`` through ``from .witness
import``, and the CLI binds ``standard_form`` and ``validate_cm`` the
same way. Spans stay in memory as (name, start, end, parent) and are
written out once, at the end of a run.
"""

import json
import sys
import time

from cvwitness.errors import UnsupportedOrder

# (module, function): the public entry points of each layer. Helpers
# called thousands of times per entry point (detect_determinant,
# conditional_matrix, ...) are left unwrapped, so their time counts as
# self time of the entry point that calls them.
TARGETS = (
    ("symplectic", "validate_cm"),
    ("symplectic", "standard_form"),
    ("symplectic", "symplectic_eigenvalues"),
    ("symplectic", "min_pt_symplectic_eigenvalue"),
    ("criteria", "simon_criterion"),
    ("criteria", "werner_wolf_2x2"),
    ("criteria", "ww_pair_exists"),
    ("criteria", "refined_ww_search"),
    ("witness", "minimize_L"),
    ("witness", "L_ratio"),
    ("witness", "lambda_product_vacuum"),
    ("fock", "fock_elements"),
    ("fock", "alternate_maximize"),
    ("fock", "sweep_fig1"),
    ("nongaussian", "ngpasg_trace_finite"),
    ("nongaussian", "ngpasg_trace_limit"),
    ("nongaussian", "photon_added_criterion"),
    ("nongaussian", "kernel_verdict"),
    ("kernelspec", "nystrom_spectrum"),
)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []
        self._patched = []       # (namespace, attribute, original)

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if observe:
                    observe(self, None, exc)
                raise
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if observe:
                observe(self, result, None)
            return result

        return traced

    def install(self):
        """Wrap every target in each loaded cvwitness module that binds it."""
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == "cvwitness" or k.startswith("cvwitness."))]
        for mod_name, fn_name in TARGETS:
            orig = getattr(sys.modules["cvwitness." + mod_name], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)


def self_times(spans):
    """Per-name (self seconds, calls): span time minus its children's spans.

    Calls run on one thread, so a span's children never overlap and the
    part of the span they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = {}
    for i, (name, t0, t1, _) in enumerate(spans):
        s, c = out.get(name, (0.0, 0))
        out[name] = (s + (t1 - t0) - child[i], c + 1)
    return out


def _observe_l_ratio(tracer, result, exc):
    # minimize_L turns OptimFailure and NotPhysical raised here into inf
    if exc is not None:
        tracer.count("witness.L_ratio_rejected")


def _observe_refined(tracer, result, exc):
    if exc is None and result is not None:
        tracer.count("criteria.refined_ww_search_found")


def _observe_alternate(tracer, result, exc):
    if exc is None:
        tracer.count("fock.rounds", result.rounds)
        tracer.count("fock.converged", int(result.converged))


def _observe_finite(tracer, result, exc):
    if isinstance(exc, UnsupportedOrder):
        tracer.count("nongaussian.trace_finite_unsupported")


_OBSERVERS = {
    "witness.L_ratio": _observe_l_ratio,
    "criteria.refined_ww_search": _observe_refined,
    "fock.alternate_maximize": _observe_alternate,
    "nongaussian.ngpasg_trace_finite": _observe_finite,
}
