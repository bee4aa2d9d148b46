"""One workload in a fresh interpreter: set-up, the timed loop, checks.

Started by ``run.py``; not meant to be run by hand. ``--launched`` is the
CLOCK_MONOTONIC time at which the parent started this process, so the
set-up time counts interpreter start, ``import cvwitness`` and input
generation. With ``--mode setup`` the worker stops after set-up.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import cvwitness  # noqa: F401  (part of the set-up being timed)
import tracing
import workloads
from cvwitness.errors import CVWitnessError

IMPORTS = ("numpy", "scipy.linalg", "scipy.optimize", "scipy.special", "cvwitness")

# per-layer metric -> (unit, source): ("self", span) is self time summed
# over one traced pass over the input pool, ("calls", span) the number of
# calls in it, ("count", key) a tracer counter, ("import", module) the
# cumulative import time
PER_LAYER = [(f"import.{m.replace('.', '_')}_s", "s", ("import", m)) for m in IMPORTS]
PER_LAYER += [(f"cli.{sub}_s", "s", ("cli", sub)) for sub in (
    "check-gaussian", "witness-optimize", "check-nongaussian", "kernel-spectrum",
    "fock-iterate", "sweep-fig2")]
PER_LAYER += [
    ("symplectic.validate_cm_s", "s", ("self", "symplectic.validate_cm")),
    ("symplectic.standard_form_s", "s", ("self", "symplectic.standard_form")),
    ("criteria.refined_ww_search_s", "s", ("self", "criteria.refined_ww_search")),
    ("criteria.refined_ww_search_calls", "count", ("calls", "criteria.refined_ww_search")),
    ("criteria.refined_ww_search_found", "count", ("count", "criteria.refined_ww_search_found")),
    ("criteria.ww_pair_exists_s", "s", ("self", "criteria.ww_pair_exists")),
    ("witness.minimize_L_s", "s", ("self", "witness.minimize_L")),
    ("witness.L_ratio_calls", "count", ("calls", "witness.L_ratio")),
    ("witness.L_ratio_rejected", "count", ("count", "witness.L_ratio_rejected")),
    ("witness.lambda_product_vacuum_s", "s", ("self", "witness.lambda_product_vacuum")),
    ("witness.lambda_product_vacuum_calls", "count", ("calls", "witness.lambda_product_vacuum")),
    ("fock.fock_elements_s", "s", ("self", "fock.fock_elements")),
    ("fock.fock_elements_calls", "count", ("calls", "fock.fock_elements")),
    ("fock.alternate_maximize_s", "s", ("self", "fock.alternate_maximize")),
    ("fock.rounds", "count", ("count", "fock.rounds")),
    ("fock.converged", "count", ("count", "fock.converged")),
    ("fock.sweep_fig1_self_s", "s", ("self", "fock.sweep_fig1")),
    ("nongaussian.trace_finite_s", "s", ("self", "nongaussian.ngpasg_trace_finite")),
    ("nongaussian.trace_finite_calls", "count", ("calls", "nongaussian.ngpasg_trace_finite")),
    ("nongaussian.trace_finite_unsupported", "count",
     ("count", "nongaussian.trace_finite_unsupported")),
    ("nongaussian.kernel_verdict_s", "s", ("self", "nongaussian.kernel_verdict")),
    ("kernelspec.nystrom_spectrum_s", "s", ("self", "kernelspec.nystrom_spectrum")),
    ("trace.overhead_pct", "%", ("overhead", None)),
    ("trace.spans", "count", ("spans", None)),
]


def import_times(repeats=3):
    """Median cumulative import time (s) of each module in IMPORTS, from
    ``python -X importtime`` in fresh interpreters."""
    samples = {m: [] for m in IMPORTS}
    for _ in range(repeats):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cvwitness"],
                             capture_output=True, text=True, check=True).stderr
        seen = set()
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].strip()
            if name in samples and name not in seen:
                seen.add(name)
                samples[name].append(int(parts[1]) * 1e-6)
    return {m: statistics.median(v) for m, v in samples.items()}


class Loop:
    """Closed loop, one client: whole rounds until ``seconds`` have passed
    and every round of the pool has run at least once."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.rounds = [wl.round_ops(c) for c in range(wl.chunks)]
        self.kinds = {}           # kind -> [seconds, completed, [call seconds]]
        self.outputs = {}         # key -> output of its first call
        self.failures = {}        # key -> exception of its first call
        self.attempted = self.failed = self.completed = 0
        self.round_times = []     # untraced
        self.overheads = []       # traced / plain time of the same round

    def _pass(self, ops, record):
        t_round = time.perf_counter()
        for key, fn, n in ops:
            t0 = time.perf_counter()
            try:
                out = fn()
            except CVWitnessError as exc:
                out = exc
            dt = time.perf_counter() - t0
            if not record:
                continue
            self.attempted += n
            kind = self.kinds.setdefault(key[0], [0.0, 0, []])
            kind[0] += dt
            kind[2].append(dt)
            if isinstance(out, CVWitnessError):
                self.failed += n
                self.failures.setdefault(key, out)
            else:
                self.completed += n
                kind[1] += n
                self.outputs.setdefault(key, out)
        return time.perf_counter() - t_round

    def run(self, seconds):
        deadline = time.perf_counter() + seconds
        r = 0
        while True:
            ops = self.rounds[r % len(self.rounds)]
            # the first pass over the pool also runs each round traced,
            # before or after the plain run in turn so that warm-up favours
            # neither; counts and self times then cover exactly one pass
            trace = self.tracer is not None and r < len(self.rounds)
            if trace and r % 2:
                traced = self._traced_pass(ops)
            plain = self._pass(ops, record=True)
            self.round_times.append(plain)
            if trace:
                if not r % 2:
                    traced = self._traced_pass(ops)
                self.overheads.append(traced / plain - 1.0)
            r += 1
            if r >= len(self.rounds) and time.perf_counter() >= deadline:
                return

    def _traced_pass(self, ops):
        self._set_traced(True)
        try:
            return self._pass(ops, record=False)
        finally:
            self._set_traced(False)

    def _set_traced(self, on):
        if isinstance(self.wl, workloads.CliCold):
            self.wl.tracer_script = self.tracer if on else None
        elif on:
            self.tracer.install()
        else:
            self.tracer.uninstall()


def per_layer(loop, wl, spans_path):
    if isinstance(wl, workloads.CliCold):
        # one span file per traced command, each written by clitrace.py
        docs = []
        for path in wl.spans_files:
            with open(path) as fh:
                docs.append(json.load(fh))
        with open(spans_path, "w") as fh:
            json.dump({"commands": docs}, fh)
        times, counts, n_spans = {}, {}, 0
        for doc in docs:
            n_spans += len(doc["spans"])
            for name, (s, c) in tracing.self_times(doc["spans"]).items():
                s0, c0 = times.get(name, (0.0, 0))
                times[name] = (s0 + s, c0 + c)
            for k, v in doc["counts"].items():
                counts[k] = counts.get(k, 0) + v
    else:
        times = tracing.self_times(loop.tracer.spans)
        counts = loop.tracer.counts
        n_spans = len(loop.tracer.spans)
        loop.tracer.dump(spans_path)
    imports = import_times()
    cli = {name: value for name, value, _ in wl.report(loop.kinds, loop.round_times)}
    metrics = {}
    for name, unit, (source, key) in PER_LAYER:
        if source == "self":
            value = times.get(key, (0.0, 0))[0]
        elif source == "calls":
            value = times.get(key, (0.0, 0))[1]
        elif source == "count":
            value = counts.get(key, 0)
        elif source == "import":
            value = imports[key]
        elif source == "cli":
            value = cli.get(name, 0.0)
        elif source == "overhead":
            value = 100.0 * statistics.median(loop.overheads)
        else:
            value = n_spans
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", required=True)
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = None
    if args.trace:
        tracer = (os.path.join(os.path.dirname(os.path.abspath(__file__)), "clitrace.py")
                  if isinstance(wl, workloads.CliCold) else tracing.Tracer())
    loop = Loop(wl, tracer)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.launched
    result = {"setup_s": setup_s}
    if args.mode == "run":
        loop.run(args.seconds)
        chk = workloads.Check()
        for key, exc in loop.failures.items():
            chk(wl.expected_failure(key, exc), f"operation {key} failed: {exc!r}")
        wl.check(loop.outputs, chk)
        if isinstance(wl, workloads.CliCold):
            peak_kb = wl.peak_rss_kb          # the largest CLI process
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result.update({
            "attempted": loop.attempted,
            "failed": loop.failed,
            "checks": chk.count,
            "check_failed": len(chk.failures),
            "check_failures": chk.failures[:20],
            "passes": len(loop.round_times) / wl.chunks,
            "ops_per_s": loop.completed / sum(loop.round_times),
            "peak_rss_mb": peak_kb / 1024.0,
            "report": wl.report(loop.kinds, loop.round_times),
            "failure_kinds": sorted({type(e).__name__ for e in loop.failures.values()}),
        })
        if args.trace:
            result["per_layer"] = per_layer(loop, wl, args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
