"""The four benchmark workloads: seeded inputs, one round of operations, checks.

Each workload builds a pool of seeded inputs at set-up. A round is a
fixed list of operations with fixed shares of each kind; successive
rounds walk through the pool, so a run averages over many distinct
inputs while every round attempts the same kinds of work. Checks run
after the timed loop, on the outputs of the first pass over the pool,
and use only ``reference`` and ``fock_oracle``.
"""

import csv
import json
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import fock_oracle
import inputs
import reference as ref
from cvwitness import criteria, fock, nongaussian, symplectic, witness
from cvwitness.criteria import WernerWolf2x2Params
from cvwitness.errors import CVWitnessError, UnsupportedOrder
from cvwitness.witness import PositivityMode, SixParamDetect

LAMBDAS = (10.0, 100.0, 1e3, 1e4)


class Check:
    """Collects failed checks; a run with any failure is not correct."""

    def __init__(self):
        self.failures = []
        self.count = 0

    def __call__(self, ok, what):
        self.count += 1
        if not ok:
            self.failures.append(what)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


class Workload:
    """A pool of seeded inputs split into ``chunks`` rounds of operations."""

    chunks = 1

    def __init__(self, seed, workdir, chunks=None):
        if chunks:
            self.chunks = chunks

    def round_ops(self, chunk):
        """[(key, callable, operations)] for one round.

        ``key`` identifies the input and starts with the operation kind;
        ``operations`` is how many operations the call performs (a sweep
        call computes several samples).
        """
        raise NotImplementedError

    def check(self, outputs, chk):
        """Check {key: output} of the operations that did not fail."""
        raise NotImplementedError

    def expected_failure(self, key, exc):
        """True for a failure that is a known fault of the program."""
        return False

    def report(self, kinds, rounds):
        """Workload-specific figures: [(name, value, unit)].

        ``kinds`` maps an operation kind to (seconds, completed operations,
        [seconds of each call]); ``rounds`` holds the round times.
        """
        return []


def _rate(kinds, kind):
    seconds, done, _ = kinds.get(kind, (0.0, 0, []))
    return done / seconds if seconds > 0 else 0.0


# ---------------------------------------------------------------- gaussian

GAUSSIAN_ROUND = (
    # (generator, entangled, count per round)
    (inputs.general_two_mode, True, 16),
    (inputs.general_two_mode, False, 12),
    (inputs.symmetric_two_mode, True, 4),
    (inputs.symmetric_two_mode, False, 4),
    (inputs.squeezed_thermal, True, 4),
    (inputs.squeezed_thermal, False, 4),
    (inputs.near_boundary, True, 3),
    (inputs.near_boundary, False, 3),
)
WW_ROUND = ((True, 4), (False, 6))


def gaussian_pipeline(raw):
    cm = symplectic.validate_cm(raw)
    sf = symplectic.standard_form(cm)
    simon = criteria.simon_criterion(sf)
    nu_pt = symplectic.min_pt_symplectic_eigenvalue(cm)
    nus = symplectic.symplectic_eigenvalues(cm)
    cert = criteria.refined_ww_search(sf)
    lval, _ = witness.minimize_L(cm)
    return sf, simon.margin, nu_pt, nus, cert, lval


def werner_wolf_pair(p):
    params = WernerWolf2x2Params(*p)
    return criteria.werner_wolf_2x2(params).margin, criteria.ww_pair_exists(params)


class GaussianBatch(Workload):
    chunks = 6

    def __init__(self, seed, workdir, chunks=None):
        super().__init__(seed, workdir, chunks)
        rng = np.random.default_rng([seed, 1])
        self.states = []
        self.ww = []
        for _ in range(self.chunks):
            self.states.append([gen(rng, ent) for gen, ent, k in GAUSSIAN_ROUND for _ in range(k)])
            self.ww.append([inputs.werner_wolf(rng, ent) for ent, k in WW_ROUND for _ in range(k)])

    def round_ops(self, chunk):
        ops = [(("g", chunk, i), lambda g=g: gaussian_pipeline(g), 1)
               for i, g in enumerate(self.states[chunk])]
        ops += [(("w", chunk, i), lambda p=p: werner_wolf_pair(p), 1)
                for i, p in enumerate(self.ww[chunk])]
        return ops

    def check(self, outputs, chk):
        for (kind, c, i), out in outputs.items():
            if kind == "w":
                self._check_ww(self.ww[c][i], out, chk)
            else:
                self._check_state(self.states[c][i], out, chk)

    @staticmethod
    def _check_state(g, out, chk):
        sf, margin, nu_pt, nus, cert, lval = out
        own_pt = ref.pt_min_symplectic(g, [1])
        own_nu = ref.two_mode_symplectic(g)
        tag = f"state with PPT eigenvalue {own_pt:.6g}"
        if abs(own_pt - 1.0) > 1e-7:
            chk((margin < 0) == (own_pt < 1.0), f"Simon margin {margin:.3g} sign, {tag}")
        chk(_rel(nu_pt, own_pt) < 1e-8, f"min_pt_symplectic_eigenvalue {nu_pt!r}, {tag}")
        chk(_rel(nus[0], own_nu[1]) < 1e-8 and _rel(nus[1], own_nu[0]) < 1e-8,
            f"symplectic_eigenvalues {nus!r} vs {own_nu!r}")
        if lval < 1.0:
            chk(own_pt < 1.0, f"minimize_L {lval!r} < 1 on a PPT {tag}")
        if cert is not None:
            x, y = cert
            diff = ref.standard_form_cm(sf.a, sf.b, sf.c1, sf.c2) - np.diag([1 / x, x, y, 1 / y])
            chk(np.linalg.eigvalsh(diff)[0] >= -1e-9 * max(1.0, sf.a, sf.b),
                f"refined_ww_search certificate {cert!r} is not PSD")
            chk(own_pt >= 1.0 - 1e-9, f"separability certificate on an NPT {tag}")
        own = ref.block_dets(g)
        kept = ref.block_dets(ref.standard_form_cm(sf.a, sf.b, sf.c1, sf.c2))
        scale = max(abs(v) for v in own)
        chk(all(abs(p - q) <= 1e-9 * scale for p, q in zip(own, kept)),
            f"standard_form changed det A, B, C or gamma: {own} -> {kept}")

    @staticmethod
    def _check_ww(p, out, chk):
        margin, exists = out
        if abs(margin) > 1e-3:
            chk((margin >= 0) == exists,
                f"Werner-Wolf closed form {margin:.3g} vs pair search {exists}")

    def report(self, kinds, rounds):
        return [("gaussian_states_per_s", _rate(kinds, "g"), "1/s"),
                ("werner_wolf_sets_per_s", _rate(kinds, "w"), "1/s")]


# -------------------------------------------------------------------- fock

SWEEP_SAMPLES = 24
LARGE_CUTOFF = 14
SWEEP_CUTOFF = 6


def large_iterate(m, seed):
    d = SixParamDetect(*m, PositivityMode.OPERATOR_PSD)
    op = fock.fock_elements(d, LARGE_CUTOFF)
    res = fock.alternate_maximize(op, seed=seed)
    return op, res


class FockSweep(Workload):
    chunks = 8

    def __init__(self, seed, workdir, chunks=None):
        super().__init__(seed, workdir, chunks)
        rng = np.random.default_rng([seed, 2])
        self.sweep_seeds = [int(s) for s in rng.integers(0, 2**31, size=self.chunks)]
        self.detects = [inputs.detect_operator(rng) for _ in range(self.chunks)]
        self.start_seeds = [int(s) for s in rng.integers(0, 2**31, size=self.chunks)]

    def round_ops(self, chunk):
        s = self.sweep_seeds[chunk]
        m, start = self.detects[chunk], self.start_seeds[chunk]
        return [
            (("sweep", chunk), lambda: fock.sweep_fig1(SWEEP_SAMPLES, cutoff=SWEEP_CUTOFF, seed=s),
             SWEEP_SAMPLES),
            (("large", chunk), lambda: large_iterate(m, start), 1),
        ]

    def report(self, kinds, rounds):
        return [("sweep_samples_per_s", _rate(kinds, "sweep"), "1/s"),
                ("fock_iterate_s", statistics.median(kinds["large"][2]), "s")]

    def check(self, outputs, chk):
        for (kind, c), out in outputs.items():
            if kind == "sweep":
                rows, failures = out
                chk(len(rows) == SWEEP_SAMPLES, f"sweep_fig1 returned {len(rows)} rows")
                worst = max(r.m0 for r in rows)
                chk(worst <= 1.0 + 1e-6 and not failures,
                    f"sweep seed {self.sweep_seeds[c]}: M0 {worst!r} > 1 (vacuum optimality)")
            else:
                self._check_large(self.detects[c], *out, chk)

    @staticmethod
    def _check_large(m, op, res, chk):
        t = op.tensor
        scale = float(np.max(np.abs(t)))
        chk(np.max(np.abs(t - t.transpose(2, 3, 0, 1))) <= 1e-12 * scale,
            "Fock tensor is not Hermitian")
        chk(_rel(t[0, 0, 0, 0], op.sqrt_det_beta) < 1e-12,
            "tensor[0,0,0,0] differs from sqrt_det_beta")
        diag_big = float(np.einsum("ijij->", t))
        small = fock.fock_elements(SixParamDetect(*m, PositivityMode.OPERATOR_PSD), SWEEP_CUTOFF)
        diag_small = float(np.einsum("ijij->", small.tensor))
        sums = f"diagonal sums {diag_small!r} (cutoff 6), {diag_big!r} (cutoff 14)"
        if ref.physical_min_eig(ref.detect_cm(m)) >= 0.0:
            # a positive operator: non-negative diagonal, partial traces rise to 1
            chk(diag_small < diag_big <= 1.0 + 1e-9, sums)
        else:
            # gamma_M >= 0 without gamma_M + i*sigma >= 0: the diagonal can be
            # negative, so partial traces only converge to the full trace 1
            chk(abs(diag_big - 1.0) <= max(abs(diag_small - 1.0), 1e-6), sums)
        chk(np.max(np.abs(t[:SWEEP_CUTOFF, :SWEEP_CUTOFF, :SWEEP_CUTOFF, :SWEEP_CUTOFF]
                          - small.tensor)) <= 1e-12 * scale,
            "cutoff-6 tensor is not the truncation of the cutoff-14 tensor")
        chk(res.m0 <= 1.0 + 1e-6, f"alternate_maximize M0 {res.m0!r} > 1")
        own = ref.product_mean(t, res.psi.a, res.psi.b) / op.sqrt_det_beta
        chk(abs(own.imag) < 1e-9 and _rel(own.real, res.m0) < 1e-9,
            f"product state contracts to {own!r}, reported M0 {res.m0!r}")


# ----------------------------------------------------------- photon traces

STS_PATTERNS = (((0, 0), (0, 0)), ((1, 0), (0, 0)), ((1, 1), (0, 0)), ((0, 1), (1, 0)),
                ((2, 2), (0, 0)), ((0, 0), (2, 2)), ((1, 1), (1, 1)), ((2, 1), (1, 0)),
                ((2, 2), (2, 2)))
GENERAL_PATTERNS = (((0, 0), (0, 0)), ((1, 0), (0, 0)), ((1, 1), (0, 0)), ((2, 0), (0, 0)),
                    ((0, 0), (2, 2)), ((1, 1), (1, 1)), ((2, 1), (1, 2)))
SINGLE_PATTERNS = (((1,), (0,)), ((0,), (1,)), ((1,), (1,)), ((2,), (0,)), ((2,), (1,)),
                   ((2,), (2,)))
# Order-3 cases on fixed kernels: they fail with UnsupportedOrder today.
ORDER3_CASES = ((np.diag([2.0, 2.0]), (3,), (0,)),
                (np.array([[2.5, 0.4], [0.4, 1.2]]), (0,), (3,)),
                (np.diag([1.5, 1.0]), (3,), (2,)))


def trace_pair(spec, lam):
    gm = lam * np.eye(2 * spec.n)
    return (nongaussian.ngpasg_trace_finite(spec, gm),
            nongaussian.ngpasg_trace_limit(spec, gm))


class PhotonTraces(Workload):
    chunks = 3

    def __init__(self, seed, workdir, chunks=None):
        super().__init__(seed, workdir, chunks)
        rng = np.random.default_rng([seed, 3])
        self.cases = []       # per chunk: [(gamma, adds, subs, family)]
        for _ in range(self.chunks):
            cases = []
            for family, patterns in (("sts", STS_PATTERNS), ("general", GENERAL_PATTERNS)):
                for adds, subs in patterns:
                    cases.append((inputs.two_mode_kernel(rng, family), adds, subs, family))
            for adds, subs in SINGLE_PATTERNS:
                cases.append((inputs.single_mode_kernel(rng), adds, subs, "single"))
            cases += [(g, a, s, "order3") for g, a, s in ORDER3_CASES]
            self.cases.append(cases)
        # the program receives validated kernels built from the generated CMs
        self.specs = [[nongaussian.NGPASGSpec(kernel=symplectic.validate_cm(g),
                                              adds=a, subs=s) for g, a, s, _ in cases]
                      for cases in self.cases]

    def round_ops(self, chunk):
        ops = []
        for i, spec in enumerate(self.specs[chunk]):
            for lam in LAMBDAS:
                ops.append((("pair", chunk, i, lam), lambda s=spec, lam=lam: trace_pair(s, lam), 1))
            if spec.n == 2:
                ops.append((("criterion", chunk, i),
                            lambda s=spec: nongaussian.photon_added_criterion(s).margin, 1))
        return ops

    def report(self, kinds, rounds):
        return [("traces_per_s", _rate(kinds, "pair"), "1/s"),
                ("criteria_per_s", _rate(kinds, "criterion"), "1/s")]

    def expected_failure(self, key, exc):
        _, c, i, _ = key
        return self.cases[c][i][3] == "order3" and isinstance(exc, UnsupportedOrder)

    def check(self, outputs, chk):
        for c, cases in enumerate(self.cases):
            for i, (g, adds, subs, family) in enumerate(cases):
                pairs = [outputs.get(("pair", c, i, lam)) for lam in LAMBDAS]
                if None not in pairs:
                    self._check_case(g, adds, subs, family, pairs, chk)
                if ("criterion", c, i) in outputs:
                    self._check_criterion(g, family, outputs[("criterion", c, i)], chk)

    @staticmethod
    def _check_case(g, adds, subs, family, pairs, chk):
        what = f"{family} kernel add {adds} sub {subs}"
        for lam, (finite, limit) in zip(LAMBDAS, pairs):
            own = ref.gaussian_overlap(g, lam * np.eye(g.shape[0]))
            chk(_rel(limit, own) < 1e-12, f"{what}: limit {limit!r} vs overlap {own!r}")
            chk(finite > 0, f"{what}: trace {finite!r} is not positive")
        if sum(adds) + sum(subs) == 0:
            chk(all(_rel(f, l) < 1e-12 for f, l in pairs), f"{what}: count-0 trace != overlap")
        else:
            gaps = [abs(f - l) / l for f, l in pairs]
            chk(all(b < a for a, b in zip(gaps, gaps[1:])),
                f"{what}: relative gap to the limit does not shrink: {gaps}")
        if g.shape[0] == 2:
            for lam, (finite, _) in zip(LAMBDAS, pairs):
                want = fock_oracle.photon_trace(g, adds[0], subs[0], lam)
                chk(_rel(finite, want) < 1e-6,
                    f"{what}, lambda {lam:g}: trace {finite!r}, Fock oracle {want!r}")

    @staticmethod
    def _check_criterion(g, family, margin, chk):
        own_pt = ref.pt_min_symplectic(g, [1])
        if margin < 0:
            chk(own_pt < 1.0, f"kernel verdict {margin:.3g} entangled on a PPT kernel")
        if family == "sts" and abs(own_pt - 1.0) > 1e-7:
            chk((margin < 0) == (own_pt < 1.0),
                f"closed-form verdict {margin:.3g} vs PPT eigenvalue {own_pt:.6g}")


# --------------------------------------------------------------- cli cold

def _cli_inputs(rng):
    """The fixed command list; every numeric input is drawn from ``rng``."""
    raw = inputs.general_two_mode(rng, entangled=True)
    while True:
        a, b = rng.uniform(1.2, 3.0, size=2)
        c1, c2 = rng.uniform(-1.5, 1.5, size=2)
        sf = ref.standard_form_cm(a, b, c1, c2)
        if ref.physical_min_eig(sf) > 1e-3:
            break
    while True:
        a_st, b_st = rng.uniform(1.5, 3.0, size=2)
        c_st = np.sqrt((a_st - 1) * (b_st - 1)) * rng.uniform(0.5, 1.5)
        if ref.physical_min_eig(ref.standard_form_cm(a_st, b_st, c_st, c_st)) > 1e-3:
            break
    ww = inputs.werner_wolf(rng, entangled=bool(rng.integers(2)))
    mm_a = rng.uniform(2.0, 3.0)
    mm_c = rng.uniform(0.1, 0.5)
    ghz_a, ghz_c = rng.uniform(1.5, 3.0), rng.uniform(0.1, 0.4)
    witness_state = inputs.general_two_mode(rng, entangled=bool(rng.integers(2)))
    nu, r = 2.0 * rng.uniform(0.0, 1.0) + 1.0, rng.uniform(0.1, 0.6)
    alpha, kr = rng.uniform(0.3, 3.0), rng.uniform(0.1, 0.9)
    docs = {
        "raw_cm": {"cm": raw.tolist()},
        "standard_form": {"standard_form": {"a": a, "b": b, "c1": c1, "c2": c2}},
        "squeezed_thermal": {"family": "squeezed_thermal", "a": a_st, "b": b_st, "c": c_st},
        "werner_wolf": dict(zip(("A", "B", "C", "D", "E", "F"), ww), family="werner_wolf_2x2"),
        "multimode": {"family": "symmetric_multimode", "n": 3, "a": mm_a, "b": mm_a,
                      "c1": mm_c, "c2": mm_c},
        "ghz": {"family": "ghz", "n": 3, "a": ghz_a, "c": ghz_c},
        "witness": {"cm": witness_state.tolist()},
        "nongaussian": {"family": "ngpasg", "add": [1, 0], "sub": [0, 1],
                        "kernel": {"family": "squeezed_thermal", "a": nu * np.cosh(2 * r),
                                   "b": nu * np.cosh(2 * r), "c": nu * np.sinh(2 * r)}},
        "kernel": {"alpha": alpha, "r": kr},
    }
    fock_seed = int(rng.integers(0, 2**31))
    commands = [("check-gaussian", k, ["check-gaussian", "--input", f"{k}.json"])
                for k in ("raw_cm", "standard_form", "squeezed_thermal", "werner_wolf",
                          "multimode", "ghz")]
    commands += [
        ("witness-optimize", "witness", ["witness-optimize", "--input", "witness.json"]),
        ("check-nongaussian", "nongaussian",
         ["check-nongaussian", "--input", "nongaussian.json", "--schedule", "10,100,1000",
          "--output", "nongaussian.report.json"]),
        ("kernel-spectrum", "kernel", ["kernel-spectrum", "--input", "kernel.json"]),
        ("fock-iterate", "fock", ["fock-iterate", "--seed", str(fock_seed), "--cutoff", "6",
                                  "--output", "fock.report.json"]),
        ("sweep-fig2", "fig2", ["sweep-fig2", "--output", "fig2.csv"]),
    ]
    return docs, commands


class CliFailure(CVWitnessError):
    """A CLI command exited with a non-zero code."""


def run_child(argv, env, cwd, stdout_path):
    """Run a command to completion; returns (seconds, exit code, peak RSS in KiB)."""
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=subprocess.STDOUT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


class CliCold(Workload):
    chunks = 1

    def __init__(self, seed, workdir):
        self.workdir = workdir
        self.docs, self.commands = _cli_inputs(np.random.default_rng([seed, 4]))
        for name, doc in self.docs.items():
            with open(os.path.join(workdir, f"{name}.json"), "w") as fh:
                json.dump(doc, fh)
        self.tracer_script = None     # set to clitrace.py for traced rounds
        self.peak_rss_kb = 0          # largest untraced CLI process
        self.spans_files = []

    def round_ops(self, chunk):
        return [((sub, key), lambda sub=sub, key=key, argv=argv: self._run(sub, key, argv), 1)
                for sub, key, argv in self.commands]

    def _run(self, sub, key, argv):
        if self.tracer_script:
            spans = os.path.join(self.workdir, f"spans-{key}-{len(self.spans_files)}.json")
            self.spans_files.append(spans)
            env = dict(os.environ, PERFBENCH_SPANS=spans)
            cmd = [sys.executable, self.tracer_script] + argv
        else:
            env = None      # inherit
            cmd = [sys.executable, "-m", "cvwitness.cli"] + argv
        elapsed, code, rss = run_child(cmd, env, self.workdir,
                                       os.path.join(self.workdir, f"{key}.stdout"))
        if code != 0:
            raise CliFailure(f"{sub} exited with {code}")
        if not self.tracer_script:
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
        return elapsed

    def _stdout(self, key):
        with open(os.path.join(self.workdir, f"{key}.stdout")) as fh:
            return fh.read().splitlines()

    def report(self, kinds, rounds):
        out = [("cli_cycle_s", statistics.median(rounds), "s")]
        out += [(f"cli.{sub}_s", statistics.median(k[2]), "s") for sub, k in kinds.items()]
        return out

    def check(self, outputs, chk):
        if len(outputs) < len(self.commands):
            return      # a failed command is already a failed check
        margins = {}
        for key in ("raw_cm", "standard_form", "squeezed_thermal", "werner_wolf",
                    "multimode", "ghz", "witness"):
            rows = [line.split() for line in self._stdout(key)]
            chk(bool(rows) and all(len(r) == 4 and r[1] == "margin" for r in rows),
                f"check-gaussian output for {key}: {rows!r}")
            margins[key] = {r[0]: (float(r[2]), r[3]) for r in rows if len(r) == 4}
        for key, word in ((k, w) for k, v in margins.items() for _, w in v.values()):
            chk(word in ("entangled", "boundary", "satisfied"), f"{key}: word {word!r}")
        d = self.docs
        pt = {
            "raw_cm": ref.pt_min_symplectic(np.array(d["raw_cm"]["cm"]), [1]),
            "standard_form": ref.pt_min_symplectic(ref.standard_form_cm(
                *(d["standard_form"]["standard_form"][k] for k in ("a", "b", "c1", "c2"))), [1]),
            "squeezed_thermal": ref.pt_min_symplectic(ref.standard_form_cm(
                d["squeezed_thermal"]["a"], d["squeezed_thermal"]["b"],
                d["squeezed_thermal"]["c"], d["squeezed_thermal"]["c"]), [1]),
            "witness": ref.pt_min_symplectic(np.array(d["witness"]["cm"]), [1]),
        }
        for key in ("raw_cm", "standard_form", "squeezed_thermal"):
            for cid, (m, _) in margins[key].items():
                if abs(pt[key] - 1.0) > 1e-7:
                    chk((m < 0) == (pt[key] < 1.0),
                        f"{key}: {cid} margin {m:.3g} vs PPT eigenvalue {pt[key]:.6g}")
        for cid, (m, word) in margins["witness"].items():
            if word == "entangled":
                chk(pt["witness"] < 1.0, f"determinant_ratio {m:.3g} on a PPT state")
        chk(set(margins["werner_wolf"]) == {"werner_wolf_2x2"}, "werner-wolf criterion id")
        chk(set(margins["multimode"]) == {"multimode_symmetric_full_sep"}, "multimode id")
        chk(set(margins["ghz"]) == {"ghz_full_sep"}, "ghz criterion id")
        self._check_nongaussian(chk)
        self._check_kernel(chk)
        self._check_fock(chk)
        self._check_fig2(chk)

    def _check_nongaussian(self, chk):
        with open(os.path.join(self.workdir, "nongaussian.report.json")) as fh:
            rep = json.load(fh)
        sched = rep["schedule"]
        gaps = [abs(s["finite"] - s["limit"]) / s["limit"] for s in sched]
        chk(len(sched) == 3 and all(b < a for a, b in zip(gaps, gaps[1:])),
            f"check-nongaussian gaps do not shrink: {gaps}")
        k = self.docs["nongaussian"]["kernel"]
        g = ref.standard_form_cm(k["a"], k["b"], k["c"], k["c"])
        for s in sched:
            own = ref.gaussian_overlap(g, s["lambda"] * np.eye(4))
            chk(_rel(s["limit"], own) < 1e-12, f"check-nongaussian limit {s['limit']!r}")
        pt = ref.pt_min_symplectic(g, [1])
        margin = rep["criteria"][0]["margin"]
        if abs(pt - 1.0) > 1e-7:
            chk((margin < 0) == (pt < 1.0), f"check-nongaussian verdict {margin:.3g}, PPT {pt:.6g}")

    def _check_kernel(self, chk):
        k = self.docs["kernel"]
        rows = [line.split() for line in self._stdout("kernel")]
        mu0 = ref.kernel_eigenvalue(k["alpha"], k["r"], 0)
        chk(len(rows) == 10, f"kernel-spectrum printed {len(rows)} rows")
        for n, numeric, _ in rows:
            want = ref.kernel_eigenvalue(k["alpha"], k["r"], int(n))
            chk(abs(float(numeric) - want) <= 1e-8 * mu0,
                f"kernel-spectrum mu_{n} {numeric} vs closed form {want!r}")

    def _check_fock(self, chk):
        with open(os.path.join(self.workdir, "fock.report.json")) as fh:
            rep = json.load(fh)
        chk(rep["m0"] <= 1.0 + 1e-6 and rep["rounds"] >= 1,
            f"fock-iterate M0 {rep['m0']!r} rounds {rep['rounds']}")

    def _check_fig2(self, chk):
        with open(os.path.join(self.workdir, "fig2.csv")) as fh:
            rows = list(csv.DictReader(fh))
        chk(len(rows) == 99, f"sweep-fig2 wrote {len(rows)} rows")
        for row in rows:
            n_th, r = float(row["n_thermal"]), float(row["r"])
            edge = float(np.arctanh(n_th / (n_th + 1.0)))
            chk(abs(float(row["boundary_r"]) - edge) <= 1e-11 * max(1.0, edge),
                f"sweep-fig2 boundary {row['boundary_r']} vs atanh(N/(N+1)) {edge!r}")
            if abs(r - edge) > 1e-9:
                for col in ("margin_k1", "margin_k2"):
                    chk((float(row[col]) < 0) == (r > edge),
                        f"sweep-fig2 N={n_th:g} r={r:g}: {col} {row[col]} has the wrong sign")


# ---------------------------------------------------------- library mix

class LibraryMix(Workload):
    """gaussian-batch, fock-sweep and photon-traces in one loop.

    A round is one gaussian-batch round (about a third of the time),
    three fock-sweep rounds (a quarter) and one photon-traces round (the
    rest). Keys keep their kinds, so each part is checked and reported as
    in its own workload.
    """

    chunks = 3

    def __init__(self, seed, workdir, chunks=None):
        super().__init__(seed, workdir, chunks)
        self.gaussian = GaussianBatch(seed, workdir, self.chunks)
        self.fock = FockSweep(seed, workdir, 3 * self.chunks)
        self.photon = PhotonTraces(seed, workdir, self.chunks)
        self.parts = {"g": self.gaussian, "w": self.gaussian, "sweep": self.fock,
                      "large": self.fock, "pair": self.photon, "criterion": self.photon}

    def round_ops(self, chunk):
        ops = self.gaussian.round_ops(chunk)
        for c in range(3 * chunk, 3 * chunk + 3):
            ops += self.fock.round_ops(c)
        return ops + self.photon.round_ops(chunk)

    def expected_failure(self, key, exc):
        return self.parts[key[0]].expected_failure(key, exc)

    def check(self, outputs, chk):
        for part in (self.gaussian, self.fock, self.photon):
            part.check({k: v for k, v in outputs.items() if self.parts[k[0]] is part}, chk)

    def report(self, kinds, rounds):
        return [fig for part in (self.gaussian, self.fock, self.photon)
                for fig in part.report(kinds, rounds)]


WORKLOADS = {
    "cli-cold": CliCold,
    "library-mix": LibraryMix,
    "gaussian-batch": GaussianBatch,
    "fock-sweep": FockSweep,
    "photon-traces": PhotonTraces,
}
