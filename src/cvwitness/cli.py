"""Command-line front end.

Subcommands cover the closed-form criteria, the witness optimization, the
kernel spectrum oracle, the Fock iteration and the two sweep harnesses.
Verdicts are data: exit codes signal execution errors only.
"""

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import criteria, families, fock, kernelspec, nongaussian, witness
from .criteria import GHZParams, SymmetricMultimodeParams, WernerWolf2x2Params
from .errors import CVWitnessError, SchemaError, ValidationError
from .symplectic import CovarianceMatrix, StandardForm, validate_cm


def _require(doc, key, location):
    if not isinstance(doc, dict):
        raise SchemaError("expected a JSON object", location)
    if key not in doc:
        raise SchemaError(f"missing required key '{key}'", location)
    return doc[key]


def _is_number(v):
    """Whether v is a JSON number that fits a float (json also reads NaN and Infinity)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def _number(doc, key, location):
    v = _require(doc, key, location)
    if not _is_number(v):
        raise SchemaError(f"'{key}' must be a finite number", f"{location}/{key}")
    return float(v)


def _number_array(doc, key, default):
    """doc[key], or default when absent, checked to be an array of finite numbers."""
    values = doc.get(key, default)
    if not isinstance(values, list):
        raise SchemaError(f"'{key}' must be an array of finite numbers", f"/{key}")
    for i, v in enumerate(values):
        if not _is_number(v):
            raise SchemaError(f"'{key}' entries must be finite numbers", f"/{key}/{i}")
    return values


def _numbers(doc, keys, location):
    return [_number(doc, key, location) for key in keys]


def _validated(location, kind, *args):
    """kind(*args), built and validated; a failure becomes a SchemaError at location."""
    try:
        return kind(*args).validate()
    except (CVWitnessError, ValueError) as exc:
        raise SchemaError(f"invalid {kind.__name__}: {exc}", location)


def parse_state(doc, location=""):
    """Parse a JSON state description into a tagged model object.

    Accepts a raw CM, a two-mode standard form, a named family, or an
    ngpasg document with a nested kernel.
    """
    if not isinstance(doc, dict):
        raise SchemaError("state description must be a JSON object", location)
    if "cm" in doc:
        rows = doc["cm"]
        if not isinstance(rows, list) or not rows:
            raise SchemaError("'cm' must be a non-empty array of rows", f"{location}/cm")
        # json reads true/false as bool, an int subclass; NaN and Infinity go on to validate_cm
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                   for row in rows for v in (row if isinstance(row, list) else (row,))):
            raise SchemaError("'cm' entries must be numbers", f"{location}/cm")
        try:
            mat = np.array(rows, dtype=float)
        except (ValueError, OverflowError) as exc:
            raise SchemaError(f"'cm' is not numeric: {exc}", f"{location}/cm")
        try:
            return validate_cm(mat)
        except CVWitnessError as exc:
            raise SchemaError(f"invalid covariance matrix: {exc}", f"{location}/cm")
    if "standard_form" in doc:
        loc = f"{location}/standard_form"
        vals = _numbers(doc["standard_form"], ("a", "b", "c1", "c2"), loc)
        return _validated(loc, StandardForm, *vals)
    family = _require(doc, "family", location)
    if family in ("symmetric_multimode", "ghz"):
        n = _require(doc, "n", location)
        if not isinstance(n, int) or n < 2:
            raise SchemaError("'n' must be an integer >= 2", f"{location}/n")
    if family == "squeezed_thermal":
        a, b, c = _numbers(doc, ("a", "b", "c"), location)
        return _validated(location, StandardForm, a, b, c, c)
    if family == "symmetric_two_mode":
        a, c1, c2 = _numbers(doc, ("a", "c1", "c2"), location)
        return _validated(location, StandardForm, a, a, c1, c2)
    if family == "werner_wolf_2x2":
        return _validated(location, WernerWolf2x2Params, *_numbers(doc, "ABCDEF", location))
    if family == "symmetric_multimode":
        vals = _numbers(doc, ("a", "b", "c1", "c2"), location)
        return _validated(location, SymmetricMultimodeParams, n, *vals)
    if family == "ghz":
        return _validated(location, GHZParams, n, *_numbers(doc, ("a", "c"), location))
    if family == "ngpasg":
        kernel = parse_state(_require(doc, "kernel", location), f"{location}/kernel")
        if isinstance(kernel, StandardForm):
            kernel = CovarianceMatrix(entries=kernel.to_cm())  # validated as parsed
        if not isinstance(kernel, CovarianceMatrix):
            raise SchemaError("ngpasg kernel must resolve to a covariance matrix",
                              f"{location}/kernel")
        adds = _require(doc, "add", location)
        subs = _require(doc, "sub", location)
        for name, counts in (("add", adds), ("sub", subs)):
            # json reads true/false as bool, which is an int subclass
            if not isinstance(counts, list) or not all(
                isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in counts
            ):
                raise SchemaError(
                    f"'{name}' must be an array of non-negative integers",
                    f"{location}/{name}",
                )
        try:
            return nongaussian.NGPASGSpec(kernel=kernel, adds=tuple(adds), subs=tuple(subs))
        except ValueError as exc:
            raise SchemaError(str(exc), location)
    raise SchemaError(f"unknown family '{family}'", f"{location}/family")


def _verdict_entry(v):
    return {
        "criterion_id": v.criterion_id,
        "margin": v.margin,
        "classification": v.classification.value,
    }


def _emit_report(report, output):
    try:
        # JSON has no NaN or Infinity (RFC 8259), so a report holds finite numbers only
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValidationError("the report holds a number beyond float64 range") from None
    for entry in report.get("criteria", []):
        print(f"{entry['criterion_id']} margin {entry['margin']:.9g} "
              f"{entry['classification']}")
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")


def _load_input(path):
    with open(path) as fh:
        return json.load(fh)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([f"{v:.12g}" if isinstance(v, float) else v for v in row])


def cmd_check_gaussian(args):
    state = parse_state(_load_input(args.input))
    verdicts = criteria.decide(state)
    report = {
        "command": "check-gaussian",
        "criteria": [_verdict_entry(v) for v in verdicts],
    }
    if isinstance(state, StandardForm):
        report["standard_form"] = {"a": state.a, "b": state.b,
                                   "c1": state.c1, "c2": state.c2}
    if isinstance(state, CovarianceMatrix):
        report["cm"] = state.entries.tolist()
    _emit_report(report, args.output)
    return 0


def cmd_check_nongaussian(args):
    state = parse_state(_load_input(args.input))
    if not isinstance(state, nongaussian.NGPASGSpec):
        raise SchemaError("check-nongaussian expects an ngpasg state")
    if state.n != 2:
        raise SchemaError("check-nongaussian expects a two-mode kernel", "/kernel")
    v = nongaussian.photon_added_criterion(state)
    report = {
        "command": "check-nongaussian",
        "criteria": [_verdict_entry(v)],
        "adds": list(state.adds),
        "subs": list(state.subs),
    }
    if args.schedule:
        sched = []
        for lam in args.schedule:
            gm = lam * np.eye(2 * state.n)
            sched.append({
                "lambda": lam,
                "finite": nongaussian.ngpasg_trace_finite(state, gm),
                "limit": nongaussian.ngpasg_trace_limit(state, gm),
            })
        report["schedule"] = sched
    _emit_report(report, args.output)
    return 0


def cmd_witness_optimize(args):
    state = parse_state(_load_input(args.input))
    if not (isinstance(state, StandardForm)
            or isinstance(state, CovarianceMatrix) and state.n == 2):
        raise SchemaError("witness-optimize expects a two-mode CM or standard form")
    lval, best = witness.minimize_L(state)
    report = {
        "command": "witness-optimize",
        "criteria": [_verdict_entry(criteria.determinant_ratio(lval))],
        "L": lval,
    }
    if best is not None:
        report["detect"] = {"m1": best.m1, "m2": best.m2, "m3": best.m3,
                            "m4": best.m4, "m5": best.m5, "m6": best.m6}
    _emit_report(report, args.output)
    return 0


def cmd_kernel_spectrum(args):
    doc = _load_input(args.input)
    alpha, r = _numbers(doc, ("alpha", "r"), "")
    try:
        k = kernelspec.KernelSpec(alpha=alpha, r=r)
    except ValueError as exc:
        raise SchemaError(f"invalid KernelSpec: {exc}")
    vals = kernelspec.nystrom_spectrum(k)
    if args.cutoff > len(vals):
        raise SchemaError(f"--cutoff {args.cutoff} exceeds the {len(vals)} Nystrom eigenvalues")
    rows = [
        (n, float(vals[n]), kernelspec.analytic_eigenvalue(k, n))
        for n in range(args.cutoff)
    ]
    if args.output:
        _write_csv(args.output, ["n", "nystrom", "analytic"], rows)
    for n, numeric, analytic in rows:
        print(f"{n} {numeric:.9g} {analytic:.9g}")
    return 0


def cmd_fock_iterate(args):
    d = fock.iteration_detect(fock.random_detect_operator(args.seed))
    op = fock.fock_elements(d, args.cutoff)
    res = fock.alternate_maximize(op, seed=args.seed)
    report = {
        "command": "fock-iterate",
        "seed": args.seed,
        "cutoff": args.cutoff,
        "m0": res.m0,
        "rounds": res.rounds,
        "converged": res.converged,
        "photon_trace": list(res.photon_trace),
        "detect": {"m1": d.m1, "m2": d.m2, "m3": d.m3,
                   "m4": d.m4, "m5": d.m5, "m6": d.m6},
    }
    print(f"m0 {res.m0:.9g} rounds {res.rounds} converged {res.converged}")
    _emit_report(report, args.output)
    return 0


def cmd_sweep_fig1(args):
    rows, failures = fock.sweep_fig1(args.samples, cutoff=args.cutoff, seed=args.seed)
    _write_csv(
        args.output,
        ["seed", "avg_photon", "m0", "rounds", "converged"],
        [(r.seed, r.avg_photon, r.m0, r.rounds, int(r.converged)) for r in rows],
    )
    if failures:
        _write_csv(
            args.output + ".failures.csv",
            ["seed", "m1", "m2", "m3", "m4", "m5", "m6", "m0"],
            [(s, d.m1, d.m2, d.m3, d.m4, d.m5, d.m6, m0) for s, d, m0 in failures],
        )
        print(f"warning: {len(failures)} vacuum-optimality counterexamples recorded",
              file=sys.stderr)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _fig2_row(n_th, r):
    """The sweep-fig2 row of one grid point: n, r, the boundary, the k = 1, 2 margins.
    Photon counts leave the verdict alone, so one kernel verdict fills both columns."""
    margin = criteria.kernel_verdict(families.symmetric_squeezed_thermal(n_th, r)).margin
    return (float(n_th), float(r), nongaussian.fig2a_boundary(n_th), margin, margin)


def cmd_sweep_fig2(args):
    doc = _load_input(args.input) if args.input else {}
    if not isinstance(doc, dict):
        raise SchemaError("the sweep grid must be a JSON object")
    n_values = _number_array(doc, "n_values", [0.25 * i for i in range(9)])
    r_values = _number_array(doc, "r_values", [0.1 * i for i in range(11)])
    for i, n_th in enumerate(n_values):
        if n_th < 0:
            raise SchemaError("thermal photon numbers must be >= 0", f"/n_values/{i}")
    rows = []
    # a grid point whose kernel or margins overflow float64 is an input error
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        for i, n_th in enumerate(n_values):
            for j, r in enumerate(r_values):
                try:
                    rows.append(_fig2_row(n_th, r))
                except FloatingPointError as exc:
                    raise SchemaError(f"grid point /n_values/{i}, /r_values/{j} "
                                      f"is beyond float64 range: {exc}")
    _write_csv(args.output,
               ["n_thermal", "r", "boundary_r", "margin_k1", "margin_k2"], rows)
    print(f"wrote {len(rows)} rows to {args.output}")
    return 0


def _parse_schedule(text):
    try:
        lams = [float(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError("schedule must be comma-separated numbers")
    # a detect operator lambda * I needs a finite lambda > 0
    if not all(0.0 < lam < math.inf for lam in lams):
        raise argparse.ArgumentTypeError("schedule values must be finite and positive")
    return lams


def _int_at_least(lo):
    """argparse type for an integer flag of at least lo."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be an integer >= {lo}")
        return value
    return parse


_FLAG_TYPES = {"seed": _int_at_least(0), "cutoff": _int_at_least(1),
               "samples": _int_at_least(1), "schedule": _parse_schedule}

# the default of a flag its subcommand cannot run without
_REQUIRED = object()

# each subcommand declares only the flags its handler reads, each with its default
_COMMANDS = {
    "check-gaussian": (cmd_check_gaussian, {"input": _REQUIRED, "output": None}),
    "check-nongaussian": (cmd_check_nongaussian,
                          {"input": _REQUIRED, "output": None, "schedule": None}),
    "witness-optimize": (cmd_witness_optimize, {"input": _REQUIRED, "output": None}),
    "kernel-spectrum": (cmd_kernel_spectrum, {"input": _REQUIRED, "output": None, "cutoff": 10}),
    "fock-iterate": (cmd_fock_iterate, {"seed": _REQUIRED, "cutoff": 6, "output": None}),
    "sweep-fig1": (cmd_sweep_fig1,
                   {"seed": _REQUIRED, "output": _REQUIRED, "samples": 200, "cutoff": 6}),
    "sweep-fig2": (cmd_sweep_fig2, {"input": None, "output": _REQUIRED}),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cvwitness",
        description="entanglement criteria for Gaussian and photon-added states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        for flag, default in flags.items():
            p.add_argument(f"--{flag}", type=_FLAG_TYPES.get(flag), default=default)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for flag, value in vars(args).items():
            if value is _REQUIRED:
                raise SchemaError(f"{args.command} requires --{flag}")
        return args.handler(args)
    except CVWitnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
