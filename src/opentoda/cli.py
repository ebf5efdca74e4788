"""Command-line surface: `toda transform|evolve|bracket|verify|demo`.

States travel as JSON envelopes {"kind", "n", "payload", "meta"} with kind
one of phase | jacobi | spectral. Exit codes: 0 success, 1 failed property,
2 input validation (any other TodaError), 3 numerical blow-up (any
errors.NumericalFailure). Reports are byte-deterministic under a fixed --seed.
This module parses, dispatches and prints; the verify suites and their
properties live in properties.py.
"""

import argparse
import contextlib
import json
import sys

import numpy as np

from . import __version__, conventions_hash
from .brackets import WeightFn, bracket_terms, closed_form_bracket
from .errors import NumericalFailure, OverflowGuard, TodaError
from .flows import _METHODS, FlowSpec, Rows, evolve
from .floattext import write_rows
from .properties import (
    WORKED_TOL,
    Draws,
    suite_casimirs,
    suite_darboux,
    suite_hierarchy,
    suite_jacobi,
    suite_roundtrip,
    worked_example,
)
from .spectral import SpectralData, _require_normalized, to_jacobi, to_spectral
from .tridiag import JacobiMatrix, PhasePoint, unflaschka


# ---------------------------------------------------------------------------
# envelopes

_KINDS = {PhasePoint: "phase", JacobiMatrix: "jacobi", SpectralData: "spectral"}


def make_envelope(obj):
    kind = _KINDS.get(type(obj))
    if kind is None:
        raise TypeError(f"cannot wrap {type(obj).__name__}")
    return {
        "kind": kind,
        "n": obj.n,
        "payload": obj.as_dict(),
        "meta": {"version": __version__, "conventions": conventions_hash()},
    }


def parse_envelope(doc):
    try:
        kind = doc["kind"]
        n = doc["n"]
        payload = doc["payload"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed envelope: {exc}") from None
    # a JSON integer only: int() would truncate 2.7, parse "2" and read true as 1
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"malformed envelope: n must be an integer, not {n!r}")
    if n < 1:
        raise ValueError(f"malformed envelope: n must be at least 1, not {n}")
    if not isinstance(payload, dict):
        raise ValueError("malformed envelope: payload must be an object")
    meta = doc.get("meta")
    theirs = meta.get("conventions") if isinstance(meta, dict) else None
    if theirs is not None and theirs != conventions_hash():
        raise ValueError(
            f"envelope conventions {theirs!r} differ from this package's {conventions_hash()!r}"
        )
    def arr(key, length):
        raw = payload.get(key)
        if raw is None:
            raise ValueError(f"envelope payload missing {key!r}")
        # JSON numbers only: asarray would read true as 1, "2" as 2 and null as NaN
        if not isinstance(raw, list) or not all(
            isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw
        ):
            raise ValueError(f"malformed envelope: payload {key!r} must be a list of numbers")
        try:
            a = np.asarray(raw, dtype=float)
        except OverflowError as exc:
            raise ValueError(f"malformed envelope: payload {key!r}: {exc}") from None
        if a.shape != (length,):
            raise ValueError(f"payload {key!r} must have length {length}")
        return a
    if kind == "phase":
        return PhasePoint(q=arr("q", n), p=arr("p", n))
    if kind == "jacobi":
        return JacobiMatrix(v=arr("v", n), c=arr("c", n - 1))
    if kind == "spectral":
        return SpectralData(z=arr("z", n), rho=arr("rho", n))
    raise ValueError(f"unknown envelope kind {kind!r}")


def load_envelope(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path) as fh:
        return json.load(fh)


def dump_json(doc, stream):
    """Write doc as `json.dump(doc, stream, sort_keys=True, separators=(",",
    ": "), indent=1)` would, plus a newline, byte for byte, with a numpy
    array written as its nested list `a.tolist()` and a flows.Rows as the
    nested list of its rows.

    Dicts are walked here. A non-empty 1-D float64 array goes to
    floattext.write_rows, which prints its numbers as json does, a pass at
    a time, and so does a Rows, its head encoded once into the text that
    opens every row and its rows taken a pass at a time; either is
    taken only as doc itself or as a value of a dict. Any other value is
    small (envelopes, reports, bracket documents) and goes to json.dumps,
    its lines indented to its depth.
    """

    def write(value, pad):
        inner = pad + " "
        if isinstance(value, Rows):
            write_matrix(value, pad)
        elif isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64 and value.size:
            stream.write("[\n" + inner)
            write_rows(
                stream, value.size, lambda lo, hi: [value[lo:hi]], [",\n" + inner], "json",
                end="\n" + pad + "]",
            )
        elif isinstance(value, dict) and value:
            sep = "{\n" + inner
            for key, item in sorted(value.items()):
                # json turns a key that is not a string into the text of its value
                stream.write(sep + json.dumps(key if isinstance(key, str) else json.dumps(key)) + ": ")
                write(item, inner)
                sep = ",\n" + inner
            stream.write("\n" + pad + "}")
        else:
            text = json.dumps(
                value, indent=1, sort_keys=True, separators=(",", ": "), default=np.ndarray.tolist
            )
            stream.write(text.replace("\n", "\n" + pad))

    def write_matrix(rows, pad):
        inner = pad + " "
        item = ",\n" + inner + " "
        lead = "".join(json.dumps(x) + item for x in rows.head.tolist())
        close = "\n" + inner + "]"
        stream.write("[\n" + inner)
        write_rows(
            stream, rows.count, lambda lo, hi: [rows.take(lo, hi)],
            [item] * (rows.width - 1) + [close + ",\n" + inner],
            "json", lead="[" + item[1:] + lead, end=close + "\n" + pad + "]",
        )

    write(doc, "")
    stream.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_transform(args):
    obj = parse_envelope(load_envelope(args.input))
    # the transforms act on the normalized class, also where spectral data
    # would only be written back
    if isinstance(obj, SpectralData):
        _require_normalized(obj)
    target = args.to
    if target is None:
        target = "spectral" if args.direction == "forward" else "jacobi"
    if args.direction == "forward" and target not in ("jacobi", "spectral"):
        raise ValueError("forward targets are jacobi and spectral")
    if args.direction == "inverse" and target not in ("jacobi", "phase"):
        raise ValueError("inverse targets are jacobi and phase")
    if target == "spectral":
        out = to_spectral(obj)
    elif target == "jacobi":
        out = to_jacobi(obj)
    else:
        out = unflaschka(to_jacobi(obj), q0=args.q0)
    dump_json(make_envelope(out), sys.stdout)
    return 0


def cmd_evolve(args):
    """Run the flow (flows.evolve) and write its trajectory as CSV or JSON.

    evolve runs its checks before it returns, so a failing run raises
    before the output is opened and writes nothing. An exact trajectory
    evaluates its residues a pass at a time as the writers ask for them,
    so the run holds one pass of rows, whatever their number.
    """
    obj = parse_envelope(load_envelope(args.input))
    spec = FlowSpec(k=args.k, method=args.method, t_final=args.t, dt=args.dt, p=args.p)
    traj = evolve(obj, spec, record_every=args.record_every)
    with open(args.file, "w") if args.file != "-" else contextlib.nullcontext(sys.stdout) as stream:
        if args.out == "csv":
            traj.to_csv(stream)
        else:
            dump_json(traj.to_payload(), stream)
    return 0


def cmd_bracket(args):
    S = to_spectral(parse_envelope(load_envelope(args.input)))
    f = WeightFn.power(args.f)
    terms = bracket_terms(S, args.p, args.q, f, restricted=args.restricted)
    value = float(np.sum(terms))
    cf = None
    if args.f in (0, 1):
        cf = float(closed_form_bracket(S, args.p, args.q, f, restricted=args.restricted))
    if not np.all(np.isfinite([*terms, value, 0.0 if cf is None else cf])):
        raise OverflowGuard("bracket is not finite in double precision")
    doc = {
        "f": f.label,
        "p": args.p,
        "q": args.q,
        "restricted": bool(args.restricted),
        "value": value,
        "pole_breakdown": [
            {"z": float(z), "residue_term": float(t)} for z, t in zip(S.z, terms)
        ],
        "closed_form": cf,
    }
    if cf is not None:
        doc["closed_form_gap"] = abs(value - cf)
    dump_json(doc, sys.stdout)
    return 0


def cmd_demo(args):
    checks = worked_example()
    width = max(len(name) for name, _, _ in checks)
    ok = True
    for name, got, want in checks:
        got = np.atleast_1d(np.asarray(got, dtype=float))
        err = float(np.max(np.abs(got - np.asarray(want, dtype=float))))
        passed = err <= WORKED_TOL
        ok &= passed
        shown = ", ".join(f"{x:.12g}" for x in got)
        status = "ok" if passed else "FAIL"
        print(f"{name:<{width}}  [{shown}]  err={err:.2e}  {status}")
    print("demo:", "all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verification

_SUITES = {
    "roundtrip": suite_roundtrip,
    "jacobi": suite_jacobi,
    "hierarchy": suite_hierarchy,
    "darboux": suite_darboux,
    "casimirs": suite_casimirs,
}


def cmd_verify(args):
    if args.n < 1 or args.trials < 1:
        raise ValueError("--n and --trials must be at least 1")
    # trial sizes cycle through 1..n (roundtrip) and 2..n (the other suites)
    if args.trials < args.n:
        raise ValueError(f"--n {args.n} needs --trials {args.n} or more to reach size {args.n}")
    # random.Random would draw the stream of |seed| for a negative seed
    if args.seed < 0:
        raise ValueError(f"--seed must be at least 0, not {args.seed}")
    rng = Draws(args.seed)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    properties = []
    for name in names:
        for r in _SUITES[name](rng, args.n, args.trials):
            r["suite"] = name
            properties.append(r)
    ok = all(r["pass"] for r in properties)
    report = {
        "suite": args.suite,
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "properties": properties,
        "pass": ok,
    }
    dump_json(report, sys.stdout)
    width = max(len(r["property"]) for r in properties)
    for r in properties:
        status = "PASS" if r["pass"] else "FAIL"
        print(
            f"{r['suite']:>10}  {r['property']:<{width}}  cases={r['cases']:<4d}"
            f"  max={r['max_residual']:.3e}  tol={r['tol']:.1e}  {status}",
            file=sys.stderr,
        )
    print(
        f"verify: {'all properties passed' if ok else 'PROPERTY FAILURES'}",
        file=sys.stderr,
    )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser

def _with_config(args, argv):
    """argv with the --config file's entries spliced in right after the
    subcommand as --key=value flags (true as the bare flag, false left out),
    so argparse checks them as typed flags and flags typed later still win."""
    with open(args.config) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    # the namespace also holds the subcommand, its handler and its input
    known = set(vars(args)) - {"command", "fn", "input", "config"}
    flags = []
    for key, value in doc.items():
        if key.replace("-", "_") not in known:
            raise ValueError(f"config key {key!r} does not match any flag")
        if not isinstance(value, (str, int, float)):
            raise ValueError(f"config value of {key!r} must be a string, number or boolean")
        flag = "--" + key.replace("_", "-")
        if value is not False:
            flags.append(flag if value is True else f"{flag}={value}")
    return argv[:1] + flags + argv[1:]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="toda",
        description="Open Toda lattice: spectral transforms, bracket hierarchy, flows.",
    )
    parser.add_argument("--version", action="version", version=f"toda {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    tr = sub.add_parser("transform", help="convert between phase, jacobi, spectral")
    tr.add_argument("input", help="envelope JSON path, or - for stdin")
    tr.add_argument("--direction", choices=("forward", "inverse"), default="forward")
    tr.add_argument("--to", choices=("phase", "jacobi", "spectral"), default=None)
    tr.add_argument("--q0", type=float, default=0.0, help="gauge for the first position")
    tr.add_argument("--config", default=None)
    tr.set_defaults(fn=cmd_transform)

    ev = sub.add_parser("evolve", help="run a hierarchy flow")
    ev.add_argument("input")
    ev.add_argument("--k", type=int, default=1, help="hierarchy index")
    ev.add_argument("--t", type=float, default=1.0, help="final time")
    ev.add_argument("--method", choices=_METHODS, default="exact")
    ev.add_argument("--p", type=int, default=0, help="bracket index for rk4-hamiltonian")
    ev.add_argument("--dt", type=float, default=1e-3)
    ev.add_argument("--record-every", type=int, default=1)
    ev.add_argument("--out", choices=("csv", "json"), default="csv")
    ev.add_argument("--file", default="-", help="output path, - for stdout")
    ev.add_argument("--config", default=None)
    ev.set_defaults(fn=cmd_evolve)

    br = sub.add_parser("bracket", help="evaluate {chi(p), chi(q)} as residue sums")
    br.add_argument("input")
    br.add_argument("--f", type=int, default=0, help="weight power: f = z^n")
    br.add_argument("--p", type=float, required=True)
    br.add_argument("--q", type=float, required=True)
    br.add_argument("--restricted", action="store_true")
    br.add_argument("--config", default=None)
    br.set_defaults(fn=cmd_bracket)

    ve = sub.add_parser("verify", help="run the property suites")
    ve.add_argument("--suite", choices=(*_SUITES, "all"), default="all")
    ve.add_argument("--n", type=int, default=4)
    ve.add_argument("--trials", type=int, default=25)
    ve.add_argument("--seed", type=int, default=0)
    ve.add_argument("--config", default=None)
    ve.set_defaults(fn=cmd_verify)

    de = sub.add_parser("demo", help="walk the two-site worked example end to end")
    de.add_argument("--config", default=None)
    de.set_defaults(fn=cmd_demo)

    return parser


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            args = parser.parse_args(_with_config(args, argv))
        # numpy's warnings tell nothing: no NaN or inf passes the checks that
        # raise TodaError or fail a property (README, exit codes)
        with np.errstate(all="ignore"):
            return args.fn(args)
    except NumericalFailure as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3
    except (TodaError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
