"""Command-line surface: `toda transform|evolve|bracket|verify|demo`.

States travel as JSON envelopes {"kind", "n", "payload", "meta"} with kind
one of phase | jacobi | spectral. Exit codes: 0 success, 1 failed property,
2 input validation, 3 numerical blow-up. Reports are byte-deterministic
under a fixed --seed.
"""

import argparse
import contextlib
import json
import sys

import numpy as np

from . import __version__, conventions_hash
from .brackets import (
    WeightFn,
    bracket_terms,
    closed_form_bracket,
    jacobi_residual,
    pi_cv_indices,
    zrho_pack,
    zrho_restricted_tensor,
    zrho_tensor,
)
from .errors import ConvergenceFailure, NonFiniteState, OverflowGuard, TodaError
from .flows import (
    _METHODS,
    FlowSpec,
    RowBlocks,
    evolve,
    exact_flow,
    hamiltonian_field,
    lax_rhs,
)
from .floattext import write_rows
from .properties import (
    TOL,
    WORKED_TOL,
    action_angle_deviation,
    constraint_casimir_residuals,
    corrupt,
    cv_casimir_residuals,
    dirac_residuals,
    gamma_pi_deviation,
    iy_deviation,
    p_agreement_gaps,
    random_jacobi,
    random_spectral,
    restricted_flow_gap,
    roundtrip_gap,
    weyl_routes_gap,
    worked_example,
    zq_gap,
)
from .spectral import (
    SpectralData,
    direct_transform,
    inverse_transform,
    inverse_transform_stieltjes,
    to_jacobi,
    to_spectral,
)
from .tridiag import JacobiMatrix, PhasePoint, unflaschka

_BLOWUP = (OverflowGuard, NonFiniteState, ConvergenceFailure)


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
        try:
            a = np.asarray(raw, dtype=float)
        except (TypeError, ValueError) as exc:
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
    array written as its nested list `a.tolist()` and a flows.RowBlocks as
    the nested list of its rows.

    Dicts are walked here. A non-empty 1-D float64 array goes to
    floattext.write_rows, which prints its numbers as json does, a block at
    a time, and so does a RowBlocks, its head encoded once into the text
    that opens every row and its blocks written as they come; either is
    taken only as doc itself or as a value of a dict. Any other value is
    small (envelopes, reports, bracket documents) and goes to json.dumps,
    its lines indented to its depth.
    """

    def write(value, pad):
        inner = pad + " "
        if isinstance(value, RowBlocks):
            write_matrix(value, pad)
        elif isinstance(value, np.ndarray) and value.ndim == 1 and value.dtype == np.float64 and value.size:
            stream.write("[\n" + inner)
            write_rows(stream, [[value]], [",\n" + inner], "json", end="\n" + pad + "]")
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
        head, blocks = rows.head, ([block] for block in rows.blocks)
        if not rows.width:
            # the kernel prints at least one number of each row: the last of head
            head = head[:-1]
            blocks = ([np.full(len(block), rows.head[-1])] for block in rows.blocks)
        lead = "".join(json.dumps(x) + item for x in head.tolist())
        close = "\n" + inner + "]"
        stream.write("[\n" + inner)
        write_rows(
            stream, blocks, [item] * (max(rows.width, 1) - 1) + [close + ",\n" + inner],
            "json", lead="[" + item[1:] + lead, end=close + "\n" + pad + "]",
        )

    write(doc, "")
    stream.write("\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_transform(args):
    obj = parse_envelope(load_envelope(args.input))
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
    evaluates its residues a block at a time as the writers ask for them,
    so the run holds one block of rows, whatever their number.
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
    # an overflow surfaces as the OverflowGuard below, not as numpy warnings
    with np.errstate(all="ignore"):
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
# verification suites

def _prop(name, residuals, cases):
    worst = float(np.max(residuals)) if len(residuals) else 0.0
    return {
        "property": name,
        "cases": cases,
        "max_residual": worst,
        "tol": TOL[name],
        "pass": bool(worst <= TOL[name]),
    }


def _trial_size(trial, n):
    """Matrix size of a trial: 2, 3, .., n in turn (2 alone for n <= 2)."""
    return 2 + trial % max(1, n - 1)


def suite_roundtrip(rng, n, trials):
    lanczos, stieltjes, weyl, mass = [], [], [], []
    for trial in range(trials):
        size = 1 + trial % n
        J = random_jacobi(rng, size)
        S = direct_transform(J)
        lanczos.append(roundtrip_gap(J, inverse_transform(S)))
        stieltjes.append(roundtrip_gap(J, inverse_transform_stieltjes(S)))
        mass.append(abs(float(np.sum(S.rho)) - 1.0))
        if size > 1:
            weyl.append(weyl_routes_gap(S, J, 3.0 + float(np.max(np.abs(S.z)))))
    return [
        _prop("roundtrip_lanczos", lanczos, trials),
        _prop("roundtrip_stieltjes", stieltjes, trials),
        _prop("weyl_three_routes", weyl, len(weyl)),
        _prop("residue_mass", mass, trials),
    ]


def suite_jacobi(rng, n, trials, negative=False):
    weights = [WeightFn.power(m) for m in range(4)]
    unres, res, dirac_gap, unit = [], [], [], []
    for trial in range(trials):
        size = _trial_size(trial, n)
        S = random_spectral(rng, size)
        x = zrho_pack(S)
        f = weights[trial % 4]
        P = zrho_tensor(f, size)
        if negative:
            P = corrupt(P)
        unres.append(jacobi_residual(P, x))
        res.append(jacobi_residual(zrho_restricted_tensor(f, size), x))
        # constraint pairings for powers >= 1 carry 1/f gradients; those run
        # on the positive-spectrum states of the second loop
        if f.power_n == 0:
            gap, pair = dirac_residuals(f, S)
            dirac_gap.append(gap)
            unit.append(pair)
    for trial in range(trials):
        size = _trial_size(trial, n)
        S = random_spectral(rng, size, positive=True)
        gap, pair = dirac_residuals(weights[trial % 3 + 1], S)
        dirac_gap.append(gap)
        unit.append(pair)
    return [
        _prop("jacobi_identity", unres, trials),
        _prop("jacobi_identity_restricted", res, trials),
        _prop("dirac_matches_closed_form", dirac_gap, len(dirac_gap)),
        _prop("constraint_bracket_unit", unit, len(unit)),
    ]


def suite_hierarchy(rng, n, trials):
    pmatch, laxmatch, specmatch, semigroup = [], [], [], []
    for trial in range(trials):
        size = _trial_size(trial, n)
        J = random_jacobi(rng, size)
        k = 1 + trial % 3
        pmatch.extend(p_agreement_gaps(J, k))
        field = np.concatenate(hamiltonian_field(J, k, 0))
        gap = float(np.max(np.abs(np.concatenate(lax_rhs(J, k)) - field)))
        laxmatch.append(gap / (1.0 + float(np.max(np.abs(field)))))
        S = random_spectral(rng, size)
        for p in pi_cv_indices(k):
            specmatch.append(restricted_flow_gap(S, k, p))
        t1 = 0.3 + 0.1 * (trial % 3)
        t2 = 0.7
        A = exact_flow(exact_flow(S, k, t1), k, t2)
        B = exact_flow(S, k, t1 + t2)
        semigroup.append(float(np.max(np.abs(A.rho - B.rho))))
    return [
        _prop("hamiltonian_field_p_agreement", pmatch, len(pmatch)),
        _prop("lax_matches_hamiltonian", laxmatch, trials),
        _prop("restricted_tensor_flow", specmatch, len(specmatch)),
        _prop("exact_flow_semigroup", semigroup, trials),
    ]


def suite_darboux(rng, n, trials):
    # FD truncation in the chart Jacobians grows like h^2/gap^3; the wider
    # gap floor keeps that term under the 1e-6 canonicality tolerance
    iy, aa, gp, zq = [], [], [], []
    for trial in range(trials):
        size = _trial_size(trial, n)
        S = random_spectral(rng, size, min_gap=0.4, rho_floor=0.05)
        iy.append(iy_deviation(WeightFn.power(0), S))
        Sp = random_spectral(rng, size, positive=True, min_gap=0.4, rho_floor=0.05)
        iy.append(iy_deviation(WeightFn.power(1), Sp))
        aa.append(action_angle_deviation(S))
        gp.append(gamma_pi_deviation(S))
        zq.append(zq_gap(S))
    return [
        _prop("iy_canonical", iy, len(iy)),
        _prop("action_angle_canonical", aa, trials),
        _prop("gamma_pi_canonical", gp, trials),
        _prop("zq_relations", zq, trials),
    ]


def suite_casimirs(rng, n, trials):
    tr_res, det_res, inv_res, phi_res = [], [], [], []
    for trial in range(trials):
        size = _trial_size(trial, n)
        J = random_jacobi(rng, size)
        for residuals, r in zip((tr_res, det_res, inv_res), cv_casimir_residuals(J)):
            residuals.append(r)
        for m, positive in ((0, False), (1, True), (2, True)):
            S = random_spectral(rng, size, positive=positive)
            phi_res.extend(constraint_casimir_residuals(WeightFn.power(m), S))
    return [
        _prop("pi0_trace_casimir", tr_res, trials),
        _prop("pi1_det_casimir", det_res, trials),
        _prop("pi2_trace_inverse_casimir", inv_res, trials),
        _prop("restricted_constraint_casimirs", phi_res, len(phi_res)),
    ]


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
    rng = np.random.default_rng(args.seed)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    properties = []
    for name in names:
        # only the jacobi suite has a negative control
        extra = {"negative": args.negative_control} if name == "jacobi" else {}
        for r in _SUITES[name](rng, args.n, args.trials, **extra):
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
    flags = []
    for key, value in doc.items():
        if not hasattr(args, key.replace("-", "_")):
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
    ve.add_argument("--negative-control", action="store_true", help=argparse.SUPPRESS)
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
        return args.fn(args)
    except _BLOWUP as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3
    except (TodaError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
