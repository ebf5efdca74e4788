"""Command-line surface: `toda transform|evolve|bracket|verify|demo`.

States travel as JSON envelopes {"kind", "n", "payload", "meta"} with kind
one of phase | jacobi | spectral. Exit codes: 0 success, 1 failed property,
2 input validation, 3 numerical blow-up. Reports are byte-deterministic
under a fixed --seed.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__, conventions_hash
from .brackets import (
    Observable,
    PoissonStructure,
    WeightFn,
    action_sum,
    bracket_terms,
    casimir_residual,
    closed_form_bracket,
    cv_pack,
    dirac_restrict,
    fd_gradient,
    jacobi_residual,
    neg_log_mass,
    pi0_cv,
    pi1_cv,
    pi2_cv,
    pushforward,
    zrho_pack,
    zrho_restricted_tensor,
    zrho_tensor,
)
from .charts import (
    action_angle_map,
    gamma_pi_map,
    iy_map,
    numerator_values,
    verify_canonical,
    zq_map,
)
from .errors import (
    ConvergenceFailure,
    NonFiniteState,
    OverflowGuard,
    TodaError,
)
from .flows import FlowSpec, evolve, exact_flow, hamiltonian_field, lax_rhs, spectral_field
from .spectral import (
    SpectralData,
    direct_transform,
    gammas,
    inverse_transform,
    inverse_transform_stieltjes,
    weyl_eval,
    weyl_rat,
)
from .tridiag import JacobiMatrix, PhasePoint, flaschka, pq_polynomials, unflaschka

_BLOWUP = (OverflowGuard, NonFiniteState, ConvergenceFailure)


# ---------------------------------------------------------------------------
# envelopes

def make_envelope(obj):
    if isinstance(obj, PhasePoint):
        kind, payload = "phase", {"q": obj.q.tolist(), "p": obj.p.tolist()}
    elif isinstance(obj, JacobiMatrix):
        kind, payload = "jacobi", {"v": obj.v.tolist(), "c": obj.c.tolist()}
    elif isinstance(obj, SpectralData):
        kind, payload = "spectral", {"z": obj.z.tolist(), "rho": obj.rho.tolist()}
    else:
        raise TypeError(f"cannot wrap {type(obj).__name__}")
    return {
        "kind": kind,
        "n": obj.n,
        "payload": payload,
        "meta": {"version": __version__, "conventions": conventions_hash()},
    }


def parse_envelope(doc):
    try:
        kind = doc["kind"]
        n = int(doc["n"])
        payload = doc["payload"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed envelope: {exc}") from None
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
        a = np.asarray(raw, dtype=float)
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
    json.dump(doc, stream, sort_keys=True, separators=(",", ": "), indent=1)
    stream.write("\n")


def to_jacobi(obj):
    if isinstance(obj, PhasePoint):
        return flaschka(obj)
    if isinstance(obj, SpectralData):
        return inverse_transform(obj)
    return obj


def to_spectral(obj):
    if isinstance(obj, SpectralData):
        return obj
    return direct_transform(to_jacobi(obj))


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
    obj = parse_envelope(load_envelope(args.input))
    spec = FlowSpec(k=args.k, method=args.method, t_final=args.t, dt=args.dt, p=args.p)
    if spec.method == "exact":
        obj = to_spectral(obj)
    else:
        obj = to_jacobi(obj)
    try:
        traj = evolve(obj, spec, record_every=args.record_every)
    except _BLOWUP as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3
    if args.file == "-":
        stream = sys.stdout
        close = False
    else:
        stream = open(args.file, "w")
        close = True
    try:
        if args.out == "csv":
            traj.to_csv(stream)
        else:
            dump_json(traj.to_payload(), stream)
    finally:
        if close:
            stream.close()
    return 0


def cmd_bracket(args):
    S = to_spectral(parse_envelope(load_envelope(args.input)))
    f = WeightFn.power(args.f)
    terms = bracket_terms(S, args.p, args.q, f, restricted=args.restricted)
    value = float(np.sum(terms))
    doc = {
        "f": f.label,
        "p": args.p,
        "q": args.q,
        "restricted": bool(args.restricted),
        "value": value,
        "pole_breakdown": [
            {"z": float(z), "residue_term": float(t)} for z, t in zip(S.z, terms)
        ],
        "closed_form": None,
    }
    if args.f in (0, 1):
        cf = closed_form_bracket(S, args.p, args.q, f, restricted=args.restricted)
        doc["closed_form"] = float(cf)
        doc["closed_form_gap"] = abs(value - float(cf))
    dump_json(doc, sys.stdout)
    return 0


def cmd_demo(args):
    checks = []

    def check(name, got, want, tol=1e-12):
        got = np.atleast_1d(np.asarray(got, dtype=float))
        want = np.atleast_1d(np.asarray(want, dtype=float))
        err = float(np.max(np.abs(got - want)))
        checks.append((name, got, err, err <= tol))

    pt = PhasePoint(q=np.zeros(2), p=np.zeros(2))
    J = flaschka(pt)
    check("flaschka v", J.v, [0.0, 0.0])
    check("flaschka c", J.c, [1.0])
    S = direct_transform(J)
    check("spectrum z", S.z, [-1.0, 1.0])
    check("residues rho", S.rho, [0.5, 0.5])
    g, q0 = gammas(S)
    check("numerator root gamma", g, [0.0])
    check("total mass q0", q0, 1.0)
    check("weyl at 2", weyl_eval(S, 2.0), -2.0 / 3.0)
    f1 = WeightFn.power(0)
    check(
        "bracket f=1 p=2 q=3",
        float(np.sum(bracket_terms(S, 2.0, 3.0, f1))),
        -49.0 / 576.0,
    )
    check(
        "restricted bracket f=1 p=2 q=3",
        float(np.sum(bracket_terms(S, 2.0, 3.0, f1, restricted=True))),
        -7.0 / 576.0,
    )
    St = exact_flow(S, 1, float(np.log(2.0)))
    check("flow at t=ln 2", St.rho, [0.2, 0.8])
    Jb = inverse_transform(S)
    check("inverse v", Jb.v, J.v)
    check("inverse c", Jb.c, J.c)

    width = max(len(name) for name, *_ in checks)
    ok = True
    for name, got, err, passed in checks:
        ok &= passed
        shown = ", ".join(f"{x:.12g}" for x in got)
        status = "ok" if passed else "FAIL"
        print(f"{name:<{width}}  [{shown}]  err={err:.2e}  {status}")
    print("demo:", "all checks passed" if ok else "CHECKS FAILED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# verification suites

def _rand_spectral(rng, n, positive=False, min_gap=0.05, rho_floor=1e-2):
    lo, hi = (0.5, 6.0) if positive else (-3.0, 3.0)
    while True:
        z = np.sort(rng.uniform(lo, hi, size=n))
        if n == 1 or float(np.min(np.diff(z))) >= min_gap:
            break
    # the residue floor keeps 1/rho truncation terms of the FD-based checks
    # bounded; it conditions the flat simplex draw, nothing more
    while True:
        rho = rng.dirichlet(np.ones(n))
        if n == 1 or float(rho.min()) >= rho_floor:
            break
    return SpectralData(z=z, rho=rho)


def _rand_jacobi(rng, n):
    v = rng.uniform(-3.0, 3.0, size=n)
    c = rng.uniform(0.1, 3.0, size=n - 1)
    return JacobiMatrix(v=v, c=c)


def _prop(name, residuals, tol, cases):
    worst = float(np.max(residuals)) if len(residuals) else 0.0
    return {
        "property": name,
        "cases": cases,
        "max_residual": worst,
        "tol": tol,
        "pass": bool(worst <= tol),
    }


def suite_roundtrip(rng, n, trials):
    lanczos, stieltjes, weyl3, mass = [], [], [], []
    for trial in range(trials):
        size = 1 + trial % n
        J = _rand_jacobi(rng, size)
        scale = 1.0 + max(
            float(np.max(np.abs(J.v))), float(np.max(J.c)) if size > 1 else 0.0
        )
        S = direct_transform(J)
        Jb = inverse_transform(S)
        err = max(
            float(np.max(np.abs(Jb.v - J.v))),
            float(np.max(np.abs(Jb.c - J.c))) if size > 1 else 0.0,
        )
        lanczos.append(err / scale)
        Js = inverse_transform_stieltjes(S)
        err = max(
            float(np.max(np.abs(Js.v - J.v))),
            float(np.max(np.abs(Js.c - J.c))) if size > 1 else 0.0,
        )
        stieltjes.append(err / scale)
        mass.append(abs(float(np.sum(S.rho)) - 1.0))
        if size > 1:
            x = 3.0 + float(np.max(np.abs(S.z)))
            a = weyl_eval(S, x)
            b = weyl_rat(S)(x)
            P, Q = pq_polynomials(J, np.array([x]))
            c_ = -Q[-1][0] / P[-1][0]
            ref = max(abs(a), 1e-30)
            weyl3.append(max(abs(a - b), abs(a - c_)) / ref)
    return [
        _prop("roundtrip_lanczos", lanczos, 1e-10, trials),
        _prop("roundtrip_stieltjes", stieltjes, 1e-8, trials),
        _prop("weyl_three_routes", weyl3, 1e-8, len(weyl3)),
        _prop("residue_mass", mass, 1e-10, trials),
    ]


def _corrupt(P):
    base = P.tensor_fn

    def tensor(x):
        T = base(x)
        T = T.copy()
        T[0, 1] += 1.0
        T[1, 0] -= 1.0
        return T

    return PoissonStructure(
        chart=P.chart, name=P.name + "_corrupted", tensor_fn=tensor, f=P.f,
        restricted=P.restricted,
    )


def suite_jacobi(rng, n, trials, negative=False):
    weights = [WeightFn.power(m) for m in range(4)]
    unres, res, dirac_gap, unit = [], [], [], []
    for trial in range(trials):
        size = 2 + trial % max(1, n - 1)
        S = _rand_spectral(rng, size)
        x = zrho_pack(S)
        f = weights[trial % 4]
        P = zrho_tensor(f, size)
        if negative:
            P = _corrupt(P)
        unres.append(jacobi_residual(P, x))
        R = zrho_restricted_tensor(f, size)
        res.append(jacobi_residual(R, x))
        # constraint pairings for powers >= 1 carry 1/f gradients; those run
        # on the positive-spectrum states of the second loop
        if f.power_n == 0:
            D = dirac_restrict(zrho_tensor(f, size), action_sum(f, size), neg_log_mass(size))
            dirac_gap.append(float(np.max(np.abs(D.tensor(x) - R.tensor(x)))))
            g1 = action_sum(f, size).gradient(x)
            g2 = neg_log_mass(size).gradient(x)
            unit.append(abs(float(g1 @ zrho_tensor(f, size).tensor(x) @ g2) - 1.0))
    for trial in range(trials):
        size = 2 + trial % max(1, n - 1)
        S = _rand_spectral(rng, size, positive=True)
        x = zrho_pack(S)
        f = weights[trial % 3 + 1]
        D = dirac_restrict(zrho_tensor(f, size), action_sum(f, size), neg_log_mass(size))
        R = zrho_restricted_tensor(f, size)
        dirac_gap.append(float(np.max(np.abs(D.tensor(x) - R.tensor(x)))))
        g1 = action_sum(f, size).gradient(x)
        g2 = neg_log_mass(size).gradient(x)
        unit.append(abs(float(g1 @ zrho_tensor(f, size).tensor(x) @ g2) - 1.0))
    return [
        _prop("jacobi_identity", unres, 1e-6, trials),
        _prop("jacobi_identity_restricted", res, 1e-6, trials),
        _prop("dirac_matches_closed_form", dirac_gap, 1e-10, len(dirac_gap)),
        _prop("constraint_bracket_unit", unit, 1e-9, len(unit)),
    ]


def suite_hierarchy(rng, n, trials):
    pmatch, laxmatch, specmatch, semigroup = [], [], [], []
    for trial in range(trials):
        size = 2 + trial % max(1, n - 1)
        J = _rand_jacobi(rng, size)
        k = 1 + trial % 3
        fields = []
        for p in range(min(k, 2) + 1):
            vdot, cdot = hamiltonian_field(J, k, p)
            fields.append(np.concatenate([vdot, cdot]))
        ref = 1.0 + float(np.max(np.abs(fields[0])))
        for other in fields[1:]:
            pmatch.append(float(np.max(np.abs(other - fields[0]))) / ref)
        vdot, cdot = lax_rhs(J, k)
        laxmatch.append(
            float(np.max(np.abs(np.concatenate([vdot, cdot]) - fields[0]))) / ref
        )
        S = _rand_spectral(rng, size)
        zdot, rhodot = spectral_field(S, k)
        x = zrho_pack(S)
        for p in range(min(k, 2) + 1):
            f = WeightFn.power(p)
            T = zrho_restricted_tensor(f, size).tensor(x)
            g = np.zeros(2 * size)
            g[:size] = S.z ** (k - p)
            xdot = T @ g
            specmatch.append(
                float(np.max(np.abs(xdot - np.concatenate([zdot, rhodot]))))
            )
        t1 = 0.3 + 0.1 * (trial % 3)
        t2 = 0.7
        A = exact_flow(exact_flow(S, k, t1), k, t2)
        B = exact_flow(S, k, t1 + t2)
        semigroup.append(float(np.max(np.abs(A.rho - B.rho))))
    return [
        _prop("hamiltonian_field_p_agreement", pmatch, 1e-10, len(pmatch)),
        _prop("lax_matches_hamiltonian", laxmatch, 1e-10, trials),
        _prop("restricted_tensor_flow", specmatch, 1e-13, len(specmatch)),
        _prop("exact_flow_semigroup", semigroup, 1e-12, trials),
    ]


def suite_darboux(rng, n, trials):
    # FD truncation in the chart Jacobians grows like h^2/gap^3; the wider
    # gap floor keeps that term under the 1e-6 canonicality tolerance
    iy, aa, gp, zq = [], [], [], []
    f1 = WeightFn.power(0)
    fz = WeightFn.power(1)
    for trial in range(trials):
        size = max(2, 2 + trial % max(1, n - 1))
        S = _rand_spectral(rng, size, min_gap=0.4, rho_floor=0.05)
        x = zrho_pack(S)
        rep = verify_canonical(iy_map(f1, size), zrho_tensor(f1, size), x)
        iy.append(rep["max_deviation"])
        Sp = _rand_spectral(rng, size, positive=True, min_gap=0.4, rho_floor=0.05)
        xp = zrho_pack(Sp)
        rep = verify_canonical(iy_map(fz, size), zrho_tensor(fz, size), xp)
        iy.append(rep["max_deviation"])
        rep = verify_canonical(
            action_angle_map(f1, size), zrho_restricted_tensor(f1, size), x
        )
        aa.append(rep["max_deviation"])
        rep = verify_canonical(gamma_pi_map(size), zrho_tensor(f1, size), x)
        gp.append(rep["max_deviation"])
        T = pushforward(zrho_tensor(f1, size), zq_map(size).map_fn, x)
        qv = numerator_values(S)
        E = np.zeros((2 * size, 2 * size))
        for kk in range(size):
            E[size + kk, kk] = qv[kk]
        E = E - E.T
        zq.append(float(np.max(np.abs(T - E))))
    return [
        _prop("iy_canonical", iy, 1e-6, len(iy)),
        _prop("action_angle_canonical", aa, 1e-6, trials),
        _prop("gamma_pi_canonical", gp, 1e-6, trials),
        _prop("zq_relations", zq, 1e-6, trials),
    ]


def suite_casimirs(rng, n, trials):
    tr_res, det_res, inv_res, phi_res = [], [], [], []
    for trial in range(trials):
        size = 2 + trial % max(1, n - 1)
        J = _rand_jacobi(rng, size)
        x = cv_pack(J)

        def tr_fn(xx):
            return float(np.sum(xx[:size]))

        tr_res.append(casimir_residual(pi0_cv(size), Observable(tr_fn), x))

        def det_fn(xx):
            return float(
                np.linalg.det(JacobiMatrix(v=xx[:size], c=xx[size:]).to_dense())
            )

        # det L is affine in each v and quadratic in each c, so a wide central
        # difference is truncation-free and drowns the cancellation noise
        det_obs = Observable(det_fn, grad=lambda xx: fd_gradient(det_fn, xx, step=1e-2))
        det_res.append(casimir_residual(pi1_cv(size), det_obs, x))
        Jpos = JacobiMatrix(v=J.v + 10.0, c=J.c)

        def trinv_fn(xx):
            L = JacobiMatrix(v=xx[:size], c=xx[size:]).to_dense()
            return float(np.trace(np.linalg.inv(L)))

        inv_res.append(casimir_residual(pi2_cv(size), Observable(trinv_fn), cv_pack(Jpos)))
        for m, positive in ((0, False), (1, True), (2, True)):
            S = _rand_spectral(rng, size, positive=positive)
            xs = zrho_pack(S)
            f = WeightFn.power(m)
            R = zrho_restricted_tensor(f, size)
            phi_res.append(casimir_residual(R, action_sum(f, size), xs))
            phi_res.append(casimir_residual(R, neg_log_mass(size), xs))
    return [
        _prop("pi0_trace_casimir", tr_res, 1e-9, trials),
        _prop("pi1_det_casimir", det_res, 1e-9, trials),
        _prop("pi2_trace_inverse_casimir", inv_res, 1e-9, trials),
        _prop("restricted_constraint_casimirs", phi_res, 1e-9, len(phi_res)),
    ]


_SUITES = {
    "roundtrip": suite_roundtrip,
    "jacobi": suite_jacobi,
    "hierarchy": suite_hierarchy,
    "darboux": suite_darboux,
    "casimirs": suite_casimirs,
}


def cmd_verify(args):
    rng = np.random.default_rng(args.seed)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    properties = []
    for name in names:
        suite = _SUITES[name]
        if name == "jacobi":
            results = suite(rng, args.n, args.trials, negative=args.negative_control)
        else:
            results = suite(rng, args.n, args.trials)
        for r in results:
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

def _provided(argv):
    """Dest names the user actually typed, recovered by re-parsing with every
    default suppressed so untouched flags never reach the namespace."""
    probe = build_parser()
    stack = [probe]
    while stack:
        p = stack.pop()
        for action in p._actions:
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
            else:
                action.default = argparse.SUPPRESS
    return set(vars(probe.parse_args(argv)))


def _apply_config(args, argv):
    if not getattr(args, "config", None):
        return args
    with open(args.config) as fh:
        doc = json.load(fh)
    explicit = _provided(argv)
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ValueError(f"config key {key!r} does not match any flag")
        if attr not in explicit:
            setattr(args, attr, value)
    return args


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
    ev.add_argument(
        "--method", choices=("exact", "rk4-lax", "rk4-hamiltonian"), default="exact"
    )
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
    ve.add_argument(
        "--suite",
        choices=("roundtrip", "jacobi", "hierarchy", "darboux", "casimirs", "all"),
        default="all",
    )
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
    args = parser.parse_args(argv)
    try:
        args = _apply_config(args, argv)
        return args.fn(args)
    except _BLOWUP as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 3
    except (TodaError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
