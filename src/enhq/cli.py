"""Command-line driver: configure an experiment, run it, persist artifacts.

Every subcommand writes a data table (CSV by default) plus a JSON summary
with the echoed config, library version, and wall-clock time, and prints
a one-line verdict.  Identical configs produce byte-identical tables:
seeds are fixed, sweep cells are emitted in config order, and floats are
formatted at 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from importlib import metadata

import numpy as np

__all__ = ["main", "run"]

_FMT = "%.17g"


def _version() -> str:
    try:
        return metadata.version("enhq")
    except metadata.PackageNotFoundError:
        return "unknown"


def _worker_count() -> int:
    raw = os.environ.get("ENHQ_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return max(1, n) if n > 0 else min(4, os.cpu_count() or 1)


def _fan_out(fn, cells):
    """Evaluate sweep cells on a worker pool; results stay in config order."""
    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        return list(pool.map(fn, cells))


def _write_table(path_base: str, header, rows, fmt: str) -> str:
    def render(x):
        if isinstance(x, float):
            return _FMT % x
        s = str(x)
        if "," in s or '"' in s:
            s = '"' + s.replace('"', '""') + '"'
        return s

    if fmt == "json":
        path = path_base + ".json"
        with open(path, "w") as fh:
            json.dump(
                {"columns": list(header), "rows": [[render(x) for x in r] for r in rows]},
                fh, indent=2,
            )
            fh.write("\n")
    else:
        path = path_base + ".csv"
        with open(path, "w") as fh:
            fh.write(",".join(header) + "\n")
            for r in rows:
                fh.write(",".join(render(x) for x in r) + "\n")
    return path


def _write_summary(path_base: str, config: dict, payload: dict, t0: float) -> str:
    path = path_base + "_summary.json"
    doc = {
        "config": config,
        "version": _version(),
        "wall_time_s": time.monotonic() - t0,
        **payload,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, default=str)
        fh.write("\n")
    return path


def _family_from(args):
    from .coherent import AffineFamily, CanonicalFamily, SpinFamily

    if args.family == "canonical":
        return CanonicalFamily(N=args.N, hbar=args.hbar)
    if args.family == "affine":
        return AffineFamily(args.beta, args.hbar)
    return SpinFamily(args.s, args.hbar)


def _check_stride(args):
    if args.stride < 1:
        raise ValueError(f"stride must be at least 1, got {args.stride}")


# ---------------------------------------------------------------- subcommands


def _cmd_metric(args, out_base, t0):
    from .geometry import fs_metric, gaussian_curvature

    family = _family_from(args)
    pts = [(p, q) for p in args.p for q in args.q]
    chart = "pq" if args.family != "spin" else "angles"

    def cell(pt):
        m = fs_metric(family, pt)
        k = gaussian_curvature(family, pt)
        return (pt[0], pt[1], m.g_pp, m.g_pq, m.g_qq, k.K, k.error)

    rows = _fan_out(cell, pts)
    table = _write_table(out_base, ("u", "v", "g_uu", "g_uv", "g_vv", "K", "K_err"),
                         rows, args.format)
    ks = [r[5] for r in rows]
    summary = _write_summary(out_base, vars(args) | {"chart": chart}, {
        "K_mean": float(np.mean(ks)), "K_spread": float(np.ptp(ks)), "table": table,
    }, t0)
    print(f"metric: {len(rows)} points, chart {chart}, K ≈ {np.mean(ks):.6g} "
          f"(spread {np.ptp(ks):.2g}) -> {table}, {summary}")
    return 0


def _cmd_wcp(args, out_base, t0):
    from .wcp import classical_limit, enhanced_hamiltonian, hbar_scaling_fit, parse_hamiltonian

    family = _family_from(args)
    spec = parse_hamiltonian(args.hamiltonian, args.family)
    cl = classical_limit(spec)
    pts = [(p, q) for p in args.p for q in args.q]

    def cell(pt):
        h = enhanced_hamiltonian(spec, family, *pt)
        c = cl(*pt)
        return (pt[0], pt[1], h, c, h - c)

    rows = _fan_out(cell, pts)
    fit = hbar_scaling_fit(spec, family, pts[0], args.hbar_sweep)
    table = _write_table(out_base, ("p", "q", "H_enhanced", "H_classical", "difference"),
                         rows, args.format)
    summary = _write_summary(out_base, vars(args), {
        "classical_limit": cl.text,
        "scaling_exponent": None if fit.exact else fit.exponent,
        "scaling_exact": fit.exact,
        "table": table,
    }, t0)
    expo = "exact (no hbar correction)" if fit.exact else f"exponent {fit.exponent:.4f}"
    print(f"wcp: {spec} -> classical {cl.text}; hbar-scaling {expo} -> {table}, {summary}")
    return 0


def _cmd_dynamics(args, out_base, t0):
    from .dynamics import IntegratorControls, integrate, oscillator_flow, toy_gravity_flow

    _check_stride(args)
    if args.model == "oscillator":
        flow = oscillator_flow()
    else:
        flow = toy_gravity_flow(hbar=args.hbar, beta=args.beta)
    controls = IntegratorControls(dt=args.dt, cross_check=args.cross_check)
    traj = integrate(flow, (args.p0, args.q0), args.t_end, controls)
    e0 = traj.energies[0]
    rows = [
        (t, p, q, e, abs(e - e0) / abs(e0) if e0 else abs(e - e0))
        for t, p, q, e in zip(traj.times[::args.stride], traj.ps[::args.stride],
                              traj.qs[::args.stride], traj.energies[::args.stride])
    ]
    table = _write_table(out_base, ("t", "p", "q", "H", "drift"), rows, args.format)
    summary = _write_summary(out_base, vars(args), {
        "status": traj.status, "hit_time": traj.hit_time, "min_q": traj.min_q,
        "drift": traj.drift, "method": traj.method, "dt": traj.dt,
        "cross_check_error": traj.meta.get("cross_check_error"), "table": table,
    }, t0)
    if traj.status == "singularity":
        verdict = f"singularity at t≈{traj.hit_time:.6g}"
    else:
        verdict = f"completed, min q {traj.min_q:.6g}, drift {traj.drift:.3g}"
    print(f"dynamics[{flow.name}]: {verdict} -> {table}, {summary}")
    return 0


def _cmd_rotsym(args, out_base, t0):
    from .dynamics import integrate, rotsym_flow

    _check_stride(args)
    rng = np.random.default_rng(args.seed)
    scale = 0.5 / np.sqrt(args.N)
    p0 = scale * rng.normal(size=args.N)
    q0 = scale * rng.normal(size=args.N)
    perm = rng.permutation(args.N)
    # base and shuffled runs step together as the two rows of one batch
    pair = integrate(rotsym_flow(args.N, args.m0, args.g0),
                     (np.stack([p0, p0[perm]]), np.stack([q0, q0[perm]])), args.t_end)
    traj, shuffled = pair.row(0), pair.row(1)
    dev = max(
        float(np.max(np.abs(traj.ps[:, perm] - shuffled.ps))),
        float(np.max(np.abs(traj.qs[:, perm] - shuffled.qs))),
    )
    header = (["t"] + [f"p_{i + 1}" for i in range(args.N)]
              + [f"q_{i + 1}" for i in range(args.N)] + ["H", "drift"])
    e0 = traj.energies[0]
    rows = [
        (t, *p, *q, e, abs(e - e0) / abs(e0) if e0 else abs(e - e0))
        for t, p, q, e in zip(traj.times[::args.stride], traj.ps[::args.stride],
                              traj.qs[::args.stride], traj.energies[::args.stride])
    ]
    table = _write_table(out_base, header, rows, args.format)
    summary = _write_summary(out_base, vars(args), {
        "shuffle_deviation": dev, "drift": traj.drift,
        "permutation": perm.tolist(), "table": table,
    }, t0)
    print(f"rotsym: N={args.N} g0={args.g0} shuffle deviation {dev:.3g}, "
          f"drift {traj.drift:.3g} -> {table}, {summary}")
    return 0


def _cmd_inequality(args, out_base, t0):
    from .inequality import DEFAULT_EPS, scan

    eps = tuple(args.eps) if args.eps else DEFAULT_EPS
    report = scan(args.n, args.alphas, eps_sequence=eps, m0=args.m0)
    rows = [(args.n, a, e, l, r, ratio) for a, e, l, r, ratio in report.rows]
    table = _write_table(out_base, ("n", "alpha", "eps", "lhs", "rhs", "ratio"),
                         rows, args.format)
    summary = _write_summary(out_base, vars(args), {
        "verdicts": list(report.verdicts), "max_ratio": report.max_ratio, "table": table,
    }, t0)
    div = [v["alpha"] for v in report.verdicts if v["lhs_divergent"]]
    verdict = f"lhs divergent at alpha={div}" if div else "both sides bounded"
    print(f"inequality: n={args.n}, {verdict}, max ratio {report.max_ratio:.4g} "
          f"-> {table}, {summary}")
    return 0


def _cmd_selftest(args, out_base, t0):
    from . import selftest

    results = selftest.run_all()
    rows = [(name, "pass" if ok else "FAIL", detail) for name, ok, detail in results]
    table = _write_table(out_base, ("check", "status", "detail"), rows, args.format)
    failed = [name for name, ok, _ in results if not ok]
    summary = _write_summary(out_base, vars(args), {
        "passed": len(results) - len(failed), "failed": failed, "table": table,
    }, t0)
    print(f"selftest: {len(results) - len(failed)}/{len(results)} invariants pass "
          f"-> {table}, {summary}")
    return 0 if not failed else 2


# ------------------------------------------------------------------- parsing


def _floats(text: str):
    return [float(x) for x in text.split(",") if x.strip()]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="enhq", description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="enhq_out", help="output directory")
    ap.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="data table format (JSON summary is always written)")
    ap.add_argument("--config", default=None,
                    help="JSON file of defaults; explicit flags override it")
    sub = ap.add_subparsers(dest="command", required=True)

    def fam(p, kinds=("canonical", "affine", "spin")):
        p.add_argument("--family", choices=kinds, default=kinds[0])
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=1.0)
        p.add_argument("--s", type=float, default=0.5)
        p.add_argument("--N", type=int, default=100)

    p = sub.add_parser("metric", help="metric and curvature sweep")
    fam(p)
    p.add_argument("--p", type=_floats, default=[0.0], help="comma list of first coords")
    p.add_argument("--q", type=_floats, default=[1.0], help="comma list of second coords")
    p.set_defaults(fn=_cmd_metric)

    p = sub.add_parser("wcp", help="enhanced Hamiltonian surface and hbar scaling")
    fam(p, kinds=("canonical", "affine"))
    p.add_argument("--hamiltonian", default=None,
                   help="term list, e.g. '0.5*P.P + 0.5*Q.Q' or 'D.Qinv.D'")
    p.add_argument("--p", type=_floats, default=[0.0, 0.5, 1.0])
    p.add_argument("--q", type=_floats, default=[1.0, 2.0])
    p.add_argument("--hbar-sweep", type=_floats, default=[1.0, 0.5, 0.25, 0.1, 0.05])
    p.set_defaults(fn=_cmd_wcp)

    p = sub.add_parser("dynamics", help="classical vs enhanced trajectories")
    p.add_argument("--model", choices=("oscillator", "toygravity"), default="toygravity")
    p.add_argument("--hbar", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--p0", type=float, default=-1.0)
    p.add_argument("--q0", type=float, default=1.0)
    p.add_argument("--t-end", type=float, default=2.0)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--stride", type=int, default=100, help="output row thinning")
    p.add_argument("--cross-check", action="store_true",
                   help="adaptive Runge-Kutta endpoint comparison")
    p.set_defaults(fn=_cmd_dynamics)

    p = sub.add_parser("rotsym", help="shuffle-symmetry demonstration")
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--m0", type=float, default=1.0)
    p.add_argument("--g0", type=float, default=1.0)
    p.add_argument("--t-end", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stride", type=int, default=100)
    p.set_defaults(fn=_cmd_rotsym)

    p = sub.add_parser("inequality", help="cutoff sweep of the radial inequality")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--alphas", type=_floats, default=[0.0, 0.8, 1.3])
    p.add_argument("--m0", type=float, default=1.0)
    p.add_argument("--eps", type=_floats, default=None,
                   help="decreasing cutoff list (default geometric 1e-2..1e-7)")
    p.set_defaults(fn=_cmd_inequality)

    p = sub.add_parser("selftest", help="run the module invariant suite")
    p.set_defaults(fn=_cmd_selftest)

    return ap


def _apply_config_file(ap: argparse.ArgumentParser, args, argv) -> list[str]:
    """Validate and fold a JSON config in under the explicit flags."""
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object of flag defaults")
    problems = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if not hasattr(args, dest):
            problems.append(f"unknown config key {key!r}")
            continue
        flag = "--" + key.replace("_", "-")
        explicit = any(a == flag or a.startswith(flag + "=") for a in argv)
        if not explicit:
            current = getattr(args, dest)
            if isinstance(value, str) and isinstance(current, list):
                value = _floats(value)
            setattr(args, dest, value)
    if problems:
        raise ValueError("; ".join(problems))
    return problems


def run(argv=None) -> int:
    """Entry point returning an exit status: 0 ok, 1 bad config, 2 numerics."""
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    t0 = time.monotonic()
    try:
        if args.config:
            _apply_config_file(ap, args, argv)
        if getattr(args, "hamiltonian", "") is None:
            args.hamiltonian = ("0.5*P.P + 0.5*Q.Q" if args.family == "canonical"
                                else "D.Qinv.D")
        os.makedirs(args.out, exist_ok=True)
        out_base = os.path.join(args.out, args.command)
        fn = args.fn
        cfg = {k: v for k, v in vars(args).items() if k != "fn"}
        args.fn = None
        ns = argparse.Namespace(**cfg)
        ns.fn = fn
        return fn(ns, out_base, t0)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, np.linalg.LinAlgError) as exc:
        diag = {"error": str(exc), "type": type(exc).__name__,
                "argv": argv, "version": _version()}
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        try:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "failure.json"), "w") as fh:
                json.dump(diag, fh, indent=2)
                fh.write("\n")
        except OSError:
            pass
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
