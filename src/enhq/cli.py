"""Command-line driver: configure an experiment, run it, persist artifacts.

A subcommand only computes: it returns its table's header and rows, its
summary entries and a one-line verdict (`selftest` adds its exit status).
`run` writes every artifact: the table `<out>/<command>.csv` (or `.json`),
the summary `<out>/<command>_summary.json` holding `config`, `version`,
`wall_time_s`, the entries and `table` in that order, and the stdout line
`<verdict> -> <table>, <summary>`.  A bad configuration exits 1 and a
numerical failure 2 (also writing `<out>/failure.json`), with no table; a
failed selftest exits 2 after writing both.  Identical configs produce
byte-identical tables: seeds are fixed, sweep cells are emitted in config
order, and floats are formatted at 17 significant digits.  A run builds
nothing that is the same for every run: the parser is built once per
process, on first use, and the version is `enhq.__version__`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache, partial

import numpy as np

from . import __version__

__all__ = ["main", "run"]

_FMT = "%.17g"
# the largest Hilbert space `metric` builds: a family's first build of a
# size takes one dense eigh, O(dim^3) time and dim^2 floats
MAX_DIM = 1001
# an array table's CSV is formatted this many rows per `%`
_BLOCK = 256


def _worker_count() -> int:
    """Sweep workers: 1 unless ENHQ_THREADS asks for more."""
    try:
        return max(1, int(os.environ.get("ENHQ_THREADS", "")))
    except ValueError:
        return 1


def _fan_out(fn, cells):
    """Evaluate sweep cells in config order, on a worker pool if ENHQ_THREADS asks."""
    workers = _worker_count()
    if workers == 1:
        return [fn(c) for c in cells]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells))


def _cell(x) -> str:
    """A table cell: a float at 17 significant digits, anything else as its
    str, quoted if it holds a comma or a quote."""
    if isinstance(x, float):
        return _FMT % x
    s = str(x)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _write_json(path: str, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, default=str)
        fh.write("\n")
    return path


def _write_table(path_base: str, header, rows, fmt: str) -> str:
    """Write rows under header as CSV or JSON: tuples cell by cell, or a float64
    (T, len(header)) array with no per-row scan, its CSV a block of _BLOCK rows
    per `%` of an all-float template and its JSON through `.tolist()`; the same
    rows give the same bytes either way."""
    path = f"{path_base}.{fmt}"
    is_array = isinstance(rows, np.ndarray)
    if fmt == "json":
        return _write_json(path, {"columns": list(header), "rows": [
            list(map(_cell, r)) for r in (rows.tolist() if is_array else rows)]})
    floats = ",".join([_FMT] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if is_array:
            for first in range(0, len(rows), _BLOCK):
                cells = rows[first:first + _BLOCK].ravel().tolist()
                fh.write(floats * (len(cells) // len(header)) % tuple(cells))
            return path
        fh.writelines(",".join(map(_cell, r)) + "\n" for r in rows)
    return path


def _write_summary(path_base: str, config: dict, payload: dict, t0: float) -> str:
    return _write_json(path_base + "_summary.json", {
        "config": config,
        "version": __version__,
        "wall_time_s": time.monotonic() - t0,
        **payload,
    })


def _family_from(args):
    from .coherent import AffineFamily, CanonicalFamily, SpinFamily

    if args.family == "canonical":
        # wcp has no --N: its canonical words act on the fiducial alone
        return CanonicalFamily(N=getattr(args, "N", 100), hbar=args.hbar)
    if args.family == "affine":
        return AffineFamily(args.beta, args.hbar)
    return SpinFamily(args.s, args.hbar)


def _sweep(args, value):
    """Rows (p, q, *value(p, q)) over the --p x --q grid, in config order."""
    return _fan_out(lambda pt: (*pt, *value(*pt)), [(p, q) for p in args.p for q in args.q])


def _trajectory_table(traj, stride: int):
    """Header and rows of every stride-th stored step, the rows one float64
    array of columns t, p, q, H and its relative drift; a vector trajectory
    spreads p and q over columns p_1..p_N, q_1..q_N.  A scalar run is
    already thinned, so it is read at stride 1."""
    k = slice(None, None, stride)
    ps, qs = traj.states(k)
    names = ["p", "q"] if ps.ndim == 1 else [
        f"{c}_{i + 1}" for c in "pq" for i in range(ps.shape[1])]
    return (["t", *names, "H", "drift"],
            np.column_stack([traj.times[k], ps, qs, traj.energies[k], traj.drifts[k]]))


# ---------------------------------------------------------------- subcommands


def _cmd_metric(args):
    from .geometry import fs_metric, gaussian_curvature

    if args.p is None:  # theta = 0 is a pole of the spin family's angles chart
        args.p = [np.pi / 2 if args.family == "spin" else 0.0]
    family = _family_from(args)
    args.chart = family.chart_name  # echoed as the last config key

    def cell(p, q):
        m = fs_metric(family, (p, q))
        k = gaussian_curvature(family, (p, q))
        return m.g_pp, m.g_pq, m.g_qq, k.K, k.error

    rows = _sweep(args, cell)
    ks = [r[5] for r in rows]
    return (("u", "v", "g_uu", "g_uv", "g_vv", "K", "K_err"), rows,
            {"K_mean": float(np.mean(ks)), "K_spread": float(np.ptp(ks))},
            f"metric: {len(rows)} points, chart {args.chart}, K ≈ {np.mean(ks):.6g} "
            f"(spread {np.ptp(ks):.2g})")


def _cmd_wcp(args):
    from .wcp import classical_limit, enhanced_hamiltonian, hbar_scaling_fit, parse_hamiltonian

    if args.hamiltonian is None:
        args.hamiltonian = "0.5*P.P + 0.5*Q.Q" if args.family == "canonical" else "D.Qinv.D"
    family = _family_from(args)
    spec = parse_hamiltonian(args.hamiltonian, args.family)
    cl = classical_limit(spec)

    def cell(p, q):
        h = enhanced_hamiltonian(spec, family, p, q)
        c = cl(p, q)
        return h, c, h - c

    rows = _sweep(args, cell)
    fit = hbar_scaling_fit(spec, family, (args.p[0], args.q[0]), args.hbar_sweep)
    expo = "exact (no hbar correction)" if fit.exact else f"exponent {fit.exponent:.4f}"
    return (("p", "q", "H_enhanced", "H_classical", "difference"), rows, {
        "classical_limit": cl.text,
        "scaling_exponent": None if fit.exact else fit.exponent,
        "scaling_exact": fit.exact,
    }, f"wcp: {spec} -> classical {cl.text}; hbar-scaling {expo}")


def _cmd_dynamics(args):
    from .dynamics import integrate, oscillator_flow, toy_gravity_flow

    flow = (oscillator_flow() if args.model == "oscillator"
            else toy_gravity_flow(hbar=args.hbar, beta=args.beta))
    # the run keeps only the rows the table writes
    traj = integrate(flow, (args.p0, args.q0), args.t_end, dt=args.dt, stride=args.stride)
    t_end, *end = traj.end  # t_end, or the last step before a classical pole
    exact = flow.exact(args.p0, args.q0, t_end)
    # toy gravity turns at t* = -q0 p0 / E, where q = c / E; so the exact
    # minimum of q over the run is q0 if t* < 0, and q at its end if t* > t_end
    t_star = q_min = None
    energy = traj.energies[0]
    if flow.barrier is not None and energy != 0:
        t_star = float(-args.q0 * args.p0 / energy)
        if 0 <= t_star <= args.t_end:
            q_min = float(flow.barrier / energy)
        else:
            q_min, t_star = args.q0 if t_star < 0 else exact[1], None
    if traj.status == "singularity":
        verdict = f"singularity at t≈{traj.hit_time:.6g}"
    else:
        verdict = f"completed, min q {traj.min_q:.6g}, drift {traj.drift:.3g}"
    return (*_trajectory_table(traj, 1), {
        "status": traj.status, "hit_time": traj.hit_time, "min_q": traj.min_q,
        "t_star": t_star, "q_min_exact": q_min,
        "drift": traj.drift, "method": "implicit-midpoint", "dt": args.dt,
        "cross_check_error": float(np.max(np.abs(np.subtract(end, exact)))),
    }, f"dynamics[{flow.name}]: {verdict}")


def _cmd_rotsym(args):
    from .dynamics import CHUNK, integrate, rotsym_flow

    if args.stride < 1:
        raise ValueError(f"stride must be at least 1, got {args.stride}")
    flow = rotsym_flow(args.N, args.m0, args.g0)  # validates N before the draw
    rng = np.random.default_rng(args.seed)
    scale = 0.5 / np.sqrt(args.N)
    p0 = scale * rng.normal(size=args.N)
    q0 = scale * rng.normal(size=args.N)
    perm = rng.permutation(args.N)
    traj = integrate(flow, (p0, q0), args.t_end)
    shuffled = integrate(flow, (p0[perm], q0[perm]), args.t_end)
    # the shuffled run's basis is the base run's with its columns permuted,
    # so the permuted base states less the shuffled ones are the runs'
    # coefficient difference expanded on that basis; folded CHUNK steps at
    # a time, past blocks where the runs agree exactly (every block at g0 = 0)
    dev = 0.0
    for first in range(0, traj.times.size, CHUNK):
        block = slice(first, first + CHUNK)
        for side in (0, 1):
            d = traj.coefs[block, side] - shuffled.coefs[block, side]
            if d.any():
                x = np.einsum("tk,kn->tn", d, shuffled.basis)
                dev = max(dev, float(np.max(np.abs(x, out=x))))
    return (*_trajectory_table(traj, args.stride), {
        "shuffle_deviation": dev, "drift": traj.drift, "permutation": perm.tolist(),
    }, f"rotsym: N={args.N} g0={args.g0} shuffle deviation {dev:.3g}, drift {traj.drift:.3g}")


def _cmd_inequality(args):
    from .inequality import DEFAULT_EPS, scan

    eps = tuple(args.eps) if args.eps else DEFAULT_EPS
    report = scan(args.n, args.alphas, eps_sequence=eps, m0=args.m0)
    div = [v["alpha"] for v in report.verdicts if v["lhs_divergent"]]
    verdict = f"lhs divergent at alpha={div}" if div else "both sides bounded"
    return (("n", "alpha", "eps", "lhs", "rhs", "ratio"),
            [(args.n, *r) for r in report.rows],
            {"verdicts": list(report.verdicts), "max_ratio": report.max_ratio},
            f"inequality: n={args.n}, {verdict}, max ratio {report.max_ratio:.4g}")


def _cmd_selftest(args):
    from . import selftest

    results = selftest.run_all()
    failed = [name for name, ok, _, _ in results if not ok]
    return (("check", "status", "detail"),
            [(name, "pass" if ok else "FAIL", detail) for name, ok, detail, _ in results],
            {"passed": len(results) - len(failed), "failed": failed,
             "residuals": {name: residuals for name, _, _, residuals in results}},
            f"selftest: {len(results) - len(failed)}/{len(results)} invariants pass",
            2 if failed else 0)


# ------------------------------------------------------------------- parsing


# argparse reads a bare "-1,0" as a flag; the "=" form keeps it a value
_LIST_HELP = "{} as a comma list; one that starts negative needs the = form, --{}=-1,0"


def _floats(text: str):
    return [float(x) for x in text.split(",") if x.strip()]


def _at_most(convert, cap):
    """A flag type: `convert`, refusing values above `cap`."""
    def parse(text: str):
        value = convert(text)
        if value > cap:
            raise argparse.ArgumentTypeError(f"{value} is above the cap {cap}")
        return value

    parse.__name__ = convert.__name__  # a malformed value still reads "invalid int value"
    return parse


def _shared_flags(parser, defaults=("enhq_out", "csv", None)):
    out, fmt, config = defaults
    parser.add_argument("--out", default=out, help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default=fmt,
                        help="data table format (JSON summary is always written)")
    parser.add_argument("--config", default=config,
                        help="JSON file of defaults; explicit flags override it")


@cache
def _parser() -> argparse.ArgumentParser:
    # no abbreviated flags: a config value yields only to a flag spelled in full
    ap = argparse.ArgumentParser(prog="enhq", description=__doc__.splitlines()[0],
                                 allow_abbrev=False)
    _shared_flags(ap)
    # the shared flags also parse after the subcommand; there they default
    # to SUPPRESS, so a flag given before the subcommand is kept
    shared = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    _shared_flags(shared, defaults=(argparse.SUPPRESS,) * 3)
    sub = ap.add_subparsers(dest="command", required=True)
    add = partial(sub.add_parser, parents=[shared], allow_abbrev=False)

    def fam(p, kinds=("canonical", "affine", "spin")):
        p.add_argument("--family", choices=kinds, default=kinds[0])
        p.add_argument("--hbar", type=float, default=1.0)
        p.add_argument("--beta", type=float, default=1.0)
        if "spin" in kinds:
            p.add_argument("--s", type=_at_most(float, (MAX_DIM - 1) / 2), default=0.5,
                           help=f"spin, at most {(MAX_DIM - 1) // 2} (dimension 2s + 1)")

    p = add("metric", help="metric and curvature sweep")
    fam(p)
    p.add_argument("--N", type=_at_most(int, MAX_DIM), default=100,
                   help=f"canonical Fock truncation, at most {MAX_DIM} levels")
    p.add_argument("--p", type=_floats, default=None,
                   help=_LIST_HELP.format("first coords", "p")
                   + " (default 0, or pi/2 on the spin family's equator)")
    p.add_argument("--q", type=_floats, default=[1.0],
                   help=_LIST_HELP.format("second coords", "q"))
    p.set_defaults(fn=_cmd_metric)

    p = add("wcp", help="enhanced Hamiltonian surface and hbar scaling")
    fam(p, kinds=("canonical", "affine"))
    p.add_argument("--hamiltonian", default=None,
                   help="term list, e.g. '0.5*P.P + 0.5*Q.Q' or 'D.Qinv.D'")
    p.add_argument("--p", type=_floats, default=[0.0, 0.5, 1.0],
                   help=_LIST_HELP.format("p values", "p"))
    p.add_argument("--q", type=_floats, default=[1.0, 2.0],
                   help=_LIST_HELP.format("q values", "q"))
    p.add_argument("--hbar-sweep", type=_floats, default=[1.0, 0.5, 0.25, 0.1, 0.05])
    p.set_defaults(fn=_cmd_wcp)

    p = add("dynamics", help="classical vs enhanced trajectories")
    p.add_argument("--model", choices=("oscillator", "toygravity"), default="toygravity")
    p.add_argument("--hbar", type=float, default=0.0)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--p0", type=float, default=-1.0)
    p.add_argument("--q0", type=float, default=1.0)
    p.add_argument("--t-end", type=float, default=2.0)
    p.add_argument("--dt", type=float, default=1e-4)
    p.add_argument("--stride", type=int, default=100, help="output row thinning")
    p.set_defaults(fn=_cmd_dynamics)

    p = add("rotsym", help="shuffle-symmetry demonstration")
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--m0", type=float, default=1.0)
    p.add_argument("--g0", type=float, default=1.0)
    p.add_argument("--t-end", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stride", type=int, default=100)
    p.set_defaults(fn=_cmd_rotsym)

    p = add("inequality", help="cutoff sweep of the radial inequality")
    p.add_argument("--n", type=int, default=5)
    p.add_argument("--alphas", type=_floats, default=[0.0, 0.8, 1.3],
                   help=_LIST_HELP.format("exponents", "alphas"))
    p.add_argument("--m0", type=float, default=1.0)
    p.add_argument("--eps", type=_floats, default=None,
                   help="decreasing cutoff list (default geometric 1e-2..1e-7)")
    p.set_defaults(fn=_cmd_inequality)

    p = add("selftest", help="run the module invariant suite")
    p.set_defaults(fn=_cmd_selftest)

    return ap


def _flag_value(action: argparse.Action, value):
    """A config value as its flag would parse it; a list reads as a comma list."""
    if value is None and action.default is None:
        return None
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    out = action.type(text) if action.type else text
    if action.choices is not None and out not in action.choices:
        raise ValueError(f"{out!r} is not one of {', '.join(action.choices)}")
    return out


def _apply_config_file(args, argv) -> None:
    """Validate and fold a JSON config in under the explicit flags.

    Each value goes through its flag's `type` and `choices`, so a config
    holds nothing the command line would refuse.
    """
    with open(args.config) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object of flag defaults")
    ap = _parser()
    sub = next(a for a in ap._actions if a.dest == "command")
    # the top-level shared flags come last, so their defaults are the ones read
    actions = {a.dest: a for parser in (sub.choices[args.command], ap)
               for a in parser._actions if a.option_strings and a.dest != "help"}
    problems = []
    for key, value in cfg.items():
        action = actions.get(key.replace("-", "_"))
        if action is None:
            problems.append(f"unknown config key {key!r}")
            continue
        try:
            value = _flag_value(action, value)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            problems.append(f"config key {key!r}: {exc}")
            continue
        if not any(a.split("=", 1)[0] in action.option_strings for a in argv):
            setattr(args, action.dest, value)
    if problems:
        raise ValueError("; ".join(problems))


def run(argv=None) -> int:
    """Entry point returning an exit status: 0 ok, 1 bad config, 2 numerics."""
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    t0 = time.monotonic()
    try:
        if args.config:
            _apply_config_file(args, argv)
        empty = [f"--{k.replace('_', '-')}" for k, v in vars(args).items() if v == []]
        if empty:
            raise ValueError(f"empty list for {', '.join(empty)}")
        os.makedirs(args.out, exist_ok=True)
        fn = args.fn
        del args.fn  # the summaries echo vars(args) as the config
        header, rows, entries, verdict, *status = fn(args)
        base = os.path.join(args.out, args.command)
        table = _write_table(base, header, rows, args.format)
        summary = _write_summary(base, vars(args), entries | {"table": table}, t0)
        print(f"{verdict} -> {table}, {summary}")
        return status[0] if status else 0
    except (ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: invalid configuration: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, ArithmeticError, MemoryError, np.linalg.LinAlgError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        try:
            os.makedirs(args.out, exist_ok=True)
            _write_json(os.path.join(args.out, "failure.json"), {
                "error": str(exc), "type": type(exc).__name__,
                "argv": argv, "version": __version__})
        except OSError:
            pass
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
