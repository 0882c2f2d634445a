"""Closed-form oracles for every benchmark task.

`check_output` returns the list of problems found in one task's output;
an empty list means the task passed.  The bounds are the tolerances of
the acceptance tests.  The oracles use only the standard library and the
closed forms below, never the program under test, so a defect in the
program cannot also move the reference it is checked against.
"""

from __future__ import annotations

import math

RATIO_BOUND = (4.0 / 3.0) * 1.1  # 4/3 m0^((n-4)/2) + 10% at m0 = 1
N_EPS = 6  # cells per alpha in the CLI's default cutoff sweep


def cprime(beta: float, hbar: float) -> float:
    """Barrier constant C' = beta^2 / (hbar (2 beta - hbar))."""
    return beta**2 / (hbar * (2.0 * beta - hbar))


def parse_table(text: str) -> tuple[list[str], list[list[float]]]:
    lines = text.splitlines()
    if not lines:
        return [], []
    header = lines[0].split(",")
    return header, [[float(x) for x in line.split(",")] for line in lines[1:]]


def _close(problems, what, got, want, tol):
    if not abs(got - want) < tol:  # also trips on nan
        problems.append(f"{what} = {got!r}, want {want!r} within {tol:g}")


def _grid(problems, rows, ps, qs):
    want = [(p, q) for p in ps for q in qs]
    got = [(r[0], r[1]) for r in rows]
    if got != want:
        problems.append(f"table points {got} differ from the requested {want}")


def _toy_classical(prm, rows, summary, problems):
    if summary.get("status") != "singularity":
        problems.append(f"status {summary.get('status')!r}, want 'singularity'")
        return
    _close(problems, "hit_time", summary["hit_time"], -1.0 / prm["p0"], 1e-4)
    if not summary["drift"] < 1e-8:
        problems.append(f"drift {summary['drift']!r} >= 1e-8")


def _toy_enhanced(prm, rows, summary, problems):
    if summary.get("status") != "completed":
        problems.append(f"status {summary.get('status')!r}, want 'completed'")
        return
    c = prm["hbar"] ** 2 * cprime(prm["beta"], prm["hbar"])
    energy = prm["q0"] * prm["p0"] ** 2 + c / prm["q0"]
    _close(problems, "min_q * E", summary["min_q"] * energy, c, 1e-6)
    if not summary["drift"] < 1e-8:
        problems.append(f"drift {summary['drift']!r} >= 1e-8")


def _rotsym(prm, rows, summary, problems):
    dev = summary.get("shuffle_deviation")
    if dev is None or not dev < 1e-9:
        problems.append(f"shuffle deviation {dev!r} >= 1e-9")


def _metric(prm, rows, problems, g_ref, k_ref, g_tol, k_tol):
    _grid(problems, rows, prm["p"], prm["q"])
    for u, v, guu, guv, gvv, k, _ in rows:
        ruu, rvv = g_ref(u, v)
        _close(problems, f"g_uu({u}, {v})", guu, ruu, g_tol)
        _close(problems, f"g_uv({u}, {v})", guv, 0.0, g_tol)
        _close(problems, f"g_vv({u}, {v})", gvv, rvv, g_tol)
        _close(problems, f"K({u}, {v})", k, k_ref, k_tol)


def _metric_canonical(prm, rows, summary, problems):
    _metric(prm, rows, problems, lambda u, v: (1.0, 1.0), 0.0, 1e-6, 1e-4)


def _metric_affine(prm, rows, summary, problems):
    # K = -1/beta is the Gaussian curvature the program computes (README);
    # acceptance criterion 2's -2/beta stays red in the tests
    b = prm["beta"]
    _metric(prm, rows, problems, lambda u, v: (v * v / b, b / (v * v)), -1.0 / b, 1e-5, 1e-3)


def _metric_spin(prm, rows, summary, problems):
    s = prm["s"]
    _metric(prm, rows, problems, lambda u, v: (s, s * math.sin(u) ** 2), 1.0 / s, 1e-6, 1e-3)


def _wcp_canonical(prm, rows, summary, problems):
    _grid(problems, rows, prm["p"], prm["q"])
    for p, q, h, _, _ in rows:
        _close(problems, f"H({p}, {q}) - classical", h - 0.5 * (p * p + q * q), prm["hbar"] / 2, 1e-8)
    expo = summary.get("scaling_exponent")
    if expo is None or not abs(expo - 1.0) < 0.02:
        problems.append(f"hbar scaling exponent {expo!r} not 1 +- 0.02")


def _wcp_affine(prm, rows, summary, problems):
    _grid(problems, rows, prm["p"], prm["q"])
    c = prm["hbar"] ** 2 * cprime(prm["beta"], prm["hbar"])
    for p, q, h, _, _ in rows:
        _close(problems, f"H({p}, {q}) - q p^2", h - q * p * p, c / q, 1e-6)


def _inequality(prm, rows, summary, problems):
    n, alphas = prm["n"], prm["alphas"]
    got = [r[1] for r in rows[::N_EPS]]
    if len(rows) != N_EPS * len(alphas) or got != alphas:
        problems.append(f"table holds {len(rows)} cells for alphas {got}, want {alphas}")
    if n in (3, 4):
        worst = max((r[5] for r in rows), default=math.inf)
        if not worst <= RATIO_BOUND:
            problems.append(f"n={n} max ratio {worst!r} > {RATIO_BOUND:.4g}")
    if 1.3 in alphas:
        flags = [v["lhs_divergent"] for v in summary.get("verdicts", []) if v["alpha"] == 1.3]
        if flags != [True]:
            problems.append(f"n={n} alpha=1.3 not flagged lhs-divergent: {flags}")


ORACLES = {
    "toy_classical": _toy_classical,
    "toy_enhanced": _toy_enhanced,
    "rotsym": _rotsym,
    "metric_canonical": _metric_canonical,
    "metric_affine": _metric_affine,
    "metric_spin": _metric_spin,
    "wcp_canonical": _wcp_canonical,
    "wcp_affine": _wcp_affine,
    "inequality": _inequality,
}


def check_output(task: dict, code: int, table: bytes | None, summary: dict | None,
                 reference: bytes | None = None) -> list[str]:
    """Problems with one task's exit code, data table and summary.

    `reference` is the table the same task wrote in the run's first pass;
    the table must repeat it byte for byte.
    """
    if code != 0:
        return [f"exit code {code}"]
    if table is None or summary is None:
        return ["table or summary missing"]
    if reference is not None and table != reference:
        return ["table differs from the first pass"]
    problems: list[str] = []
    try:
        _, rows = parse_table(table.decode())
        ORACLES[task["oracle"]](task["params"], rows, summary, problems)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
