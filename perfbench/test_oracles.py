"""Self-check of the benchmark oracles.

Every task of every workload gets an output built from the closed forms,
which must pass, and then perturbed outputs (one value nudged past its
tolerance, a wrong status, a missing cell, a changed table), each of
which must trip its check.  So `failed` cannot read 0 by construction.

    python3 -m pytest perfbench
"""

import math

import pytest

import oracles
import workloads


def _render(header, rows) -> bytes:
    fmt = lambda x: "%.17g" % x if isinstance(x, float) else str(x)
    lines = [",".join(header)] + [",".join(fmt(x) for x in r) for r in rows]
    return ("\n".join(lines) + "\n").encode()


def _valid(task):
    """A correct (header, rows, summary) for the task, from the closed forms."""
    prm, kind = task["params"], task["oracle"]
    if kind == "toy_classical":
        return ("t", "p", "q", "H", "drift"), [[0.0, prm["p0"], 1.0, prm["p0"] ** 2, 0.0]], {
            "status": "singularity", "hit_time": -1.0 / prm["p0"] + 1e-6, "drift": 1e-12}
    if kind == "toy_enhanced":
        c = prm["hbar"] ** 2 * oracles.cprime(prm["beta"], prm["hbar"])
        e = prm["p0"] ** 2 + c
        return ("t", "p", "q", "H", "drift"), [[0.0, prm["p0"], 1.0, e, 0.0]], {
            "status": "completed", "min_q": c / e + 1e-9, "drift": 1e-12}
    if kind == "rotsym":
        return ("t", "H", "drift"), [[0.0, 1.0, 0.0]], {"shuffle_deviation": 0.0}
    if kind.startswith("metric_"):
        rows = []
        for u in prm["p"]:
            for v in prm["q"]:
                if kind == "metric_canonical":
                    g, k = (1.0, 1.0), 0.0
                elif kind == "metric_affine":
                    g, k = (v * v / prm["beta"], prm["beta"] / (v * v)), -1.0 / prm["beta"]
                else:
                    g, k = (prm["s"], prm["s"] * math.sin(u) ** 2), 1.0 / prm["s"]
                rows.append([u, v, g[0], 0.0, g[1], k, 1e-9])
        return ("u", "v", "g_uu", "g_uv", "g_vv", "K", "K_err"), rows, {}
    if kind.startswith("wcp_"):
        rows = []
        for p in prm["p"]:
            for q in prm["q"]:
                if kind == "wcp_canonical":
                    cl = 0.5 * (p * p + q * q)
                    h = cl + prm["hbar"] / 2
                else:
                    cl = q * p * p
                    h = cl + prm["hbar"] ** 2 * oracles.cprime(prm["beta"], prm["hbar"]) / q
                rows.append([p, q, h, cl, h - cl])
        summary = {"scaling_exponent": 1.001} if kind == "wcp_canonical" else {}
        return ("p", "q", "H_enhanced", "H_classical", "difference"), rows, summary
    rows = [[prm["n"], a, 10.0 ** -j, 1.0, 1.0, 1.0]
            for a in prm["alphas"] for j in range(oracles.N_EPS)]
    verdicts = [{"alpha": a, "lhs_divergent": a == 1.3} for a in prm["alphas"]]
    return ("n", "alpha", "eps", "lhs", "rhs", "ratio"), rows, {"verdicts": verdicts}


def _nudge(col, delta, row=0):
    def f(rows, summary):
        rows[row][col] += delta
    return f


def _set(key, value):
    def f(rows, summary):
        summary[key] = value
    return f


def _drop_row(rows, summary):
    rows.pop()


def _unflag(rows, summary):
    for v in summary["verdicts"]:
        v["lhs_divergent"] = False


def _ratio_bound_applies(prm):
    return prm["n"] in (3, 4)  # the ratio bound is stated for n = 3 and 4


def _divergence_applies(prm):
    return 1.3 in prm["alphas"]


# oracle -> perturbations, each with the condition on the task's
# parameters under which its check applies (None: always)
PERTURB = {
    "toy_classical": [(_set("status", "completed"), None), (_set("hit_time", 0.0), None),
                      (_set("drift", 2e-8), None)],
    "toy_enhanced": [(_set("status", "singularity"), None), (_set("min_q", 0.5), None),
                     (_set("drift", 2e-8), None)],
    "rotsym": [(_set("shuffle_deviation", 2e-9), None), (_set("shuffle_deviation", None), None)],
    "metric_canonical": [(_nudge(2, 2e-6), None), (_nudge(3, 2e-6), None),
                         (_nudge(4, -2e-6), None), (_nudge(5, 2e-4), None),
                         (_nudge(0, 1e-3), None), (_drop_row, None)],
    "metric_affine": [(_nudge(2, 2e-5), None), (_nudge(3, 2e-5), None),
                      (_nudge(4, 2e-5), None), (_nudge(5, 2e-3), None), (_drop_row, None)],
    "metric_spin": [(_nudge(2, 2e-6), None), (_nudge(3, -2e-6), None),
                    (_nudge(4, 2e-6), None), (_nudge(5, 2e-3), None), (_drop_row, None)],
    "wcp_canonical": [(_nudge(2, 2e-8), None), (_set("scaling_exponent", 1.03), None),
                      (_set("scaling_exponent", None), None), (_drop_row, None)],
    "wcp_affine": [(_nudge(2, -2e-6), None), (_drop_row, None)],
    "inequality": [(_nudge(5, 0.5), _ratio_bound_applies), (_unflag, _divergence_applies),
                   (_drop_row, None)],
}

TASKS = [t for w in workloads.WORKLOADS for seed in (0, 1) for t in workloads.tasks_for(w, seed)]


def _ids(t):
    return " ".join(t["argv"][:3])


@pytest.mark.parametrize("task", TASKS, ids=_ids)
def test_valid_output_passes(task):
    header, rows, summary = _valid(task)
    table = _render(header, rows)
    assert oracles.check_output(task, 0, table, summary, table) == []


@pytest.mark.parametrize("task", TASKS, ids=_ids)
def test_every_check_trips(task):
    for perturb, applies in PERTURB[task["oracle"]]:
        if applies is not None and not applies(task["params"]):
            continue
        header, rows, summary = _valid(task)
        perturb(rows, summary)
        assert oracles.check_output(task, 0, _render(header, rows), summary), perturb


@pytest.mark.parametrize("task", TASKS[:1] + TASKS[-1:], ids=_ids)
def test_generic_checks_trip(task):
    header, rows, summary = _valid(task)
    table = _render(header, rows)
    changed = table[:-2] + bytes([table[-2] ^ 1]) + table[-1:]
    assert oracles.check_output(task, 1, table, summary)
    assert oracles.check_output(task, 2, table, summary)
    assert oracles.check_output(task, 0, None, summary)
    assert oracles.check_output(task, 0, table, None)
    assert oracles.check_output(task, 0, changed, summary, table) == [
        "table differs from the first pass"]
    assert oracles.check_output(task, 0, b"u,v\nx,1\n", summary)
