"""Seeded task lists for the four benchmark workloads.

A task is one `enhq` CLI invocation plus the parameters its oracle needs.
Every list is drawn from `random.Random(seed)` and stays inside the
parameter ranges of the acceptance tests.  Continuous parameters are
stratified (one draw per equal-width stratum) so that the work in one
pass barely depends on the seed; the seed moves the points, not the
amount of work.  List-valued flags are passed as `--p=-1,0` because
argparse reads a bare `-1,0` as a flag.
"""

from __future__ import annotations

import math
import random

def _strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal strata of [lo, hi], in order."""
    w = (hi - lo) / n
    return [round(lo + (i + rng.random()) * w, 6) for i in range(n)]


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _task(argv: list[str], oracle: str, **params) -> dict:
    return {"argv": argv, "oracle": oracle, "params": params}


def toygravity(rng: random.Random) -> list[dict]:
    """One classical hit and three enhanced bounces (acceptance 5 ranges)."""
    tasks = []
    (p0,) = _strata(rng, -2.0, -1.0, 1)
    tasks.append(_task(
        ["dynamics", "--model", "toygravity", "--hbar", "0", f"--p0={p0!r}",
         "--q0", "1", "--t-end", "3"],
        "toy_classical", p0=p0, q0=1.0,
    ))
    hbars = _strata(rng, 0.5, 2.0, 3)
    p0s = _strata(rng, -2.0, -1.0, 3)
    rng.shuffle(p0s)
    for hbar, p0 in zip(hbars, p0s):
        tasks.append(_task(
            ["dynamics", "--model", "toygravity", "--hbar", repr(hbar), "--beta", "2",
             f"--p0={p0!r}", "--q0", "1", "--dt", "5e-5", "--t-end", "4"],
            "toy_enhanced", p0=p0, q0=1.0, hbar=hbar, beta=2.0,
        ))
    return tasks


def rotsym(rng: random.Random) -> list[dict]:
    """Base plus shuffled vector flows for N in {6, 32}, g0 in {0, 1} (acceptance 6)."""
    tasks = []
    for n in (6, 32):
        for g0 in (0.0, 1.0):
            seed = rng.randrange(2**31)
            tasks.append(_task(
                ["rotsym", "--N", str(n), "--g0", repr(g0), "--t-end", "2",
                 "--seed", str(seed)],
                "rotsym", N=n, g0=g0,
            ))
    return tasks


def geometry(rng: random.Random) -> list[dict]:
    """Metric and curvature sweeps over all three families."""
    tasks = []
    for hbar in (1.0, 0.25):
        ps = _strata(rng, -1.0, 1.0, 3)
        qs = _strata(rng, -1.0, 1.0, 3)
        tasks.append(_task(
            ["metric", "--family", "canonical", "--hbar", repr(hbar),
             f"--p={_csv(ps)}", f"--q={_csv(qs)}"],
            "metric_canonical", p=ps, q=qs,
        ))
    # beta/hbar must exceed 1/2, so beta = 0.5 runs at hbar = 0.25
    for beta, hbar in ((0.5, 0.25), (1.0, 1.0), (2.0, 1.0)):
        ps = _strata(rng, -1.0, 1.0, 1)
        qs = _strata(rng, 0.5, 2.0, 2)
        tasks.append(_task(
            ["metric", "--family", "affine", "--beta", repr(beta), "--hbar", repr(hbar),
             f"--p={_csv(ps)}", f"--q={_csv(qs)}"],
            "metric_affine", p=ps, q=qs, beta=beta,
        ))
    for s in (0.5, 1.0, 1.5):
        thetas = _strata(rng, 0.3, math.pi - 0.3, 2)
        phis = _strata(rng, 0.3, 2.0 * math.pi - 0.3, 1)
        tasks.append(_task(
            ["metric", "--family", "spin", "--s", repr(s),
             f"--p={_csv(thetas)}", f"--q={_csv(phis)}"],
            "metric_spin", p=thetas, q=phis, s=s,
        ))
    return tasks


def surfaces(rng: random.Random) -> list[dict]:
    """Enhanced-Hamiltonian surfaces, hbar fits and inequality scans."""
    tasks = []
    for hbar in (1.0, 0.5):
        ps = _strata(rng, -1.0, 1.0, 2)
        qs = _strata(rng, -1.0, 1.0, 2)
        tasks.append(_task(
            ["wcp", "--family", "canonical", "--hbar", repr(hbar),
             f"--p={_csv(ps)}", f"--q={_csv(qs)}"],
            "wcp_canonical", p=ps, q=qs, hbar=hbar,
        ))
    ps = _strata(rng, -2.0, 2.0, 3)
    qs = _strata(rng, 0.3, 3.0, 3)
    tasks.append(_task(
        ["wcp", "--family", "affine", "--hamiltonian", "D.Qinv.D",
         f"--p={_csv(ps)}", f"--q={_csv(qs)}"],
        "wcp_affine", p=ps, q=qs, hbar=1.0, beta=1.0,
    ))
    scans = (
        (3, _strata(rng, 0.0, 0.49, 3)),
        (4, _strata(rng, 0.5, 0.99, 2)),
        (5, _strata(rng, 0.2, 1.2, 1) + [1.3]),
    )
    for n, alphas in scans:
        tasks.append(_task(
            ["inequality", "--n", str(n), f"--alphas={_csv(alphas)}"],
            "inequality", n=n, alphas=alphas,
        ))
    return tasks


WORKLOADS = {"toygravity": toygravity, "rotsym": rotsym, "geometry": geometry,
             "surfaces": surfaces}


def tasks_for(workload: str, seed: int) -> list[dict]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
