"""Output checks for the benchmark workloads.

Every check compares an output with a computation made apart from the
program, or with a property the method must have; none compares floats
bitwise with values recorded on another installation.  The two reference
loops below advance the transformed system of the `fhnrds.model` docstring
with their own linear solvers (banded LU for the energy trajectory, a
DST-I diagonalisation for pullback runs in 1-D and 2-D) and their own
profiles; they take only the OU values from `fhnrds.noise` and, for pullback
runs, the initial data from `fhnrds.cocycle`.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
from scipy.fft import dstn
from scipy.linalg import solve_banded

from fhnrds.cocycle import sample_family
from fhnrds.noise import get_ou

# Reference-loop tolerance, relative to the largest value compared.  The
# IMEX update is contractive in the energy norm alpha|v|^2 + beta|u|^2 (the
# u-v coupling cancels in it, f' <= 0, and dt*3u^2 < 2 keeps the explicit
# part stable), so rounding does not grow from step to step: two solvers
# that each round a step to a few ulps (the implicit operator has condition
# number below 2.1 in 1-D and 1.01 in 2-D) drift apart by at most about
# nsteps * 4 ulps = 4000 * 4 * 1.1e-16 = 1.8e-12 in the state, and twice
# that in a quadratic norm, four times in |u|^4.  1e-10 sits above that
# bound by more than 10x; a perturbation of one value by 1e-6 still fails.
REFERENCE_RTOL = 1e-10

# z-score of the statistical OU checks.  Four standard deviations leave a
# false alarm below 1e-4 per check.
Z_TOL = 4.0


def passed(value):
    """A report verdict: JSON `true` or the `1` that `cli._jsonable` writes."""
    return value is True or (type(value) is int and value == 1)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def column(rows, key):
    return np.array([float(r[key]) for r in rows])


def bump(x, center, width):
    r2 = ((x - center) / width) ** 2
    out = np.zeros_like(r2)
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


class _Model:
    """Coefficients, profiles and forcing of a resolved config, rebuilt here."""

    def __init__(self, cfg):
        if cfg["grid.boundary"] != "dirichlet0" or not cfg["noise.enabled"]:
            raise ValueError("the reference loops cover dirichlet0 grids with noise on")
        self.dim = cfg["grid.dim"]
        self.n = cfg["grid.n"]
        self.h = 2.0 * cfg["grid.half_width"] / self.n
        x = -cfg["grid.half_width"] + (np.arange(self.n) + 0.5) * self.h
        self.x = x if self.dim == 1 else np.meshgrid(x, x, indexing="ij")
        self.dt = cfg["solver.dt"]
        self.lam, self.alpha, self.beta, self.sigma = (
            cfg["model.lambda"], cfg["model.alpha"], cfg["model.beta"], cfg["model.sigma"])
        self.p = cfg["model.p"]
        self.sign = cfg["model.f.sign"]
        self.h1 = self.profile(cfg, "noise.h1")
        self.h2 = self.profile(cfg, "noise.h2")
        self.gprof = self.profile(cfg, "forcing.g")
        self.hprof = self.profile(cfg, "forcing.h")
        self.g = self.factor(cfg, "forcing.g")
        self.hf = self.factor(cfg, "forcing.h")
        self.lap_h1 = self.laplacian(self.h1)
        self.cell = self.h**self.dim

    def bump(self, center, width):
        if self.dim == 1:
            return bump(self.x, center, width)
        return bump(self.x[0], center, width) * bump(self.x[1], center, width)

    def profile(self, cfg, prefix):
        return cfg[prefix + ".amplitude"] * self.bump(0.0, cfg[prefix + ".width"])

    @staticmethod
    def factor(cfg, prefix):
        if cfg[prefix + ".kind"] != "sin":
            raise ValueError("the reference loops cover sin forcing only")
        a, c = cfg[prefix + ".a"], cfg[prefix + ".c"]
        return lambda t: math.sin(a * t) + c

    def laplacian(self, f):
        out = -2.0 * self.dim * f
        padded = np.pad(f, 1)
        if self.dim == 1:
            out = out + padded[:-2] + padded[2:]
        else:
            out = out + padded[:-2, 1:-1] + padded[2:, 1:-1] + padded[1:-1, :-2] + padded[1:-1, 2:]
        return out / self.h**2

    def integral(self, f):
        return float(np.sum(f) * self.cell)

    def run(self, u, v, z1, z2, k0, solve, record=None):
        """IMEX loop over len(z1) - 1 steps from PDE step k0."""
        dt = self.dt
        ev = math.exp(-self.sigma * dt)
        gain = (1.0 - ev) / self.sigma
        for k in range(len(z1) - 1):
            t = (k0 + k) * dt
            s = u + self.h1 * z1[k]
            f = self.sign * np.abs(s) ** (self.p - 2.0) * s
            rhs = u + dt * (f + self.g(t) * self.gprof - self.alpha * v
                            + self.lap_h1 * z1[k] - self.alpha * z2[k] * self.h2)
            u_new = solve(rhs)
            v = ev * v + gain * (self.beta * u + self.hf(t) * self.hprof + self.beta * z1[k] * self.h1)
            u = u_new
            if record:
                record(k + 1, u, v)
        return u, v


def energy_reference(cfg, duration=4.0, record_stride=10):
    """(t, E) of the first energy trajectory of `verify`, by banded LU."""
    m = _Model(cfg)
    if m.dim != 1:
        raise ValueError("the energy reference is 1-D")
    d = m.dt / m.h**2
    ab = np.zeros((3, m.n))
    ab[0, 1:] = -d
    ab[1, :] = 1.0 + m.dt * m.lam + 2.0 * d
    ab[2, :-1] = -d
    k0 = round(cfg["experiment.tau"] / m.dt)
    nsteps = round(duration / m.dt)
    seed = cfg["seed"]
    z1 = get_ou(seed, 1, m.lam, m.dt).values(0, nsteps)
    z2 = get_ou(seed, 2, m.sigma, m.dt).values(0, nsteps)
    u = m.bump(0.0, 6.0)
    v = m.bump(4.0, 6.0)
    ts, es = [k0 * m.dt], [m.alpha * m.integral(v * v) + m.beta * m.integral(u * u)]

    def record(k, u, v):
        if k % record_stride == 0 or k == nsteps:
            ts.append((k0 + k) * m.dt)
            es.append(m.alpha * m.integral(v * v) + m.beta * m.integral(u * u))

    m.run(u, v, z1, z2, k0, lambda rhs: solve_banded((1, 1), ab, rhs), record)
    return np.array(ts), np.array(es)


def pullback_states(cfg, t, seed):
    """(model, [(u~, v~) at tau per family sample]) of pullback time t on path `seed`, by DST-I."""
    m = _Model(cfg)
    n = m.n
    mu = 4.0 * np.sin(np.pi * np.arange(1, n + 1) / (2.0 * (n + 1))) ** 2
    mu = mu if m.dim == 1 else mu[:, None] + mu[None, :]
    denom = 1.0 + m.dt * m.lam + m.dt / m.h**2 * mu

    axes = tuple(range(-m.dim, 0))  # the samples advance together along axis 0

    def solve(rhs):
        return dstn(dstn(rhs, type=1, norm="ortho", axes=axes) / denom, type=1, norm="ortho", axes=axes)

    tau = cfg["experiment.tau"]
    nsteps = round(t / m.dt)
    k0 = round(tau / m.dt) - nsteps
    z1 = get_ou(seed, 1, m.lam, m.dt).values(-nsteps, 0)
    z2 = get_ou(seed, 2, m.sigma, m.dt).values(-nsteps, 0)
    delta = min(m.lam, m.sigma)
    fam = cfg.family_spec(delta)
    grid = cfg.grid()
    inits = sample_family(fam, tau, t, grid, seed=0)
    u = np.stack([u0.values for u0, _ in inits]) - m.h1 * z1[0]
    v = np.stack([v0.values for _, v0 in inits]) - m.h2 * z2[0]
    u, v = m.run(u, v, z1, z2, k0, solve)
    return m, list(zip(u, v))


def pullback_reference(cfg, t):
    """(u_l2sq, v_l2sq, u_lp_p) at tau per family sample of pullback time t, by DST-I."""
    m, states = pullback_states(cfg, t, cfg["seed"])
    return [(m.integral(u * u), m.integral(v * v), m.integral(np.abs(u) ** m.p)) for u, v in states]


def _close(actual, expected, what, scale=None):
    """Relative to `scale`, by default the largest value compared."""
    actual, expected = np.asarray(actual, float), np.asarray(expected, float)
    if actual.shape != expected.shape:
        return [f"{what}: {actual.shape} values, reference has {expected.shape}"]
    if scale is None:
        scale = float(np.max(np.abs(expected)))
    scale = max(scale, np.finfo(float).tiny)
    err = float(np.max(np.abs(actual - expected))) / scale
    if not err <= REFERENCE_RTOL:
        return [f"{what}: relative difference {err:.3e} from the reference exceeds {REFERENCE_RTOL:g}"]
    return []


# ---------------------------------------------------------------------------
# verify


def check_report(out):
    report = json.loads((Path(out) / "report.json").read_text())
    bad = [c["name"] for c in report["checks"] if not passed(c["pass"])]
    if bad or not passed(report["pass"]):
        return [f"report.json: checks not passing: {bad or 'overall'}"]
    return []


def check_defects(out, min_ratio=1e-3):
    """Pullback attraction: each seed's Cauchy defect falls at every schedule step."""
    errors = []
    rows = read_rows(Path(out) / "defect_vs_t.csv")
    for seed in sorted({r["seed"] for r in rows}):
        mine = sorted((r for r in rows if r["seed"] == seed), key=lambda r: float(r["t"]))
        for key in ("defect_l2", "defect_lp"):
            d = column(mine, key)
            if len(d) < 2 or not np.all(np.isfinite(d)) or not np.all(np.diff(d) < 0):
                errors.append(f"defect_vs_t.csv: seed {seed} {key} does not fall: {d.tolist()}")
            elif not d[-1] <= min_ratio * d[0]:
                errors.append(f"defect_vs_t.csv: seed {seed} {key} ends at {d[-1]:.3g}, "
                              f"not below {min_ratio:g} x its first value {d[0]:.3g}")
    return errors


def check_tails(out):
    """sup_tail is a measure of superlevel sets, so it cannot grow with M."""
    errors = []
    rows = read_rows(Path(out) / "tail_vs_M.csv")
    for seed in sorted({r["seed"] for r in rows}):
        mine = sorted((r for r in rows if r["seed"] == seed), key=lambda r: float(r["M"]))
        s = column(mine, "sup_tail")
        if not np.all(np.diff(s) <= 0):
            errors.append(f"tail_vs_M.csv: seed {seed} sup_tail increases with M: {s.tolist()}")
    return errors


def check_radius_temperedness(out, delta):
    """e^{-delta t} R(theta_{-t} omega) decays at rate delta.

    R along the shifted path is stationary, so log(series) has slope
    -delta up to its fluctuation; accept a least-squares slope within 25% of
    -delta and a total decay below 1e-6.
    """
    rows = read_rows(Path(out) / "radius_temperedness.csv")
    t, s = column(rows, "t"), column(rows, "series")
    if not (np.all(s > 0) and np.all(np.isfinite(s))):
        return ["radius_temperedness.csv: series not finite and positive"]
    slope = float(np.polyfit(t, np.log(s), 1)[0])
    errors = []
    if not abs(slope + delta) <= 0.25 * delta:
        errors.append(f"radius_temperedness.csv: log-slope {slope:.3f}, expected {-delta:g}")
    if not s[-1] <= 1e-6 * s[0]:
        errors.append(f"radius_temperedness.csv: decay {s[-1] / s[0]:.3e} not below 1e-6")
    return errors


def check_energy_records(out, cfg):
    rows = read_rows(Path(out) / "energy_records.csv")
    t_ref, e_ref = energy_reference(cfg)
    errors = _close(column(rows, "t"), t_ref, "energy_records.csv t")
    return errors or _close(column(rows, "E"), e_ref, "energy_records.csv E")


def check_first_defect(out, cfg):
    """The first Cauchy defect d(t1, t0) of each pullback seed, by DST-I.

    The defect is a distance between two terminal states, each within
    REFERENCE_RTOL of the reference relative to its own size, so it is
    compared relative to the largest state norm rather than to itself.
    """
    t0, t1 = sorted(cfg.t_schedule())[:2]
    rows = read_rows(Path(out) / "defect_vs_t.csv")
    errors = []
    for seed in range(cfg["seed"], cfg["seed"] + cfg["experiment.seed_count"]):
        m, early = pullback_states(cfg, t0, seed)
        _, late = pullback_states(cfg, t1, seed)
        d2 = dp = scale = 0.0
        for (ua, va), (ub, vb) in zip(early, late):
            du, dv = ua - ub, va - vb
            d2 = max(d2, math.sqrt(m.integral(du * du) + m.integral(dv * dv)))
            dp = max(dp, math.sqrt(m.integral(np.abs(du) ** m.p) ** (2.0 / m.p) + m.integral(dv * dv)))
            for u, v in ((ua, va), (ub, vb)):
                v2 = m.integral(v * v)
                scale = max(scale, math.sqrt(m.integral(u * u) + v2),
                            math.sqrt(m.integral(np.abs(u) ** m.p) ** (2.0 / m.p) + v2))
        mine = [r for r in rows if int(r["seed"]) == seed and float(r["t"]) == t1]
        if len(mine) != 1:
            errors.append(f"defect_vs_t.csv: {len(mine)} rows for seed {seed} at t={t1:g}")
            continue
        for key, ref in (("defect_l2", d2), ("defect_lp", dp)):
            errors += _close(float(mine[0][key]), ref, f"defect_vs_t.csv seed {seed} {key} at t={t1:g}", scale)
    return errors


def check_verify(out, cfg):
    errors = check_report(out)
    errors += check_defects(out)
    errors += check_tails(out)
    errors += check_radius_temperedness(out, min(cfg["model.lambda"], cfg["model.sigma"]))
    errors += check_energy_records(out, cfg)
    errors += check_first_defect(out, cfg)
    return errors


def check_identical(out, reference):
    """report.json and every CSV byte-identical to a run of another worker count."""
    names = sorted(p.name for p in Path(reference).iterdir() if p.suffix == ".csv")
    mine = sorted(p.name for p in Path(out).iterdir() if p.suffix == ".csv")
    if names != mine:
        return [f"CSV files differ: {mine} against {names}"]
    return [f"{name} differs from the 1-worker run"
            for name in ["report.json", *names]
            if (Path(out) / name).read_bytes() != (Path(reference) / name).read_bytes()]


# ---------------------------------------------------------------------------
# pullback


def check_pullback(out, cfg):
    rows = read_rows(Path(out) / "pullback.csv")
    errors = []
    norms = np.array([[float(r[k]) for k in ("u_l2sq", "v_l2sq", "u_lp_p")] for r in rows])
    if not np.all(np.isfinite(norms)):
        errors.append("pullback.csv: non-finite norms")
    ts = sorted({float(r["t_elapsed"]) for r in rows})
    for sid in sorted({r["sample_id"] for r in rows}):
        mine = sorted((r for r in rows if r["sample_id"] == sid), key=lambda r: float(r["t_elapsed"]))
        for key in ("dist_to_prev_t_l2", "dist_to_prev_t_lp"):
            d = column(mine, key)[1:]
            if not (np.all(np.isfinite(d)) and np.all(np.diff(d) < 0)):
                errors.append(f"pullback.csv: sample {sid} {key} does not fall: {d.tolist()}")
    t0 = ts[0]
    first = sorted((r for r in rows if float(r["t_elapsed"]) == t0), key=lambda r: int(r["sample_id"]))
    actual = [[float(r[k]) for k in ("u_l2sq", "v_l2sq", "u_lp_p")] for r in first]
    expected = pullback_reference(cfg, t0)
    for key, a, e in zip(("u_l2sq", "v_l2sq", "u_lp_p"), np.transpose(actual), np.transpose(expected)):
        errors += _close(a, e, f"pullback.csv t={t0:g} {key}")
    return errors


# ---------------------------------------------------------------------------
# noise


def check_ou_series(out, cfg):
    """Stationary OU statistics of the strided series in ou_series.csv.

    For N samples of an AR(1) sequence with lag-one correlation
    rho = exp(-rate*dt_s), the sample variance has relative standard
    deviation sqrt(2/N * (1+rho^2)/(1-rho^2)) and the lag-one sample
    autocorrelation has standard deviation sqrt((1-rho^2)/N).  Both are
    checked against their stationary values to Z_TOL standard deviations.
    """
    rows = read_rows(Path(out) / "ou_series.csv")
    t = column(rows, "t")
    dt_s = float(t[1] - t[0])
    errors = []
    for key, rate in (("z1", cfg["model.lambda"]), ("z2", cfg["model.sigma"])):
        z = column(rows, key)
        n = len(z)
        rho = math.exp(-rate * dt_s)
        var = float(np.var(z, ddof=1))
        target = 1.0 / (2.0 * rate)
        rel_sd = math.sqrt(2.0 / n * (1.0 + rho**2) / (1.0 - rho**2))
        if not abs(var / target - 1.0) <= Z_TOL * rel_sd:
            errors.append(f"ou_series.csv: {key} variance {var:.4f}, expected {target:.4f} "
                          f"+- {Z_TOL * rel_sd * target:.4f}")
        c = z - z.mean()
        r1 = float(np.dot(c[:-1], c[1:]) / np.dot(c, c))
        sd = math.sqrt((1.0 - rho**2) / n)
        if not abs(r1 - rho) <= Z_TOL * sd:
            errors.append(f"ou_series.csv: {key} lag-one autocorrelation {r1:.4f}, "
                          f"expected {rho:.4f} +- {Z_TOL * sd:.4f}")
    return errors


def check_ou_temperedness(out):
    """exp(-delta t)|z|^p decays: its maximum over each quarter of the
    horizon falls, and the last quarter is below 1e-6 of the first."""
    rows = read_rows(Path(out) / "ou_temperedness.csv")
    errors = []
    for comp in sorted({r["component"] for r in rows}):
        mine = [r for r in rows if r["component"] == comp]
        t, s = column(mine, "t"), column(mine, "series")
        edges = np.linspace(t.min(), t.max(), 5)
        peaks = [float(np.max(s[(t >= a) & (t <= b)])) for a, b in zip(edges, edges[1:])]
        falls = all(b < a or b == 0.0 for a, b in zip(peaks, peaks[1:]))
        if not (falls and peaks[-1] <= 1e-6 * peaks[0]):
            errors.append(f"ou_temperedness.csv: {comp} quarter maxima do not decay: {peaks}")
    return errors


def check_noise(out, cfg):
    return check_ou_series(out, cfg) + check_ou_temperedness(out)
