"""Quantitative verifiers for the dissipation/absorption/tail estimates.

Everything here is report-producing: the simulation modules produce
trajectories and terminal states, and these functions check the discrete
analogues of the energy inequality, absorbing-radius bounds, Chebyshev
measure bound, truncation tails, and the bi-spatial Cauchy-defect
convergence of the pullback attractor approximation.

Each verdict of `fhnrds verify` is one function over every seed that
returns one `Check`.  The constants it tests against are its arguments:
the `calibrate_*` functions fit them from an ensemble (smallest constant
whose Gronwall envelope dominates the observed norms, times a 1.1 safety
factor), and they are persisted with the experiment record.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import RunError
# `pullback` is imported for the per-layer tracer of perfbench/spans.py,
# which wraps it here; the ensemble below steps its runs with `phi_batch`
from .cocycle import CocycleInput, phi_batch, pullback, sample_family  # noqa: F401
from .fields import ScalarField, l2_sq, lp_p, superlevel_measure, tail_integrals
from .model import history_quadrature
from .noise import OuProcess, step_index

CALIBRATION_CAP = 1e6
CALIBRATION_FLOOR = 1e-6
CALIBRATION_MIN_RUNS = 20  # pullback runs `calibrate_constant` fits on
ENERGY_WINDOW = 4.0  # verify's energy trajectories run over [tau, tau + ENERGY_WINDOW]
TEMPEREDNESS_TIMES = np.arange(0.0, 51.0, 2.0)  # the t of `radius_temperedness`


class CalibrationError(RunError, RuntimeError):
    """No finite constant below `CALIBRATION_CAP` fits the runs."""

    kind = "calibration"


@dataclass
class Check:
    """One verdict of `fhnrds verify` over every seed, or of `attractor` over its one.

    Its report entry is {"name", "pass", **details}; `fixtures` join the
    report's fixtures, and `table` is (file name, header, rows) or None.
    The calibration constants come in as arguments: no verdict fits one.
    """

    name: str
    passed: bool
    details: dict
    fixtures: dict
    table: tuple | None


# ---------------------------------------------------------------------------
# energy inequality


def energy_records(traj, spec):
    """Per-sample (E, dissipation, forcing, noise) of one trajectory.

    E = alpha |v|^2 + beta |u|^2;
    dissipation = delta E + (delta alpha / 2) |v|^2 + alpha1 beta |u~|_p^p;
    forcing = (4 beta/lambda) |g|^2 + (4 alpha/sigma) |h|^2;
    noise = |z1|^p + |z2|^2 + 1.
    The right-hand side of the energy inequality is rhs = forcing + c_noise * noise.
    """
    E = traj.energy
    d = spec.delta
    dissipation = d * E + 0.5 * d * spec.alpha * traj.v_l2sq + spec.alpha1 * spec.beta * traj.utilde_lp_p
    forcing = ((4.0 * spec.beta / spec.lam) * spec.g.l2sq_at(traj.t)
               + (4.0 * spec.alpha / spec.sigma) * spec.h.l2sq_at(traj.t))
    noise = np.abs(traj.z1) ** spec.p + traj.z2**2 + 1.0
    return E, dissipation, forcing, noise


def verify_energy_inequality(trajs, spec, c_noise, tol_abs, tol_rel):
    """Forward-difference check of the discrete energy inequality.

    Checks (E_{n+1} - E_n)/dt + dissipation_n <= rhs_n + slack at every
    recorded interval of every trajectory; slack = tol_abs + tol_rel *
    max(E_n, rhs_n).  The table holds the records of the first trajectory.
    """
    worst = -np.inf
    passed = True
    for traj in trajs:
        E, dissipation, forcing, noise = energy_records(traj, spec)
        rhs = forcing + c_noise * noise
        lhs = np.diff(E) / np.diff(traj.t) + dissipation[:-1]
        slack = tol_abs + tol_rel * np.maximum(E[:-1], rhs[:-1])
        margin = float(np.max(lhs - rhs[:-1] - slack))
        passed = passed and margin <= 0.0
        worst = max(worst, margin)
        if traj is trajs[0]:
            table = list(zip(traj.t, E, dissipation, rhs))
    return Check("energy_inequality", passed, {"worst_margin": worst, "seeds": len(trajs)}, {},
                 ("energy_records.csv", ["t", "E", "dissipation", "rhs"], table))


def calibrate_noise_constant(trajs, spec):
    """Smallest pointwise constant closing the energy inequality, times 1.1.

    The forcing coefficients of the right-hand side are the explicit ones;
    only the noise/structure constant is free.
    """
    c_req = 0.0
    for traj in trajs:
        E, dissipation, forcing, noise = energy_records(traj, spec)
        lhs = np.diff(E) / np.diff(traj.t) + dissipation[:-1]
        c_req = max(c_req, float(np.max((lhs - forcing[:-1]) / noise[:-1])))
    if c_req > CALIBRATION_CAP:
        raise CalibrationError(f"no finite constant below cap (required {c_req:.3e})")
    return max(1.1 * c_req, CALIBRATION_FLOOR)


def _lemma41_moments(z1, z2, p):
    """The OU-moment integrand of lemma 4.1, |z1|^(2p-2) + |z1|^p + z1^2 + z2^2."""
    z1a = np.abs(z1)
    return z1a ** (2.0 * p - 2.0) + z1a**p + z1**2 + z2**2


def calibrate_constant(runs, spec, tau):
    """Single multiplicative constant of the absorbing radius, from an ensemble.

    Returns the smallest c such that c times the Gronwall-envelope
    quadrature of the energy inequality -- constant term 1 plus the damped
    forcing and OU-moment integrals anchored at tau, the exact structure of
    the absorbing radius -- dominates |u|^2 + |v|^2 on [tau-1, tau] in every
    run, times safety factor 1.1.  Because the quadrature grows toward tau
    and extends over a longer horizon inside the radius itself, this makes
    terminal absorption on the calibration ensemble a consequence of the
    definition.  Ensembles of all-zero runs degenerate to the floor value
    and are flagged.
    """
    if len(runs) < CALIBRATION_MIN_RUNS:
        raise ValueError(f"calibration needs at least {CALIBRATION_MIN_RUNS} trajectories")
    d = spec.delta
    c_req = 0.0
    degenerate = True
    for traj in runs:
        t = traj.t
        S = traj.u_l2sq + traj.v_l2sq
        if np.max(S) > 0:
            degenerate = False
        moments = _lemma41_moments(traj.z1, traj.z2, spec.p)
        integrand = np.exp(d * (t - tau)) * (spec.g.l2sq_at(t) + spec.h.l2sq_at(t) + moments)
        incr = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(t)
        denom = 1.0 + np.concatenate(([0.0], np.cumsum(incr)))
        window = t >= tau - 1.0
        c_req = max(c_req, float(np.max(S[window] / denom[window])))
    if not np.isfinite(c_req) or c_req > CALIBRATION_CAP:
        raise CalibrationError(f"no finite constant below cap (required {c_req:.3e})")
    c = max(1.1 * c_req, CALIBRATION_FLOOR)
    return c, degenerate


def _calibrated(sup, components, what):
    """1.1 * sup over the unit radius of `components`, within floor and cap."""
    denom = components.unit_radius
    c = 1.1 * sup / denom if denom > 0 else CALIBRATION_FLOOR
    if c > CALIBRATION_CAP:
        raise CalibrationError(f"no finite {what} below cap (required {c:.3e})")
    return max(c, CALIBRATION_FLOOR)


def calibrate_rho_constant(runs, components):
    """Constant of the transformed-variable absorbing ball, same 1.1 policy."""
    sup = 0.0
    for r in runs:
        u, v = r.u_tilde, r.v_tilde
        sup = max(sup, l2_sq(u.values, u.grid) + l2_sq(v.values, v.grid))
    return _calibrated(sup, components, "constant")


def rho_radius(runs, spec, forcing, z, dt):
    """Squared radius of the transformed-variable absorbing ball of one
    seed: its "rho" quadrature over `z` times the constant fitted on its runs."""
    rho = absorbing_radius(spec, 1.0, forcing, z, dt, kind="rho")
    return calibrate_rho_constant(runs, rho) * rho.unit_radius


# ---------------------------------------------------------------------------
# absorbing radius


@dataclass
class AbsorbingSetSpec:
    c_cal: float
    constant_term: float
    forcing_quad: float
    ou_quad: float
    converged: bool

    @property
    def unit_radius(self):
        """The radius at c_cal = 1."""
        return self.constant_term + self.forcing_quad + self.ou_quad

    @property
    def radius(self):
        return self.c_cal * self.unit_radius


def ou_history(path, spec, horizon):
    """(z1, z2) at the steps of [-horizon, 0] along `path`, whatever h1 and h2:
    the radii's OU moments are not weighted by them, and the records of
    `solve_batch`, which `calibrate_constant` fits, carry the same path."""
    n = step_index(horizon, path.dt)
    return tuple(OuProcess(path.seed, c, rate, path.dt).values(path.offset - n, path.offset)
                 for c, rate in ((1, spec.lam), (2, spec.sigma)))


def absorbing_radius(spec, c_cal, forcing, z, dt, kind="lemma41"):
    """Quadrature form of the pullback absorbing radius at (tau, omega).

    kind "lemma41": OU-moment integrand `_lemma41_moments` and unit constant
    term.  kind "rho": integrand |z1|^p + |z2|^2 and constant term
    1 + z1(0)^2 + z2(0)^2 (the L2 absorbing-ball radius).
    Converged when both the forcing and the OU-moment history quadratures
    are, by the rule of `model.history_quadrature`.  `forcing` is the pair of
    `model.validate_forcing` at tau, the same at every omega, and `z` the OU
    history of omega at the steps dt of [-horizon, 0], `ou_history`'s pair.
    """
    forcing_quad, forcing_converged = forcing
    z1, z2 = z
    n = len(z1) - 1
    wz = np.exp(spec.delta * (np.arange(n + 1) - n) * dt)
    if kind == "lemma41":
        moments = _lemma41_moments(z1, z2, spec.p)
        const = 1.0
    elif kind == "rho":
        moments = np.abs(z1) ** spec.p + z2**2
        const = 1.0 + z1[-1] ** 2 + z2[-1] ** 2
    else:
        raise ValueError(f"unknown radius kind {kind!r}")
    ou_quad, ou_converged = history_quadrature(wz * moments, dt)
    return AbsorbingSetSpec(c_cal, const, forcing_quad, ou_quad, forcing_converged and ou_converged)


def radius_temperedness(path, spec, c_cal, forcing, horizon):
    """Series t -> e^{-delta t} R(tau, theta_{-t} omega) of the lemma41 radius at
    t = 0, 2, ..., 50, which must decay by a factor 1e-6; one `forcing` pair serves every t."""
    # the shifted histories overlap, so one read of their union fills each
    # OU block once, however few blocks the process keeps
    n, back = step_index(horizon, path.dt), step_index(TEMPEREDNESS_TIMES[-1], path.dt)
    z1, z2 = ou_history(path, spec, horizon + TEMPEREDNESS_TIMES[-1])
    vals = []
    for t in TEMPEREDNESS_TIMES:
        k = back - step_index(t, path.dt)
        z = (z1[k : k + n + 1], z2[k : k + n + 1])
        r = absorbing_radius(spec, c_cal, forcing, z, path.dt)
        vals.append(np.exp(-spec.delta * t) * r.radius)
    vals = np.asarray(vals)
    passed = bool(vals[-1] <= 1e-6 * vals[0]) if vals[0] > 0 else True
    return Check("radius_temperedness", passed, {"decay": float(vals[-1] / vals[0])}, {},
                 ("radius_temperedness.csv", ["t", "series"], list(zip(TEMPEREDNESS_TIMES, vals))))


# ---------------------------------------------------------------------------
# experiment-level reports (consume precomputed pullback runs)


@dataclass
class PullbackRun:
    """One pullback evaluation: elapsed time, sample id, and its outputs."""

    t: float
    sample_id: int
    seed: int
    traj: object  # Trajectory
    u_tilde: ScalarField
    v_tilde: ScalarField

    @property
    def terminal_l2sq(self):
        return float(self.traj.u_l2sq[-1] + self.traj.v_l2sq[-1])


def run_pullback_ensemble(tau, paths, fam, spec, solver, t_schedule, snapshot_stride=None):
    """All pullback evaluations needed by the experiment reports, per path.

    One family draw per t (the ball radius grows with t); every run of a
    path reuses its noise realization, which is what makes the schedule a
    pullback sequence rather than independent experiments.  All runs land
    at tau, so the runs of every path are stepped as one batch; each is
    bitwise what `cocycle.pullback` gives for it alone.  Returns one list of
    runs per path, ordered by (t, sample id).
    """
    ts = sorted(t_schedule)
    inits = {t: sample_family(fam, tau, t, spec.grid) for t in ts}
    keys = [(path, t, sid) for path in paths for t in ts for sid in range(len(inits[t]))]
    results = phi_batch(
        [CocycleInput(t, tau - t, path.shift(-t), *inits[t][sid]) for path, t, sid in keys],
        spec, solver, snapshot_stride=snapshot_stride,
    )
    runs = [
        PullbackRun(t, sid, path.seed, traj, u_t, v_t)
        for (path, t, sid), ((u_t, v_t), traj) in zip(keys, results)
    ]
    per_path = sum(len(inits[t]) for t in ts)
    return [runs[i * per_path : (i + 1) * per_path] for i in range(len(paths))]


def absorption_report(ensembles, radii, t_check):
    """Empirical absorption time of each seed's runs at the times `t_check`.

    A seed is absorbed from the first t after which every run's terminal
    |u|^2 + |v|^2 stays within its radius; each radius must also converge.
    """
    passed = True
    times = {}
    for runs, R in zip(ensembles, radii):
        ts = sorted({r.t for r in runs if r.t in t_check})
        inside = [max(r.terminal_l2sq for r in runs if r.t == t) <= R.radius for t in ts]
        T_emp = next((t for k, t in enumerate(ts) if all(inside[k:])), None)
        passed = passed and T_emp is not None and R.converged
        times[runs[0].seed] = T_emp
    return Check("absorption", bool(passed), {"seeds": len(ensembles)},
                 {"absorption_time_by_seed": times}, None)


def _window_sup(runs, tau, norm):
    """Largest norm(traj) over the unit window [tau-1, tau] of every run."""
    sup = 0.0
    for r in runs:
        sup = max(sup, float(np.max(norm(r.traj)[r.traj.t >= tau - 1.0])))
    return sup


def compact_interval_report(ensembles, radii, c_lp, tau):
    """Sup over the unit window [tau-1, tau] of each seed's L2 and Lp norms
    against its radius and c_lp times its unit radius."""
    passed = True
    for runs, R in zip(ensembles, radii):
        sup_l2 = _window_sup(runs, tau, lambda traj: traj.u_l2sq + traj.v_l2sq)
        sup_lp = _window_sup(runs, tau, lambda traj: traj.u_lp_p)
        passed = passed and sup_l2 <= R.radius and sup_lp <= c_lp * R.unit_radius
    return Check("compact_interval_bounds", bool(passed), {"c_lp": c_lp}, {}, None)


def calibrate_lp_constant(runs, tau, components):
    """Structure constant for the Lp-norm bound over [tau-1, tau]."""
    return _calibrated(_window_sup(runs, tau, lambda traj: traj.u_lp_p), components, "Lp constant")


def chebyshev_report(runs, M_values):
    """meas * M^2 <= |u|^2 on every recorded snapshot -- the exact form."""
    violations = []
    checked = 0
    for r in runs:
        for t, u_vals in r.traj.snapshots:
            f = ScalarField(r.traj.final.grid, u_vals)
            usq = l2_sq(u_vals, f.grid)
            for M in M_values:
                meas = superlevel_measure(f, M)
                checked += 1
                if meas * M * M > usq:
                    violations.append({"t": t, "M": M, "seed": r.seed})
    return Check("chebyshev_measure_bound", not violations,
                 {"checked": checked, "violations": violations}, {}, None)


def truncation_tail_report(ensembles, spec, M_schedule, eta):
    """Tail smallness of each seed's terminal u~ fields over the pullback schedule.

    For each M takes the sup over a seed's runs (all t in the schedule, i.e.
    t >= T with T the smallest entry) of the superlevel integral of |u~|^p,
    which must not rise with M, and finds the smallest M_star pushing the
    sup below eta.  M_star must lie within ten times max|u~|, unless it is
    the smallest M of the schedule: then no M nearer the scale of u~ was
    tried.
    """
    M_schedule = list(M_schedule)
    if any(b <= a for a, b in zip(M_schedule, M_schedule[1:])):
        raise ValueError("M_schedule must be increasing")
    passed = True
    M_stars = {}
    rows = []
    for runs in ensembles:
        sup_tail = np.zeros(len(M_schedule))
        max_abs = 0.0
        for r in runs:
            u = r.u_tilde
            max_abs = max(max_abs, float(np.max(np.abs(u.values))))
            np.maximum(sup_tail, tail_integrals(u, M_schedule, spec.p), out=sup_tail)
        monotone = bool(np.all(np.diff(sup_tail) <= 0.0))
        M_star = next((M for M, tail in zip(M_schedule, sup_tail) if tail <= eta), None)
        scaled = M_star is not None and (M_star == M_schedule[0] or M_star <= 10.0 * max_abs)
        passed = passed and monotone and scaled
        M_stars[runs[0].seed] = M_star
        rows.extend((runs[0].seed, M, tail) for M, tail in zip(M_schedule, sup_tail.tolist()))
    return Check("truncation_tails", passed, {"eta": eta},
                 {"M_star_by_seed": M_stars},
                 ("tail_vs_M.csv", ["seed", "M", "sup_tail"], rows))


# ---------------------------------------------------------------------------
# attractor approximation and bi-spatial equality


def pair_dist(a, b, p=None):
    """Distance of state pairs (u, v): L2xL2, or LpxL2 when `p` is given."""
    grid = a[0].grid
    du = a[0].values - b[0].values
    dv = a[1].values - b[1].values
    if p is None:
        return float(np.sqrt(l2_sq(du, grid) + l2_sq(dv, grid)))
    return float(np.sqrt(lp_p(du, grid, p) ** (2.0 / p) + l2_sq(dv, grid)))


@dataclass
class AttractorApprox:
    points: list  # (u~, v~) at the largest schedule time
    provenance: list  # (t_elapsed, sample_id)
    pairwise_l2: np.ndarray
    pairwise_lp: np.ndarray
    schedule: list  # the t of the runs, increasing
    defects_l2: list  # Cauchy defect between consecutive schedule entries
    defects_lp: list


def attractor_from_runs(runs, p):
    """Terminal pullback states at the largest schedule time, with defects.

    The Cauchy defect compares each sample's terminal at t_max against the
    same sample's terminal at the previous schedule entry (t_max / 2 for a
    geometric schedule).  A single-entry schedule has no defect.
    """
    ts, dist = sample_defects(runs, p)
    # the largest distance at each schedule entry after the first
    d_l2 = [max([0.0] + [d2 for (s, _), (d2, _) in dist.items() if s == t]) for t in ts[1:]]
    d_lp = [max([0.0] + [dp for (s, _), (_, dp) in dist.items() if s == t]) for t in ts[1:]]
    points = []
    prov = []
    for r in sorted(runs, key=lambda r: r.sample_id):
        if r.t == ts[-1]:
            points.append((r.u_tilde, r.v_tilde))
            prov.append((r.t, r.sample_id))
    m = len(points)
    pl2 = np.zeros((m, m))
    plp = np.zeros((m, m))
    for i in range(m):
        for j in range(i + 1, m):
            pl2[i, j] = pl2[j, i] = pair_dist(points[i], points[j])
            plp[i, j] = plp[j, i] = pair_dist(points[i], points[j], p)
    return AttractorApprox(points, prov, pl2, plp, ts, d_l2, d_lp)


def sample_defects(runs, p):
    """(schedule, {(t, sample id): (L2, Lp) distance}) of each run's terminal
    to the same sample's terminal at the previous schedule entry.

    Runs at the first entry, or whose sample did not run at the previous
    one, have no entry.
    """
    ts = sorted(set(r.t for r in runs))
    prev = dict(zip(ts[1:], ts))
    by_key = {(r.t, r.sample_id): r for r in runs}
    dist = {}
    for (t, sid), rb in sorted(by_key.items()):
        ra = by_key.get((prev.get(t), sid))
        if ra is not None:
            a, b = (ra.u_tilde, ra.v_tilde), (rb.u_tilde, rb.v_tilde)
            dist[t, sid] = (pair_dist(a, b), pair_dist(a, b, p))
    return ts, dist


# a defect may exceed the previous one by this factor plus a rounding slack
DEFECT_STEP_FACTOR = 1.5
DEFECT_STEP_SLACK = 1e-12


def bispatial_equality_check(approx, tolerance):
    """Whether the same terminal points converge in both topologies.

    True when the L2 and Lp defect sequences are both decreasing and their
    final entries are within tolerance.  A single step may fluctuate up to
    DEFECT_STEP_FACTOR times the previous defect (plus DEFECT_STEP_SLACK
    for rounding): early entries of the schedule sit in the noise-dominated
    transient, where exact monotonicity is not a consequence of contraction.
    A one-entry schedule has no defect, and fails.
    """
    if not approx.defects_l2:
        return False
    seqs = (approx.defects_l2, approx.defects_lp)
    rising = any(b > DEFECT_STEP_FACTOR * a + DEFECT_STEP_SLACK
                 for seq in seqs for a, b in zip(seq, seq[1:]))
    return not rising and all(seq[-1] <= tolerance for seq in seqs)


def containment_check(approx, rho):
    """Every approximation point inside the L2xL2 ball of radius sqrt(rho)."""
    return all(l2_sq(u.values, u.grid) + l2_sq(v.values, v.grid) <= rho for u, v in approx.points)


def bispatial_report(ensembles, rho_radii, spec, tolerance):
    """Each seed's attractor approximation converges in both topologies
    (`bispatial_equality_check`) and lies in its rho ball (`rho_radius`).

    A one-entry schedule has no defect: the check fails, is flagged as a
    degenerate schedule, and each seed's final defects are null.
    """
    passed = True
    details = {}
    defects = {}
    rows = []
    for runs, rho in zip(ensembles, rho_radii):
        seed = runs[0].seed
        ap = attractor_from_runs(runs, spec.p)
        converged = bispatial_equality_check(ap, tolerance)
        contained = containment_check(ap, rho)
        passed = passed and converged and contained
        rows.extend(
            (seed, t, d2, dp) for t, d2, dp in zip(ap.schedule[1:], ap.defects_l2, ap.defects_lp)
        )
        if ap.defects_l2:
            defects[seed] = {"l2": ap.defects_l2[-1], "lp": ap.defects_lp[-1]}
        else:
            details["flagged"] = "degenerate schedule"
            defects[seed] = {"l2": None, "lp": None}
    return Check("bispatial_equality", passed, details,
                 {"final_defect_by_seed": defects},
                 ("defect_vs_t.csv", ["seed", "t", "defect_l2", "defect_lp"], rows))
