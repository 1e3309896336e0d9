"""Nested fixed-point maximum-likelihood estimation.

The outer loop is a BFGS ascent on the dataset log-likelihood; every
evaluation solves the value system once per destination group (the inner
fixed point) and obtains the analytic gradient by implicit differentiation:
observed minus expected attribute totals over the origins' expected state
visits (Fosgerau, Frejinger & Karlstrom, TR-B 2013).  Inner-solve failures
during the line search reject the step; persistent failure is reported
through the result status, never raised past the API boundary.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import core
from .errors import ValueSolveFailed

CONVERGED = "Converged"
INNER_SOLVE_FAILED = "InnerSolveFailed"
LINE_SEARCH_FAILED = "LineSearchFailed"
MAX_ITERATIONS = "MaxIterations"
INVALID_LIKELIHOOD = "InvalidLikelihood"

DEFAULT_BETA_INIT = -1.5
ARMIJO_C1 = 1e-4  # sufficient increase of the Armijo test
# backtrack factor for trials with no likelihood to interpolate (inner-solve
# failures, invalid likelihoods, projected steps that do not ascend)
STEP_SHRINK = 0.5
MIN_STEP = 1e-12  # the line search gives up below this step (sup norm)


@dataclass
class EstimationOptions:
    """Outer-loop controls for the quasi-Newton search."""

    max_iters: int = 200
    tol: float = 1e-6  # scale-aware: ||grad||_inf <= tol * max(1, |L|)


@dataclass
class EstimationResult:
    """Outcome of one estimation run, successful or not."""

    beta_hat: np.ndarray
    loglik: float
    loglik_per_obs: float
    status: str
    iterations: int
    gradient_norm: float
    wall_time: float
    trace: list = field(default_factory=list)

    @property
    def converged(self) -> bool:
        return self.status == CONVERGED

    def to_dict(self) -> dict:
        return {
            "beta_hat": [float(b) for b in np.atleast_1d(self.beta_hat)],
            "loglik": float(self.loglik),
            "loglik_per_obs": float(self.loglik_per_obs),
            "status": self.status,
            "iterations": int(self.iterations),
            "gradient_norm": float(self.gradient_norm),
            "wall_time": float(self.wall_time),
        }


def default_beta_init(k: int) -> np.ndarray:
    return np.full(k, DEFAULT_BETA_INIT)


def loglik_and_gradient(net_by_group, spec: core.UtilitySpec, observations):
    """Dataset log-likelihood and its analytic beta-gradient, read from the
    observations' sufficient statistics.  Each group's gradient is its
    attribute total minus sum_a attrs_a P_a F_from(a), F being the visit
    flows (``core.visit_flows``) of its origin counts.

    Raises ValueSolveFailed when any destination group's value system has no
    solution (the caller maps this to InnerSolveFailed).
    """
    total = 0.0
    grad = np.zeros(len(spec.beta))
    for group, stats in observations.statistics.groups.items():
        net = net_by_group[group]
        vf, report = core.solve_value_linear(net, spec)
        if report.status != core.SOLVED:
            raise ValueSolveFailed(group, f"status {report.status}")
        origins, counts = stats.origin_weights(net)
        probs = core.choice_probabilities(net, spec, vf)
        visits = core.visit_flows(net, vf, probs, np.bincount(origins, counts, net.n_states))
        total += float(stats.attr_total @ spec.beta - counts @ vf.values[origins]) / spec.mu
        grad += (stats.attr_total - net.attrs.T @ (probs * visits[net.arc_from])) / spec.mu
    return total, grad


def _valid(loglik: float) -> bool:
    # path probabilities never exceed one, so a positive (or non-finite)
    # log-likelihood marks numerical breakdown
    return np.isfinite(loglik) and loglik <= 1e-8


def bfgs_maximize(evaluate, x0, opts: EstimationOptions, project=None):
    """BFGS ascent with Armijo backtracking, shared by the RL and nested
    estimators.

    A trial step that fails the Armijo test at a valid likelihood is cut to
    the maximizer of the quadratic through the current likelihood, its
    slope and the trial's likelihood, kept within [0.1, 0.5] of the step;
    a trial without a usable likelihood is cut by ``STEP_SHRINK``.

    ``evaluate(x) -> (loglik, grad)`` may raise ValueSolveFailed at a trial
    point, which rejects the step.  ``project`` optionally clips iterates
    into box bounds.  Returns (x, loglik, gradient sup-norm, status,
    iterations, trace).
    """
    x = np.asarray(x0, dtype=float).copy()
    if project is not None:
        x = project(x)
    trace: list = []
    k = len(x)

    try:
        loglik, grad = evaluate(x)
    except ValueSolveFailed:
        return x, np.nan, np.nan, INNER_SOLVE_FAILED, 0, trace
    if not _valid(loglik):
        return x, loglik, np.nan, INVALID_LIKELIHOOD, 0, trace

    def projected_grad_norm(point, g):
        # at active box bounds the outward gradient component is not a
        # stationarity violation
        if project is None:
            return float(np.max(np.abs(g)))
        return float(np.max(np.abs(project(point + g) - point)))

    # inverse-Hessian approximation of the negated objective; scaled so the
    # first trial step has roughly unit length even on steep likelihoods
    def fresh_h_inv(g):
        return np.eye(k) / max(1.0, float(np.max(np.abs(g))))

    h_inv = fresh_h_inv(grad)
    for it in range(1, opts.max_iters + 1):
        grad_norm = projected_grad_norm(x, grad)
        trace.append((x.copy(), loglik, grad_norm))
        if grad_norm <= opts.tol * max(1.0, abs(loglik)):
            return x, loglik, grad_norm, CONVERGED, it - 1, trace

        p = h_inv @ grad  # ascent direction
        slope = float(grad @ p)
        if not np.isfinite(slope) or slope <= 0:
            h_inv = fresh_h_inv(grad)
            p = h_inv @ grad

        alpha = 1.0
        accepted = False
        while alpha * float(np.max(np.abs(p))) >= MIN_STEP:
            x_new = x + alpha * p
            if project is not None:
                x_new = project(x_new)
            s = x_new - x  # effective step after projection
            slope_eff = float(grad @ s)
            if float(np.max(np.abs(s))) < MIN_STEP:
                break
            if slope_eff <= 0:
                alpha *= STEP_SHRINK
                continue
            try:
                l_new, g_new = evaluate(x_new)
            except ValueSolveFailed:
                alpha *= STEP_SHRINK
                continue
            if not _valid(l_new):
                alpha *= STEP_SHRINK
                continue
            if l_new >= loglik + ARMIJO_C1 * slope_eff:
                accepted = True
                break
            # maximizer of the quadratic through L, the slope and the trial
            # (Nocedal & Wright, section 3.5), kept within [0.1, 0.5] of alpha
            alpha *= min(max(slope_eff / (2.0 * (loglik + slope_eff - l_new)), 0.1), 0.5)
        if not accepted:
            return x, loglik, grad_norm, LINE_SEARCH_FAILED, it, trace

        y = grad - g_new  # gradient change of the negated objective
        sy = float(s @ y)
        # curvature test relative to the step and gradient change: near the
        # optimum both are tiny, and an absolute bound would skip every update
        if sy > 1e-8 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            rho = 1.0 / sy
            left = np.eye(k) - rho * np.outer(s, y)
            h_inv = left @ h_inv @ left.T + rho * np.outer(s, s)
        x, loglik, grad = x_new, l_new, g_new

    grad_norm = float(np.max(np.abs(grad)))
    trace.append((x.copy(), loglik, grad_norm))
    return x, loglik, grad_norm, MAX_ITERATIONS, opts.max_iters, trace


def estimate_nfxp(
    net_by_group,
    observations,
    beta_init=None,
    opts: EstimationOptions | None = None,
) -> EstimationResult:
    """Maximize the log-likelihood by BFGS with Armijo backtracking.

    Inner failures at trial points shrink the step; the run aborts with
    InnerSolveFailed / InvalidLikelihood only when the initial point itself
    is unusable, and with LineSearchFailed when no acceptable step remains.
    """
    opts = opts or EstimationOptions()
    k = next(iter(net_by_group.values())).n_attributes
    x0 = np.asarray(beta_init, dtype=float) if beta_init is not None else default_beta_init(k)
    n_obs = max(len(observations), 1)
    start = time.perf_counter()

    def evaluate(beta):
        return loglik_and_gradient(net_by_group, core.UtilitySpec(beta), observations)

    x, loglik, grad_norm, status, iters, trace = bfgs_maximize(evaluate, x0, opts)
    return EstimationResult(
        beta_hat=x,
        loglik=loglik,
        loglik_per_obs=loglik / n_obs,
        status=status,
        iterations=iters,
        gradient_norm=grad_norm,
        wall_time=time.perf_counter() - start,
        trace=trace,
    )


def uniform_beta_init_sampler(k: int, seed: int):
    """Per-run initial points drawn uniformly from [-2, 0]^K."""
    rng = np.random.default_rng(seed)

    def sample(_run: int) -> np.ndarray:
        return rng.uniform(-2.0, 0.0, size=k)

    return sample


SUCCESS_STATUSES = (CONVERGED, "Optimal")


def success_rate_harness(instances, runs: int, beta_init_sampler, estimators) -> list[dict]:
    """Success percentage and mean successful runtime per instance/estimator.

    ``instances`` is a list of (net_by_group, observations) pairs;
    ``estimators`` maps names to callables (net_by_group, observations,
    beta_init) -> EstimationResult-like.  A run counts as successful when its
    status is Converged (or Optimal for the conic estimator); everything else
    — premature termination, invalid likelihood, solver failure — counts
    against the rate, matching the experimental protocol.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    rows = []
    for idx, (net_by_group, observations) in enumerate(instances):
        for name, estimator in estimators.items():
            n_success = 0
            times = []
            for run in range(runs):
                res = estimator(net_by_group, observations, beta_init_sampler(run))
                if res.status in SUCCESS_STATUSES:
                    n_success += 1
                    times.append(res.wall_time)
            rows.append(
                {
                    "instance": idx,
                    "estimator": name,
                    "success_rate": 100.0 * n_success / runs,
                    "mean_time": float(np.mean(times)) if times else float("nan"),
                }
            )
    return rows
