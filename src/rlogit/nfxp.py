"""Nested fixed-point maximum-likelihood estimation.

The outer loop is a Newton ascent on the dataset log-likelihood, which is
concave in beta wherever the value system is solvable (Rust, Econometrica
1987; Fosgerau, Frejinger & Karlstrom, TR-B 2013).  Every evaluation solves
the value system once per destination group (the inner fixed point) and
differentiates it implicitly on that solve's factor: the gradient is
observed minus expected attribute totals over the origins' expected state
visits F, and the exact Hessian -sum_s F_s Cov_s(x_a + J_to(a)) adds the
value Jacobian J = dV/dbeta, one K-column forward solve.  Inner-solve
failures during the line search reject the step; persistent failure is
reported through the result status, never raised past the API boundary.
Steps are bounded relative to ||beta||_inf, so where the likelihood is
nearly linear the trials do not run far past the solvable region.

``bfgs_maximize`` serves per-state nested-logit fits, whose (beta, log mu)
problem is not concave; a shared scale is not identified, so that model is
RL at beta / mu and takes Newton.  Both ascents share one Armijo backtrack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

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
# a Newton step moves beta by at most this multiple of max(1, ||beta||_inf):
# where the likelihood is nearly linear the step can be orders of magnitude
# too long, and each trial past the solvable region costs a value solve.
# The benchmark DAGs' first steps, up to 5.6 times, keep their length
STEP_BOUND = 6.0
# an attribute has curvature of its own when its Cholesky pivot of -H keeps
# more than this share of its diagonal entry (a share that does not depend
# on the attributes' units)
PIVOT_SHARE = 1e-10


@dataclass
class EstimationOptions:
    """Outer-loop controls of the Newton (RL) and BFGS (per-state nested
    logit) ascents."""

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
    """Dataset log-likelihood, its analytic beta-gradient and its exact
    beta-Hessian, read from the observations' sufficient statistics.

    Each group's gradient is its attribute total minus
    sum_a x_a P_a F_from(a), F being the visit flows (``core.visit_flows``)
    of its origin counts, so P_a F_from(a) is the expected number of
    traversals of arc a.  Its Hessian is -sum_a P_a F_from(a) d_a d_a',
    where d_a = y_a - sum_b P_b y_b over the arcs b leaving from(a) and
    y_a = x_a + J_to(a) with J = dV/dbeta (``core.value_jacobian``): minus
    the visit-weighted covariance of y over each state's choice.  Both
    solves run on the value solve's factor.  Requires mu = 1.

    Raises ValueSolveFailed when any destination group's value system has no
    solution (the caller maps this to InnerSolveFailed).
    """
    k = len(spec.beta)
    total, grad, hess = 0.0, np.zeros(k), np.zeros((k, k))
    for group, stats in observations.statistics.groups.items():
        net = net_by_group[group]
        vf = core.solved_values(net, spec, group)
        origins, counts = stats.origin_weights(net)
        probs = core.choice_probabilities(net, spec, vf)
        visits = core.visit_flows(net, vf, probs, np.bincount(origins, counts, net.n_states))
        total += float(stats.attr_total @ spec.beta - counts @ vf.values[origins])
        traversals = probs * visits[net.arc_from]
        grad += stats.attr_total - net.attrs.T @ traversals
        y = net.attrs + core.value_jacobian(net, vf, probs)[net.arc_to]
        dev = y - core.tail_sums(net, probs[:, None] * y)[net.arc_from]
        hess -= dev.T @ (traversals[:, None] * dev)
    return total, grad, hess


def _valid(loglik: float) -> bool:
    # path probabilities never exceed one, so a positive (or non-finite)
    # log-likelihood marks numerical breakdown
    return np.isfinite(loglik) and loglik <= 1e-8


def _first_evaluation(evaluate, x):
    """(``evaluate(x)``, None), or (None, the result that ends the run) when
    x is unusable."""
    try:
        out = evaluate(x)
    except ValueSolveFailed:
        return None, (x, np.nan, np.nan, INNER_SOLVE_FAILED, 0, [])
    if not _valid(out[0]):
        return None, (x, out[0], np.nan, INVALID_LIKELIHOOD, 0, [])
    return out, None


def _line_search(evaluate, x, loglik, grad, p, project=None, alpha=1.0):
    """Armijo backtracking from ``x`` along the ascent direction ``p``,
    starting at the step fraction ``alpha``.

    A trial step that fails the Armijo test at a valid likelihood is cut to
    the maximizer of the quadratic through the current likelihood, its
    slope and the trial's likelihood, kept within [0.1, 0.5] of the step;
    a trial without a usable likelihood (ValueSolveFailed, an invalid
    likelihood, a projected step that does not ascend) is cut by
    ``STEP_SHRINK``.  Returns (trial point, its evaluation, its fraction,
    whether a trial had no usable likelihood) for the first accepted trial,
    or None once the step falls below ``MIN_STEP``.
    """
    unusable = False
    while alpha * float(np.max(np.abs(p))) >= MIN_STEP:
        x_new = x + alpha * p
        if project is not None:
            x_new = project(x_new)
        s = x_new - x  # effective step after projection
        slope = float(grad @ s)
        if float(np.max(np.abs(s))) < MIN_STEP:
            return None
        out = None
        if slope > 0:
            try:
                out = evaluate(x_new)
            except ValueSolveFailed:
                pass
        if out is None or not _valid(out[0]):
            alpha *= STEP_SHRINK
            unusable = True
            continue
        if out[0] >= loglik + ARMIJO_C1 * slope:
            return x_new, out, alpha, unusable
        # maximizer of the quadratic through L, the slope and the trial
        # (Nocedal & Wright, section 3.5), kept within [0.1, 0.5] of alpha
        alpha *= min(max(slope / (2.0 * (loglik + slope - out[0])), 0.1), 0.5)
    return None


def _newton_direction(grad, hess):
    """The Newton step (-H)^-1 g on the attributes of independent curvature,
    through a Cholesky factor of -H.

    -H is a covariance, positive semidefinite.  Attributes are taken in
    order, and one whose Cholesky pivot keeps at most ``PIVOT_SHARE`` of its
    diagonal entry is left out: its curvature is, numerically, none (an
    all-zero column) or a combination of the earlier ones' (a duplicated
    column).  The likelihood does not vary along it beyond what the kept
    attributes cover, so it takes no step."""
    neg = -hess
    keep: list[int] = []
    for i in range(len(grad)):
        try:
            chol = np.linalg.cholesky(neg[np.ix_(keep + [i], keep + [i])])
        except np.linalg.LinAlgError:
            continue
        if chol[-1, -1] ** 2 > PIVOT_SHARE * neg[i, i]:
            keep.append(i)
    step = np.zeros_like(grad)
    if keep:
        chol = np.linalg.cholesky(neg[np.ix_(keep, keep)])
        step[keep] = scipy.linalg.cho_solve((chol, True), grad[keep])
    return step


def newton_maximize(evaluate, x0, opts: EstimationOptions):
    """Newton ascent with the Armijo backtrack of :func:`_line_search`.

    ``evaluate(x) -> (loglik, grad, hess)`` may raise ValueSolveFailed at a
    trial point, which rejects the step.  Where the Newton step is zero or
    not finite, BFGS's first step g / max(1, ||g||_inf) stands in.  A step
    longer than ``STEP_BOUND`` max(1, ||x||_inf) is cut to that length; when
    trials of a cut step have no usable likelihood, the next line search
    starts at the fraction this one accepted.  Converged means
    ||grad||_inf <= tol * max(1, |L|) and, for a Newton step p at x, a
    predicted gain g'p / 2 of at most tol^2 * max(1, |L|) / 2: along a
    weakly curved direction a gradient that passes the first test can leave
    L further below its maximum, and the step that closes the gap is the
    one quadratic convergence makes cheapest.  Returns (x, loglik, gradient
    sup-norm, status, iterations, trace).
    """
    x = np.asarray(x0, dtype=float).copy()
    out, stop = _first_evaluation(evaluate, x)
    if stop:
        return stop
    loglik, grad, hess = out
    trace: list = []
    alpha = 1.0  # the first trial's step fraction in the next line search
    for it in range(1, opts.max_iters + 1):
        grad_norm = float(np.max(np.abs(grad)))
        trace.append((x.copy(), loglik, grad_norm))
        p = _newton_direction(grad, hess)
        with np.errstate(over="ignore", invalid="ignore"):
            decrement = float(grad @ p)
        if not decrement > 0 or not np.isfinite(decrement):
            # no usable curvature along g: none is left, or it underflowed
            # and the step overflows
            p, decrement = grad / max(1.0, grad_norm), 0.0
        scale = max(1.0, abs(loglik))
        if grad_norm <= opts.tol * scale and decrement <= opts.tol ** 2 * scale:
            return x, loglik, grad_norm, CONVERGED, it - 1, trace
        longest = STEP_BOUND * max(1.0, float(np.max(np.abs(x))))
        length = float(np.max(np.abs(p)))
        bounded = length > longest
        if bounded:
            p = p * (longest / length)
        step = _line_search(evaluate, x, loglik, grad, p, alpha=alpha)
        if step is None:
            return x, loglik, grad_norm, LINE_SEARCH_FAILED, it, trace
        x, (loglik, grad, hess), taken, unusable = step
        # a bounded step whose longer trials failed ran past the solvable
        # region, which ends about as far out as the accepted trial: the next
        # search starts at its fraction, and each later one doubles the start
        # back toward 1
        alpha = taken if bounded and unusable else min(1.0, 2.0 * alpha)
    grad_norm = float(np.max(np.abs(grad)))
    trace.append((x.copy(), loglik, grad_norm))
    return x, loglik, grad_norm, MAX_ITERATIONS, opts.max_iters, trace


def bfgs_maximize(evaluate, x0, opts: EstimationOptions, project=None):
    """BFGS ascent with the Armijo backtrack of :func:`_line_search`, for
    the per-state nested-logit estimator, whose objective is not concave.

    ``evaluate(x) -> (loglik, grad)`` may raise ValueSolveFailed at a trial
    point, which rejects the step.  ``project`` optionally clips iterates
    into box bounds; the reported gradient norm is then the projected one.
    Returns (x, loglik, gradient sup-norm, status, iterations, trace).
    """
    x = np.asarray(x0, dtype=float).copy()
    if project is not None:
        x = project(x)
    out, stop = _first_evaluation(evaluate, x)
    if stop:
        return stop
    loglik, grad = out
    trace: list = []
    k = len(x)

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
        step = _line_search(evaluate, x, loglik, grad, p, project)
        if step is None:
            return x, loglik, grad_norm, LINE_SEARCH_FAILED, it, trace
        x_new, (l_new, g_new), _, _ = step

        s = x_new - x
        y = grad - g_new  # gradient change of the negated objective
        sy = float(s @ y)
        # curvature test relative to the step and gradient change: near the
        # optimum both are tiny, and an absolute bound would skip every update
        if sy > 1e-8 * float(np.linalg.norm(s) * np.linalg.norm(y)):
            rho = 1.0 / sy
            left = np.eye(k) - rho * np.outer(s, y)
            h_inv = left @ h_inv @ left.T + rho * np.outer(s, s)
        x, loglik, grad = x_new, l_new, g_new

    grad_norm = projected_grad_norm(x, grad)
    trace.append((x.copy(), loglik, grad_norm))
    return x, loglik, grad_norm, MAX_ITERATIONS, opts.max_iters, trace


def estimate_nfxp(
    net_by_group,
    observations,
    beta_init=None,
    opts: EstimationOptions | None = None,
) -> EstimationResult:
    """Maximize the log-likelihood by Newton's method on its exact Hessian,
    with Armijo backtracking (:func:`newton_maximize`).

    Every trial point is evaluated through the module attribute
    ``loglik_and_gradient``.  Inner failures at trial points shrink the
    step; the run aborts with InnerSolveFailed / InvalidLikelihood only when
    the initial point itself is unusable, and with LineSearchFailed when no
    acceptable step remains.
    """
    opts = opts or EstimationOptions()
    k = next(iter(net_by_group.values())).n_attributes
    x0 = np.asarray(beta_init, dtype=float) if beta_init is not None else default_beta_init(k)
    n_obs = max(len(observations), 1)
    start = time.perf_counter()

    def evaluate(beta):
        return loglik_and_gradient(net_by_group, core.UtilitySpec(beta), observations)

    x, loglik, grad_norm, status, iters, trace = newton_maximize(evaluate, x0, opts)
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
