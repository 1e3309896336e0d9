"""Nested recursive logit: state-dependent scale parameters.

The Bellman recursion becomes V_s = mu_s log sum exp((v + V_{s'}) / mu_s);
there is no linear-system shortcut for heterogeneous scales, so value fields
come from core's ``iterate_values``: one pass per level on a DAG, else
Newton steps on I - P, the scaled operator's Jacobian, from the uniform
policy's value.  A common scale is not identified: V(k beta, k mu) =
k V(beta, mu), so the likelihood depends on (beta, mu) only through
beta / mu.  A shared scale is normalised to ``mu_init``, which leaves plain
RL at beta / mu, fitted by the RL estimator.  A per-state field makes the
problem non-convex in (beta, V, mu), so no conic build exists for it: it is
fitted by quasi-Newton over (beta, log mu) with an adjoint gradient, a visit
flow (``core.visit_flows``).

The likelihood and its gradient read the data only through one arc-count
vector, built from the ObservationSet's transition counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import core, nfxp
from .network import Network

LOG_MU_BOUND = 3.0  # mu is searched inside [e^-3, e^3]


@dataclass
class ScaleField:
    """Positive scale per state; the destination entry is a placeholder."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if not np.all(self.values > 0):
            raise ValueError("scale parameters must be positive")

    @classmethod
    def uniform(cls, net: Network, value: float = 1.0) -> "ScaleField":
        return cls(np.full(net.n_states, float(value)))

    def is_uniform(self, tol: float = 0.0) -> bool:
        return bool(np.max(self.values) - np.min(self.values) <= tol)

    def __getitem__(self, idx):
        return self.values[idx]


@dataclass
class NRLResult(nfxp.EstimationResult):
    """Estimation result carrying the fitted scale field."""

    mu_hat: ScaleField | None = None

    def to_dict(self) -> dict:
        doc = super().to_dict()
        if self.mu_hat is not None:
            if self.mu_hat.is_uniform(1e-12):
                doc["mu_uniform"] = float(self.mu_hat.values[0])
            else:
                doc["mu"] = [float(m) for m in self.mu_hat.values]
        return doc


def nrl_bellman_apply(net: Network, beta, mu: ScaleField, values) -> np.ndarray:
    """One application of the scaled log-sum-exp operator."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    return core.scaled_bellman(net, net.attrs @ beta, mu.values, values)[0]


def solve_nrl_value(net: Network, beta, mu: ScaleField, tol: float = 1e-10,
                    max_iter: int = 10_000):
    """Fixed point of the scaled recursion by ``core.iterate_values``: exact
    on a DAG, where ``tol`` and ``max_iter`` do not apply, else Newton steps
    that end Diverged when the values blow up or I - P is singular.  At
    mu = 1 it is ``solve_value_iteration``."""
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    return core.iterate_values(net, net.attrs @ beta, mu.values, tol, max_iter)


def check_mu_monotone(net: Network, mu: ScaleField):
    """Forward monotonicity: mu may never increase along an arc.

    Returns (ok, violating (from, to) state pairs).  Within any directed
    cycle the condition forces mu to be constant.
    """
    i, j = net.arc_from, net.arc_to
    bad = (j != net.destination_index) & (mu.values[i] < mu.values[j])
    violations = [(net.states[u], net.states[v]) for u, v in zip(i[bad].tolist(), j[bad].tolist())]
    return len(violations) == 0, violations


def _value_coefficients(net: Network, weight: np.ndarray) -> np.ndarray:
    """Net coefficient of each V_s when arc a carries ``weight[a]``: + on the
    arc's head, - on its tail; V_d is pinned, not a variable."""
    n = net.n_states
    coef = np.bincount(net.arc_to, weight, n) - np.bincount(net.arc_from, weight, n)
    coef[net.destination_index] = 0.0
    return coef


def _value_or_raise(net, beta, mu, tol=1e-10):
    return core.solved_field(net.destination, solve_nrl_value(net, beta, mu, tol=tol))


def nrl_log_likelihood(net: Network, beta, mu: ScaleField, obs,
                       value_tol: float = 1e-10) -> float:
    """Sum over observed transitions of (v + V_next - V_cur) / mu_cur.

    ``value_tol`` controls the inner fixed-point solve; finite-difference
    consumers should tighten it below the differencing step squared.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    vf = _value_or_raise(net, beta, mu, tol=value_tol)
    v = net.attrs @ beta
    step = (v + vf.values[net.arc_to] - vf.values[net.arc_from]) / mu.values[net.arc_from]
    return float(obs.arc_counts(net) @ step)


def nrl_loglik_and_gradient(net: Network, beta, mu: ScaleField, obs):
    """(L, dL/dbeta, dL/dlog mu_s per state) with the adjoint trick.

    The value field's sensitivity enters through one transposed linear solve
    (I - P)' lambda = c, where c collects the V-coefficients of the observed
    paths and P is the choice-probability matrix at the fixed point: lambda
    is the visit flow of c.
    """
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    vf = _value_or_raise(net, beta, mu)
    values = vf.values
    v = net.attrs @ beta
    w = v + values[net.arc_to]
    step = (w - values[net.arc_from]) / mu.values[net.arc_from]  # log P(arc)
    probs = np.exp(step)

    counts = obs.arc_counts(net)
    weight = counts / mu.values[net.arc_from]
    loglik = float(counts @ step)
    dbeta = net.attrs.T @ weight
    dlogmu = -np.bincount(net.arc_from, counts * step, net.n_states)
    coef = _value_coefficients(net, weight)

    lam = core.visit_flows(net, vf, probs, coef)
    # lam meets dT_s/dbeta = sum_a P_a attrs_a and dT_s/dlog mu_s =
    # V_s - sum_a P_a w_a, over the arcs a leaving s
    dbeta += net.attrs.T @ (probs * lam[net.arc_from])
    dlogmu += lam * (values - np.bincount(net.arc_from, probs * w, net.n_states))
    dlogmu[net.destination_index] = 0.0
    return loglik, dbeta, dlogmu


def estimate_nrl_nfxp(net: Network, obs, beta_init=None, mu_init: float = 1.0,
                      opts: nfxp.EstimationOptions | None = None,
                      mu_mode: str = "shared") -> NRLResult:
    """Maximum-likelihood estimation of beta and the scale field.

    ``mu_mode`` is "shared" (one mu for all states), "per_state", or "fixed"
    (mu pinned at ``mu_init``).  L depends on (beta, mu) only through
    beta / mu, so a shared scale is not identified: it is normalised to
    ``mu_init``, as "fixed" pins it, and both fit plain RL at beta / mu_init
    with ``nfxp.estimate_nfxp`` and scale the result back.  A per-state
    field runs BFGS over (beta, log mu).
    """
    if mu_mode not in ("shared", "per_state", "fixed"):
        raise ValueError(f"unknown mu_mode {mu_mode!r}")
    opts = opts or nfxp.EstimationOptions()
    k = net.n_attributes
    beta0 = np.asarray(beta_init, dtype=float) if beta_init is not None else nfxp.default_beta_init(k)
    if mu_mode != "per_state":
        rl = nfxp.estimate_nfxp({net.destination: net}, obs, beta0 / mu_init, opts)
        return NRLResult(**{**vars(rl), "beta_hat": mu_init * rl.beta_hat,
                            "gradient_norm": rl.gradient_norm / mu_init,
                            "trace": [{**r, "x": [mu_init * b for b in r["x"]],
                                       "grad_norm": r["grad_norm"] / mu_init}
                                      for r in rl.trace]},
                         mu_hat=ScaleField.uniform(net, mu_init))
    x0 = np.concatenate([beta0, np.full(net.n_states, np.log(mu_init))])
    start = time.perf_counter()

    def project(x):
        out = x.copy()
        out[k:] = np.clip(out[k:], -LOG_MU_BOUND, LOG_MU_BOUND)
        return out

    def evaluate(x):
        loglik, dbeta, dlogmu = nrl_loglik_and_gradient(
            net, x[:k], ScaleField(np.exp(x[k:])), obs)
        return loglik, np.concatenate([dbeta, dlogmu])

    outcome = nfxp.bfgs_maximize(evaluate, x0, opts, project=project)
    x = outcome[0]
    return NRLResult.from_run(outcome, obs, start, beta_hat=x[:k],
                              mu_hat=ScaleField(np.exp(x[k:])))
