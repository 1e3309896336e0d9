"""Primal-dual interior-point solver for exponential-cone programs.

A :class:`ConicProgram` is already in the affine standard form

    min c'x  s.t.  A x = b,  G x + s = h,  s in K,

with A = a_eq, b = b_eq, G = [a_ineq; -a_cone] and h = [b_ineq; b_cone], so
the slack s is b_ineq - a_ineq x on a nonnegative orthant (one coordinate per
linear inequality) and a_cone x + b_cone on a product of three-dimensional
exponential cones.  It is solved on the homogeneous self-dual embedding so
that infeasibility comes out as a certificate rather than a crash.  Search
directions use the standard 3-self-concordant barrier for the exponential
cone,

    F(x, y, z) = -log(y log(z/y) - x) - log y - log z,

with a predictor-corrector sigma heuristic.  Each step solves the KKT system

    [[0, A', G'], [A, 0, 0], [G, 0, -H^-1]] (dx, dy, dz) = (r1, r2, r3)

with H the scaling: diag(z/s) on the orthant and mu times the barrier
Hessian at s on each cone.  The cone duals are eliminated, dz = H (G dx - r3),
which leaves the normal equations N dx + A' dy = r1 + G' H r3, A dx = r2 on
the variables alone, with N = G' H G (Andersen, Roos & Terlaky 2003).  SuperLU
factors the quasi-definite [[N + D, A'], [A, -reg I]], whose diagonal D is reg
plus a 1e-14 multiple of N's own diagonal (static regularization as in ECOS),
and two steps of iterative refinement solve against the unregularized
matrix.  N's sparsity pattern and the map from H's entries to N's are built
once per solve, so each iteration only scatters products of H's values into
the factored matrix; a first call picks a symmetric minimum-degree ordering,
the pattern is laid out in it once, and every factorization then keeps it
with diagonal pivots.  The slack step ds is taken from the primal row, so
the residual G x + s - h tau shrinks by the factor (1 - alpha eta) of each
step, up to rounding, also after convergence.  Before convergence, two
stalled steps in a row, or a step search that finds no step at all, reset the
dual iterate to z = -mu grad F(s), centred against the slack (at most three
times a solve).

Once the tolerances are first met, the solver polishes for up to
``polish_iters`` iterations and returns the in-tolerance iterate with the
smallest complementarity; iterates that leave tolerance meanwhile are
skipped, not a reason to stop, but two stalled steps end polishing (a
recenter would throw the polished dual iterate away).  Solves are single-threaded and bitwise deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .program import ConicProgram, dual_exp_cone_contains, exp_cone_contains

OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasible"
DUAL_INFEASIBLE = "DualInfeasible"
MAX_ITERS = "MaxIters"
NUMERICAL_FAILURE = "NumericalFailure"

# central point of the exponential cone: the unique interior s with
# -grad F(s) = s, used to initialize both primal and dual cone variables
_EXP_CENTRAL = np.array([-1.051383945322714, 0.556409619469370, 1.258967884768947])


@dataclass
class SolverOptions:
    """Interior-point controls; defaults target 1e-8 accuracy."""

    tol_gap: float = 1e-8
    tol_feas: float = 1e-8
    max_iters: int = 200
    frac_to_boundary: float = 0.99
    regularization: float = 1e-9
    min_step: float = 1e-9
    # extra iterations after tolerances are first met, ended early only by two
    # stalled steps; the in-tolerance iterate with the smallest
    # complementarity is returned.
    # This tightens downstream certificates (e.g. Bellman binding residuals).
    polish_iters: int = 25

    def __post_init__(self):
        if not (self.tol_gap > 0 and self.tol_feas > 0):
            raise ValueError("tolerances must be positive")
        if self.polish_iters < 0:
            raise ValueError("polish_iters must be non-negative")


@dataclass
class Solution:
    """Solver outcome: primal/dual points (scaled by tau for Optimal, raw
    certificate rays otherwise), residuals and the iteration trace.
    ``iterations`` counts every iteration run, ``len(trace)``, also when an
    earlier iterate is returned."""

    status: str
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    s: np.ndarray
    obj_val: float
    gap: float
    pres: float
    dres: float
    iterations: int
    trace: list = field(default_factory=list)


# --- exponential-cone barrier calculus (vectorized over cones) -------------


def _exp_parts(e):
    x, y, z = e[:, 0], e[:, 1], e[:, 2]
    big_l = np.log(z / y)
    psi = y * big_l - x
    return x, y, z, big_l, psi


def _exp_grad(e):
    _x, y, z, big_l, psi = _exp_parts(e)
    g = np.empty_like(e)
    g[:, 0] = 1.0 / psi
    g[:, 1] = -(big_l - 1.0) / psi - 1.0 / y
    g[:, 2] = -y / (z * psi) - 1.0 / z
    return g


def _exp_hess(e):
    _x, y, z, big_l, psi = _exp_parts(e)
    gpsi = np.stack([-np.ones_like(y), big_l - 1.0, y / z], axis=1)
    h = gpsi[:, :, None] * gpsi[:, None, :] / (psi ** 2)[:, None, None]
    inv_psi = 1.0 / psi
    h[:, 1, 1] += inv_psi / y + 1.0 / y ** 2
    h[:, 1, 2] += -inv_psi / z
    h[:, 2, 1] += -inv_psi / z
    h[:, 2, 2] += inv_psi * y / z ** 2 + 1.0 / z ** 2
    return h


def _exp_primal_interior(e, floor=None) -> bool:
    y, z = e[:, 1], e[:, 2]
    if np.any(y <= 0) or np.any(z <= 0):
        return False
    psi = y * np.log(z / y) - e[:, 0]
    if floor is not None:
        return bool(np.all(psi > floor))
    return bool(np.all(psi > 0))


def _exp_primal_margin(e):
    """Per-cone distance-to-boundary quantity psi (positive inside)."""
    y, z = e[:, 1], e[:, 2]
    with np.errstate(all="ignore"):
        return y * np.log(z / y) - e[:, 0]


def _exp_dual_interior(e, floor=None) -> bool:
    u, v, w = e[:, 0], e[:, 1], e[:, 2]
    if np.any(u >= 0) or np.any(w <= 0):
        return False
    margin = np.log(w) + 1.0 - np.log(-u) - v / u
    if floor is not None:
        return bool(np.all(margin > floor))
    return bool(np.all(margin > 0))


def _exp_dual_margin(e):
    u, v, w = e[:, 0], e[:, 1], e[:, 2]
    with np.errstate(all="ignore"):
        return np.log(w) + 1.0 - np.log(-u) - v / u


class _Cone:
    """Product cone R+^l x Exp^ne acting on stacked slack vectors."""

    def __init__(self, l, ne):
        self.l = l
        self.ne = ne
        self.dim = l + 3 * ne
        self.nu = l + 3 * ne  # barrier parameter: 1 per orthant coord, 3 per cone

    def split(self, v):
        return v[: self.l], v[self.l:].reshape(self.ne, 3)

    def init_point(self):
        s = np.empty(self.dim)
        s[: self.l] = 1.0
        if self.ne:
            s[self.l:] = np.tile(_EXP_CENTRAL, self.ne)
        return s

    def grad(self, s):
        lin, e = self.split(s)
        g = np.empty(self.dim)
        g[: self.l] = -1.0 / lin
        if self.ne:
            g[self.l:] = _exp_grad(e).ravel()
        return g

    def primal_interior(self, s, floor=None) -> bool:
        lin, e = self.split(s)
        if np.any(lin <= 0):
            return False
        return self.ne == 0 or _exp_primal_interior(e, floor)

    def dual_interior(self, z, floor=None) -> bool:
        lin, e = self.split(z)
        if np.any(lin <= 0):
            return False
        return self.ne == 0 or _exp_dual_interior(e, floor)

    def margins(self, s, z):
        """Smallest primal/dual boundary margins over the exp cones."""
        if self.ne == 0:
            return np.inf, np.inf
        _, es = self.split(s)
        _, ez = self.split(z)
        return float(np.min(_exp_primal_margin(es))), float(np.min(_exp_dual_margin(ez)))

    def scaling_pattern(self):
        """(rows, cols) of H's entries in the order of :meth:`scaling`'s
        values: the orthant diagonal, then each cone's 3x3 block by rows."""
        block = self.l + 3 * np.arange(self.ne)[:, None, None]
        shape = (self.ne, 3, 3)
        rows = np.broadcast_to(block + np.arange(3)[:, None], shape).ravel()
        cols = np.broadcast_to(block + np.arange(3), shape).ravel()
        diag = np.arange(self.l)
        return np.concatenate([diag, rows]), np.concatenate([diag, cols])

    def scaling(self, s, z, mu):
        """Values of the scaling H: diag(z/s) on the orthant and
        mu * hess F(s) on each exponential cone."""
        lin_s, e = self.split(s)
        return np.concatenate([z[: self.l] / lin_s, (mu * _exp_hess(e)).ravel()])

    def apply_scaling(self, hvals, v):
        """H @ v for the values ``hvals`` of :meth:`scaling`."""
        out = np.empty(self.dim)
        out[: self.l] = hvals[: self.l] * v[: self.l]
        if self.ne:
            blocks = hvals[self.l:].reshape(self.ne, 3, 3)
            out[self.l:] = (blocks @ v[self.l:].reshape(self.ne, 3, 1)).ravel()
        return out

    def complementarity_target(self, s, z, sigma, mu):
        """psi with dz + H_sc ds = -psi linearizing s o z -> sigma mu e."""
        lin_s, _ = self.split(s)
        psi = np.empty(self.dim)
        lin_z = z[: self.l]
        psi[: self.l] = lin_z - sigma * mu / lin_s
        if self.ne:
            psi[self.l:] = z[self.l:] + sigma * mu * self.grad(s)[self.l:]
        return psi

    def max_linear_step(self, v, dv):
        """Closed-form boundary step for the orthant coordinates."""
        lin, dlin = v[: self.l], dv[: self.l]
        neg = dlin < 0
        if not np.any(neg):
            return np.inf
        return float(np.min(-lin[neg] / dlin[neg]))


def _step_length(cone, s, ds, z, dz, tau, dtau, kappa, dkappa, ftb, min_step):
    alpha = 1.0 / ftb
    for val, dval in ((tau, dtau), (kappa, dkappa)):
        if dval < 0:
            alpha = min(alpha, -val / dval)
    alpha = min(alpha, cone.max_linear_step(s, ds), cone.max_linear_step(z, dz))
    alpha = min(1.0, ftb * alpha)
    # fraction-to-boundary for the exp cones: shrink the boundary margin by
    # at most the same factor the orthant coordinates may shrink
    pm, dm = cone.margins(s, z)
    while alpha > min_step:
        p_floor = (1.0 - ftb) * pm * alpha if np.isfinite(pm) else None
        d_floor = (1.0 - ftb) * dm * alpha if np.isfinite(dm) else None
        if cone.primal_interior(s + alpha * ds, p_floor) and cone.dual_interior(
            z + alpha * dz, d_floor
        ):
            return alpha
        alpha *= 0.8
    return 0.0


# relative part of N's diagonal regularization: a diagonal entry of G'HG can
# be 1e8 times reg, and reg alone then vanishes in rounding, leaving N
# singular in floating point when G is rank deficient
_REG_REL = 1e-14
# N is quasi-definite, so any symmetric ordering admits diagonal pivots
_PIVOTS = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))


def _entries(indptr, rows):
    """(k, pos) of every stored entry in the CSR ``rows``: the index into
    ``rows`` of its row and its position in the data array."""
    start, count = indptr[rows], indptr[rows + 1] - indptr[rows]
    k = np.repeat(np.arange(len(rows)), count)
    pos = start[k] + np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
    return k, pos


class _NormalEquations:
    """The regularized normal equations [[N + D, A'], [A, -reg I]], with
    N = G' H G and D = reg + _REG_REL |diag N|, on a pattern assembled once
    per solve: the coefficient G[r, j] G[c, k] and the CSC data slot of every
    product G[r, j] H[r, c] G[c, k] are kept, so each factorization scatters
    H's values into N with one bincount.  Vectors passed to and returned by
    :meth:`solve` are in the program's own order.
    """

    def __init__(self, a_mat, g_mat, cone, reg):
        p, n = a_mat.shape
        self.n, self.size = n, n + p
        self.cone, self.reg = cone, reg
        g = self.g_mat = g_mat.tocsr()
        self.gt_mat = g.T.tocsr()
        h_rows, h_cols = cone.scaling_pattern()
        k, pa = _entries(g.indptr, h_rows)
        t, pb = _entries(g.indptr, h_cols[k])
        self._h_index, pa = k[t], pa[t]
        self._coef = g.data[pa] * g.data[pb]
        a = a_mat.tocoo()
        diag = np.arange(self.size)
        self._rows = np.concatenate([diag, n + a.row, a.col, g.indices[pa]])
        self._cols = np.concatenate([diag, a.col, n + a.row, g.indices[pb]])
        self._static_vals = np.concatenate([np.zeros(n), np.full(p, -reg), a.data, a.data])
        # program row and column at each position of the factored matrix
        self.order = diag
        self.lu = None
        self._lay_out()

    def _lay_out(self):
        pos = np.argsort(self.order)
        keys = pos[self._cols] * self.size + pos[self._rows]
        uniq, slots = np.unique(keys, return_inverse=True)
        n_static = len(self._static_vals)
        self._static = np.bincount(slots[:n_static], weights=self._static_vals,
                                   minlength=len(uniq))
        self._diag = slots[: self.n]
        self._h_slots = slots[n_static:]
        indptr = np.searchsorted(uniq // self.size, np.arange(self.size + 1))
        self.mat = sp.csc_matrix((self._static.copy(), uniq % self.size, indptr),
                                 shape=(self.size, self.size))

    def assemble(self, hvals):
        """Write N + D for the values ``hvals`` of H (in the cone's scaling
        pattern order); ``diag_reg`` keeps the regularization in the factored
        matrix's order."""
        self.hvals = hvals
        n0 = np.bincount(self._h_slots, weights=self._coef * hvals[self._h_index],
                         minlength=len(self._static))
        delta = self.reg + _REG_REL * np.abs(n0[self._diag])
        self.mat.data[:] = self._static + n0
        self.mat.data[self._diag] += delta
        reg = np.concatenate([delta, np.full(self.size - self.n, -self.reg)])
        self.diag_reg = reg[self.order]

    def factor(self, hvals):
        """Assemble and factor; raises RuntimeError on a singular matrix."""
        if self.lu is None:
            self.assemble(hvals)
            first = spla.splu(self.mat, permc_spec="MMD_AT_PLUS_A", **_PIVOTS)
            self.order = np.argsort(first.perm_c)
            self._lay_out()
        self.assemble(hvals)
        self.lu = spla.splu(self.mat, permc_spec="NATURAL", **_PIVOTS)

    def solve(self, r1, r2, hr3):
        """(dx, dy, dz) solving the unregularized KKT system for the
        right-hand side (r1, r2, r3), given ``hr3`` = H r3: a regularized
        solve of the normal equations, two steps of iterative refinement
        against N, then dz = H G dx - H r3, which meets the cone row exactly."""
        q = self.order
        rhs = np.concatenate([r1 + self.gt_mat @ hr3, r2])[q]
        sol = self.lu.solve(rhs)
        for _ in range(2):
            sol = sol + self.lu.solve(rhs - (self.mat @ sol - self.diag_reg * sol))
        out = np.empty_like(sol)
        out[q] = sol
        dx = out[: self.n]
        dz = self.cone.apply_scaling(self.hvals, self.g_mat @ dx) - hr3
        return dx, out[self.n:], dz


def solve(prog: ConicProgram, opts: SolverOptions | None = None) -> Solution:
    """Solve a :class:`ConicProgram` on the homogeneous self-dual embedding.

    Returns a :class:`Solution` whose status is Optimal, PrimalInfeasible,
    DualInfeasible, MaxIters or NumericalFailure; numerical trouble is
    reported, never raised.  Each trace record holds the iterate's ``mu``,
    residuals, ``tau`` and ``kappa``; a record of an iteration that went on
    to search also holds the step length ``alpha`` found, the centering
    parameter ``sigma`` used and whether the dual iterate was ``recentered``
    in place of taking that step.
    """
    opts = opts or SolverOptions()
    c = -prog.objective if prog.maximize else prog.objective
    a_mat, b, g_mat, h = prog.a_eq, prog.b_eq, prog.g_mat, prog.h
    n = len(c)
    p = len(b)
    cone = _Cone(prog.n_ineq, prog.n_cones)
    at_mat = a_mat.T.tocsr()
    kkt = _NormalEquations(a_mat, g_mat, cone, opts.regularization)
    gt_mat = kkt.gt_mat

    x = np.zeros(n)
    y = np.zeros(p)
    s = cone.init_point()
    z = -cone.grad(s)
    tau = 1.0
    kappa = 1.0

    scale_c = max(1.0, float(np.max(np.abs(c), initial=0.0)))
    scale_bh = max(
        1.0,
        float(np.max(np.abs(b), initial=0.0)),
        float(np.max(np.abs(h), initial=0.0)),
    )
    trace: list[dict] = []

    def make_solution(status, pres, dres, gap, obj):
        return Solution(status, x.copy(), y.copy(), z.copy(), s.copy(),
                        obj, gap, pres, dres, len(trace), trace)

    # best tolerance-satisfying iterate seen so far (set during polishing)
    best = None

    def best_solution():
        bx, by, bz, bs, bpres, bdres, bgap, bobj, _bcomp = best
        return Solution(OPTIMAL, bx, by, bz, bs, bobj, bgap, bpres, bdres,
                        len(trace), trace)

    def failure():
        return (best_solution() if best is not None else
                make_solution(NUMERICAL_FAILURE, pres, dres, gap, obj))

    pres = dres = gap = np.inf
    obj = np.nan
    stalls = 0
    recenters_left = 3
    polish_left = None
    for it in range(1, opts.max_iters + 1):
        rx = at_mat @ y + gt_mat @ z + c * tau
        ry = a_mat @ x - b * tau
        rz = s + g_mat @ x - h * tau
        rtau = kappa + float(c @ x + b @ y + h @ z)
        mu = (float(s @ z) + tau * kappa) / (cone.nu + 1)

        # scaled (deflated) iterate and stopping tests
        xs, ys, zs, ss = x / tau, y / tau, z / tau, s / tau
        pres = max(
            float(np.max(np.abs(a_mat @ xs - b), initial=0.0)) / scale_bh,
            float(np.max(np.abs(g_mat @ xs + ss - h), initial=0.0)) / scale_bh,
        )
        dres = float(np.max(np.abs(at_mat @ ys + gt_mat @ zs + c), initial=0.0)) / scale_c
        pobj = float(c @ xs)
        dobj = -float(b @ ys + h @ zs)
        gap = abs(pobj - dobj) / max(1.0, abs(pobj), abs(dobj))
        comp = float(s @ z) / tau ** 2
        obj = -pobj if prog.maximize else pobj
        trace.append({"iter": it, "mu": mu, "pres": pres, "dres": dres,
                      "gap": gap, "tau": tau, "kappa": kappa})

        ok = pres <= opts.tol_feas and dres <= opts.tol_feas and (
            gap <= opts.tol_gap or comp <= opts.tol_gap
        )
        if ok and (best is None or comp < best[-1]):
            best = (xs.copy(), ys.copy(), zs.copy(), ss.copy(),
                    pres, dres, gap, obj, comp)
        if ok and polish_left is None:
            polish_left = opts.polish_iters
        if polish_left is not None:
            # converged: spend the polish budget, then return the best
            # in-tolerance iterate.  An iterate outside tolerance does not end
            # polishing: later ones can come back with a smaller
            # complementarity and tighter Bellman binding.
            if polish_left <= 0:
                return best_solution()
            polish_left -= 1

        ct = -float(b @ y + h @ z)
        if best is None and ct > 1e-10 * scale_bh:
            cert = float(np.max(np.abs(at_mat @ y + gt_mat @ z), initial=0.0))
            if cert / ct <= opts.tol_feas * scale_c:
                y, z = y / ct, z / ct
                return make_solution(PRIMAL_INFEASIBLE, pres, dres, gap, np.nan)
        dt = -float(c @ x)
        if best is None and dt > 1e-10 * scale_c:
            cert = max(
                float(np.max(np.abs(a_mat @ x), initial=0.0)),
                float(np.max(np.abs(g_mat @ x + s), initial=0.0)),
            )
            if cert / dt <= opts.tol_feas * scale_bh:
                x, s = x / dt, s / dt
                return make_solution(DUAL_INFEASIBLE, pres, dres, gap, np.nan)

        hvals = cone.scaling(s, z, mu)
        try:
            kkt.factor(hvals)
        except RuntimeError:
            return failure()
        h_rz = cone.apply_scaling(hvals, rz)

        dx2, dy2, dz2 = kkt.solve(-c, b, cone.apply_scaling(hvals, h))

        def direction(sigma):
            eta = 1.0 - sigma
            psi = cone.complementarity_target(s, z, sigma, mu)
            # H r3 for r3 = -eta rz + H^-1 psi
            dx1, dy1, dz1 = kkt.solve(-eta * rx, -eta * ry, -eta * h_rz + psi)
            t1 = float(c @ dx1 + b @ dy1 + h @ dz1)
            t2 = float(c @ dx2 + b @ dy2 + h @ dz2)
            rhs4 = -eta * rtau + (kappa - sigma * mu / tau)
            denom = t2 - kappa / tau
            if denom == 0 or not np.isfinite(denom):
                return None
            dtau = (rhs4 - t1) / denom
            dx = dx1 + dtau * dx2
            dy = dy1 + dtau * dy2
            dz = dz1 + dtau * dz2
            # from the primal row, so G x + s - h tau follows its (1 - alpha
            # eta) path exactly; -H^-1 (dz + psi) equals it only up to the
            # solve's error, which piles up once the residual is tiny
            ds = -eta * rz - g_mat @ dx + h * dtau
            dkappa = -(kappa - sigma * mu / tau) - (kappa / tau) * dtau
            return dx, dy, dz, ds, dtau, dkappa

        aff = direction(0.0)
        if aff is None:
            return failure()
        alpha_aff = _step_length(cone, s, aff[3], z, aff[2], tau, aff[4],
                                 kappa, aff[5], 1.0, opts.min_step)
        sigma = min(0.999, max(1e-4, (1.0 - alpha_aff) ** 3))

        step = direction(sigma)
        if step is None:
            return failure()
        dx, dy, dz, ds, dtau, dkappa = step
        alpha = _step_length(cone, s, ds, z, dz, tau, dtau, kappa, dkappa,
                             opts.frac_to_boundary, opts.min_step)
        if alpha <= opts.min_step:
            # last resort: pure centering step
            sigma = 1.0
            step = direction(sigma)
            if step is not None:
                dx, dy, dz, ds, dtau, dkappa = step
                alpha = _step_length(cone, s, ds, z, dz, tau, dtau, kappa,
                                     dkappa, opts.frac_to_boundary, opts.min_step)
            if alpha <= opts.min_step and (polish_left is not None or recenters_left == 0):
                return failure()
        # no step at all, before convergence, is rescued by a recenter at once
        stalls = 2 if alpha <= opts.min_step else stalls + 1 if alpha <= 1e-6 else 0
        recenter = stalls >= 2 and polish_left is None and recenters_left > 0
        trace[-1].update(alpha=alpha, sigma=sigma, recentered=recenter)
        if stalls >= 2 and polish_left is not None:
            # converged and stalled: a recenter would snap z off the polished
            # path, so polishing ends here
            return best_solution()
        if recenter:
            # the dual iterate has drifted onto its cone boundary and blocks
            # every direction; snap it back to the point exactly centered
            # against s.  The feasibility residual this introduces is absorbed
            # by the self-dual embedding over the following iterations.
            z = -mu * cone.grad(s)
            kappa = mu / tau
            stalls = 0
            recenters_left -= 1
            continue

        x = x + alpha * dx
        y = y + alpha * dy
        z = z + alpha * dz
        s = s + alpha * ds
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkappa
        if not (np.isfinite(tau) and tau > 0 and np.isfinite(kappa)):
            return failure()

    if best is not None:
        return best_solution()
    return make_solution(MAX_ITERS, pres, dres, gap, obj)


def check_certificates(prog: ConicProgram, sol: Solution) -> dict:
    """Recompute residuals, gap and cone memberships for a solution.

    For Optimal solutions all reported violations should sit within an order
    of magnitude of the solver tolerances; for infeasibility statuses the
    report carries the certificate value instead.
    """
    c = -prog.objective if prog.maximize else prog.objective
    a_mat, b, g_mat, h = prog.a_eq, prog.b_eq, prog.g_mat, prog.h
    l, ne = prog.n_ineq, prog.n_cones
    report: dict = {"status": sol.status}
    s_ineq = None
    if sol.status == OPTIMAL:
        report["primal_eq_residual"] = float(
            np.max(np.abs(a_mat @ sol.x - b), initial=0.0)
        )
        slack = h - g_mat @ sol.x
        report["primal_cone_residual"] = float(np.max(np.abs(slack - sol.s), initial=0.0))
        report["dual_residual"] = float(
            np.max(np.abs(a_mat.T @ sol.y + g_mat.T @ sol.z + c), initial=0.0)
        )
        report["complementarity"] = float(sol.s @ sol.z)
        s_ineq = sol.s
    elif sol.status == PRIMAL_INFEASIBLE:
        report["certificate_value"] = -float(b @ sol.y + h @ sol.z)
        report["certificate_residual"] = float(
            np.max(np.abs(a_mat.T @ sol.y + g_mat.T @ sol.z), initial=0.0)
        )
    elif sol.status == DUAL_INFEASIBLE:
        report["certificate_value"] = -float(c @ sol.x)
        report["certificate_residual"] = max(
            float(np.max(np.abs(a_mat @ sol.x), initial=0.0)),
            float(np.max(np.abs(g_mat @ sol.x + sol.s), initial=0.0)),
        )
        s_ineq = sol.s

    if s_ineq is not None and len(s_ineq):
        lin = s_ineq[:l]
        report["min_linear_slack"] = float(np.min(lin, initial=0.0)) if l else 0.0
        triples = s_ineq[l:].reshape(ne, 3)
        report["primal_cones_ok"] = all(exp_cone_contains(t, 1e-7) for t in triples)
    if sol.status in (OPTIMAL, PRIMAL_INFEASIBLE) and len(sol.z):
        lin = sol.z[:l]
        report["min_dual_linear"] = float(np.min(lin, initial=0.0)) if l else 0.0
        triples = sol.z[l:].reshape(ne, 3)
        report["dual_cones_ok"] = all(dual_exp_cone_contains(t, 1e-7) for t in triples)
    return report
