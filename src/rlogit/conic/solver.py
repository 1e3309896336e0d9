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

and the nonsymmetric primal-dual scaling with a third-order corrector of
Dahl & Andersen (Math. Program. 2022), as in MOSEK and Clarabel.  Each step
solves the KKT system

    [[0, A', G'], [A, 0, 0], [G, 0, -H^-1]] (dx, dy, dz) = (r1, r2, r3)

with H the scaling: diag(z/s) on the orthant and, on each cone, the rank-3
matrix with H s = z and H s~ = z~ for the shadow points s~ = -grad F*(z) and
z~ = -grad F(s) (see :meth:`_Cone.scaling`); a cone on the central path
keeps mu hess F(s).  The affine direction (sigma = 0) gives the step alpha_a,
sigma = (1 - alpha_a)^3, and the combined direction adds the corrector
-1/2 grad^3 F(s)[ds_a, hess F(s)^-1 dz_a] to the centering target
(Mehrotra's ds_a o dz_a / s on the orthant, dtau_a dkappa_a / tau for the
tau-kappa pair).  hess F's inverse and third derivative come in closed form
from the barrier's pieces at s, computed once per iteration.  The cone duals
are eliminated, dz = H (G dx - r3), which leaves the normal equations
N dx + A' dy = r1 + G' H r3, A dx = r2 on the variables alone, with
N = G' H G (Andersen, Roos & Terlaky 2003).  A column with no equality
entry, one cone-row entry and at most one orthant row, all of whose columns
qualify too, is solved out of these in closed form, one per cone (see
:func:`_eliminated_columns`; for the ECP these are exactly the mass
variables r).  Each such cone's 3x3 scaling block becomes its Schur
complement on the eliminated slot, and each orthant row of eliminated
columns adds one rank-one term (Sherman-Morrison), which leaves the Schur
complement S on the kept columns (for the ECP, beta and u, where S is nearly
full).  S's index pattern is built once per solve from G's nonzeros, so
each iteration writes S densely with one bincount and factors it, shifted by
a 1e-14 multiple of N's own diagonal on the kept columns, by LAPACK's
Cholesky, which is backward stable on a positive definite S: each KKT solve
is one pair of triangular solves, and the eliminated block is recovered
from the kept one.  Where that factor does not exist, or the program has
equality rows, a fallback adds reg to that shift (static regularization as
in ECOS); equality rows take a second Cholesky of reg I + A S^-1 A', and two
steps of iterative refinement solve against the unregularized S.  The dense
factor costs the cube of the kept columns, a fraction of a
millisecond at a few hundred (see :class:`_ReducedKKT` for a fit near a
thousand).  The slack step ds is taken from the primal row, so the
residual G x + s - h tau shrinks by the factor (1 - alpha eta) of each step,
up to rounding, also after convergence.  The step search backtracks by 0.8
from the largest step the orthant allows, with one full interior test per
trial step.  Before convergence, two stalled steps in a row, or a step
search that finds no step at all, reset the dual iterate to
z = -mu grad F(s), centred against the slack (at most three times a solve).

The iteration starts on the central path at x = 0, y = 0, s = s0 (1 on
the orthant, the exp cone's central point s_c = -grad F(s_c) on each cone),
tau = 1, z = -mu0 grad F(s0) and kappa = mu0.  mu0 is the data's dual
scale, ||z_ls||_inf for the least-norm dual z_ls (the z of least 2-norm with
A'y + G'z = -c), one KKT solve at H = I (1 if that solve fails or z_ls is
zero).  The embedding is homogeneous in the dual: multiplying c by k
multiplies (y, z, kappa, mu) by k and leaves x, s, tau and every step as
they are.  Started at a mu0 that scales with c, the iteration count does
not depend on the objective's units.  An ECP's optimal duals are counts of
paths (a mass row's dual is a state's expected visits, up to the number
of paths), which a unit start spends its first iterations growing.

Infeasibility is certified by a ray's residual against its value, each in
the data's units: a primal-infeasibility ray (y, z) when
||A'y + G'z||_inf <= tol_feas (-b'y - h'z) / ||(b, h)||_inf, and a
dual-infeasibility ray (x, s) when max(||Ax||_inf, ||Gx + s||_inf) <=
tol_feas (-c'x) / ||c||_inf.  Both sides of each test scale alike when c
or (b, h) is rescaled, so a feasible, bounded program is not certified
infeasible because its objective is large.

Once the tolerances are first met, the solver polishes for up to
``POLISH_ITERS`` iterations and returns the in-tolerance iterate with the
smallest complementarity; iterates that leave tolerance meanwhile are
skipped, not a reason to stop.  Polishing exists for a certificate
downstream of the solve (for the ECP, that the recovered values bind), so a
caller can pass ``accept``: each in-tolerance iterate that becomes the new
best, the first one included, is offered to it as the deflated x, and the
solver returns that iterate as soon as ``accept`` holds.  Without it, or
while it fails, two in-tolerance iterates in a row that do not lower the
smallest complementarity end polishing (with this direction the
complementarity reaches its rounding floor a few iterations after
convergence), and so do the first stalled step (alpha <= 1e-6: the
direction has broken down at the rounding floor, and a recenter would
throw the polished dual iterate away) and the end of the budget.  Solves are
bitwise deterministic at a given BLAS thread count: the dense factor and its
solves run on BLAS's threads, everything else on one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla  # noqa: F401 (bench/tracing.py wraps this attribute)
from scipy.linalg import blas, lapack
from scipy.special import wrightomega

from .program import ConicProgram, dual_exp_cone_contains, exp_cone_contains

OPTIMAL = "Optimal"
PRIMAL_INFEASIBLE = "PrimalInfeasible"
DUAL_INFEASIBLE = "DualInfeasible"
MAX_ITERS = "MaxIters"
NUMERICAL_FAILURE = "NumericalFailure"

# central point of the exponential cone, the unique interior s with
# -grad F(s) = s; the primal cone variables start at it, the dual ones at
# a multiple of it
_EXP_CENTRAL = np.array([-1.051383945322714, 0.556409619469370, 1.258967884768947])
FRAC_TO_BOUNDARY = 0.99  # first trial step: this fraction of the orthant's largest
REGULARIZATION = 1e-9  # static regularization of the normal equations
MIN_STEP = 1e-9  # shortest trial step; none above it is no step at all
POLISH_ITERS = 25  # budget of polishing iterations (see the module docstring)


@dataclass
class SolverOptions:
    """Interior-point controls; defaults target 1e-8 accuracy."""

    tol_gap: float = 1e-8
    tol_feas: float = 1e-8
    max_iters: int = 200

    def __post_init__(self):
        if not (self.tol_gap > 0 and self.tol_feas > 0):
            raise ValueError("tolerances must be positive")


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


def _exp_primal_margin(e):
    """Per-cone distance-to-boundary quantity psi (positive inside; nan or
    -inf outside, so callers silence floating-point warnings)."""
    y, z = e[..., 1], e[..., 2]
    return y * np.log(z / y) - e[..., 0]


def _exp_dual_margin(e):
    u, v, w = e[..., 0], e[..., 1], e[..., 2]
    return np.log(w) + 1.0 - np.log(-u) - v / u


def _exp_shadow(ez):
    """s~ = -grad F*(z) for dual interior points z = (u, v, w): the primal
    point with -grad F(s~) = z.  With rho the dual margin and q > 0 the root
    of q + log(1 + q) = rho, s~ = (b (1 - v/u - q) + 1/u, b, (1 + 1/q)/w) for
    b = 1/(-u q).  q = omega(rho + 1) - 1 (Wright omega), refined by one
    Newton step on log1p, which keeps q's relative accuracy as rho -> 0."""
    u, v, w = ez[:, 0], ez[:, 1], ez[:, 2]
    rho = _exp_dual_margin(ez)
    q = wrightomega(rho + 1.0) - 1.0
    q -= (q + np.log1p(q) - rho) * (1.0 + q) / (2.0 + q)
    b = 1.0 / (-u * q)
    return np.stack([b * (1.0 - v / u - q) + 1.0 / u, b, (1.0 + 1.0 / q) / w], axis=1)


def _dot(a, b):
    return np.einsum("ij,ij->i", a, b)


class _Barrier:
    """The barrier's derivatives at one slack s, computed once per iteration
    and shared by the scaling, the centering target and the corrector: the
    gradient on the whole product cone and, per exponential cone, the pieces
    of hess F's closed-form inverse and of the third derivative.  F's Hessian
    on a cone is p p'/psi^2 + Q, where p = grad psi = (-1, py, pz) and Q is
    zero in x."""

    def __init__(self, cone, s):
        self.lin, self.e = cone.split(s)
        x, y, z = self.e[:, 0], self.e[:, 1], self.e[:, 2]
        big_l = np.log(z / y)
        self.y, self.z, self.psi = y, z, y * big_l - x
        self.iy, self.iz, self.ipsi = 1.0 / y, 1.0 / z, 1.0 / self.psi
        self.py, self.pz = big_l - 1.0, y * self.iz
        self.grad = np.empty(cone.dim)
        self.grad[: cone.l] = -1.0 / self.lin
        self.egrad = self.grad[cone.l:].reshape(-1, 3)
        self.egrad[:, 0] = self.ipsi
        self.egrad[:, 1] = -self.py * self.ipsi - self.iy
        self.egrad[:, 2] = -self.pz * self.ipsi - self.iz

    def hess(self, cones=slice(None)):
        """hess F(s) on the exponential cones ``cones`` (k x 3 x 3)."""
        iy, iz, ipsi = self.iy[cones], self.iz[cones], self.ipsi[cones]
        p = np.stack([-np.ones_like(iy), self.py[cones], self.pz[cones]], axis=1)
        h = p[:, :, None] * p[:, None, :] * (ipsi ** 2)[:, None, None]
        h[:, 1, 1] += ipsi * iy + iy ** 2
        h[:, 1, 2] -= ipsi * iz
        h[:, 2, 1] -= ipsi * iz
        h[:, 2, 2] += ipsi * self.pz[cones] * iz + iz ** 2
        return h

    def hess_inv(self, b):
        """hess F(s)^-1 b per cone (b is ne x 3): w_yz = Q_yz^-1 (b_yz + b_x
        p_yz) and w_x = p_yz . w_yz + psi^2 b_x, with Q_yz^-1 = [[y^2 (y + psi),
        y^2 z], [y^2 z, z^2 (y + psi)]] / (psi + 2 y).  Q_yz^-1's entries are
        products and sums of positive numbers, so nothing cancels in them
        where hess F's condition number reaches 1e16 and more."""
        y, z, psi = self.y, self.z, self.psi
        by = b[:, 1] + b[:, 0] * self.py
        bz = b[:, 2] + b[:, 0] * self.pz
        yp, den = y + psi, psi + 2.0 * y
        wy = y * y * (yp * by + z * bz) / den
        wz = z * (y * y * by + z * yp * bz) / den
        return np.stack([self.py * wy + self.pz * wz + psi * psi * b[:, 0], wy, wz], axis=1)

    def third(self, u, v):
        """grad^3 F(s)[u, v] per cone: the derivative of hess F(s) v along u."""
        iy, iz, ipsi, pz = self.iy, self.iz, self.ipsi, self.pz
        ux, uy, uz, vx, vy, vz = u.T[0], u.T[1], u.T[2], v.T[0], v.T[1], v.T[2]
        pu = self.py * uy + pz * uz - ux
        pv = self.py * vy + pz * vz - vx
        # hess psi (zero in x) times u and times v
        hu_y, hu_z = uz * iz - uy * iy, (uy - pz * uz) * iz
        hv_y, hv_z = vz * iz - vy * iy, (vy - pz * vz) * iz
        ipsi2 = ipsi * ipsi
        coef = (uy * hv_y + uz * hv_z - 2.0 * pu * pv * ipsi) * ipsi2
        yy, zz = uy * vy * iy * iy, uz * vz * iz * iz
        out = np.empty_like(u)
        out[:, 0] = -coef
        out[:, 1] = (coef * self.py + (hu_y * pv + hv_y * pu) * ipsi2
                     - (yy - zz) * ipsi - 2.0 * yy * iy)
        out[:, 2] = (coef * pz + (hu_z * pv + hv_z * pu) * ipsi2
                     + ((uy * vz + uz * vy) * iz * iz - 2.0 * pz * zz) * ipsi - 2.0 * zz * iz)
        return out


_SQRT_EPS = np.sqrt(np.finfo(float).eps)
# (row, column) of the entries on and above the diagonal of a 3x3 block, and
# the index into them of each of its nine entries, by rows
_UPPER = np.triu_indices(3)
_SYMMETRIC = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]]).ravel()


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

    def identity_scaling(self):
        """The values of :meth:`scaling` for H = I."""
        return np.concatenate([np.ones(self.l), np.tile(np.eye(3).ravel(), self.ne)])

    def grad(self, s):
        return _Barrier(self, s).grad

    def margins(self, s, z):
        """Smallest primal/dual boundary margins over the exp cones."""
        if self.ne == 0:
            return np.inf, np.inf
        _, es = self.split(s)
        _, ez = self.split(z)
        with np.errstate(all="ignore"):
            return float(np.min(_exp_primal_margin(es))), float(np.min(_exp_dual_margin(ez)))

    def interior(self, s, ds, z, dz, alpha, floors):
        """Whether s + alpha ds is interior to K and z + alpha dz to the dual
        cone, with every exp-cone margin above floors[0] * alpha (primal) and
        floors[1] * alpha (dual)."""
        (lin_s, es), (lin_z, ez) = self.split(s + alpha * ds), self.split(z + alpha * dz)
        return bool((lin_s > 0).all() and (lin_z > 0).all()
                    and ((es[:, 1] > 0) & (es[:, 2] > 0)
                         & (_exp_primal_margin(es) > floors[0] * alpha)).all()
                    and ((ez[:, 0] < 0) & (ez[:, 2] > 0)
                         & (_exp_dual_margin(ez) > floors[1] * alpha)).all())

    def scaling_pattern(self):
        """(rows, cols) of H's entries in the order of :meth:`scaling`'s
        values: the orthant diagonal, then each cone's 3x3 block by rows."""
        block = self.l + 3 * np.arange(self.ne)[:, None, None]
        shape = (self.ne, 3, 3)
        rows = np.broadcast_to(block + np.arange(3)[:, None], shape).ravel()
        cols = np.broadcast_to(block + np.arange(3), shape).ravel()
        diag = np.arange(self.l)
        return np.concatenate([diag, rows]), np.concatenate([diag, cols])

    def scaling(self, bar, z, mu):
        """Values of the scaling H at the barrier ``bar`` of s: diag(z/s) on
        the orthant and, on each exponential cone, the primal-dual scaling of
        Dahl & Andersen (2022)

            H = z z'/<s,z> + dz dz'/<ds,dz> + t a a',

        with the shadow points s~ = -grad F*(z) and z~ = -grad F(s),
        mu_c = <s,z>/3, ds = s - mu_c s~, dz = z - mu_c z~, a normal to s and
        s~ and t = mu_c / (a' hess F(s)^-1 a) (t a a' does not depend on a's
        length), so that H s = z and H s~ = z~.  A cone on the central path
        to rounding (|mu_c mu~_c - 1| <= sqrt(eps) for mu~_c = <s~,z~>/3),
        or where rounding leaves <ds,dz>, mu_c or t non-positive, keeps
        mu hess F(s)."""
        lin_z, ez = self.split(z)
        es, g = bar.e, bar.egrad
        with np.errstate(all="ignore"):
            st = _exp_shadow(ez)
            mu_c = _dot(es, ez) / 3.0
            ds, dz = es - mu_c[:, None] * st, ez + mu_c[:, None] * g
            dsz = _dot(ds, dz)
            a = np.stack([es[:, 1] * st[:, 2] - es[:, 2] * st[:, 1],
                          es[:, 2] * st[:, 0] - es[:, 0] * st[:, 2],
                          es[:, 0] * st[:, 1] - es[:, 1] * st[:, 0]], axis=1)
            t = mu_c / _dot(a, bar.hess_inv(a))
            # H = V' V for the rows V = (z, dz, a) scaled; each entry above
            # the diagonal is computed once, so the blocks are symmetric
            v = np.stack([ez / np.sqrt(3.0 * mu_c)[:, None], dz / np.sqrt(dsz)[:, None],
                          a * np.sqrt(t)[:, None]], axis=1)
            h = (v[:, :, _UPPER[0]] * v[:, :, _UPPER[1]]).sum(axis=1)[:, _SYMMETRIC]
            scaled = ((np.abs(mu_c * _dot(st, g) / -3.0 - 1.0) > _SQRT_EPS)
                      & (dsz > 0) & (mu_c > 0) & (t > 0))
        if not scaled.all():
            central = ~scaled
            h[central] = (mu * bar.hess(central)).reshape(-1, 9)
        return np.concatenate([lin_z / bar.lin, h.ravel()])

    def apply_scaling(self, hvals, v):
        """H @ v for the values ``hvals`` of :meth:`scaling`."""
        out = np.empty(self.dim)
        out[: self.l] = hvals[: self.l] * v[: self.l]
        if self.ne:
            blocks = hvals[self.l:].reshape(self.ne, 3, 3)
            out[self.l:] = np.einsum("nij,nj->ni", blocks, v[self.l:].reshape(self.ne, 3)).ravel()
        return out

    def corrector(self, bar, ds, dz):
        """-1/2 grad^3 F(s)[ds, hess F(s)^-1 dz], the second-order term of the
        centrality condition along the affine direction (ds, dz); on the
        orthant it is Mehrotra's ds o dz / s."""
        out = np.empty(self.dim)
        out[: self.l] = ds[: self.l] * dz[: self.l] / bar.lin
        if self.ne:
            _, e_ds = self.split(ds)
            _, e_dz = self.split(dz)
            out[self.l:] = (-0.5 * bar.third(e_ds, bar.hess_inv(e_dz))).ravel()
        return out

    def max_linear_step(self, v, dv):
        """Closed-form boundary step for the orthant coordinates."""
        lin, dlin = v[: self.l], dv[: self.l]
        neg = dlin < 0
        if not np.any(neg):
            return np.inf
        return float(np.min(-lin[neg] / dlin[neg]))


def _step_length(cone, s, ds, z, dz, tau, dtau, kappa, dkappa, ftb, min_step, margins):
    """The first alpha on the ladder alpha_0 0.8^k above ``min_step`` at
    which s + alpha ds and z + alpha dz are interior, with exp-cone margins
    above (1 - ftb) alpha times today's smallest ``margins`` (the same floor
    the orthant keeps); 0 if there is none.  alpha_0 is the largest step the
    orthant, tau and kappa allow, times ftb.  Each rung is one full interior
    test.  Most searches pass at the first or second rung; a step that
    stalls while polishing can take a few dozen."""
    alpha = 1.0 / ftb
    for val, dval in ((tau, dtau), (kappa, dkappa)):
        if dval < 0:
            alpha = min(alpha, -val / dval)
    alpha = min(alpha, cone.max_linear_step(s, ds), cone.max_linear_step(z, dz))
    alpha = min(1.0, ftb * alpha)
    floors = [(1.0 - ftb) * m if np.isfinite(m) else 0.0 for m in margins]
    with np.errstate(all="ignore"):
        while alpha > min_step:
            if cone.interior(s, ds, z, dz, alpha, floors):
                return alpha
            alpha *= 0.8
    return 0.0


# relative part of the diagonal regularization, and all of it on the exact
# path: a diagonal entry of G'HG can be 1e8 times reg, and reg alone then
# vanishes in rounding, leaving the reduced matrix singular in floating point
# when G is rank deficient
_REG_REL = 1e-14


def _entries(indptr, rows):
    """(k, pos) of every stored entry in the CSR ``rows``: the index into
    ``rows`` of its row and its position in the data array."""
    start, count = indptr[rows], indptr[rows + 1] - indptr[rows]
    k = np.repeat(np.arange(len(rows)), count)
    pos = np.arange(len(k)) + np.repeat(start - np.cumsum(count) + count, count)
    return k, pos


def _eliminated_columns(a_cols, rows, cols, n, cone):
    """Mask of the n columns :class:`_ReducedKKT` eliminates, given the
    column of each nonzero of A and G's nonzeros as (row, column) pairs:
    those with no equality entry, one cone-row entry and at most one orthant
    row.  Of several in one cone only the last is eliminated, and none in an
    orthant row that holds any other column, so each orthant row touches
    eliminated columns only or kept columns only."""
    lin = rows < cone.l
    cand = ((np.bincount(a_cols, minlength=n) == 0)
            & (np.bincount(cols[~lin], minlength=n) == 1)
            & (np.bincount(cols[lin], minlength=n) <= 1))
    cone_of = np.full(n, -1)
    cone_of[cols[~lin]] = (rows[~lin] - cone.l) // 3
    cand_cols = np.flatnonzero(cand)
    last = np.full(cone.ne, -1)
    np.maximum.at(last, cone_of[cand_cols], cand_cols)
    cand[cand_cols[last[cone_of[cand_cols]] != cand_cols]] = False
    o_rows, o_cols = rows[lin], cols[lin]
    mixed = np.zeros(cone.l, dtype=bool)
    mixed[o_rows[~cand[o_cols]]] = True
    cand[o_cols[mixed[o_rows]]] = False
    return cand


class _ReducedKKT:
    """The normal equations N dx + A' dy = f, A dx = r2 (N = G' H G) with
    the columns E of :func:`_eliminated_columns` solved out in closed form,
    leaving the Schur complement S = N_FF - N_FE N_EE^-1 N_EF on the kept
    columns F.  An eliminated column j sits at slot t of one cone c and in at
    most one orthant row o, whose columns are all eliminated, so N_EE is the
    diagonal D_j = G[t,j]^2 H_c[t,t] plus one rank-one term h_o g_o g_o' per
    such row, inverted by Sherman-Morrison, and

        S = G_F' H^ G_F + sum_o gamma_o v_o v_o',

    where H^ is H with each such cone's block replaced by its Schur
    complement on slot t, H_c - H_c[:,t] H_c[t,:] / H_c[t,t],
    gamma_o = h_o / (1 + h_o sum_j g_oj^2 / D_j) and
    v_o = sum_j g_oj / (G[t,j] H_c[t,t]) G_F' H_c[:,t].  Index patterns,
    built once per solve from G's nonzeros, let each factorization write S's
    lower triangle densely with one bincount.

    S is positive definite wherever N_FF is, and LAPACK's Cholesky is
    backward stable there, so S + _REG_REL |diag N_FF| is factored and each
    solve is one pair of triangular solves.  Where that factor does not
    exist (S singular in floating point, as when an attribute is zero on
    every arc) or the program has equality rows, the fallback factors S + D
    with D = reg + _REG_REL |diag N_FF| (static regularization as in ECOS),
    the equality rows take a second, p x p Cholesky of
    reg I + A_F (S + D)^-1 A_F', and two steps of iterative refinement solve
    against the unregularized S and A_F; ``regularized`` says which path
    the last factorization took.  The dense factor's cost grows with the
    cube of the kept columns: on random_geometric_network(300, 0.11, seed=1)
    with 3,000 paths (843 states, 846 kept of 4,722 columns) an ECP fit
    takes 0.72 s in 47 iterations (shared 2-core x86_64 VM, one BLAS
    thread).  Vectors passed to and returned by :meth:`solve` are in the
    program's own order.
    """

    def __init__(self, a_mat, g_mat, cone, reg):
        p, n = a_mat.shape
        self.n, self.p, self.cone, self.reg = n, p, cone, reg
        l = cone.l
        a_mat, g_mat = a_mat.tocsr(), g_mat.tocsr()
        self.g_mat, self.gt_mat = g_mat, g_mat.T
        # G's nonzeros as (row, column, value) triplets, by rows
        nz = g_mat.data != 0
        rows = np.repeat(np.arange(g_mat.shape[0]), np.diff(g_mat.indptr))[nz]
        cols, vals = g_mat.indices[nz], g_mat.data[nz]
        elim = _eliminated_columns(a_mat.indices[a_mat.data != 0], rows, cols, n, cone)
        self.kept, self.elim = np.flatnonzero(~elim), np.flatnonzero(elim)
        nf = self.nf = len(self.kept)
        # each column's index among the kept or among the eliminated ones
        pos = np.empty(n, dtype=np.intp)
        pos[self.kept], pos[self.elim] = np.arange(nf), np.arange(n - nf)

        # each eliminated column: its one cone entry G[t,j] at slot t of cone
        # c, and its orthant entry g_oj, numbered by the mass rows that hold
        # them
        in_e = elim[cols]
        e, e_row, e_val = pos[cols[in_e]], rows[in_e], vals[in_e]
        lin = e_row < l
        self._gt, t_row = np.empty(n - nf), np.empty(n - nf, dtype=np.intp)
        self._gt[e[~lin]], t_row[e[~lin]] = e_val[~lin], e_row[~lin]
        cone_e, slot_e = np.divmod(t_row - l, 3)
        block = l + 9 * cone_e
        self._e_tt = block + 4 * slot_e  # position of H_c[t,t] in H's values
        self._e_col = block[:, None] + 3 * np.arange(3) + slot_e[:, None]  # of H_c[:,t]
        self._rows3 = l + 3 * cone_e[:, None] + np.arange(3)  # the rows of cone c
        o_row, go = np.full(n - nf, -1), np.zeros(n - nf)
        o_row[e[lin]], go[e[lin]] = e_row[lin], e_val[lin]
        self._me = np.flatnonzero(o_row >= 0)
        self._go = go[self._me]
        self._mass_rows, self._mass_id = np.unique(o_row[self._me], return_inverse=True)

        # G on the kept columns, by rows; then S's lower triangle, column by
        # column: the terms of G_F' H^ G_F ...
        gf_ptr = np.concatenate([[0], np.cumsum(np.bincount(rows[~in_e],
                                                            minlength=g_mat.shape[0]))])
        gf_col, gf_val = pos[cols[~in_e]], vals[~in_e]
        h_rows, h_cols = cone.scaling_pattern()
        k, pa = _entries(gf_ptr, h_rows)
        t, pb = _entries(gf_ptr, h_cols[k])
        hi, pa = k[t], pa[t]
        i, j = gf_col[pa], gf_col[pb]
        coef = gf_val[pa] * gf_val[pb]
        diag = i == j
        self._diag_col, self._diag_coef, self._diag_h = i[diag], coef[diag], hi[diag]
        # H^[a,b] = H[a,b] - H[a,t] H[b,t] / H[t,t]; where no column of the
        # cone is eliminated, H[a,t] and H[b,t] point at a 0 appended to H's
        # values and H[t,t] at a 1; rows and columns t of H^ are zero
        cone_slot = np.full(cone.ne + 1, -1)
        cone_slot[cone_e] = slot_e
        c, a = np.divmod(np.maximum(hi - l, 0), 9)
        a, b = np.divmod(a, 3)
        ts = np.where(hi >= l, cone_slot[c], -1)
        keep = (i >= j) & (a != ts) & (b != ts)
        hi, ts, elim_cone = hi[keep], ts[keep], ts[keep] >= 0
        base = l + 9 * c[keep] + ts
        zero = len(h_rows)
        self._h, self._coef = hi, coef[keep]
        self._h_at = np.where(elim_cone, base + 3 * a[keep], zero)
        self._h_bt = np.where(elim_cone, base + 3 * b[keep], zero)
        self._h_tt = np.where(elim_cone, base + 3 * ts, zero + 1)
        # ... the entries of every v_o, and the pairs of entries of one v_o
        me = self._me
        kq, pv = _entries(gf_ptr, self._rows3[me].ravel())
        e = me[kq // 3]
        self._v_h, self._v_tt = self._e_col[e, kq % 3], self._e_tt[e]
        self._v_coef = gf_val[pv] * (self._go / self._gt[me])[kq // 3]
        keys, self._v_slot = np.unique(self._mass_id[kq // 3] * nf + gf_col[pv],
                                       return_inverse=True)
        v_row, v_col = np.divmod(keys, max(nf, 1))
        pa, pb = _entries(np.searchsorted(v_row, np.arange(len(self._mass_rows) + 1)), v_row)
        low = v_col[pa] >= v_col[pb]
        self._pair_a, self._pair_b, self._pair_row = pa[low], pb[low], v_row[pa[low]]
        slots = np.concatenate([j[keep] * nf + i[keep],
                                v_col[self._pair_b] * nf + v_col[self._pair_a]])
        self._s_slots, self._slot_id = np.unique(slots, return_inverse=True)
        self._n_v = len(keys)
        # S and the matrix factored in place are written into buffers kept
        # for the whole solve: fresh nf x nf arrays at every factorization
        # cost more than assembling S
        self._s_flat = np.zeros(nf * nf)
        self.s_mat = self._s_flat.reshape((nf, nf), order="F")
        self._k_mat = np.zeros((nf, nf), order="F")
        if p:
            self._af = a_mat[:, self.kept]
            self._aft = self._af.T

    def _cholesky(self, shift):
        """LAPACK's Cholesky factor of S + diag(shift) and its info, which
        is nonzero when that matrix is not positive definite."""
        k_mat = self._k_mat
        np.copyto(k_mat, self.s_mat)
        k_mat.flat[::self.nf + 1] += shift
        return lapack.dpotrf(k_mat, lower=1, clean=0, overwrite_a=1)

    def factor(self, hvals):
        """Assemble S and factor it, exactly or on the fallback; raises
        RuntimeError when the fallback's matrices are not positive definite
        in floating point."""
        self.hvals = hvals
        nf = self.nf
        htt = hvals[self._e_tt]
        self._d = self._gt ** 2 * htt
        me, go = self._me, self._go
        h_o = hvals[self._mass_rows]
        self._gamma = h_o / (1.0 + h_o * np.bincount(self._mass_id, go ** 2 / self._d[me],
                                                     minlength=len(h_o)))
        self._u = go / self._d[me]
        v = np.bincount(self._v_slot, self._v_coef * hvals[self._v_h] / hvals[self._v_tt],
                        minlength=self._n_v)
        hv = np.concatenate([hvals, [0.0, 1.0]])
        weights = np.concatenate([
            self._coef * (hv[self._h] - hv[self._h_at] * hv[self._h_bt] / hv[self._h_tt]),
            self._gamma[self._pair_row] * v[self._pair_a] * v[self._pair_b]])
        self._s_flat[self._s_slots] = np.bincount(self._slot_id, weights,
                                                  minlength=len(self._s_slots))
        self._ecol = hvals[self._e_col] * self._gt[:, None]
        diag_n = np.abs(np.bincount(self._diag_col, self._diag_coef * hvals[self._diag_h],
                                    minlength=nf))
        self.regularized = True
        if not self.p:
            self._chol, info = self._cholesky(_REG_REL * diag_n)
            if not info:
                self.regularized = False
                return
        self._chol, info = self._cholesky(self.reg + _REG_REL * diag_n)
        if info:
            raise RuntimeError("reduced normal matrix is not positive definite")
        if self.p:
            self._x_mat = lapack.dpotrs(self._chol, self._aft.toarray(), lower=1)[0]
            m_mat = self._af @ self._x_mat
            m_mat.flat[::self.p + 1] += self.reg
            self._chol_eq, info = lapack.dpotrf(m_mat, lower=1)
            if info:
                raise RuntimeError("equality Schur complement is not positive definite")

    def _solve_eliminated(self, b):
        """N_EE^-1 b: the diagonal solve and one Sherman-Morrison correction
        per mass row."""
        x = b / self._d
        u, me = self._u, self._me
        corr = self._gamma * np.bincount(self._mass_id, u * b[me], minlength=len(self._gamma))
        x[me] -= u * corr[self._mass_id]
        return x

    def _solve_factored(self, f, g):
        u = lapack.dpotrs(self._chol, f, lower=1)[0] if self.nf else f
        if not self.p:
            return u, g
        y = lapack.dpotrs(self._chol_eq, self._af @ u - g, lower=1)[0]
        return u - self._x_mat @ y, y

    def solve(self, r1, r2, hr3):
        """(dx, dy, dz) solving the unregularized KKT system for the
        right-hand side (r1, r2, r3), given ``hr3`` = H r3: the eliminated
        block solved out of f = r1 + G' H r3, one solve by the factor on the
        kept columns (on the fallback, followed by two steps of iterative
        refinement against S and A_F), the eliminated block recovered from
        the kept one, then dz = H G dx - H r3, which meets the cone row
        exactly."""
        f = r1 + self.gt_mat @ hr3
        f_e = f[self.elim]
        # N_FE N_EE^-1 f_E, as G_F' on each eliminated column's cone rows
        w = np.zeros(self.cone.dim)
        w[self._rows3] = self._ecol * self._solve_eliminated(f_e)[:, None]
        rhs = f[self.kept] - (self.gt_mat @ w)[self.kept]
        x, y = self._solve_factored(rhs, r2)
        # (BLAS rejects an empty S)
        for _ in range(2 if self.regularized and self.nf else 0):
            res_x = rhs - blas.dsymv(1.0, self.s_mat, x, lower=1)
            res_y = r2
            if self.p:
                res_x -= self._aft @ y
                res_y = r2 - self._af @ x
            step_x, step_y = self._solve_factored(res_x, res_y)
            x, y = x + step_x, y + step_y
        dx = np.zeros(self.n)
        dx[self.kept] = x
        nef = _dot(self._ecol, (self.g_mat @ dx)[self._rows3])
        dx[self.elim] = self._solve_eliminated(f_e - nef)
        dz = self.cone.apply_scaling(self.hvals, self.g_mat @ dx) - hr3
        return dx, y, dz


def _dual_scale(kkt, c):
    """||z_ls||_inf for the least-norm dual z_ls, which minimizes ||z||_2
    subject to A'y + G'z = -c: the KKT solve at H = I for the right-hand
    side (-c, 0, 0), whose dz is z_ls.  1 when that factorization fails or
    z_ls is zero or not finite."""
    try:
        kkt.factor(kkt.cone.identity_scaling())
    except RuntimeError:
        return 1.0
    z_ls = kkt.solve(-c, np.zeros(kkt.p), np.zeros(kkt.cone.dim))[2]
    scale = float(np.max(np.abs(z_ls), initial=0.0))
    return scale if np.isfinite(scale) and scale > 0 else 1.0


def solve(prog: ConicProgram, opts: SolverOptions | None = None,
          accept: Callable[[np.ndarray], bool] | None = None) -> Solution:
    """Solve a :class:`ConicProgram` on the homogeneous self-dual embedding.

    Returns a :class:`Solution` whose status is Optimal, PrimalInfeasible,
    DualInfeasible, MaxIters or NumericalFailure; numerical trouble is
    reported, never raised.  ``accept(x)``, if given, is called with the
    deflated x of every in-tolerance iterate that becomes the best one; when
    it returns True that iterate is returned at once, ending polishing
    early.  Each trace record holds the iterate's ``mu``,
    residuals, ``tau`` and ``kappa``; a record of an iteration that factored
    the KKT system also holds whether that factorization took the
    ``regularized`` fallback of :class:`_ReducedKKT`, and one that went on
    to search holds the step length ``alpha`` found, the centering
    parameter ``sigma`` used and whether the dual iterate was ``recentered``
    in place of taking that step.
    """
    opts = opts or SolverOptions()
    c = -prog.objective if prog.maximize else prog.objective
    a_mat, b, g_mat, h = prog.a_eq, prog.b_eq, prog.g_mat, prog.h
    n = len(c)
    p = len(b)
    cone = _Cone(prog.n_ineq, prog.n_cones)
    at_mat = a_mat.T
    kkt = _ReducedKKT(a_mat, g_mat, cone, REGULARIZATION)
    gt_mat = kkt.gt_mat

    # on the central path at mu0, the dual scale of the data
    mu0 = _dual_scale(kkt, c)
    x = np.zeros(n)
    y = np.zeros(p)
    s = cone.init_point()
    z = -mu0 * cone.grad(s)
    tau = 1.0
    kappa = mu0

    norm_c = float(np.max(np.abs(c), initial=0.0))
    norm_bh = max(float(np.max(np.abs(b), initial=0.0)), float(np.max(np.abs(h), initial=0.0)))
    # the residuals' scales in the stopping tests, and the data's units in
    # the certificate tests
    scale_c, scale_bh = max(1.0, norm_c), max(1.0, norm_bh)
    unit_c, unit_bh = norm_c or 1.0, norm_bh or 1.0
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
    idle = 0  # in-tolerance polishing iterates in a row that set no new best
    for it in range(1, opts.max_iters + 1):
        rx = at_mat @ y + gt_mat @ z + c * tau
        ry = a_mat @ x - b * tau
        rz = s + g_mat @ x - h * tau
        cx, byhz, sz = float(c @ x), float(b @ y + h @ z), float(s @ z)
        rtau = kappa + cx + byhz
        mu = (sz + tau * kappa) / (cone.nu + 1)

        # stopping tests on the deflated iterate (x, y, z, s) / tau, whose
        # residuals are the embedding's divided by tau
        pres = max(float(np.max(np.abs(ry), initial=0.0)),
                   float(np.max(np.abs(rz), initial=0.0))) / (tau * scale_bh)
        dres = float(np.max(np.abs(rx), initial=0.0)) / (tau * scale_c)
        pobj, dobj = cx / tau, -byhz / tau
        gap = abs(pobj - dobj) / max(1.0, abs(pobj), abs(dobj))
        comp = sz / tau ** 2
        obj = -pobj if prog.maximize else pobj
        trace.append({"iter": it, "mu": mu, "pres": pres, "dres": dres,
                      "gap": gap, "tau": tau, "kappa": kappa})

        ok = pres <= opts.tol_feas and dres <= opts.tol_feas and (
            gap <= opts.tol_gap or comp <= opts.tol_gap
        )
        improved = ok and (best is None or comp < best[-1])
        if improved:
            best = (x / tau, y / tau, z / tau, s / tau, pres, dres, gap, obj, comp)
            if accept is not None and accept(best[0]):
                return best_solution()
        if ok and polish_left is None:
            polish_left = POLISH_ITERS
        if polish_left is not None:
            # converged: polish until the budget is spent or two in-tolerance
            # iterates in a row fail to lower the complementarity, then
            # return the best in-tolerance iterate.  Iterates outside
            # tolerance do not count: later ones can come back with a
            # smaller complementarity and tighter Bellman binding.
            if improved:
                idle = 0
            elif ok:
                idle += 1
            if polish_left <= 0 or idle >= 2:
                return best_solution()
            polish_left -= 1

        # infeasibility certificates, each a ray's residual against its value
        # measured in the data's units, so that neither test moves when c or
        # (b, h) is rescaled
        ct = -byhz / unit_bh
        if best is None and ct > 1e-10 * unit_c:
            cert = float(np.max(np.abs(at_mat @ y + gt_mat @ z), initial=0.0))
            if cert <= opts.tol_feas * ct:
                y, z = y / -byhz, z / -byhz
                return make_solution(PRIMAL_INFEASIBLE, pres, dres, gap, np.nan)
        dt = -cx / unit_c
        if best is None and dt > 1e-10 * unit_bh:
            cert = max(
                float(np.max(np.abs(a_mat @ x), initial=0.0)),
                float(np.max(np.abs(g_mat @ x + s), initial=0.0)),
            )
            if cert <= opts.tol_feas * dt:
                x, s = x / -cx, s / -cx
                return make_solution(DUAL_INFEASIBLE, pres, dres, gap, np.nan)

        bar = _Barrier(cone, s)
        hvals = cone.scaling(bar, z, mu)
        try:
            kkt.factor(hvals)
        except RuntimeError:
            return failure()
        trace[-1]["regularized"] = kkt.regularized
        h_rz = cone.apply_scaling(hvals, rz)

        dx2, dy2, dz2 = kkt.solve(-c, b, cone.apply_scaling(hvals, h))
        t2 = float(c @ dx2 + b @ dy2 + h @ dz2)

        def direction(sigma, corr=None):
            # corr: the corrector's terms for the cones and for tau kappa
            eta = 1.0 - sigma
            # dz + H ds = -psi linearizes z + sigma mu grad F(s) -> 0, which
            # is s o z -> sigma mu e on the orthant
            psi = z + sigma * mu * bar.grad
            psi_tk = kappa - sigma * mu / tau
            if corr is not None:
                psi = psi + corr[0]
                psi_tk += corr[1]
            # H r3 for r3 = -eta rz + H^-1 psi
            dx1, dy1, dz1 = kkt.solve(-eta * rx, -eta * ry, -eta * h_rz + psi)
            t1 = float(c @ dx1 + b @ dy1 + h @ dz1)
            denom = t2 - kappa / tau
            if denom == 0 or not np.isfinite(denom):
                return None
            dtau = (-eta * rtau + psi_tk - t1) / denom
            dx = dx1 + dtau * dx2
            dy = dy1 + dtau * dy2
            dz = dz1 + dtau * dz2
            # from the primal row, so G x + s - h tau follows its (1 - alpha
            # eta) path exactly; -H^-1 (dz + psi) equals it only up to the
            # solve's error, which piles up once the residual is tiny
            ds = -eta * rz - g_mat @ dx + h * dtau
            dkappa = -psi_tk - (kappa / tau) * dtau
            return dx, dy, dz, ds, dtau, dkappa

        aff = direction(0.0)
        if aff is None:
            return failure()
        margins = cone.margins(s, z)
        alpha_aff = _step_length(cone, s, aff[3], z, aff[2], tau, aff[4],
                                 kappa, aff[5], 1.0, MIN_STEP, margins)
        sigma = min(0.999, max(1e-4, (1.0 - alpha_aff) ** 3))

        # combined direction with the third-order corrector of the affine one
        step = direction(sigma, (cone.corrector(bar, aff[3], aff[2]), aff[4] * aff[5] / tau))
        if step is None:
            return failure()
        dx, dy, dz, ds, dtau, dkappa = step
        alpha = _step_length(cone, s, ds, z, dz, tau, dtau, kappa, dkappa,
                             FRAC_TO_BOUNDARY, MIN_STEP, margins)
        if alpha <= MIN_STEP:
            # last resort: pure centering step
            sigma = 1.0
            step = direction(sigma)
            if step is not None:
                dx, dy, dz, ds, dtau, dkappa = step
                alpha = _step_length(cone, s, ds, z, dz, tau, dtau, kappa, dkappa,
                                     FRAC_TO_BOUNDARY, MIN_STEP, margins)
            if alpha <= MIN_STEP and (polish_left is not None or recenters_left == 0):
                trace[-1].update(alpha=alpha, sigma=sigma, recentered=False)
                return failure()
        # no step at all, before convergence, is rescued by a recenter at once
        stalls = 2 if alpha <= MIN_STEP else stalls + 1 if alpha <= 1e-6 else 0
        recenter = stalls >= 2 and polish_left is None and recenters_left > 0
        trace[-1].update(alpha=alpha, sigma=sigma, recentered=recenter)
        if stalls and polish_left is not None:
            # converged and stalled: the direction has broken down at the
            # rounding floor, and a recenter would snap z off the polished
            # path, so polishing ends at the first stalled step
            return best_solution()
        if recenter:
            # the dual iterate has drifted onto its cone boundary and blocks
            # every direction; snap it back to the point exactly centered
            # against s.  The feasibility residual this introduces is absorbed
            # by the self-dual embedding over the following iterations.
            z = -mu * bar.grad
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
        report["min_linear_slack"] = float(np.min(lin)) if l else 0.0
        triples = s_ineq[l:].reshape(ne, 3)
        report["primal_cones_ok"] = all(exp_cone_contains(t, 1e-7) for t in triples)
    if sol.status in (OPTIMAL, PRIMAL_INFEASIBLE) and len(sol.z):
        lin = sol.z[:l]
        report["min_dual_linear"] = float(np.min(lin)) if l else 0.0
        triples = sol.z[l:].reshape(ne, 3)
        report["dual_cones_ok"] = all(dual_exp_cone_contains(t, 1e-7) for t in triples)
    return report
