"""Conic program container and serialization.

A :class:`ConicProgram` is a linear objective over variables subject to
linear equalities, linear inequalities (row . x <= rhs) and
three-dimensional exponential-cone memberships of an affine map: each
consecutive triple of ``a_cone @ x + b_cone`` lies in K_exp.  This is the
affine conic form (c, A, b, G, h, cones) of CBF, ECOS, SCS and Clarabel;
``g_mat`` and ``h`` give its slack rows G x + s = h.

Two on-disk formats are provided: a canonical JSON schema (version 2) whose
dump -> load -> dump round-trip is byte-identical, and a CBF (Conic
Benchmark Format) subset with EXP cone blocks for interop with external
solvers.  Note CBF orders the exponential cone as (z, y, x) relative to the
membership y * exp(x / y) <= z used here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..network import canonical_json

SCHEMA_VERSION = 2


def exp_cone_contains(triple, slack_tol: float = 1e-7) -> bool:
    """Membership in the exponential cone within ``slack_tol``.

    The cone is {(x, y, z) : y > 0, y e^{x/y} <= z} together with its closure
    ray {(x, 0, z) : x <= 0, z >= 0}.
    """
    x, y, z = (float(v) for v in triple)
    if y > slack_tol:
        ratio = x / y
        if ratio > 700.0:  # e^{x/y} overflows; membership impossible for finite z
            return False
        return y * math.exp(ratio) <= z + slack_tol
    if y >= -slack_tol:
        return x <= slack_tol and z >= -slack_tol
    return False


def dual_exp_cone_contains(triple, slack_tol: float = 1e-7) -> bool:
    """Membership in the dual exponential cone.

    {(u, v, w) : u < 0, -u e^{v/u} <= e w} plus the closure face
    {(0, v, w) : v >= 0, w >= 0}.
    """
    u, v, w = (float(t) for t in triple)
    if u < -slack_tol:
        ratio = v / u
        if ratio > 700.0:
            return False
        return -u * math.exp(ratio) <= math.e * w + slack_tol
    if u <= slack_tol:
        return v >= -slack_tol and w >= -slack_tol
    return False


@dataclass
class ConicProgram:
    """Linear objective over linear rows plus exponential-cone triples.

    ``a_eq x = b_eq``; ``a_ineq x <= b_ineq``; rows 3i, 3i + 1 and 3i + 2 of
    ``a_cone x + b_cone`` are the (x, y, z) slots of cone i.
    """

    n_vars: int
    objective: np.ndarray
    maximize: bool
    a_eq: sp.csr_matrix
    b_eq: np.ndarray
    a_ineq: sp.csr_matrix
    b_ineq: np.ndarray
    a_cone: sp.csr_matrix
    b_cone: np.ndarray

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.b_eq = np.asarray(self.b_eq, dtype=float)
        self.b_ineq = np.asarray(self.b_ineq, dtype=float)
        self.b_cone = np.asarray(self.b_cone, dtype=float)
        self.a_eq = sp.csr_matrix(self.a_eq)
        self.a_ineq = sp.csr_matrix(self.a_ineq)
        self.a_cone = sp.csr_matrix(self.a_cone)
        if self.objective.shape != (self.n_vars,):
            raise ValueError("objective length mismatch")
        if self.a_eq.shape != (len(self.b_eq), self.n_vars):
            raise ValueError("equality block shape mismatch")
        if self.a_ineq.shape != (len(self.b_ineq), self.n_vars):
            raise ValueError("inequality block shape mismatch")
        if self.a_cone.shape != (len(self.b_cone), self.n_vars) or len(self.b_cone) % 3:
            raise ValueError("cone block must be n_vars wide with three rows per cone")

    @property
    def n_eq(self) -> int:
        return len(self.b_eq)

    @property
    def n_ineq(self) -> int:
        return len(self.b_ineq)

    @property
    def n_cones(self) -> int:
        return len(self.b_cone) // 3

    @property
    def g_mat(self) -> sp.csr_matrix:
        """G of G x + s = h: the slack s is b_ineq - a_ineq x on the orthant
        and a_cone x + b_cone on the cones."""
        return sp.vstack([self.a_ineq, -self.a_cone], format="csr")

    @property
    def h(self) -> np.ndarray:
        return np.concatenate([self.b_ineq, self.b_cone])


def _rows_to_doc(mat: sp.csr_matrix, vec: np.ndarray, key: str = "rhs") -> list:
    rows = []
    for r in range(mat.shape[0]):
        lo, hi = mat.indptr[r], mat.indptr[r + 1]
        pairs = sorted(zip(mat.indices[lo:hi].tolist(), mat.data[lo:hi].tolist()))
        rows.append({"coeffs": [[int(i), float(c)] for i, c in pairs if c != 0.0],
                     key: float(vec[r])})
    return rows


def _rows_from_doc(rows: list, n_vars: int, key: str = "rhs"):
    data, ri, ci, vec = [], [], [], []
    for r, row in enumerate(rows):
        vec.append(row[key])
        for i, c in row["coeffs"]:
            ri.append(r)
            ci.append(i)
            data.append(c)
    mat = sp.csr_matrix((data, (ri, ci)), shape=(len(rows), n_vars))
    return mat, np.asarray(vec, dtype=float)


def problem_to_dict(prog: ConicProgram) -> dict:
    """Canonical document; ``cone_rows`` hold the rows of ``a_cone`` with
    their constant term from ``b_cone``."""
    obj = [[int(i), float(c)] for i, c in enumerate(prog.objective) if c != 0.0]
    return {
        "version": SCHEMA_VERSION,
        "n_vars": prog.n_vars,
        "maximize": bool(prog.maximize),
        "objective": obj,
        "eq_rows": _rows_to_doc(prog.a_eq, prog.b_eq),
        "ineq_rows": _rows_to_doc(prog.a_ineq, prog.b_ineq),
        "cone_rows": _rows_to_doc(prog.a_cone, prog.b_cone, "const"),
    }


def problem_from_dict(doc: dict) -> ConicProgram:
    """Inverse of :func:`problem_to_dict`; any other schema version raises
    ValueError."""
    if doc.get("version") != SCHEMA_VERSION:
        raise ValueError(f"conic program schema version {doc.get('version')!r} "
                         f"is not {SCHEMA_VERSION}")
    n = int(doc["n_vars"])
    obj = np.zeros(n)
    for i, c in doc["objective"]:
        obj[i] = c
    a_eq, b_eq = _rows_from_doc(doc["eq_rows"], n)
    a_ineq, b_ineq = _rows_from_doc(doc["ineq_rows"], n)
    a_cone, b_cone = _rows_from_doc(doc["cone_rows"], n, "const")
    return ConicProgram(
        n_vars=n,
        objective=obj,
        maximize=doc["maximize"],
        a_eq=a_eq,
        b_eq=b_eq,
        a_ineq=a_ineq,
        b_ineq=b_ineq,
        a_cone=a_cone,
        b_cone=b_cone,
    )


def save_problem(prog: ConicProgram, path) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(problem_to_dict(prog)))
        fh.write("\n")


def load_problem(path) -> ConicProgram:
    with open(path) as fh:
        return problem_from_dict(json.load(fh))


# --- CBF writer / reader ---------------------------------------------------
#
# Subset used: VER, OBJSENSE, VAR (all free), CON with L=, L- and EXP
# domains in that order, OBJACOORD, ACOORD, BCOORD.  A CBF constraint row is
# a x + b in its domain, so the linear rows carry b = -rhs.  CBF's EXP cone
# is ordered so that the *first* member bounds the exponential:
# (c1, c2, c3) in EXP means c2 > 0, c2 * exp(c3 / c2) <= c1 — the reverse of
# this package's (x, y, z).

_CBF_DOMAINS = ["L=", "L-", "EXP"]


def _cbf_cone_rows(n_cones: int) -> np.ndarray:
    """Row order that swaps the x and z slot of every cone (its own inverse)."""
    return (3 * np.arange(n_cones)[:, None] + np.array([2, 1, 0])).ravel()


def write_cbf(prog: ConicProgram, path) -> None:
    # rows: equalities, inequalities, then every cone in CBF's (z, y, x) order
    order = _cbf_cone_rows(prog.n_cones)
    rows = sp.vstack([prog.a_eq, prog.a_ineq, prog.a_cone[order]], format="csr")
    rows.sum_duplicates()
    rows.eliminate_zeros()
    acoord = rows.tocoo()
    const = np.concatenate([-prog.b_eq, -prog.b_ineq, prog.b_cone[order]])
    bcoord = np.flatnonzero(const)

    domains = []
    if prog.n_eq:
        domains.append(("L=", prog.n_eq))
    if prog.n_ineq:
        domains.append(("L-", prog.n_ineq))
    domains += [("EXP", 3)] * prog.n_cones

    obj = [(i, c) for i, c in enumerate(prog.objective) if c != 0.0]
    lines = ["VER", "3", ""]
    lines += ["OBJSENSE", "MAX" if prog.maximize else "MIN", ""]
    lines += ["VAR", f"{prog.n_vars} 1", f"F {prog.n_vars}", ""]
    lines += ["CON", f"{rows.shape[0]} {len(domains)}"]
    lines += [f"{name} {size}" for name, size in domains]
    lines.append("")
    lines += ["OBJACOORD", str(len(obj))]
    lines += [f"{i} {c:.17g}" for i, c in obj]
    lines.append("")
    lines += ["ACOORD", str(acoord.nnz)]
    lines += [f"{r} {i} {c:.17g}" for r, i, c in
              zip(acoord.row.tolist(), acoord.col.tolist(), acoord.data.tolist())]
    lines.append("")
    lines += ["BCOORD", str(len(bcoord))]
    lines += [f"{r} {v:.17g}" for r, v in zip(bcoord.tolist(), const[bcoord].tolist())]
    lines.append("")
    with open(path, "w") as fh:
        fh.write("\n".join(lines))


def read_cbf(path) -> ConicProgram:
    """Read the CBF subset written by :func:`write_cbf`."""
    with open(path) as fh:
        tokens = fh.read().split("\n")
    pos = 0

    def next_line():
        nonlocal pos
        while pos < len(tokens) and not tokens[pos].strip():
            pos += 1
        line = tokens[pos].strip()
        pos += 1
        return line

    maximize = True
    n_vars = 0
    domains: list[tuple[str, int]] = []
    obj_entries: list[tuple[int, float]] = []
    a_entries: list[tuple[int, int, float]] = []
    b_entries: list[tuple[int, float]] = []

    while pos < len(tokens):
        try:
            key = next_line()
        except IndexError:
            break
        if key == "VER":
            next_line()
        elif key == "OBJSENSE":
            maximize = next_line() == "MAX"
        elif key == "VAR":
            n_vars = int(next_line().split()[0])
            next_line()  # single free block
        elif key == "CON":
            _, k = (int(t) for t in next_line().split())
            for _ in range(k):
                name, size = next_line().split()
                domains.append((name, int(size)))
        elif key == "OBJACOORD":
            for _ in range(int(next_line())):
                i, c = next_line().split()
                obj_entries.append((int(i), float(c)))
        elif key == "ACOORD":
            for _ in range(int(next_line())):
                r, i, c = next_line().split()
                a_entries.append((int(r), int(i), float(c)))
        elif key == "BCOORD":
            for _ in range(int(next_line())):
                r, v = next_line().split()
                b_entries.append((int(r), float(v)))

    names = [name for name, _ in domains]
    if names != sorted(names, key=_CBF_DOMAINS.index):  # unknown names raise too
        raise ValueError(f"CBF domains must be {_CBF_DOMAINS} in that order")
    n_rows = sum(size for _, size in domains)
    a = np.array(a_entries, dtype=float).reshape(-1, 3)
    rows = sp.csr_matrix((a[:, 2], (a[:, 0].astype(int), a[:, 1].astype(int))),
                         shape=(n_rows, n_vars))
    const = np.zeros(n_rows)
    for r, v in b_entries:
        const[r] = v
    n_eq = sum(s for name, s in domains if name == "L=")
    n_lin = n_eq + sum(s for name, s in domains if name == "L-")
    cone_rows = n_lin + _cbf_cone_rows((n_rows - n_lin) // 3)

    obj = np.zeros(n_vars)
    for i, c in obj_entries:
        obj[i] = c
    return ConicProgram(
        n_vars=n_vars,
        objective=obj,
        maximize=maximize,
        a_eq=rows[:n_eq],
        b_eq=-const[:n_eq],
        a_ineq=rows[n_eq:n_lin],
        b_ineq=-const[n_eq:n_lin],
        a_cone=rows[cone_rows],
        b_cone=const[cone_rows],
    )
