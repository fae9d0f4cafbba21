"""HPCCG benchmark (paper §IV-4, Mantevo suite).

A single-threaded conjugate-gradient solver for a 27-point-stencil
Laplacian-like operator on a 3-D "chimney" domain nx × ny × nz — the
structure of Mantevo's HPCCG mini-app (diagonal 27, off-diagonals −1,
right-hand side chosen so the exact solution is all-ones).

The whole CG iteration is the instrumented kernel: the per-iteration
sensitivities of the vectors ``r``, ``p``, ``x`` and ``Ap`` are the
subject of the paper's Fig. 9 heat map and the loop-split optimization,
and the Table I threshold is 1e-10.

The paper scales 20 × 30 × {10..320}; we default to a 4 × 6 base so the
pure-Python adjoint stays laptop-sized.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.frontend.registry import kernel

NAME = "hpccg"
DEFAULT_THRESHOLD = 1e-10
TUNING_CANDIDATES = ("x", "r", "p", "Ap", "s", "alpha", "beta", "rtrans")

#: base cross-section of the chimney domain (paper: 20 × 30)
NX, NY = 4, 6
#: maximum stencil points per row
STENCIL = 27


@kernel
def hpccg_cg(
    nrow: int,
    max_iter: int,
    tol: float,
    vals: "f64[]",
    inds: "i64[]",
    nnz: "i64[]",
    bvec: "f64[]",
    x: "f64[]",
    r: "f64[]",
    p: "f64[]",
    Ap: "f64[]",
) -> float:
    """Conjugate gradient on the padded-CSR stencil matrix.

    ``vals``/``inds`` are padded to 27 entries per row; ``nnz`` holds
    the true per-row counts.  Returns the final residual norm — the
    objective CHEF-FP differentiates.  Note a CG-theoretic consequence
    visible in Fig. 9: the solution vector ``x`` feeds only the output,
    never the residual recurrence, so its sensitivity is ~0 throughout
    (demoting ``x`` is nearly free).  The tolerance exit uses the
    guarded-break pattern so the adjoint can replay the loop.
    """
    for i in range(nrow):
        x[i] = 0.0
        r[i] = bvec[i]
        p[i] = bvec[i]
    rtrans = 0.0
    for i in range(nrow):
        rtrans = rtrans + r[i] * r[i]
    normr = sqrt(rtrans)
    for k in range(max_iter):
        if normr <= tol:
            break
        for i in range(nrow):
            s = 0.0
            cur = nnz[i]
            for j in range(cur):
                s = s + vals[i * 27 + j] * p[inds[i * 27 + j]]
            Ap[i] = s
        alpha_den = 0.0
        for i in range(nrow):
            alpha_den = alpha_den + p[i] * Ap[i]
        alpha = rtrans / alpha_den
        oldrtrans = rtrans
        rtrans = 0.0
        for i in range(nrow):
            x[i] = x[i] + alpha * p[i]
            r[i] = r[i] - alpha * Ap[i]
            rtrans = rtrans + r[i] * r[i]
        beta = rtrans / oldrtrans
        for i in range(nrow):
            p[i] = r[i] + beta * p[i]
        normr = sqrt(rtrans)
    return normr


@kernel
def hpccg_cg_split(
    nrow: int,
    split: int,
    max_iter: int,
    tol: float,
    vals: "f64[]",
    inds: "i64[]",
    nnz: "i64[]",
    bvec: "f64[]",
    x: "f64[]",
    r: "f64[]",
    p: "f64[]",
    Ap: "f64[]",
    xs: "f32[]",
    rs: "f32[]",
    ps: "f32[]",
    Aps: "f32[]",
    vals32: "f32[]",
) -> float:
    """The paper's HPCCG loop-split configuration, written out.

    Iterations ``[0, split)`` run in double precision on ``x/r/p/Ap``;
    the state *and the operator* are then copied into binary32 arrays
    (``xs/rs/ps/Aps``, ``vals32``) and the remaining iterations run
    there — the manual rewrite the paper performs after the Fig. 9
    sensitivity analysis.  Demoting the matrix too is what makes the
    tail actually cheaper; keeping it in f64 would promote every
    product back to double and pay casts (the k-Means effect).
    """
    for i in range(nrow):
        x[i] = 0.0
        r[i] = bvec[i]
        p[i] = bvec[i]
    rtrans = 0.0
    for i in range(nrow):
        rtrans = rtrans + r[i] * r[i]
    normr = sqrt(rtrans)
    for k in range(split):
        if normr <= tol:
            break
        for i in range(nrow):
            s = 0.0
            cur = nnz[i]
            for j in range(cur):
                s = s + vals[i * 27 + j] * p[inds[i * 27 + j]]
            Ap[i] = s
        alpha_den = 0.0
        for i in range(nrow):
            alpha_den = alpha_den + p[i] * Ap[i]
        alpha = rtrans / alpha_den
        oldrtrans = rtrans
        rtrans = 0.0
        for i in range(nrow):
            x[i] = x[i] + alpha * p[i]
            r[i] = r[i] - alpha * Ap[i]
            rtrans = rtrans + r[i] * r[i]
        beta = rtrans / oldrtrans
        for i in range(nrow):
            p[i] = r[i] + beta * p[i]
        normr = sqrt(rtrans)
    # demote state and operator, continue in reduced precision
    for i in range(nrow):
        xs[i] = x[i]
        rs[i] = r[i]
        ps[i] = p[i]
    for i in range(nrow):
        for j in range(27):
            vals32[i * 27 + j] = vals[i * 27 + j]
    rtrans2: "f32" = 0.0
    for i in range(nrow):
        rtrans2 = rtrans2 + rs[i] * rs[i]
    normr = sqrt(rtrans2)
    for k in range(max_iter - split):
        if normr <= tol:
            break
        for i in range(nrow):
            s2: "f32" = 0.0
            cur2 = nnz[i]
            for j in range(cur2):
                s2 = s2 + vals32[i * 27 + j] * ps[inds[i * 27 + j]]
            Aps[i] = s2
        alpha_den2: "f32" = 0.0
        for i in range(nrow):
            alpha_den2 = alpha_den2 + ps[i] * Aps[i]
        alpha2: "f32" = rtrans2 / alpha_den2
        oldrtrans2: "f32" = rtrans2
        rtrans2 = 0.0
        for i in range(nrow):
            xs[i] = xs[i] + alpha2 * ps[i]
            rs[i] = rs[i] - alpha2 * Aps[i]
            rtrans2 = rtrans2 + rs[i] * rs[i]
        beta2: "f32" = rtrans2 / oldrtrans2
        for i in range(nrow):
            ps[i] = rs[i] + beta2 * ps[i]
        normr = sqrt(rtrans2)
    return normr


def make_split_workload(
    nz: int, split: int, max_iter: int = 30, tol: float = 0.0
) -> Tuple[object, ...]:
    """Arguments for :func:`hpccg_cg_split`."""
    vals, inds, nnz, b = generate_matrix(NX, NY, int(nz))
    nrow = len(b)
    work = [np.zeros(nrow, dtype=np.float64) for _ in range(8)]
    vals32 = np.zeros(nrow * STENCIL, dtype=np.float64)
    return (
        nrow, int(split), int(max_iter), float(tol),
        vals, inds, nnz, b, *work, vals32,
    )


def generate_matrix(
    nx: int, ny: int, nz: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Build the padded 27-point stencil system of HPCCG.

    Returns ``(vals, inds, nnz, b)`` where ``b = A·1`` so the exact
    solution is the all-ones vector.
    """
    nrow = nx * ny * nz
    vals = np.zeros(nrow * STENCIL, dtype=np.float64)
    inds = np.zeros(nrow * STENCIL, dtype=np.int64)
    nnz = np.zeros(nrow, dtype=np.int64)
    b = np.zeros(nrow, dtype=np.float64)

    def rid(ix: int, iy: int, iz: int) -> int:
        return ix + nx * (iy + ny * iz)

    for iz in range(nz):
        for iy in range(ny):
            for ix in range(nx):
                row = rid(ix, iy, iz)
                cnt = 0
                rowsum = 0.0
                for dz in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            jx, jy, jz = ix + dx, iy + dy, iz + dz
                            if not (
                                0 <= jx < nx and 0 <= jy < ny and 0 <= jz < nz
                            ):
                                continue
                            col = rid(jx, jy, jz)
                            v = 27.0 if col == row else -1.0
                            vals[row * STENCIL + cnt] = v
                            inds[row * STENCIL + cnt] = col
                            rowsum += v
                            cnt += 1
                nnz[row] = cnt
                b[row] = rowsum  # A @ ones
    return vals, inds, nnz, b


def make_workload(
    nz: int, max_iter: int = 30, tol: float = 0.0
) -> Tuple[object, ...]:
    """Arguments for :func:`hpccg_cg` on an NX × NY × ``nz`` domain.

    ``tol = 0`` keeps the loop running all ``max_iter`` iterations (the
    configuration used for analysis-time benchmarking); pass a positive
    tolerance to exercise the guarded early exit.
    """
    vals, inds, nnz, b = generate_matrix(NX, NY, int(nz))
    nrow = len(b)
    work = [np.zeros(nrow, dtype=np.float64) for _ in range(4)]
    return (nrow, int(max_iter), float(tol), vals, inds, nnz, b, *work)


INSTRUMENTED = hpccg_cg


def search_scenario(nz: int = 2, max_iter: int = 6):
    """Pareto precision-search scenario on the CG iteration.

    Small domain and short iteration keep the pure-Python adjoint and
    the per-candidate counting runs laptop-sized; the candidates are
    the Fig. 9 vectors plus the CG scalars.
    """
    from repro.search.scenario import SearchScenario

    return SearchScenario(
        name=NAME,
        kernel=hpccg_cg,
        points=[make_workload(nz, max_iter=max_iter)],
        threshold=DEFAULT_THRESHOLD,
        candidates=TUNING_CANDIDATES,
        budget=24,
        description=(
            "HPCCG conjugate gradient: Fig. 9 vectors and CG scalars "
            "under the paper's 1e-10 threshold"
        ),
    )


def reference_solve(nz: int) -> np.ndarray:
    """Dense numpy reference solution of the same system (tests)."""
    vals, inds, nnz, b = generate_matrix(NX, NY, nz)
    nrow = len(b)
    A = np.zeros((nrow, nrow))
    for i in range(nrow):
        for j in range(int(nnz[i])):
            A[i, inds[i * STENCIL + j]] = vals[i * STENCIL + j]
    return np.linalg.solve(A, b)
