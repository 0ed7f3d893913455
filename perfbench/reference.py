"""Reference values for the measure workloads, computed without qcorr.

Everything here is plain numpy written from the paper's definitions, so no
change under ``src/qcorr`` can move a reference:

* ``disturbance`` is [S(after) - S(before)] / (Tr before^q)^s for the unified
  (q, s)-entropy, with the von Neumann (q -> 1) and Renyi (s -> 0) limits;
* ``dvb_oracle`` is the Dakic-Vedral-Brukner closed form of the two-qubit
  geometric discord (PRL 105, 190502, 2010), which at (q, s) = (2, 1) equals
  the unilocal measure times Tr rho^2;
* ``search`` is a long-budget multistart Riemannian conjugate-gradient
  descent over the measured bases, using the closed-form gradient
  dD = Tr(K C), C = -i[W, F], of the disturbance under U -> U exp(iK).
"""

from __future__ import annotations

import numpy as np

REGIME_TOL = 1e-8
PAULI = np.array(
    [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex
)


def _regime(q: float, s: float) -> str:
    if abs(q - 1.0) <= REGIME_TOL:
        return "vn"
    return "renyi" if abs(s) <= REGIME_TOL else "unified"


def _power_sum(p: np.ndarray, q: float) -> float:
    pz = p[p > 0.0]
    return float(np.sum(pz**q))


def _vn(p: np.ndarray) -> float:
    pz = p[p > 0.0]
    return float(-np.sum(pz * np.log(pz)))


def disturbance(before: np.ndarray, after: np.ndarray, q: float, s: float) -> float:
    """Purity-rescaled entropy increase between two spectra."""
    before = np.clip(np.ravel(before), 0.0, None)
    after = np.clip(np.ravel(after), 0.0, None)
    regime = _regime(q, s)
    if regime == "vn":
        return _vn(after) - _vn(before)
    ratio = _power_sum(after, q) / _power_sum(before, q)
    if regime == "renyi":
        return float(np.log(ratio)) / (1.0 - q)
    return (ratio**s - 1.0) / ((1.0 - q) * s)


def _slope(before: np.ndarray, after: np.ndarray, q: float, s: float) -> np.ndarray:
    """dD/d(after_k), same shape as ``after``; zero entries are floored."""
    lam = np.clip(after, 1e-300, None)
    regime = _regime(q, s)
    if regime == "vn":
        return -(np.log(lam) + 1.0)
    ta = _power_sum(np.clip(after, 0.0, None), q)
    g = q * lam ** (q - 1.0) / ((1.0 - q) * ta)
    if regime == "unified":
        g = g * (ta / _power_sum(before, q)) ** s
    return g


def _rotated(t: np.ndarray, side: str, us) -> np.ndarray:
    """W = U^dag rho U as a 4-index tensor, with U the local unitary(ies)."""
    if side == "A":
        return np.einsum("ai,abcd,ck->ibkd", us[0].conj(), t, us[0])
    if side == "B":
        return np.einsum("bj,abcd,dl->ajcl", us[0].conj(), t, us[0])
    w = np.einsum("ai,abcd,ck->ibkd", us[0].conj(), t, us[0])
    return np.einsum("bj,ibkd,dl->ijkl", us[1].conj(), w, us[1])


def _value_and_grad(t, before, side, us, q, s, grad=True):
    """Disturbance at the bases ``us`` and its Lie-algebra gradient(s)."""
    w = _rotated(t, side, us)
    if side == "AB":
        p = np.real(np.einsum("ijij->ij", w))
        value = disturbance(before, p, q, s)
        if not grad:
            return value, None
        g = _slope(before, np.clip(p, 0.0, None), q, s)
        ga = -1j * (np.einsum("ijkj,kj->ik", w, g) - np.einsum("ijkj,ij->ik", w, g))
        gb = -1j * (np.einsum("ijil,il->jl", w, g) - np.einsum("ijil,ij->jl", w, g))
        return value, [ga, gb]
    blocks = np.einsum("ibid->ibd", w) if side == "A" else np.einsum("ajcj->jac", w)
    lam, vec = np.linalg.eigh(blocks)
    value = disturbance(before, lam, q, s)
    if not grad:
        return value, None
    g = _slope(before, np.clip(lam, 0.0, None), q, s)
    f = np.einsum("xbm,xm,xdm->xbd", vec, g, vec.conj())
    if side == "A":
        gr = np.einsum("ibke,keb->ik", w, f) - np.einsum("ibe,iekb->ik", f, w)
    else:
        gr = np.einsum("ajel,lea->jl", w, f) - np.einsum("jae,ejal->jl", f, w)
    return value, [-1j * gr]


def _inner(xs, ys) -> float:
    return float(sum(np.real(np.vdot(x, y)) for x, y in zip(xs, ys)))


def _descend(t, before, side, us, q, s, max_iter=800, gtol=1e-9):
    """Riemannian Polak-Ribiere conjugate gradient with Armijo backtracking."""
    f, g = _value_and_grad(t, before, side, us, q, s)
    d = [-x for x in g]
    step = 1.0
    for _ in range(max_iter):
        if np.sqrt(_inner(g, g)) < gtol:
            break
        slope = _inner(g, d)
        if slope >= 0.0:
            d, slope = [-x for x in g], -_inner(g, g)
        eig = [np.linalg.eigh(0.5 * (x + x.conj().T)) for x in d]
        trial = min(4.0 * step, 10.0)
        while trial > 1e-14:
            cand = [u @ (v * np.exp(1j * trial * w)) @ v.conj().T for u, (w, v) in zip(us, eig)]
            f_new, _ = _value_and_grad(t, before, side, cand, q, s, grad=False)
            if f_new <= f + 1e-4 * trial * slope:
                break
            trial *= 0.5
        else:
            break
        step = trial
        us = cand
        f_prev = f
        f, g_new = _value_and_grad(t, before, side, us, q, s)
        beta = max(0.0, _inner(g_new, [a - b for a, b in zip(g_new, g)]) / _inner(g, g))
        d = [-a + beta * b for a, b in zip(g_new, d)]
        g = g_new
        if f_prev - f < 1e-16 and np.sqrt(_inner(g, g)) < 1e-6:
            break
    return f, us


def haar(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    qm, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return qm * (d / np.abs(d))


def _local_eigenbasis(t: np.ndarray, axis: int) -> np.ndarray:
    reduced = np.einsum("abcb->ac", t) if axis == 0 else np.einsum("abad->bd", t)
    return np.linalg.eigh(reduced)[1]


def search(rho: np.ndarray, dims, side: str, q: float, s: float, starts: int, seed) -> dict:
    """Best disturbance found over ``starts`` descents (eigenbasis + Haar).

    Returns the best value and how many descents ended within 1e-9 of it.
    """
    na, nb = dims
    t = np.asarray(rho).reshape(na, nb, na, nb)
    before = np.linalg.eigvalsh(rho)
    axes = {"A": (0,), "B": (1,), "AB": (0, 1)}[side]
    rng = np.random.default_rng(seed)
    inits = [[_local_eigenbasis(t, ax) for ax in axes]]
    while len(inits) < starts:
        inits.append([haar(dims[ax], rng) for ax in axes])
    values = [_descend(t, before, side, us, q, s)[0] for us in inits]
    best = min(values)
    return {"value": best, "starts": starts, "basin_hits": sum(v <= best + 1e-9 for v in values)}


def evaluate(rho: np.ndarray, dims, side: str, us, q: float, s: float) -> float:
    """Disturbance of the measurement in the given local bases."""
    na, nb = dims
    t = np.asarray(rho).reshape(na, nb, na, nb)
    return _value_and_grad(t, np.linalg.eigvalsh(rho), side, us, q, s, grad=False)[0]


def dvb_oracle(rho: np.ndarray, side: str) -> float:
    """Two-qubit measure at (q, s) = (2, 1): D_G / Tr rho^2, D_G from DVB."""
    rho = np.asarray(rho)
    eye = np.eye(2)
    x = np.real([np.trace(rho @ np.kron(p, eye)) for p in PAULI])
    y = np.real([np.trace(rho @ np.kron(eye, p)) for p in PAULI])
    tt = np.real([[np.trace(rho @ np.kron(a, b)) for b in PAULI] for a in PAULI])
    if side == "B":
        x, tt = y, tt.T
    k_max = np.linalg.eigvalsh(np.outer(x, x) + tt @ tt.T)[-1]
    d_g = 0.25 * (x @ x + np.sum(tt**2) - k_max)
    return float(d_g / np.real(np.trace(rho @ rho)))
