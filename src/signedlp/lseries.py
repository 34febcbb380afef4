"""Numerical evaluation of the period integrals lambda(a/p^k).

Everything rests on one classical identity per primitive Dirichlet
character chi modulo m = p^k (with p coprime to the conductor N):

    sum_b chi(b) lambda(b/m) = -tau(chi) L(f, conj chi, 1),

together with the functional-equation series for the twisted central value,
whose two tails both decay like exp(-2 pi n / (m sqrt N)).  Character sums
at lower conductor propagate upward through the tower by the Hecke trace
recurrence R_{j+1} = a_p R_j - p R_{j-1}.  A finite Fourier inversion over
the character group then recovers every lambda(a/p^k) at once.

Two interchangeable backends: vectorized float64 (numpy) for digits <= 16,
and mpmath for arbitrary working precision.  Their outputs are compared in
the test suite; exact certification of the recognized rationals is done
downstream by the Hecke-relation validator.

The root-number constant of the twisted functional equation is taken from
the classical computation (it degenerates to the textbook L(E,1) formula at
trivial character); should a build ever fail validation, the two parity
sign bits are re-pinned empirically, and the pinned choice is reported.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .curves import CurveData, an_expansion, prime_divisors
from .errors import CoefficientSupplyExhausted, NonConvergence

_COEFF_CAP = 3_000_000


def primitive_root_mod_p2(p: int) -> int:
    """Smallest primitive root mod p that stays primitive mod p^2."""
    factors = prime_divisors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            if pow(g, p - 1, p * p) != 1:
                return g
            return g + p
    raise ValueError(f"no primitive root found mod {p}")


@dataclass
class LevelData:
    """Numerical lambda-values for one denominator p^k."""

    k: int
    values: dict            # unit residue a mod p^k -> complex lambda(a/p^k)
    error_bound: float
    terms_used: int


@dataclass
class SymbolNumerics:
    """Shared numerical state for one (curve, p, digits) triple."""

    curve: CurveData
    p: int
    digits: int = 30
    coefficient_cap: int = _COEFF_CAP
    sign_even: int = -1
    sign_odd: int = -1

    def __post_init__(self):
        if self.curve.conductor % self.p == 0:
            raise NonConvergence(f"p = {self.p} divides the conductor")
        self.use_mp = self.digits > 16
        self.sqrtN = math.sqrt(self.curve.conductor)
        # read off the curve's shared expansion: retry builders count no prime twice
        self.ap = int(an_expansion(self.curve, self.p)[self.p])
        self._chains = {}      # (kprime, tprime) -> list of R_j values
        self._trivial_chain = None
        self._levels = {}      # k -> LevelData
        self._lambda0 = None
        self._g = primitive_root_mod_p2(self.p)

    # -- coefficient supply ----------------------------------------------------

    def _tail_terms(self, m: int) -> int:
        """Terms needed so the truncated tails are below the target accuracy."""
        y0 = 1.0 / (m * self.sqrtN)
        c = 2 * math.pi * y0
        T = int((self.digits + 5) * math.log(10) / c) + 64
        if T > self.coefficient_cap:
            raise CoefficientSupplyExhausted(
                f"{T} coefficients needed, cap is {self.coefficient_cap}"
            )
        return T

    def _tail_bound(self, m: int, T: int) -> float:
        r = math.exp(-2 * math.pi / (m * self.sqrtN))
        return 4.0 * r ** (T + 1) / (1.0 - r)

    # -- base values -------------------------------------------------------------

    def lambda_zero(self):
        """lambda(0) = -L(f, 1) = -(1 - eps) * sum (a_n/n) e^(-2 pi n / sqrt N)."""
        if self._lambda0 is not None:
            return self._lambda0
        T = self._tail_terms(1)
        an = an_expansion(self.curve, T)
        eps = self.curve.fricke_sign
        if self.use_mp:
            with mpmath.workdps(self.digits + 8):
                r = mpmath.exp(-2 * mpmath.pi / self.sqrtN_mp())
                acc = mpmath.mpf(0)
                rn = mpmath.mpf(1)
                for n in range(1, T + 1):
                    rn *= r
                    if an[n]:
                        acc += mpmath.mpf(int(an[n])) * rn / n
                val = -(1 - eps) * acc
                self._lambda0 = mpmath.mpc(val)
        else:
            n = np.arange(1, T + 1, dtype=np.float64)
            tail = np.exp(-2 * np.pi * n / self.sqrtN)
            acc = float(np.sum(an[1 : T + 1] / n * tail))
            self._lambda0 = complex(-(1 - eps) * acc)
        return self._lambda0

    def sqrtN_mp(self):
        return mpmath.sqrt(self.curve.conductor)

    def verify_fricke(self, samples=(0.83, 1.37)) -> float:
        """Largest relative residual of f(i/(N y)) = -eps N y^2 f(i y)."""
        N = self.curve.conductor
        eps = self.curve.fricke_sign
        T = self._tail_terms(1) * 3
        an = an_expansion(self.curve, T)
        worst = 0.0
        for scale in samples:
            y = scale / self.sqrtN
            f_y = sum(
                int(an[n]) * math.exp(-2 * math.pi * n * y) for n in range(1, T)
            )
            f_wy = sum(
                int(an[n]) * math.exp(-2 * math.pi * n / (N * y))
                for n in range(1, T)
            )
            lhs, rhs = f_wy, -eps * N * y * y * f_y
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
        return worst

    # -- character data at one conductor level -------------------------------------

    def _index_table(self, k: int):
        m = self.p**k
        phi = (self.p - 1) * self.p ** (k - 1)
        ind = np.full(m, -1, dtype=np.int64)
        x = 1
        for s in range(phi):
            ind[x] = s
            x = (x * self._g) % m
        return ind, m, phi

    def _primitive_block(self, kprime: int):
        """A-sums and Gauss sums for every character index at conductor p^kprime."""
        ind, m, phi = self._index_table(kprime)
        T = self._tail_terms(m)
        an = an_expansion(self.curve, T)
        if self.use_mp:
            return self._primitive_block_mp(ind, m, phi, T, an)
        n = np.arange(1, T + 1, dtype=np.int64)
        coprime = (n % self.p) != 0
        nk = n[coprime]
        weights = (
            an[1 : T + 1][coprime] / nk * np.exp(-2 * np.pi * nk / (m * self.sqrtN))
        )
        slot = ind[nk % m]
        w = np.bincount(slot, weights=weights, minlength=phi).astype(np.complex128)
        A = phi * np.fft.ifft(w)   # A_t = sum_s w_s zeta_phi^(t s)
        zm = np.exp(2j * np.pi * np.arange(m) / m)
        u = np.zeros(phi, dtype=np.complex128)
        units = np.nonzero(ind >= 0)[0]
        u[ind[units]] = zm[units]
        tau = phi * np.fft.ifft(u)
        return A, tau, phi, m, ind, self._tail_bound(m, T), T

    def _primitive_block_mp(self, ind, m, phi, T, an):
        with mpmath.workdps(self.digits + 8):
            r = mpmath.exp(-2 * mpmath.pi / (m * self.sqrtN_mp()))
            w = [mpmath.mpc(0)] * phi
            rn = mpmath.mpf(1)
            for n in range(1, T + 1):
                rn *= r
                if n % self.p == 0 or not an[n]:
                    continue
                w[int(ind[n % m])] += mpmath.mpf(int(an[n])) * rn / n
            zphi = [
                mpmath.expjpi(mpmath.mpf(2 * j) / phi) for j in range(phi)
            ]
            A = [
                mpmath.fsum(
                    (w[s] * zphi[(t * s) % phi] for s in range(phi)),
                    absolute=False,
                )
                for t in range(phi)
            ]
            zm = [mpmath.expjpi(mpmath.mpf(2 * b) / m) for b in range(m)]
            u = [mpmath.mpc(0)] * phi
            for b in range(m):
                if ind[b] >= 0:
                    u[int(ind[b])] = zm[b]
            tau = [
                mpmath.fsum((u[s] * zphi[(t * s) % phi] for s in range(phi)))
                for t in range(phi)
            ]
        return A, tau, phi, m, ind, self._tail_bound(m, T), T

    # -- chains ------------------------------------------------------------------

    def _ensure_chains(self, K: int):
        """R_j chains for every primitive character of conductor <= p^K."""
        if self.use_mp:
            with mpmath.workdps(self.digits + 8):
                self._ensure_chains_inner(K)
        else:
            self._ensure_chains_inner(K)

    def _ensure_chains_inner(self, K: int):
        ap = self.ap
        if self._trivial_chain is None or len(self._trivial_chain) <= K:
            lam0 = self.lambda_zero()
            chain = [lam0, (ap - 2) * lam0]
            if K >= 2:
                chain.append(ap * chain[1] - (self.p - 1) * chain[0])
            while len(chain) <= K:
                chain.append(ap * chain[-1] - self.p * chain[-2])
            self._trivial_chain = chain
        for kprime in range(1, K + 1):
            if (kprime, "done") in self._chains:
                self._extend_chains(kprime, K, ap)
                continue
            A, tau, phi, m, ind, bound, T = self._primitive_block(kprime)
            NN = self.curve.conductor % m
            eps = self.curve.fricke_sign
            for t in range(phi):
                if t == 0 or (kprime >= 2 and t % self.p == 0):
                    continue  # not primitive at this conductor
                tc = (phi - t) % phi
                c = self.sign_even if t % 2 == 0 else self.sign_odd
                # chi_t(N) = zeta_phi^(t * ind[N]); conj for chi-bar
                sN = int(ind[NN])
                chiN_bar = _unit_root(-t * sN, phi, self.use_mp, self.digits)
                taubar = tau[tc]
                # functional-equation constant w(chi-bar), empirically pinnable
                w_root = c * eps * chiN_bar * taubar * taubar / m
                L_chibar = A[tc] + w_root * A[t]
                R0 = -tau[t] * L_chibar
                chain = [R0, ap * R0]
                while len(chain) <= K - kprime:
                    chain.append(ap * chain[-1] - self.p * chain[-2])
                self._chains[(kprime, t)] = chain
            self._chains[(kprime, "done")] = bound
            self._extend_chains(kprime, K, ap)

    def _extend_chains(self, kprime: int, K: int, ap: int):
        for (kp, t), chain in list(self._chains.items()):
            if kp != kprime or t == "done":
                continue
            while len(chain) <= K - kprime:
                if len(chain) == 1:
                    chain.append(ap * chain[0])
                else:
                    chain.append(ap * chain[-1] - self.p * chain[-2])

    # -- assembly ------------------------------------------------------------------

    def level(self, k: int) -> LevelData:
        """lambda(a/p^k) for every unit a mod p^k."""
        if k in self._levels:
            return self._levels[k]
        if k == 0:
            lam0 = self.lambda_zero()
            ld = LevelData(0, {0: lam0}, self._tail_bound(1, self._tail_terms(1)), 0)
            self._levels[0] = ld
            return ld
        self._ensure_chains(k)
        ind, m, phi = self._index_table(k)
        S = [None] * phi
        for t in range(phi):
            if t == 0:
                S[t] = self._trivial_chain[k]
                continue
            v = 0
            tt = t
            while tt % self.p == 0:
                tt //= self.p
                v += 1
            kprime = k - v
            S[t] = self._chains[(kprime, tt)][v]
        bound = max(
            self._chains.get((kp, "done"), 0.0) for kp in range(1, k + 1)
        )
        amplify = float((abs(self.ap) + self.p) ** (k - 1) + 1)
        if self.use_mp:
            values = self._assemble_mp(S, ind, m, phi)
        else:
            Svec = np.asarray(S, dtype=np.complex128)
            lam_by_slot = np.fft.fft(Svec) / phi   # sum_t S_t zeta_phi^(-t s)
            values = {}
            for a in range(1, m):
                if ind[a] >= 0:
                    values[a] = complex(lam_by_slot[ind[a]])
        ld = LevelData(k, values, bound * amplify, self._tail_terms(m))
        self._levels[k] = ld
        return ld

    def _assemble_mp(self, S, ind, m, phi):
        with mpmath.workdps(self.digits + 8):
            zphi = [mpmath.expjpi(mpmath.mpf(2 * j) / phi) for j in range(phi)]
            lam_by_slot = [
                mpmath.fsum(
                    (S[t] * zphi[(-t * s) % phi] for t in range(phi))
                ) / phi
                for s in range(phi)
            ]
            return {
                a: lam_by_slot[int(ind[a])] for a in range(1, m) if ind[a] >= 0
            }

    def gauss_norm_residual(self, kprime: int) -> float:
        """max | |tau(chi)|^2 - m | over primitive chi; sanity diagnostic."""
        A, tau, phi, m, ind, *_ = self._primitive_block(kprime)
        worst = 0.0
        for t in range(phi):
            if t == 0 or (kprime >= 2 and t % self.p == 0):
                continue
            worst = max(worst, abs(abs(complex(tau[t])) ** 2 - m))
        return worst


def _unit_root(exponent: int, phi: int, use_mp: bool, digits: int):
    e = exponent % phi
    if use_mp:
        with mpmath.workdps(digits + 8):
            return mpmath.expjpi(mpmath.mpf(2 * e) / phi)
    return cmath.exp(2j * cmath.pi * e / phi)
