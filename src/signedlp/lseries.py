"""Numerical evaluation of the period integrals lambda(a/p^k).

Everything rests on one classical identity per primitive Dirichlet
character chi modulo m = p^k (with p coprime to the conductor N):

    sum_b chi(b) lambda(b/m) = -tau(chi) L(f, conj chi, 1),

together with the functional-equation series for the twisted central value,
whose two tails both decay like exp(-2 pi n / (m sqrt N)).  Character sums
at lower conductor propagate upward through the tower by the Hecke trace
recurrence R_{j+1} = a_p R_j - p R_{j-1}.  A finite Fourier inversion over
the character group then recovers every lambda(a/p^k) at once.

One code path serves both working precisions: float64 numpy arrays up to 16
digits, object arrays of mpmath numbers above.  Every character sum and the
final inversion go through one discrete Fourier transform, `_dft`: numpy's
FFT on float64, and on mpmath numbers a mixed-radix Cooley-Tukey over the
prime factors of phi = (p - 1) p^(k-1).  Exact certification of the
recognized rationals is done downstream by the Hecke-relation validator.

The A-sums and Gauss sums at each conductor level do not depend on the
root-number constant of the twisted functional equation, so they are
computed once per (curve, p, digits).  That constant is the classical one
(it degenerates to the textbook L(E,1) formula at trivial character) up to
one sign per character parity; `level` takes the pair of signs as an
argument, and the table builder tries the pins of SIGN_PINS in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .curves import CurveData, an_expansion, prime_divisors
from .errors import CoefficientSupplyExhausted, NonConvergence

_COEFF_CAP = 3_000_000

# functional-equation sign pins (even, odd), in the order a table build tries
# them; the first is the derived default, which holds on every fixture
SIGN_PINS = ((-1, -1), (-1, 1), (1, -1), (1, 1))


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
    """Sign-free numerical state for one (curve, p, digits) triple: lambda(0)
    and, per conductor level, the A-sums and Gauss sums of every character."""

    curve: CurveData
    p: int
    digits: int = 30

    def __post_init__(self):
        if self.curve.conductor % self.p == 0:
            raise NonConvergence(f"p = {self.p} divides the conductor")
        self.use_mp = self.digits > 16
        self.sqrtN = math.sqrt(self.curve.conductor)
        # read off the curve's shared expansion: retry builders count no prime twice
        self.ap = int(an_expansion(self.curve, self.p)[self.p])
        self._lambda0 = None
        self._blocks = {}      # k' -> (A, tau, w_root) over every character index
        self._g = primitive_root_mod_p2(self.p)

    # -- coefficient supply ----------------------------------------------------

    def _tail_terms(self, m: int) -> int:
        """Terms needed so the truncated tails are below the target accuracy."""
        y0 = 1.0 / (m * self.sqrtN)
        c = 2 * math.pi * y0
        T = int((self.digits + 5) * math.log(10) / c) + 64
        if T > _COEFF_CAP:
            raise CoefficientSupplyExhausted(
                f"{T} coefficients needed, cap is {_COEFF_CAP}"
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

    def _block(self, kprime: int):
        if kprime not in self._blocks:
            self._blocks[kprime] = self._primitive_block(kprime)
        return self._blocks[kprime]

    def _primitive_block(self, kprime: int):
        """A-sums A_t, Gauss sums tau_t and the functional-equation constant
        w_t of conj chi_t without its parity sign, for every character index
        t at conductor p^kprime.  Runs at the caller's mpmath precision."""
        ind, m, phi = self._index_table(kprime)
        T = self._tail_terms(m)
        an = an_expansion(self.curve, T)
        if self.use_mp:
            r = mpmath.exp(-2 * mpmath.pi / (m * self.sqrtN_mp()))
            w = np.array([mpmath.mpc(0)] * phi, dtype=object)
            rn = mpmath.mpf(1)
            for n in range(1, T + 1):
                rn *= r
                if n % self.p and an[n]:
                    w[ind[n % m]] += mpmath.mpf(int(an[n])) * rn / n
        else:
            n = np.arange(1, T + 1, dtype=np.int64)
            coprime = (n % self.p) != 0
            nk = n[coprime]
            weights = (
                an[1 : T + 1][coprime] / nk * np.exp(-2 * np.pi * nk / (m * self.sqrtN))
            )
            w = np.bincount(ind[nk % m], weights=weights, minlength=phi).astype(
                np.complex128
            )
        units = np.flatnonzero(ind >= 0)
        u = np.zeros(phi, dtype=w.dtype)
        u[ind[units]] = _roots(m, w.dtype)[units]
        A, tau = _dft(w, 1), _dft(u, 1)
        # chi_t(N) = zeta_phi^(t ind[N]); conj chi_t is index -t
        t = np.arange(phi)
        chiN_bar = _roots(phi, w.dtype)[(-t * int(ind[self.curve.conductor % m])) % phi]
        w_root = self.curve.fricke_sign * chiN_bar * tau[-t % phi] ** 2 / m
        return A, tau, w_root

    # -- assembly ------------------------------------------------------------------

    def level(self, k: int, signs=SIGN_PINS[0]) -> LevelData:
        """lambda(a/p^k) for every unit a mod p^k, with the functional-equation
        constant of even and odd characters pinned to signs = (even, odd)."""
        if k == 0:
            lam0 = self.lambda_zero()
            return LevelData(0, {0: lam0}, self._tail_bound(1, self._tail_terms(1)), 0)
        ind, m, phi = self._index_table(k)
        with mpmath.workdps(self.digits + 8):
            lam_by_slot = _dft(self._character_sums(k, signs), -1) / phi
        bound = max(
            self._tail_bound(self.p**kp, self._tail_terms(self.p**kp))
            for kp in range(1, k + 1)
        )
        amplify = float((abs(self.ap) + self.p) ** (k - 1) + 1)
        values = {a: lam_by_slot[ind[a]] for a in range(1, m) if ind[a] >= 0}
        return LevelData(k, values, bound * amplify, self._tail_terms(m))

    def _character_sums(self, k: int, signs):
        """S_t = sum_a chi_t(a) lambda(a/p^k) for every index t mod phi(p^k).

        The index t = t' p^v with t' primitive at conductor p^(k-v) takes the
        v-th term of the Hecke chain that starts at -tau L(f, conj chi, 1);
        the trivial character takes the chain of lambda(0).
        """
        p, ap = self.p, self.ap
        S = np.zeros_like(self._block(k)[0])
        lam0 = self.lambda_zero()
        prev, cur = lam0, (ap - 2) * lam0
        for j in range(2, k + 1):
            prev, cur = cur, ap * cur - (p - 1 if j == 2 else p) * prev
        S[0] = cur
        for kprime in range(1, k + 1):
            A, tau, w_root = self._block(kprime)
            t = np.arange(1, len(A))
            if kprime >= 2:
                t = t[t % p != 0]  # primitive at this conductor
            sign = np.where(t % 2 == 0, *signs)
            prev, cur = 0, -tau[t] * (A[-t] + sign * w_root[t] * A[t])
            for _ in range(k - kprime):
                prev, cur = cur, ap * cur - p * prev
            S[t * p ** (k - kprime)] = cur
        return S


def _roots(n: int, dtype):
    """zeta_n^j = exp(2 pi i j / n) for 0 <= j < n, as float64 or mpmath."""
    if dtype == object:
        return np.array(
            [mpmath.expjpi(mpmath.mpf(2 * j) / n) for j in range(n)], dtype=object
        )
    return np.exp(2j * np.pi * np.arange(n) / n)


def _dft(x, sign: int):
    """y_t = sum_s x_s zeta_phi^(sign t s) with phi = len(x).

    numpy's FFT on float64; on mpmath numbers (object arrays) a mixed-radix
    Cooley-Tukey at the current mpmath precision, O(phi * sum of the prime
    factors of phi) operations.
    """
    phi = len(x)
    if x.dtype != object:
        return phi * np.fft.ifft(x) if sign > 0 else np.fft.fft(x)
    roots = _roots(phi, object)
    if sign < 0:
        roots = roots[-np.arange(phi) % phi]
    return np.array(_cooley_tukey(list(x), list(roots)), dtype=object)


def _cooley_tukey(x: list, roots: list) -> list:
    """DFT of x against roots[j] = zeta^j, zeta of order n = len(x): split by
    the smallest prime q | n into q DFTs of length n/q over x[r::q]."""
    n = len(x)
    if n == 1:
        return x
    q = prime_divisors(n)[0]
    parts = [_cooley_tukey(x[r::q], roots[::q]) for r in range(q)]
    return [
        sum(roots[r * t % n] * parts[r][t % (n // q)] for r in range(q))
        for t in range(n)
    ]
