"""Exact two-sided one-sample Kolmogorov–Smirnov test against U[0, 1].

:func:`ks_uniform` returns the statistic and p-value of
``scipy.stats.kstest(values, "uniform")`` bit for bit, without importing
``scipy.stats``.  The p-value is the survival function of the exact
distribution of D_n, computed by the method Simard & L'Ecuyer (J. Stat.
Softw. 39(11), 2011) choose for each (n, d):

- Ruben–Gambino's closed forms at d <= 1/n and d >= 1 - 1/n;
- twice Smirnov's one-sided tail (``scipy.special.smirnov``) for d >= 0.5
  and in the far tail;
- the Durbin matrix (Durbin 1968) as Marsaglia, Tsang & Wang (J. Stat.
  Softw. 8(18), 2003) evaluate it;
- Pomeranz's recursion (CACM 17(12), 1974);
- Pelz & Good's expansion (JRSS B 38(2), 1976).

Everything below :func:`ks_uniform` is a port of the survival path of
``scipy/stats/_ksstats.py`` (scipy 1.17.1), numpy scalar types included:
the Durbin loop switches to ``np.longdouble`` at its first rescale, and a
port in Python floats changes the last bits.  The sub-algorithms are
called with ``cdf=True`` only, so they lose that parameter, and the
range guards that this path never reaches (x outside (1/n, 0.5) in the
sub-algorithms) are dropped.  Only the branches that call ``smirnov``
import scipy, and only ``scipy.special``.

That port is distributed under scipy's license:

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ks_uniform"]


def ks_uniform(values) -> tuple[float, float]:
    """(D, p) of the two-sided KS test of ``values`` (flattened) against
    U[0, 1], with the bits of ``scipy.stats.kstest(values, "uniform")``;
    (nan, nan) for an empty sample or one with a NaN."""
    # U[0, 1]'s CDF is the sorted sample clipped to [0, 1]
    x = np.sort(np.asarray(values, dtype=np.float64), axis=None)
    n = x.size
    if n == 0 or np.isnan(x[-1]):  # NaN sorts last
        return float("nan"), float("nan")
    np.clip(x, 0.0, 1.0, out=x)
    # D+ = max(i/n - x_(i)) in a buffer of the grid i/n, i = 1..n
    buf = np.arange(1.0, n + 1)
    buf /= n
    buf -= x
    d_plus = buf.max()
    del buf
    # D- = max(x_(i) - (i-1)/n), in place in the copy
    grid = np.arange(0.0, n)
    grid /= n
    x -= grid
    d = max(d_plus, x.max())
    # kstwo.sf is 1 below its support (0.5/n, 1) and 0 above it; inside it,
    # kolmogn takes the statistic as the 0-d float64 array its iterator
    # hands over.  kolmogn clips p to [0, 1] and kstest clips it again once
    # cast to float64; the one clip after the cast has the same bits.
    p = 1.0 if d <= 0.5 / n else 0.0 if d >= 1.0 else _kolmogn_sf(n, np.asarray(d))
    return float(d), float(np.clip(np.float64(p), 0.0, 1.0))


# --- port of scipy/stats/_ksstats.py, the survival path -------------------

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)

_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6

# Stirling coeffs B_{2j}/(2j)/(2j-1) for j=8,...1, B_m the Bernoulli numbers
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def _smirnov(n, x):
    from scipy.special import smirnov

    return smirnov(n, x)


def _log_nfactorial_div_n_pow_n(n):
    # log(n! / n**n) by Stirling's approximation, with n*log(n) removed
    # up-front to avoid subtractive cancellation
    rn = 1.0/n
    return np.log(n)/2 - n + _LOG_2PI/2 + rn * np.polyval(_STIRLING_COEFFS, rn/n)


def _kolmogn_DMTW(n, d):
    """Pr(D_n <= d) by the Durbin matrix algorithm as Marsaglia, Tsang and
    Wang compute it: with d = (k - h)/n, the k-th diagonal entry of
    (n!/n^n) H^n for an m x m matrix H, m = 2k - 1, scaled as it grows."""
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1

    H = np.zeros([m, m])

    # v is the first column (and last row) of H, w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j  # This might underflow.  Isn't a problem.
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0)**m - 2*h**m
    v[-1] = (1.0 + tt) * fac

    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])  # Holds intermediate powers of H
    nn = n
    expnt = 0  # Scaling of Hpwr
    Hexpnt = 0  # Scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2

    p = Hpwr[k - 1, k - 1]

    # Multiply by n!/n^n
    for i in range(1, n + 1):
        p = i * p / n
        if abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128

    if expnt != 0:
        p = np.ldexp(p, expnt)

    return np.clip(p, 0.0, 1.0)


def _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf):
    """Compute the endpoints of the interval for row i."""
    if i == 0:
        j1, j2 = -ll - ceilf - 1, ll + ceilf - 1
    else:
        ip1div2, ip1mod2 = divmod(i + 1, 2)
        if ip1mod2 == 0:  # i is odd
            if ip1div2 == n + 1:
                j1, j2 = n - ll - ceilf - 1, n + ll + ceilf - 1
            else:
                j1, j2 = ip1div2 - 1 - ll - roundf - 1, ip1div2 + ll - 1 + ceilf - 1
        else:
            j1, j2 = ip1div2 - 1 - ll - 1, ip1div2 + ll + roundf - 1

    return max(j1 + 2, 0), min(j2, n)


def _kolmogn_Pomeranz(n, x):
    """Pr(D_n <= x) by Pomeranz's recursion: n! times the last entry of
    2n + 1 rows, each the convolution of the one before with (almost)
    Poisson probabilities.  Two rows are kept, only their few nonzero
    entries are convolved, and the rows are scaled against underflow."""
    t = n * x
    ll = int(np.floor(t))
    f = 1.0 * (t - ll)  # fractional part of t
    g = min(f, 1.0 - f)
    ceilf = (1 if f > 0 else 0)
    roundf = (1 if f > 0.5 else 0)
    npwrs = 2 * (ll + 1)    # Maximum number of powers needed in convolutions
    gpower = np.empty(npwrs)  # gpower = (g/n)^m/m!
    twogpower = np.empty(npwrs)  # twogpower = (2g/n)^m/m!
    onem2gpower = np.empty(npwrs)  # onem2gpower = ((1-2g)/n)^m/m!

    gpower[0] = 1.0
    twogpower[0] = 1.0
    onem2gpower[0] = 1.0
    expnt = 0
    g_over_n, two_g_over_n, one_minus_two_g_over_n = g/n, 2*g/n, (1 - 2*g)/n
    for m in range(1, npwrs):
        gpower[m] = gpower[m - 1] * g_over_n / m
        twogpower[m] = twogpower[m - 1] * two_g_over_n / m
        onem2gpower[m] = onem2gpower[m - 1] * one_minus_two_g_over_n / m

    V0 = np.zeros([npwrs])
    V1 = np.zeros([npwrs])
    V1[0] = 1  # first row
    V0s, V1s = 0, 0  # start indices of the two rows

    j1, j2 = _pomeranz_compute_j1j2(0, n, ll, ceilf, roundf)
    for i in range(1, 2 * n + 2):
        # Preserve j1, V1, V1s, V0s from last iteration
        k1 = j1
        V0, V1 = V1, V0
        V0s, V1s = V1s, V0s
        V1.fill(0.0)
        j1, j2 = _pomeranz_compute_j1j2(i, n, ll, ceilf, roundf)
        if i == 1 or i == 2 * n + 1:
            pwrs = gpower
        else:
            pwrs = (twogpower if i % 2 else onem2gpower)
        ln2 = j2 - k1 + 1
        if ln2 > 0:
            conv = np.convolve(V0[k1 - V0s:k1 - V0s + ln2], pwrs[:ln2])
            conv_start = j1 - k1  # First index to use from conv
            conv_len = j2 - j1 + 1  # Number of entries to use from conv
            V1[:conv_len] = conv[conv_start:conv_start + conv_len]
            # Scale to avoid underflow.
            if 0 < np.max(V1) < _EM128:
                V1 *= _EP128
                expnt -= _E128
            V1s = V0s + j1 - k1

    # multiply by n!
    ans = V1[n - V1s]
    for m in range(1, n + 1):
        if np.abs(ans) > _EP128:
            ans *= _EM128
            expnt += _E128
        ans *= m

    # Undo any intermediate scaling
    if expnt != 0:
        ans = np.ldexp(ans, expnt)
    return np.clip(ans, 0.0, 1.0)


def _kolmogn_PelzGood(n, x):
    """Pelz and Good's approximation to Pr(D_n <= x), 0 <= x <= 1: the
    Li-Chien / Korolyuk expansion K0(z) + K1(z)/sqrt(n) + K2(z)/n +
    K3(z)/n**1.5, z = x sqrt(n), each term rewritten through Jacobi theta
    functions into a form suited to small z."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z**2, z**3, z**4, z**6

    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z ~ 0.041743441416853426
        return 0.0

    q = np.exp(qlog)

    # Coefficients of terms in the sums for K1, K2 and K3
    k1a = -zsquared
    k1b = _PI_SQUARED / 4

    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16

    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z**8

    K0to3 = np.zeros(4)
    # Horner scheme for sum c_i q^(i^2), a sum over odd integers
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m**2, m**4, m**6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b*msquared,
                           k2a + k2b*msquared + k2c*mfour,
                           k3a + k3b*msquared + k3c*mfour + k3d*msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    # z**10 > 0 as z > 0.04
    K0to3 /= np.array([z, 6 * zfour, 72 * z**7, 6480 * z**10])

    # The other sum, over all integers k:
    # K_2:  (pi^2 k^2) q^(k^2),
    # K_3:  (3pi^2 k^2 z^2 - pi^4 k^4)*q^(k^2)
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI/(-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI/(216 * zsix)
    K0to3[3] += k3extra
    powers_of_n = np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    K0to3 /= powers_of_n

    return sum(K0to3)


def _kolmogn_sf(n, x):
    """Pr(D_n >= x) for an integer n >= 1 and 0.5/n < x < 1, by the method
    Simard & L'Ecuyer choose (``_kolmogn(n, x, cdf=False)``), unclipped."""
    t = n * x
    if t <= 1.0:  # Ruben-Gambino: 1/2n <= x <= 1/n
        if t <= 0.5:
            return 1.0
        if n <= 140:
            prob = np.prod(np.arange(1, n+1) * (1.0/n) * (2*t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2*t-1))
        return 1.0 - prob
    if t >= n - 1:  # Ruben-Gambino
        return 2 * (1.0 - x)**n
    if x >= 0.5:  # Exact: 2 * smirnov
        return 2 * _smirnov(n, x)

    nxsquared = t * x
    if n <= 140:
        if nxsquared <= 0.754693:
            return 1.0 - _kolmogn_DMTW(n, x)
        if nxsquared <= 4:
            return 1.0 - _kolmogn_Pomeranz(n, x)
        # Now use Miller approximation of 2*smirnov
        return 2 * _smirnov(n, x)

    if nxsquared >= 370.0:
        return 0.0
    if nxsquared >= 2.2:
        return 2 * _smirnov(n, x)
    # below 2.2, the SF is 1 - CDF (the CDF's cutoff at 18 is never reached)
    if n <= 100000 and n * x**1.5 <= 1.4:
        return 1.0 - _kolmogn_DMTW(n, x)
    return 1.0 - _kolmogn_PelzGood(n, x)
