"""Dormand-Prince 8(5,3) with its 7th-order dense output, in numpy.

The explicit Runge-Kutta pair DOP853 of Hairer, Norsett & Wanner,
*Solving Ordinary Differential Equations I* (2nd ed., Springer 1993):
the 12-stage 8th-order method with the 5th- and 3rd-order error
estimators combined as in their code (Sec. II.10), and the 7th-order
continuous extension built from three extra stages (Sec. II.6).

`solve_ivp` follows the step controller and the dense-output evaluation
of scipy's `solve_ivp(method="DOP853")` operation for operation, so both
return the same t, y, nfev and status bit for bit; tests/test_shooter.py
holds scipy as the oracle.  Only the bookkeeping around those operations
differs, to cut interpreter work per step: the stage views K[:s].T and
tableau rows are bound once per run, the scalars are Python floats, and
the dense output of each step that holds t_eval points is kept as a
(7, n) block of rows and evaluated for all points at once after the last
step (see `solve_ivp`).  The coefficients below are transcribed from
scipy's `scipy/integrate/_ivp/dop853_coefficients.py`, which carries
this notice:

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

The coefficients stay decimal strings of up to 30 digits, parsed once to
float64 here, so that a wider dtype can parse them again at its own
precision.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

__all__ = ["OdeResult", "solve_ivp"]

# --- the tableau (HNW Sec. II.5, Table 5.2; dense output Sec. II.6) ---

# nodes c_0..c_15: the 12 stages, the FSAL stage f(t + h, y_new), and the
# three extra stages of the dense output
_C = (
    "0.0",
    "0.526001519587677318785587544488e-01",
    "0.789002279381515978178381316732e-01",
    "0.118350341907227396726757197510",
    "0.281649658092772603273242802490",
    "0.333333333333333333333333333333",
    "0.25",
    "0.307692307692307692307692307692",
    "0.651282051282051282051282051282",
    "0.6",
    "0.857142857142857142857142857142",
    "1.0",
    "1.0",
    "0.1",
    "0.2",
    "0.777777777777777777777777777778",
)

# rows a_{s,0..s-1} for s = 1..15; row 12 holds the weights b of y_new
_A = (
    ("5.26001519587677318785587544488e-2",),
    ("1.97250569845378994544595329183e-2", "5.91751709536136983633785987549e-2"),
    ("2.95875854768068491816892993775e-2", "0", "8.87627564304205475450678981324e-2"),
    ("2.41365134159266685502369798665e-1", "0", "-8.84549479328286085344864962717e-1",
     "9.24834003261792003115737966543e-1"),
    ("3.7037037037037037037037037037e-2", "0", "0", "1.70828608729473871279604482173e-1",
     "1.25467687566822425016691814123e-1"),
    ("3.7109375e-2", "0", "0", "1.70252211019544039314978060272e-1",
     "6.02165389804559606850219397283e-2", "-1.7578125e-2"),
    ("3.70920001185047927108779319836e-2", "0", "0", "1.70383925712239993810214054705e-1",
     "1.07262030446373284651809199168e-1", "-1.53194377486244017527936158236e-2",
     "8.27378916381402288758473766002e-3"),
    ("6.24110958716075717114429577812e-1", "0", "0", "-3.36089262944694129406857109825",
     "-8.68219346841726006818189891453e-1", "2.75920996994467083049415600797e1",
     "2.01540675504778934086186788979e1", "-4.34898841810699588477366255144e1"),
    ("4.77662536438264365890433908527e-1", "0", "0", "-2.48811461997166764192642586468",
     "-5.90290826836842996371446475743e-1", "2.12300514481811942347288949897e1",
     "1.52792336328824235832596922938e1", "-3.32882109689848629194453265587e1",
     "-2.03312017085086261358222928593e-2"),
    ("-9.3714243008598732571704021658e-1", "0", "0", "5.18637242884406370830023853209",
     "1.09143734899672957818500254654", "-8.14978701074692612513997267357",
     "-1.85200656599969598641566180701e1", "2.27394870993505042818970056734e1",
     "2.49360555267965238987089396762", "-3.0467644718982195003823669022"),
    ("2.27331014751653820792359768449", "0", "0", "-1.05344954667372501984066689879e1",
     "-2.00087205822486249909675718444", "-1.79589318631187989172765950534e1",
     "2.79488845294199600508499808837e1", "-2.85899827713502369474065508674",
     "-8.87285693353062954433549289258", "1.23605671757943030647266201528e1",
     "6.43392746015763530355970484046e-1"),
    ("5.42937341165687622380535766363e-2", "0", "0", "0", "0",
     "4.45031289275240888144113950566", "1.89151789931450038304281599044",
     "-5.8012039600105847814672114227", "3.1116436695781989440891606237e-1",
     "-1.52160949662516078556178806805e-1", "2.01365400804030348374776537501e-1",
     "4.47106157277725905176885569043e-2"),
    ("5.61675022830479523392909219681e-2", "0", "0", "0", "0", "0",
     "2.53500210216624811088794765333e-1", "-2.46239037470802489917441475441e-1",
     "-1.24191423263816360469010140626e-1", "1.5329179827876569731206322685e-1",
     "8.20105229563468988491666602057e-3", "7.56789766054569976138603589584e-3",
     "-8.298e-3"),
    ("3.18346481635021405060768473261e-2", "0", "0", "0", "0",
     "2.83009096723667755288322961402e-2", "5.35419883074385676223797384372e-2",
     "-5.49237485713909884646569340306e-2", "0", "0",
     "-1.08347328697249322858509316994e-4", "3.82571090835658412954920192323e-4",
     "-3.40465008687404560802977114492e-4", "1.41312443674632500278074618366e-1"),
    ("-4.28896301583791923408573538692e-1", "0", "0", "0", "0",
     "-4.69762141536116384314449447206", "7.68342119606259904184240953878",
     "4.06898981839711007970213554331", "3.56727187455281109270669543021e-1",
     "0", "0", "0", "-1.39902416515901462129418009734e-3",
     "2.9475147891527723389556272149", "-9.15095847217987001081870187138"),
)

# the 3rd-order estimator is b minus these weights on stages 0, 8 and 11
_E3_SHIFT = {
    0: "0.244094488188976377952755905512",
    8: "0.733846688281611857341361741547",
    11: "0.220588235294117647058823529412e-1",
}

# the 5th-order estimator's weights on stages 0..11 (the FSAL stage gets 0)
_E5 = (
    "0.1312004499419488073250102996e-1", "0", "0", "0", "0",
    "-0.1225156446376204440720569753e+1", "-0.4957589496572501915214079952",
    "0.1664377182454986536961530415e+1", "-0.3503288487499736816886487290",
    "0.3341791187130174790297318841", "0.8192320648511571246570742613e-1",
    "-0.2235530786388629525884427845e-1",
)

# rows 3..6 of the dense-output polynomial on the 16 stages; rows 0..2
# come from y_old, y_new, f_old and f_new (see `_dense`)
_D = (
    ("-0.84289382761090128651353491142e+1", "0", "0", "0", "0",
     "0.56671495351937776962531783590", "-0.30689499459498916912797304727e+1",
     "0.23846676565120698287728149680e+1", "0.21170345824450282767155149946e+1",
     "-0.87139158377797299206789907490", "0.22404374302607882758541771650e+1",
     "0.63157877876946881815570249290", "-0.88990336451333310820698117400e-1",
     "0.18148505520854727256656404962e+2", "-0.91946323924783554000451984436e+1",
     "-0.44360363875948939664310572000e+1"),
    ("0.10427508642579134603413151009e+2", "0", "0", "0", "0",
     "0.24228349177525818288430175319e+3", "0.16520045171727028198505394887e+3",
     "-0.37454675472269020279518312152e+3", "-0.22113666853125306036270938578e+2",
     "0.77334326684722638389603898808e+1", "-0.30674084731089398182061213626e+2",
     "-0.93321305264302278729567221706e+1", "0.15697238121770843886131091075e+2",
     "-0.31139403219565177677282850411e+2", "-0.93529243588444783865713862664e+1",
     "0.35816841486394083752465898540e+2"),
    ("0.19985053242002433820987653617e+2", "0", "0", "0", "0",
     "-0.38703730874935176555105901742e+3", "-0.18917813819516756882830838328e+3",
     "0.52780815920542364900561016686e+3", "-0.11573902539959630126141871134e+2",
     "0.68812326946963000169666922661e+1", "-0.10006050966910838403183860980e+1",
     "0.77771377980534432092869265740", "-0.27782057523535084065932004339e+1",
     "-0.60196695231264120758267380846e+2", "0.84320405506677161018159903784e+2",
     "0.11992291136182789328035130030e+2"),
    ("-0.25693933462703749003312586129e+2", "0", "0", "0", "0",
     "-0.15418974869023643374053993627e+3", "-0.23152937917604549567536039109e+3",
     "0.35763911791061412378285349910e+3", "0.93405324183624310003907691704e+2",
     "-0.37458323136451633156875139351e+2", "0.10409964950896230045147246184e+3",
     "0.29840293426660503123344363579e+2", "-0.43533456590011143754432175058e+2",
     "0.96324553959188282948394950600e+2", "-0.39177261675615439165231486172e+2",
     "-0.14972683625798562581422125276e+3"),
)

C = np.array([float(c) for c in _C])
A = np.array([[float(a) for a in row] + [0.0] * (16 - len(row)) for row in ((),) + _A])
B = A[12, :12]
E3 = np.append(B, 0.0)
E3[list(_E3_SHIFT)] -= [float(e) for e in _E3_SHIFT.values()]
E5 = np.array([float(e) for e in _E5] + [0.0])
D = np.array([[float(d) for d in row] for row in _D])

# step-size controller (HNW Sec. II.4)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 10
_ERROR_EXPONENT = -1 / 8  # the error estimator has order 7
_EPS = np.finfo(float).eps


class OdeResult(NamedTuple):
    """t: the t_eval points passed; y: the solution there, shape (n, len(t));
    status: 0 reached t_end, 1 the terminal event fired, -1 the step size
    fell below 10 ulp of t; nfev: vector field evaluations."""

    t: np.ndarray
    y: np.ndarray
    status: int
    nfev: int


def _rms(x):
    return np.sqrt(x.dot(x)) / x.size**0.5


def _dense(fun, K, extra_stages, t_old, y_old, h, y, f, F):
    """Write rows F_0..F_6 of the 7th-order interpolant on [t_old, t_old + h]
    into F, shape (7, n).

    Evaluates the three extra stages into K[13:16] (3 calls of fun)."""
    for s, c, K_T, a in extra_stages:
        K[s] = fun(t_old + c * h, y_old + np.dot(K_T, a) * h)
    f_old = K[0]
    delta_y = y - y_old
    F[0] = delta_y
    F[1] = h * f_old - delta_y
    F[2] = 2 * delta_y - h * (f + f_old)
    F[3:] = h * np.dot(D, K)


def _interpolate(F, step, t_old, y_old, h, t):
    """The interpolant at the points t (1-D), shape (n, len(t)): Horner's
    rule in x = (t - t_old) / h with factors x and 1 - x alternating.

    F holds the dense-output rows of several steps, shape (k, 7, n), and
    point j lies in step step[j]; t_old, h and y_old are given per point,
    or once (scalars and shape (n,)) when all points lie in one step."""
    x = ((t - t_old) / h)[:, None]
    one_minus_x = 1 - x
    y = np.zeros((len(x), F.shape[-1]))
    for i in range(6, -1, -1):
        y += F[step, i]
        y *= x if i % 2 == 0 else one_minus_x
    y += y_old
    return y.T


def _root(g, a, b):
    """A zero of g in [a, b] by bisection, to 4 eps absolute plus relative;
    g(a) <= 0 <= g(b) or the reverse."""
    ga = g(a)
    if ga == 0:
        return a
    if g(b) == 0:
        return b
    while True:
        mid = 0.5 * (a + b)
        if b - a <= 4 * _EPS * (1 + abs(mid)) or mid in (a, b):
            return mid
        gm = g(mid)
        if gm == 0:
            return mid
        if (gm > 0) == (ga > 0):
            a, ga = mid, gm
        else:
            b = mid


def solve_ivp(fun, t_span, y0, *, t_eval, rtol, atol, events=None) -> OdeResult:
    """Integrate y' = fun(t, y) forward over t_span with DOP853 and return
    the solution at the sorted points t_eval.

    The first step comes from HNW's starting-step heuristic; each step is
    accepted when the combined 5th/3rd-order error norm is below 1 in
    the scale atol + rtol max(|y_old|, |y_new|), and the next step size is
    scaled by 0.9 err^(-1/8), clipped to [0.2, 10] (to at most 1 right
    after a rejection).  rtol is raised to 100 eps with a warning.

    events is None or one terminal event function g(t, y), with an
    optional `direction` attribute (+1: only upward zeros, -1: only
    downward, 0: both).  When g changes sign over a step, its zero on the
    dense interpolant ends the run with status 1, and the t_eval points
    up to that zero are returned.

    The loop is organised for little interpreter work per step: the stage
    views K[:s].T and the rows a_{s,0..s-1} are bound once per run, the
    scalars (t, h, the nodes, the error norm) are Python floats, and the
    t_eval index only moves forward.  A step that holds t_eval points
    writes its dense-output rows into the next (7, n) block of a buffer
    and records (t_old, h, y_old); all points are evaluated after the last
    step in one vectorised Horner pass.
    """
    t, t_end = map(float, t_span)
    if not t_end > t:
        raise ValueError("t_span must increase")
    t_eval = np.asarray(t_eval, dtype=float)
    if t_eval.ndim != 1 or np.any(t_eval < t) or np.any(t_eval > t_end):
        raise ValueError("t_eval must be 1-D and lie within t_span")
    if np.any(np.diff(t_eval) <= 0):
        raise ValueError("t_eval must be strictly increasing")
    if events is not None and not getattr(events, "terminal", False):
        raise ValueError("the event function must be terminal")
    if rtol < 100 * _EPS:
        warnings.warn(f"rtol below 100 eps; using rtol = {100 * _EPS}", stacklevel=2)
        rtol = np.maximum(rtol, 100 * _EPS)
    atol = np.asarray(atol)
    y = np.asarray(y0, dtype=float)
    if not np.all(np.isfinite(y)):
        raise ValueError("the initial state must be finite")
    n = y.size

    # starting step (HNW Sec. II.4, "starting step size")
    f = fun(t, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_end - t)
    f1 = fun(t + h0, y + h0 * f)
    d2 = _rms((f1 - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = float(min(100 * h0, h1, t_end - t))
    nfev = 2

    if events is not None:
        direction = getattr(events, "direction", 0)
        g = events(t, y)
    K = np.empty((16, n))
    # stage s: (s, node c_s, view K[:s].T, row a_{s,0..s-1}); the 12 stages
    # of a step are s = 1..11 after K[0] = f, the dense output's s = 13..15
    stages = [(s, float(C[s]), K[:s].T, A[s, :s]) for s in range(16)]
    step_stages, extra_stages = stages[1:12], stages[13:16]
    K12_T, K13_T = K[:12].T, K[:13].T
    te = t_eval.tolist()
    i_eval = 0
    # the steps that hold t_eval points: dense rows, t_old, h, y_old and
    # the number of points each holds
    F_kept = np.empty((16, 7, n))
    t_olds, hs, y_olds, counts = [], [], [], []
    status = None
    while status is None:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                status = -1
                break
            t_new = t + h_abs
            if t_new - t_end > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, c, K_T, a in step_stages:
                K[s] = fun(t + c * h, y + np.dot(K_T, a) * h)
            y_new = y + h * np.dot(K12_T, B)
            f_new = fun(t + h, y_new)
            K[12] = f_new
            nfev += 12

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err5 = np.dot(K13_T, E5) / scale
            err3 = np.dot(K13_T, E3) / scale
            err5_2 = math.sqrt(err5.dot(err5)) ** 2
            err3_2 = math.sqrt(err3.dot(err3)) ** 2
            if err5_2 == 0 and err3_2 == 0:
                error_norm = 0.0
            else:
                error_norm = h_abs * err5_2 / math.sqrt((err5_2 + 0.01 * err3_2) * n)
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * error_norm**_ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm**_ERROR_EXPONENT)
            rejected = True
        if status == -1:
            break

        t_old, y_old = t, y
        t, y, f = t_new, y_new, f_new
        if t - t_end >= 0:
            status = 0
        if len(t_olds) == len(F_kept):
            F_kept = np.concatenate([F_kept, np.empty_like(F_kept)])
        F = F_kept[len(t_olds)]
        dense = False
        t_stop = t
        if events is not None:
            g_new = events(t, y)
            up = g <= 0 <= g_new
            down = g >= 0 >= g_new
            if up and direction >= 0 or down and direction <= 0:
                _dense(fun, K, extra_stages, t_old, y_old, h, y, f, F)
                dense = True
                nfev += 3
                this_step = [len(t_olds)]
                t_stop = _root(
                    lambda r: events(
                        r, _interpolate(F_kept, this_step, t_old, y_old, h, np.array([r]))[:, 0]
                    ),
                    t_old, t,
                )
                status = 1
            g = g_new
        i_new = i_eval
        while i_new < len(te) and te[i_new] <= t_stop:
            i_new += 1
        if i_new > i_eval:
            if not dense:
                _dense(fun, K, extra_stages, t_old, y_old, h, y, f, F)
                nfev += 3
            t_olds.append(t_old)
            hs.append(h)
            y_olds.append(y_old)
            counts.append(i_new - i_eval)
            i_eval = i_new

    if not t_olds:
        return OdeResult(np.empty(0), np.empty((n, 0)), status, nfev)
    step = np.repeat(np.arange(len(t_olds)), counts)
    y_out = _interpolate(F_kept, step, np.array(t_olds)[step], np.array(y_olds)[step],
                         np.array(hs)[step], t_eval[:i_eval])
    return OdeResult(t_eval[:i_eval].copy(), y_out, status, nfev)
