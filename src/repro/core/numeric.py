# repro-lint: disable-file=R401 -- bit-exact ports compare floats exactly, as SciPy does
"""Scalar root finding and 1-D quadrature for the fixed-point analysis.

The governor solves its fixed-point equation every control period, which
takes one bracketing root finder and one adaptive quadrature.  Both are
exact pure-Python ports of the routines SciPy wraps, so that importing the
analysis does not pull in ``scipy.optimize`` and ``scipy.integrate``:

* :func:`brentq` follows SciPy's ``Zeros/brentq.c`` (Brent's method with
  inverse quadratic extrapolation) statement by statement;
* :func:`quad` follows QUADPACK's ``dqagse``: the 21-point Gauss-Kronrod
  rule ``dqk21``, bisection of the interval with the largest error, the
  ``dqpsrt`` error ordering and the ``dqelg`` epsilon-algorithm
  extrapolation.

Every floating-point operation is performed in the same order as in the
compiled routines, so the results are the same bits as
``scipy.optimize.brentq`` and ``scipy.integrate.quad(..., limit=200)[0]``
(checked by ``tests/test_numeric.py``).  Unlike SciPy, a non-finite
function value raises :class:`StabilityError` instead of looping on NaN.
"""

from __future__ import annotations

import sys
import warnings
from typing import Callable

from repro.errors import StabilityError

_EPMACH = sys.float_info.epsilon      # d1mach(4)
_UFLOW = sys.float_info.min           # d1mach(1)
_OFLOW = sys.float_info.max           # d1mach(2)

#: SciPy's brentq defaults.
BRENTQ_XTOL = 2e-12
BRENTQ_RTOL = 4.0 * _EPMACH
BRENTQ_MAXITER = 100

#: QUADPACK tolerances as SciPy's quad sets them; the subdivision limit is
#: the one the transient predictions have always used (SciPy's is 50).
QUAD_EPSABS = 1.49e-8
QUAD_EPSREL = 1.49e-8
QUAD_LIMIT = 200


def _nonfinite(x: float, fx: float) -> StabilityError:
    return StabilityError(f"function value {fx} at x={x} is not finite")


def brentq(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float = BRENTQ_XTOL,
) -> float:
    """A root of ``f`` in the bracket ``[a, b]`` by Brent's method.

    ``f(a)`` and ``f(b)`` must have opposite signs.  Converged when half the
    bracket is below ``(xtol + BRENTQ_RTOL*|x|)/2``.  Raises
    :class:`StabilityError` on a bad bracket, a non-finite function value
    or no convergence within ``BRENTQ_MAXITER`` iterations.
    """
    if xtol <= 0.0:
        raise StabilityError(f"xtol must be positive, got {xtol}")
    rtol = BRENTQ_RTOL
    xpre = float(a)
    xcur = float(b)
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    if not abs(fpre) <= _OFLOW:
        raise _nonfinite(xpre, fpre)
    fcur = f(xcur)
    if not abs(fcur) <= _OFLOW:
        raise _nonfinite(xcur, fcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise StabilityError(
            f"f(a)={fpre} and f(b)={fcur} must have different signs"
        )
    for _ in range(BRENTQ_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                spre = sbis
                scur = sbis
        else:
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if not abs(fcur) <= _OFLOW:
            raise _nonfinite(xcur, fcur)
    raise StabilityError(
        f"brentq did not converge in {BRENTQ_MAXITER} iterations (x={xcur})"
    )


# 21-point Gauss-Kronrod rule (dqk21): Kronrod abscissae, Kronrod weights
# and the weights of the embedded 10-point Gauss rule.  xgk[1], xgk[3], ...
# are the Gauss abscissae; the last entries belong to the centre.
_XGK = (
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077208980223048,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_WG = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
# Gauss nodes first, then the Kronrod-only ones, as dqk21 visits them.
_GAUSS_NODES = tuple((_XGK[j], _WGK[j], _WG[j // 2]) for j in (1, 3, 5, 7, 9))
_KRONROD_NODES = tuple((_XGK[j], _WGK[j]) for j in (0, 2, 4, 6, 8))
_WGK_CENTRE = _WGK[10]
_DQK21_ABSERR_FLOOR = _UFLOW / (50.0 * _EPMACH)


def _dqk21(
    f: Callable[[float], float], a: float, b: float
) -> tuple[float, float, float, float]:
    """21-point Gauss-Kronrod rule on [a, b]: (result, abserr, resabs, resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    dhlgth = abs(hlgth)

    resg = 0.0
    fc = f(centr)
    resk = _WGK_CENTRE * fc
    resabs = abs(resk)
    fv1 = [0.0] * 10
    fv2 = [0.0] * 10
    j = 1
    for xgk, wgk, wg in _GAUSS_NODES:
        absc = hlgth * xgk
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resg = resg + wg * fsum
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
        j += 2
    j = 0
    for xgk, wgk in _KRONROD_NODES:
        absc = hlgth * xgk
        fval1 = f(centr - absc)
        fval2 = f(centr + absc)
        fv1[j] = fval1
        fv2[j] = fval2
        fsum = fval1 + fval2
        resk = resk + wgk * fsum
        resabs = resabs + wgk * (abs(fval1) + abs(fval2))
        j += 2
    reskh = resk * 0.5
    resasc = _WGK_CENTRE * abs(fc - reskh)
    for j in range(10):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resabs = resabs * dhlgth
    resasc = resasc * dhlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _DQK21_ABSERR_FLOOR:
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _dqpsrt(
    limit: int, last: int, maxerr: int, elist: list, iord: list, nrmax: int
) -> tuple[int, float, int]:
    """Keep ``iord`` ordering ``elist`` descending; 1-based like QUADPACK.

    Returns the new (maxerr, errmax, nrmax): the subinterval with the
    nrmax-th largest error, to be bisected next.
    """
    if last > 2:
        errmax = elist[maxerr]
        for _ in range(nrmax - 1):
            isucc = iord[nrmax - 1]
            if errmax <= elist[isucc]:
                break
            iord[nrmax] = isucc
            nrmax -= 1
        # only the part of the list that can still be bisected is sorted
        jupbn = limit + 3 - last if last > limit // 2 + 2 else last
        errmin = elist[last]
        # insert errmax by traversing the list top-down
        jbnd = jupbn - 1
        i = nrmax + 1
        while i <= jbnd and errmax < elist[iord[i]]:
            iord[i - 1] = iord[i]
            i += 1
        if i > jbnd:
            iord[jbnd] = maxerr
            iord[jupbn] = last
        else:
            # insert errmin by traversing the list bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            while k >= i and errmin >= elist[iord[k]]:
                iord[k + 1] = iord[k]
                k -= 1
            iord[k + 1] = last
    else:
        iord[1] = 1
        iord[2] = 2
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _dqelg(
    n: int, epstab: list, res3la: list, nres: int
) -> tuple[int, float, float, int]:
    """One ``dqelg`` epsilon-algorithm step on ``epstab[1..n]`` (1-based).

    ``epstab`` (52 entries) and ``res3la`` (the last three results) are
    updated in place.  Returns (new n, result, abserr, new nres).
    """
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50  # the table keeps at most limexp + 2 entries
    epstab[n + 2] = epstab[n]
    newelm = (n - 1) // 2
    epstab[n] = _OFLOW
    num = n
    k1 = n
    for i in range(1, newelm + 1):
        k2 = k1 - 1
        k3 = k1 - 2
        res = epstab[k1 + 2]
        e0 = epstab[k3]
        e1 = epstab[k2]
        e2 = res
        e1abs = abs(e1)
        delta2 = e2 - e1
        err2 = abs(delta2)
        tol2 = max(abs(e2), e1abs) * _EPMACH
        delta3 = e1 - e0
        err3 = abs(delta3)
        tol3 = max(e1abs, abs(e0)) * _EPMACH
        if not (err2 > tol2 or err3 > tol3):
            # e0, e1 and e2 are equal to within machine accuracy
            result = res
            abserr = err2 + err3
            return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
        e3 = epstab[k1]
        epstab[k1] = e1
        delta1 = e1 - e3
        err1 = abs(delta1)
        tol1 = max(e1abs, abs(e3)) * _EPMACH
        if err1 <= tol1 or err2 <= tol2 or err3 <= tol3:
            n = i + i - 1
            break
        ss = 1.0 / delta1 + 1.0 / delta2 - 1.0 / delta3
        epsinf = abs(ss * e1)
        if not epsinf > 1e-4:
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 = k1 - 2
        error = err2 + abs(res - e2) + err3
        if error > abserr:
            continue
        abserr = error
        result = res
    # shift the table
    if n == limexp:
        n = 2 * (limexp // 2) - 1
    ib = 2 if num % 2 == 0 else 1
    for _ in range(newelm + 1):
        ib2 = ib + 2
        epstab[ib] = epstab[ib2]
        ib = ib2
    if num != n:
        indx = num - n + 1
        for i in range(1, n + 1):
            epstab[i] = epstab[indx]
            indx += 1
    if nres < 4:
        res3la[nres] = result
        abserr = _OFLOW
    else:
        abserr = (abs(result - res3la[3]) + abs(result - res3la[2])
                  + abs(result - res3la[1]))
        res3la[1] = res3la[2]
        res3la[2] = res3la[3]
        res3la[3] = result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def _dqagse(
    f: Callable[[float], float],
    a: float,
    b: float,
    epsabs: float,
    epsrel: float,
    limit: int,
) -> tuple[float, float, int]:
    """QUADPACK ``dqagse`` on a <= b: (result, abserr, ier).

    Takes valid tolerances (``epsabs > 0``) and ``limit >= 1`` for granted;
    QUADPACK's ier = 6 input check is left out.
    """
    ier = 0
    ierro = 0

    # first approximation to the integral: almost every call ends here
    result, abserr, defabs, resabs = _dqk21(f, a, b)
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    last = 1
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    # 1-based work arrays, as in QUADPACK
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)
    alist[1] = a
    blist[1] = b
    rlist[1] = result
    elist[1] = abserr
    iord[1] = 1

    # initialization
    rlist2 = [0.0] * 53   # the dqelg table, 1-based like the arrays above
    res3la = [0.0] * 4
    nres = 0
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    numrl2 = 2
    ktmin = 0
    extrap = False
    noext = False
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1

    sum_rlist = False   # label 115: the result is the sum over subintervals
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, _resabs, defab1 = _dqk21(f, a1, b1)
        area2, error2, _resabs, defab2 = _dqk21(f, a2, b2)

        # improve previous approximations and test for accuracy
        area12 = area1 + area2
        erro12 = error1 + error2
        errsum = errsum + erro12 - errmax
        area = area + area12 - rlist[maxerr]
        if not (defab1 == error1 or defab2 == error2):
            if not (abs(rlist[maxerr] - area12) > 1e-5 * abs(area12)
                    or erro12 < 0.99 * errmax):
                if extrap:
                    iroff2 += 1
                else:
                    iroff1 += 1
            if last > 10 and erro12 > errmax:
                iroff3 += 1
        rlist[maxerr] = area1
        rlist[last] = area2
        errbnd = max(epsabs, epsrel * abs(area))

        # roundoff, subdivision limit and bad-integrand flags
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if max(abs(a1), abs(b2)) <= (1.0 + 100.0 * _EPMACH) * (
            abs(a2) + 1000.0 * _UFLOW
        ):
            ier = 4

        # append the newly-created intervals to the list
        if error2 > error1:
            alist[maxerr] = a2
            alist[last] = a1
            blist[last] = b1
            rlist[maxerr] = area2
            rlist[last] = area1
            elist[maxerr] = error2
            elist[last] = error1
        else:
            alist[last] = a2
            blist[maxerr] = b1
            blist[last] = b2
            elist[maxerr] = error1
            elist[last] = error2

        maxerr, errmax, nrmax = _dqpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            sum_rlist = True
            break
        if ier != 0:
            break
        if last == 2:
            small = abs(b - a) * 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg = erlarg - erlast
        if abs(b1 - a1) > small:
            erlarg = erlarg + erro12
        if not extrap:
            # is the interval to be bisected next the smallest one?
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if ierro != 3 and erlarg > ertest:
            # the smallest interval has the largest error: before bisecting,
            # decrease the sum of the errors over the larger intervals
            # (erlarg) and extrapolate
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            larger_left = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    larger_left = True
                    break
                nrmax += 1
            if larger_left:
                continue
        # perform extrapolation
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _dqelg(numrl2, rlist2, res3la, nres)
        ktmin += 1
        if ktmin > 5 and abserr < 1e-3 * errsum:
            ier = 5
        if abseps < abserr:
            ktmin = 0
            abserr = abseps
            result = reseps
            correc = erlarg
            ertest = max(epsabs, epsrel * abs(reseps))
            if abserr <= ertest:
                break
        # prepare bisection of the smallest interval
        if numrl2 == 1:
            noext = True
        if ier == 5:
            break
        maxerr = iord[1]
        errmax = elist[maxerr]
        nrmax = 1
        extrap = False
        small = small * 0.5
        erlarg = errsum

    # set final result and error estimate (labels 100-130)
    if not sum_rlist and abserr == _OFLOW:
        sum_rlist = True
    elif not sum_rlist:
        divergence_test = True
        if ier + ierro != 0:
            if ierro == 3:
                abserr = abserr + correc
            if ier == 0:
                ier = 3
            if result != 0.0 and area != 0.0:
                if abserr / abs(result) > errsum / abs(area):
                    sum_rlist = True
            elif abserr > errsum:
                sum_rlist = True
            elif area == 0.0:
                divergence_test = False
        if divergence_test and not sum_rlist and not (
            ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01
        ):
            if area == 0.0:
                # result/area is +-inf or NaN here, as in the compiled code
                diverges = result != 0.0 or errsum > 0.0
            else:
                ratio = result / area
                diverges = 0.01 > ratio or ratio > 100.0 or errsum > abs(area)
            if diverges:
                ier = 6
    if sum_rlist:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    if ier > 2:
        ier -= 1
    return result, abserr, ier


def quad(f: Callable[[float], float], a: float, b: float) -> float:
    """Integral of ``f`` over [a, b] by QUADPACK's ``dqagse``.

    Uses SciPy's tolerances ``QUAD_EPSABS``/``QUAD_EPSREL`` and at most
    ``QUAD_LIMIT`` subintervals.

    Like SciPy's ``quad``, a reversed interval is integrated forwards and
    negated, and an estimate QUADPACK flags as unreliable is returned with
    a ``RuntimeWarning`` rather than an exception.  A non-finite result
    (the integrand returned NaN or infinity) raises
    :class:`StabilityError`.
    """
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    flip = b < a
    lo, hi = (b, a) if flip else (a, b)
    result, _abserr, ier = _dqagse(f, lo, hi, QUAD_EPSABS, QUAD_EPSREL, QUAD_LIMIT)
    if not abs(result) <= _OFLOW:
        raise StabilityError(f"integral over [{a}, {b}] is not finite: {result}")
    if ier != 0:
        warnings.warn(
            f"quadrature over [{a}, {b}] flagged unreliable (QUADPACK ier={ier})",
            RuntimeWarning,
            stacklevel=2,
        )
    return -result if flip else result
