"""QUADPACK's QAGI: adaptive 15-point Kronrod quadrature on [a, inf).

A port of `dqagie` with its helpers `dqk15i` (the 15-point rule on the
transformed interval), `dqpsrt` (the error-ordered interval list) and
`dqelg` (Wynn's epsilon algorithm) from R. Piessens, E. de Doncker-Kapenga,
C. W. Ueberhuber and D. K. Kahaner, *QUADPACK*, Springer 1983.  The
substitution t = a + (1 - x)/x maps [a, inf) onto (0, 1].

The statements keep QUADPACK's order of floating-point operations, and the
Kronrod nodes and weights carry full precision, so results and error
estimates are the same doubles as those of SciPy's `quad` (which runs the
same routine) on an infinite upper limit.  Lists are 1-based, as in the
Fortran: slot 0 is unused.  The integrand is called on one float at a time.
"""
from __future__ import annotations

import sys

_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_OFLOW = sys.float_info.max

# 15-point Kronrod nodes (the odd ones are the 7-point Gauss nodes) and
# weights; index 7 is the centre
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.0, 0.129484966168869693270611432679082,
       0.0, 0.279705391489276667901467771423780,
       0.0, 0.381830050505118944950369775488975,
       0.0, 0.417959183673469387755102040816327)


def _qk15i(f, boun, a, b):
    """dqk15i: the rule on [a, b] in (0, 1]; (result, abserr, resabs,
    resasc)."""
    centr = 0.5 * (a + b)
    hlgth = 0.5 * (b - a)
    fc = float(f(boun + (1.0 - centr) / centr)) / centr / centr
    resg = _WG[7] * fc
    resk = _WGK[7] * fc
    resabs = abs(resk)
    fv1, fv2 = [], []
    for j in range(7):
        absc = hlgth * _XGK[j]
        absc1 = centr - absc
        absc2 = centr + absc
        fval1 = float(f(boun + (1.0 - absc1) / absc1)) / absc1 / absc1
        fval2 = float(f(boun + (1.0 - absc2) / absc2)) / absc2 / absc2
        fv1.append(fval1)
        fv2.append(fval2)
        fsum = fval1 + fval2
        resg = resg + _WG[j] * fsum
        resk = resk + _WGK[j] * fsum
        resabs = resabs + _WGK[j] * (abs(fval1) + abs(fval2))
    reskh = resk * 0.5
    resasc = _WGK[7] * abs(fc - reskh)
    for j in range(7):
        resasc = resasc + _WGK[j] * (abs(fv1[j] - reskh) + abs(fv2[j] - reskh))
    result = resk * hlgth
    resasc = resasc * hlgth
    resabs = resabs * hlgth
    abserr = abs((resk - resg) * hlgth)
    if resasc != 0.0 and abserr != 0.0:
        abserr = resasc * min(1.0, (200.0 * abserr / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPMACH):
        abserr = max((_EPMACH * 50.0) * resabs, abserr)
    return result, abserr, resabs, resasc


def _qpsrt(limit, last, maxerr, elist, iord, nrmax):
    """dqpsrt: keep iord in descending error order after a bisection;
    returns (maxerr, errmax, nrmax)."""
    if last <= 2:
        iord[1], iord[2] = 1, 2
        maxerr = iord[nrmax]
        return maxerr, elist[maxerr], nrmax
    errmax = elist[maxerr]
    # only after a bisection that raised the error estimate
    for _ in range(nrmax - 1):
        isucc = iord[nrmax - 1]
        if errmax <= elist[isucc]:
            break
        iord[nrmax] = isucc
        nrmax -= 1
    jupbn = last
    if last > limit // 2 + 2:
        jupbn = limit + 3 - last
    errmin = elist[last]
    jbnd = jupbn - 1
    for i in range(nrmax + 1, jbnd + 1):
        isucc = iord[i]
        if errmax >= elist[isucc]:
            # insert errmax top-down, then errmin bottom-up
            iord[i - 1] = maxerr
            k = jbnd
            for _ in range(i, jbnd + 1):
                isucc = iord[k]
                if errmin < elist[isucc]:
                    iord[k + 1] = last
                    break
                iord[k + 1] = isucc
                k -= 1
            else:
                iord[i] = last
            break
        iord[i - 1] = isucc
    else:
        iord[jbnd] = maxerr
        iord[jupbn] = last
    maxerr = iord[nrmax]
    return maxerr, elist[maxerr], nrmax


def _qelg(n, epstab, res3la, nres):
    """dqelg: one step of the epsilon algorithm on epstab[1..n]; returns
    (n, result, abserr, nres)."""
    nres += 1
    abserr = _OFLOW
    result = epstab[n]
    if n < 3:
        return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres
    limexp = 50
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
            # e0, e1 and e2 agree to machine accuracy
            return n, res, max(err2 + err3, 5.0 * _EPMACH * abs(res)), nres
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
            # irregular behaviour: omit part of the table
            n = i + i - 1
            break
        res = e1 + 1.0 / ss
        epstab[k1] = res
        k1 -= 2
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
        epstab[ib] = epstab[ib + 2]
        ib += 2
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
        res3la[1], res3la[2], res3la[3] = res3la[2], res3la[3], result
    return n, result, max(abserr, 5.0 * _EPMACH * abs(result)), nres


def qagi(f, a: float, *, epsabs: float, epsrel: float, limit: int):
    """Integral of f over [a, inf): (result, abserr, ier).

    ier is QUADPACK's: 0 converged; 1 `limit` subintervals used; 2 roundoff
    stops the error from falling; 3 bad integrand behaviour somewhere;
    4 the extrapolation does not converge; 5 the integral is probably
    divergent or converges too slowly; 6 invalid tolerances.  No warning is
    issued: the caller judges ier.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    if epsabs <= 0.0 and epsrel < max(50.0 * _EPMACH, 0.5e-28):
        return 0.0, 0.0, 6
    alist = [0.0] * (limit + 1)
    blist = [0.0] * (limit + 1)
    rlist = [0.0] * (limit + 1)
    elist = [0.0] * (limit + 1)
    iord = [0] * (limit + 1)

    # first approximation
    result, abserr, defabs, resabs = _qk15i(f, a, 0.0, 1.0)
    alist[1], blist[1], rlist[1], elist[1], iord[1] = 0.0, 1.0, result, abserr, 1
    dres = abs(result)
    errbnd = max(epsabs, epsrel * dres)
    ier = 0
    if abserr <= 100.0 * _EPMACH * defabs and abserr > errbnd:
        ier = 2
    if limit == 1:
        ier = 1
    if ier != 0 or (abserr <= errbnd and abserr != resabs) or abserr == 0.0:
        return result, abserr, ier

    rlist2 = [0.0] * 53
    res3la = [0.0] * 4
    rlist2[1] = result
    errmax = abserr
    maxerr = 1
    area = result
    errsum = abserr
    abserr = _OFLOW
    nrmax = 1
    nres = 0
    ktmin = 0
    numrl2 = 2
    extrap = False
    noext = False
    ierro = 0
    iroff1 = iroff2 = iroff3 = 0
    small = erlarg = ertest = correc = 0.0
    ksgn = -1
    if dres >= (1.0 - 50.0 * _EPMACH) * defabs:
        ksgn = 1

    summed = False          # leave through QUADPACK's label 115
    for last in range(2, limit + 1):
        # bisect the subinterval with the nrmax-th largest error estimate
        a1 = alist[maxerr]
        b1 = 0.5 * (alist[maxerr] + blist[maxerr])
        a2 = b1
        b2 = blist[maxerr]
        erlast = errmax
        area1, error1, resabs, defab1 = _qk15i(f, a, a1, b1)
        area2, error2, resabs, defab2 = _qk15i(f, a, a2, b2)
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
        if iroff1 + iroff2 >= 10 or iroff3 >= 20:
            ier = 2
        if iroff2 >= 5:
            ierro = 3
        if last == limit:
            ier = 1
        if (max(abs(a1), abs(b2))
                <= (1.0 + 100.0 * _EPMACH) * (abs(a2) + 1000.0 * _UFLOW)):
            ier = 4
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
        maxerr, errmax, nrmax = _qpsrt(limit, last, maxerr, elist, iord, nrmax)
        if errsum <= errbnd:
            summed = True
            break
        if ier != 0:
            break
        if last == 2:
            small = 0.375
            erlarg = errsum
            ertest = errbnd
            rlist2[2] = area
            continue
        if noext:
            continue
        erlarg -= erlast
        if abs(b1 - a1) > small:
            erlarg += erro12
        if not extrap:
            # extrapolate only once the smallest interval is to be bisected
            if abs(blist[maxerr] - alist[maxerr]) > small:
                continue
            extrap = True
            nrmax = 2
        if not (ierro == 3 or erlarg <= ertest):
            # first bisect the larger intervals that carry errors
            jupbnd = last
            if last > 2 + limit // 2:
                jupbnd = limit + 3 - last
            large = False
            for _ in range(nrmax, jupbnd + 1):
                maxerr = iord[nrmax]
                errmax = elist[maxerr]
                if abs(blist[maxerr] - alist[maxerr]) > small:
                    large = True
                    break
                nrmax += 1
            if large:
                continue
        numrl2 += 1
        rlist2[numrl2] = area
        numrl2, reseps, abseps, nres = _qelg(numrl2, rlist2, res3la, nres)
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

    # final result: the extrapolated value, or the sum over the intervals
    if not summed and abserr == _OFLOW:
        summed = True
    elif not summed and ier + ierro != 0:
        if ierro == 3:
            abserr = abserr + correc
        if ier == 0:
            ier = 3
        if result != 0.0 and area != 0.0:
            summed = abserr / abs(result) > errsum / abs(area)
        elif abserr > errsum:
            summed = True
        elif area == 0.0:
            return result, abserr, ier - 1 if ier > 2 else ier
    if summed:
        result = 0.0
        for k in range(1, last + 1):
            result = result + rlist[k]
        abserr = errsum
    elif not (ksgn == -1 and max(abs(result), abs(area)) <= defabs * 0.01):
        # test on divergence
        if 0.01 > result / area or result / area > 100.0 or errsum > abs(area):
            ier = 6
    return result, abserr, ier - 1 if ier > 2 else ier
