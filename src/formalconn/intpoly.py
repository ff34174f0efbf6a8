"""Integer polynomials: factoring over Z, and Trager norms over Q(zeta_m).

Polynomials are dense lists of Python ints in ascending degree.  Modular
polynomials hold residues in [0, q) and carry no trailing zeros, so the
zero polynomial is the empty list.  Nothing here knows ground-field
elements; :mod:`polys` converts to and from them.

Factoring a primitive square-free f in Z[x] follows von zur Gathen and
Gerhard, *Modern Computer Algebra* (MCA), §14-15:

1. among the first ``PRIME_CANDIDATES`` odd primes p that do not divide
   lc(f) and leave f mod p square-free, take the one with the fewest
   modular factors (distinct-degree factoring counts them);
2. split f mod p into monic irreducibles: distinct-degree factoring,
   then Cantor-Zassenhaus equal-degree splitting with a fixed-seed
   random source, so that every run takes the same path;
3. lift the factorization quadratically along a balanced factor tree
   (MCA Alg. 15.10, 15.17) to a modulus M = p^(2^j) > 2B, where
   B = (n+1)^(1/2) 2^n ||f||_max |lc(f)| bounds ||g||_1 ||h||_1 over the
   factorizations lc(f) f = g h;
4. recombine (MCA Alg. 15.19): the smallest subsets of lifted factors
   first, a subset whose product and cofactor pass the 1-norm bound
   is a true factor.

The norm of Trager's method, N(x) = Res_y(Phi_m(y), F(x - s y, y)), is
computed at primes p = 1 (mod m), where Phi_m splits into linear factors
and the resultant is the product of the conjugates of F, and is joined by
Chinese remaindering past a bound on its coefficients.
"""

import itertools
import math
import random
from fractions import Fraction

# Odd primes compared when choosing the factoring prime.
PRIME_CANDIDATES = 5
# Primes tried before a square-freeness test falls back to exact gcds.
SQUAREFREE_TRIALS = 20
# Seed of the equal-degree splitting; the factors do not depend on it.
EDF_SEED = 0
# Miller-Rabin with these bases is exact below 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Size of the primes p = 1 (mod m) that the norm is computed at.
_NORM_PRIME_BITS = 62


def is_prime(n):
    """Deterministic primality for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _odd_primes():
    p = 3
    while True:
        if is_prime(p):
            yield p
        p += 2


# -- Z[x] ----------------------------------------------------------------


def primitive(f):
    """f divided by its content, with a positive leading coefficient."""
    g = 0
    for c in f:
        g = math.gcd(g, c)
    if f[-1] < 0:
        g = -g
    return [c // g for c in f]


def _symmetric(f, m):
    half = m // 2
    return [c - m if c > half else c for c in f]


# -- (Z/q)[x] ------------------------------------------------------------


def _trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _reduce(f, q):
    return _trim([c % q for c in f])


def _add(a, b, q):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % q
    return _trim(out)


def _sub(a, b, q):
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % q
    return _trim(out)


def _mul(a, b, q):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim([c % q for c in out])


def _divmod(a, b, q):
    """Quotient and remainder; lc(b) must be a unit mod q."""
    db = len(b) - 1
    rem = list(a)
    if len(rem) <= db:
        return [], rem
    inv = pow(b[-1], -1, q)
    quot = [0] * (len(rem) - db)
    for k in range(len(rem) - 1 - db, -1, -1):
        c = rem[k + db] * inv % q
        quot[k] = c
        if c:
            for i in range(db):
                rem[k + i] = (rem[k + i] - c * b[i]) % q
    return _trim(quot), _trim(rem[:db])


def _rem(a, b, q):
    return _divmod(a, b, q)[1]


def _monic(a, q):
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def _gcd(a, b, q):
    while b:
        a, b = b, _rem(a, b, q)
    return _monic(a, q) if a else a


def _xgcd(a, b, q):
    """(g, s, t) with s a + t b = g monic, q prime."""
    r0, r1 = a, b
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        quo, r = _divmod(r0, r1, q)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(quo, s1, q), q)
        t0, t1 = t1, _sub(t0, _mul(quo, t1, q), q)
    inv = pow(r0[-1], -1, q)
    return ([c * inv % q for c in r0], [c * inv % q for c in s0],
            [c * inv % q for c in t0])


def _powmod(a, e, f, q):
    """a^e mod f."""
    out = [1]
    a = _rem(a, f, q)
    while e:
        if e & 1:
            out = _rem(_mul(out, a, q), f, q)
        e >>= 1
        if e:
            a = _rem(_mul(a, a, q), f, q)
    return out


def _derivative(f, q):
    return _trim([i * c % q for i, c in enumerate(f)][1:])


def squarefree_mod(f, p):
    """f mod p, monic, when p does not divide lc(f) and f mod p is
    square-free; otherwise None.  Square-free mod such a p implies
    square-free over Q."""
    if f[-1] % p == 0:
        return None
    fp = _monic(_reduce(f, p), p)
    if len(_gcd(fp, _derivative(fp, p), p)) != 1:
        return None
    return fp


def certify_squarefree(f):
    """True when f mod p is square-free, with p not dividing lc(f), for
    one of the first SQUAREFREE_TRIALS odd primes; that proves f
    square-free over Q.  False decides nothing."""
    return any(squarefree_mod(f, p) is not None
               for p in itertools.islice(_odd_primes(), SQUAREFREE_TRIALS))


def _ddf(f, p):
    """Distinct-degree factoring of a monic square-free f mod p: a list
    of (product of the irreducible factors of degree d, d)."""
    out = []
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod(h, p, f, p)
        g = _gcd(_sub(h, [0, 1], p), f, p)
        if len(g) > 1:
            out.append((g, d))
            f = _divmod(f, g, p)[0]
            h = _rem(h, f, p)
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _edf(f, d, p, rng):
    """Cantor-Zassenhaus: the monic irreducible factors, all of degree d,
    of a monic square-free f mod an odd prime p."""
    n = len(f) - 1
    if n == d:
        return [f]
    e = (p ** d - 1) // 2
    while True:
        a = _trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        g = _gcd(a, f, p)
        if len(g) == 1:
            g = _gcd(_sub(_powmod(a, e, f, p), [1], p), f, p)
        if 1 < len(g) < len(f):
            break
    return _edf(g, d, p, rng) + _edf(_divmod(f, g, p)[0], d, p, rng)


# -- Hensel lifting --------------------------------------------------------


def _hensel_pair(f, g, h, p, big):
    """Lift f = g h (mod p), h monic, to f = g h (mod big), big = p^(2^j),
    by repeated quadratic Hensel steps (MCA Alg. 15.10)."""
    _, s, t = _xgcd(g, h, p)
    m = p
    while m < big:
        m = m * m
        e = _sub(_reduce(f, m), _mul(g, h, m), m)
        quo, r = _divmod(_mul(s, e, m), h, m)
        g = _add(g, _add(_mul(t, e, m), _mul(quo, g, m), m), m)
        h = _add(h, r, m)
        if m < big:
            b = _sub(_add(_mul(s, g, m), _mul(t, h, m), m), [1], m)
            c, d = _divmod(_mul(s, b, m), h, m)
            s = _sub(s, d, m)
            t = _sub(t, _add(_mul(t, b, m), _mul(c, g, m), m), m)
    return g, h


def _lift(f, facs, p, big):
    """Monic lifts mod big of the monic factors facs of f = lc(f) prod(facs)
    (mod p), along a balanced factor tree (MCA Alg. 15.17)."""
    if len(facs) == 1:
        return [_monic(_reduce(f, big), big)]
    k = len(facs) // 2
    g = [f[-1] % p]
    for a in facs[:k]:
        g = _mul(g, a, p)
    h = [1]
    for a in facs[k:]:
        h = _mul(h, a, p)
    g, h = _hensel_pair(f, g, h, p, big)
    return _lift(g, facs[:k], p, big) + _lift(h, facs[k:], p, big)


# -- factoring over Z ------------------------------------------------------


def factor_squarefree(f):
    """Irreducible factors in Z[x] of a primitive square-free f with
    lc(f) > 0, each primitive with a positive leading coefficient, in
    no particular order."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    # f square-free over Q: only the finitely many primes dividing
    # lc(f) disc(f) are skipped
    usable = ((p, fp) for p in _odd_primes() for fp in [squarefree_mod(f, p)] if fp is not None)
    best = None
    for p, fp in itertools.islice(usable, PRIME_CANDIDATES):
        ddf = _ddf(fp, p)
        count = sum((len(g) - 1) // d for g, d in ddf)
        if count == 1:
            return [f]
        if best is None or count < best[0]:
            best = (count, p, ddf)
    _, p, ddf = best
    rng = random.Random(EDF_SEED)
    facs = [fac for g, d in ddf for fac in _edf(g, d, p, rng)]
    lc, norm = f[-1], max(abs(c) for c in f)
    bound_sq = (n + 1) * 4 ** n * norm * norm * lc * lc   # B^2
    big = p
    while big * big <= 4 * bound_sq:
        big = big * big
    return _recombine(f, _lift(f, facs, p, big), big, bound_sq)


def _recombine(f, lifted, big, bound_sq):
    """True factors from the lifted monic modular factors (MCA Alg. 15.19).

    A subset S of the factors left gives g = b prod(S) and h = b prod(rest),
    reduced symmetrically mod big, with b = lc(f*) and f* the cofactor left;
    S is a true factor iff ||g||_1 ||h||_1 <= B.  Two cheap necessary
    conditions skip most subsets before any product is formed: the
    x^(k-1) coefficient of g is b times minus the sum of k roots of f*,
    so at most deg(f*) |b| + ||f*||_2 in size, and its constant term
    divides b f*(0)."""
    found = []
    rest = list(lifted)
    size = 1
    while 2 * size <= len(rest):
        b, n = f[-1], len(f) - 1
        trace_bound = n * abs(b) + math.isqrt(sum(c * c for c in f)) + 1
        for subset in itertools.combinations(range(len(rest)), size):
            trace = b * sum(rest[i][-2] for i in subset) % big
            if min(trace, big - trace) > trace_bound:
                continue
            const = b
            for i in subset:
                const = const * rest[i][0] % big
            const = const - big if const > big // 2 else const
            if f[0] and (const == 0 or (b * f[0]) % const):
                continue
            g = [b]
            for i in subset:
                g = _mul(g, rest[i], big)
            h = [b]
            for i in range(len(rest)):
                if i not in subset:
                    h = _mul(h, rest[i], big)
            g, h = _symmetric(g, big), _symmetric(h, big)
            norms = sum(abs(c) for c in g) * sum(abs(c) for c in h)
            if norms * norms <= bound_sq:
                found.append(primitive(g))
                f = primitive(h)
                rest = [a for i, a in enumerate(rest) if i not in subset]
                break
        else:
            size += 1
    found.append(f)
    return found


# -- Trager norms over Q(zeta_m) ---------------------------------------------


def _prime_factors(m):
    out, q = [], 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1
    return out + [m] if m > 1 else out


def _splitting_primes(m):
    """Primes p = 1 (mod m) below 2^_NORM_PRIME_BITS, descending."""
    k = ((1 << _NORM_PRIME_BITS) - 2) // m
    while k > 0:
        if is_prime(k * m + 1):
            yield k * m + 1
        k -= 1


def cyclotomic_norm(rows, m, modulus, s):
    """N(x) = Res_y(Phi_m(y), F(x - s y, y)) in Z[x] for the polynomial F
    over Z[theta] whose coefficient of x^i has power-basis coordinates
    rows[i] (integers; Phi_m = modulus, monic, ascending)."""
    phi = len(modulus) - 1
    d = len(rows) - 1
    # |coefficients of N| <= prod over conjugates of their 1-norms.
    one_norm = sum(sum(abs(c) for c in row) * (1 + abs(s)) ** i for i, row in enumerate(rows))
    bound = one_norm ** phi
    units = [j for j in range(1, m) if math.gcd(j, m) == 1]
    norm, modulus_prod = None, 1
    for p in _splitting_primes(m):
        if modulus_prod > 2 * bound:
            break
        w = _root_of_unity(p, m)
        prod = [1]
        for j in units:
            z = pow(w, j, p)
            coeffs = [_evaluate(row, z, p) for row in rows]
            # sum_i coeffs[i] (x - s z)^i by Horner
            conj = [coeffs[d]]
            shift = -s * z % p
            for c in reversed(coeffs[:d]):
                conj = [0] + conj
                for i in range(len(conj) - 1):
                    conj[i] = (conj[i] + shift * conj[i + 1]) % p
                conj[0] = (conj[0] + c) % p
            prod = _mul(prod, conj, p)
        prod = prod + [0] * (d * phi + 1 - len(prod))
        if norm is None:
            norm, modulus_prod = prod, p
        else:
            inv = pow(modulus_prod, -1, p)
            norm = [r + modulus_prod * ((c - r) * inv % p) for r, c in zip(norm, prod)]
            modulus_prod *= p
    return _symmetric(norm, modulus_prod)


def trager_factor_candidates(rows, m, modulus, s, h, k):
    """Candidates for the monic factor gcd(g(x), h(x + s theta)) of degree
    k over Q(zeta_m), g = F / lc(F) with F given by its integer
    coordinate rows as in :func:`cyclotomic_norm`.

    At each prime p = 1 (mod m) the gcd is taken in every embedding
    theta -> w^j; its coefficients, read as values of the coordinate
    polynomials at the w^j, are interpolated to coordinates mod p.
    After each prime, the coordinates joined so far are rationally
    reconstructed and, when that succeeds, yielded as a list of k + 1
    rows of Fractions (ascending in x).  The caller verifies."""
    phi = len(modulus) - 1
    d = len(rows) - 1
    units = [j for j in range(1, m) if math.gcd(j, m) == 1]
    acc, acc_mod = None, 1
    for p in _splitting_primes(m):
        lead_inv = pow(rows[d][0], -1, p) if rows[d][0] % p else None
        if lead_inv is None:
            continue
        w = _root_of_unity(p, m)
        values, points = [], []
        for j in units:
            z = pow(w, j, p)
            gz = _monic([_evaluate(row, z, p) * lead_inv % p for row in rows], p)
            shift = [s * z % p, 1]
            r = []
            for c in reversed(h):
                r = _rem(_add(_mul(r, shift, p), [c % p], p), gz, p)
            fac = _gcd(gz, r, p)
            if len(fac) != k + 1:
                break
            values.append(fac[:k])
            points.append(z)
        else:
            coords = _interpolate(points, values, p)
            if acc is None:
                acc, acc_mod = coords, p
            else:
                inv = pow(acc_mod, -1, p)
                acc = [[a + acc_mod * ((b - a) * inv % p) for a, b in zip(ra, rb)]
                       for ra, rb in zip(acc, coords)]
                acc_mod *= p
            cand = [[_rational_reconstruction(c, acc_mod) for c in row] for row in acc]
            if all(c is not None for row in cand for c in row):
                yield cand + [[Fraction(1)] + [Fraction(0)] * (phi - 1)]


def _root_of_unity(p, m):
    """A primitive m-th root of unity mod a prime p = 1 (mod m)."""
    primes = _prime_factors(m)
    a = 2
    while True:
        w = pow(a, (p - 1) // m, p)
        if all(pow(w, m // q, p) != 1 for q in primes):
            return w
        a += 1


def _evaluate(row, z, p):
    c = 0
    for x in reversed(row):
        c = (c * z + x) % p
    return c


def _interpolate(points, values, p):
    """Coordinates mod p: for each coefficient index i, the polynomial
    c_i of degree < len(points) with c_i(points[j]) = values[j][i]."""
    n = len(points)
    k = len(values[0])
    aug = [[pow(z, t, p) for t in range(n)] + [v[i] for i in range(k)]
           for z, v in zip(points, values)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(n):
            f = aug[r][col]
            if r != col and f:
                aug[r] = [(a - f * b) % p for a, b in zip(aug[r], aug[col])]
    return [[aug[t][n + i] for t in range(n)] for i in range(k)]


def _rational_reconstruction(u, mod):
    """The fraction a/b = u (mod mod) with |a|, b <= sqrt(mod / 2), or None."""
    bound = math.isqrt(mod // 2)
    r0, r1 = mod, u % mod
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or math.gcd(r1, abs(t1)) != 1:
        return None
    return Fraction(r1, t1)
