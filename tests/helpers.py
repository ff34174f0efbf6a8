"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own code paths: the
slope oracle measures Katz growth of iterated derivatives, and the
fundamental-stratum oracle brute-forces the power criterion through raw
series arithmetic and entry-order membership tests.  The reference
kernel at the end is the coefficient-wise dict-of-Fraction arithmetic
that the fraction-free kernel must reproduce exactly, and the reference
slope descent tries every (permutation, composition) candidate through
a permuted matrix, the library's filtration degree and a power test of
nilpotency.  The reference orbit test searches every permutation and
Galois twist of the affine Weyl group.  The reference steps of
diagonalization build each graded solve from series products of
monomial matrices, realize toral elements as sums of uniformizer powers,
lift Hensel factorizations by recomputing the whole product at every
digit, and gauge with an inverse to the session default; the reference
pure-block reduction applies one such gauge per level to the whole
series matrix, and the reference split clears the off-blocks round by
round with such gauges.  The reference stratum split is the Hensel
split over k[[t]] that the constant split replaced: series kernels of
the lifted factors of phi and a chain-adapted echelon basis.  The reference cyclotomic inverse is a dense
Gauss-Jordan solve, and the reference echelon form is Gauss-Jordan
elimination in field scalars.
"""

import itertools
import random
from fractions import Fraction

from formalconn import connections, strata
from formalconn.connections import FormalConnection, gauge_transform
from formalconn.errors import (FormalConnError, IrreducibleStratum, NonsplitField, NotRegular,
                               NotSplit, PrecisionError, SingularGauge, ZeroLeading)
from formalconn.formal_types import FormalType, WeylElement
from formalconn.linalg import (charpoly, kernel_flag_basis, kinverse, kmatmul, knullspace,
                               ksolve, rref)
from formalconn.matrices import LaurentMatrix
from formalconn.omodule import column_echelon
from formalconn.parahoric import (filtration_degree, graded_component, graded_monomials,
                                  monomial_matrix, pattern_to_matrix, standard_chain)
from formalconn.polys import (charpoly_series, hensel_lift, kpoly_deg, kpoly_divmod,
                              kpoly_factor, kpoly_gcdext, kpoly_mul, kpoly_sub, kpoly_trim)
from formalconn.scalars import (Ext, as_fraction, get_field, is_rational_value, is_zero,
                                scalar_inverse, sort_key)
from formalconn.series import INF, PRECISION_FLOOR, LaurentScalar, default_precision
from formalconn.strata import Stratum, pure_leading, reduce_stratum
from formalconn.torus import (ToralElement, TorusData, graded_ad_image_solve,
                              graded_level_solve, tame_corestriction, varpi_block)


def LS(pairs, prec=INF):
    return LaurentScalar({k: (Fraction(*p) if isinstance(p, tuple) else Fraction(p))
                          for k, p in pairs}, prec)


def lmat(entries, prec=INF):
    return LaurentMatrix([[LS(e, prec) for e in row] for row in entries])


def random_series(rng, lo=-2, hi=3, density=0.6, denom=3, prec=INF):
    coeffs = {}
    for k in range(lo, hi):
        if rng.random() < density:
            num = rng.randint(-4, 4)
            if num:
                coeffs[k] = Fraction(num, rng.randint(1, denom))
    return LaurentScalar(coeffs, prec)


def random_matrix(rng, n, lo=-2, hi=3, density=0.6, prec=INF):
    return LaurentMatrix([[random_series(rng, lo, hi, density, prec=prec)
                           for _ in range(n)] for _ in range(n)])


def random_unit_matrix(rng, n, depth=3):
    """Identity plus strictly positive-order noise: a unit of P^1-type."""
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = {}
            for k in range(1, depth + 1):
                c = rng.randint(-2, 2)
                if c:
                    coeffs[k] = Fraction(c)
            if i == j:
                coeffs[0] = Fraction(1)
            row.append(LaurentScalar(coeffs))
        rows.append(row)
    return LaurentMatrix(rows)


def random_regular_type(rng, n, e, r):
    """A regular formal type over Q of shape (n, e, r), coefficients
    drawn from rng: gcd(r, e) = 1 and nonzero leading coefficients with
    pairwise distinct e-th powers (at depth zero, e = 1 and leading
    coefficients pairwise distinct modulo Z).  Rows are sorted by their
    leading coefficient."""
    leads = []
    while len(leads) < n // e:
        lead = Fraction(rng.randint(-6, 6), rng.randint(1, 3 if r else max(3, n + 1)))
        if r == 0:
            fine = all((lead - o).denominator != 1 for o in leads)
        else:
            fine = lead != 0 and all(lead ** e != o ** e for o in leads)
        if fine:
            leads.append(lead)
    rows = sorted(([lead] + [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(r)]
                   for lead in leads), key=lambda row: sort_key(row[0]))
    return FormalType(TorusData(e, n // e), r, rows, get_field("Q"))


def shear_gauged(rng, conn, spread=2):
    """The connection (against dt/t) gauged by g = C1 diag(t^a) C2 with
    constant invertible C1, C2 drawn from rng and a in [-spread,
    spread]; g^-1 and tau(g) are written in closed form."""
    n = conn.n

    def invertible():
        while True:
            rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
            inv = kinverse(rows)
            if inv is not None:
                return LaurentMatrix.from_scalar_matrix(rows), LaurentMatrix.from_scalar_matrix(inv)

    def diagonal(items):
        return LaurentMatrix([[items[i] if i == j else LaurentScalar.zero() for j in range(n)]
                              for i in range(n)])

    c1, c1_inv = invertible()
    a = [rng.randint(-spread, spread) for _ in range(n)]
    c2, c2_inv = invertible()
    g = c1 * diagonal([LaurentScalar.t_power(k) for k in a]) * c2
    g_inv = c2_inv * diagonal([LaurentScalar.t_power(-k) for k in a]) * c1_inv
    tau_g = c1 * diagonal([LaurentScalar.t_power(k, Fraction(k)) for k in a]) * c2
    return FormalConnection(g * conn.matrix * g_inv - tau_g * g_inv, conn.nu)


def record_descent_depths(monkeypatch):
    """A list that receives the depth mu (None: no cycle) of each round
    of the slope descent, one per round."""
    depths = []
    original = connections._min_cycle_mean

    def recording(n, edges):
        mu = original(n, edges)
        depths.append(mu)
        return mu

    monkeypatch.setattr(connections, "_min_cycle_mean", recording)
    return depths


def descent_round_bound(n, first):
    """The descent's bound on its rounds from the first depth: one more
    than the number of fractions a/b with first <= a/b < 0 and b <= n."""
    if first is None or first >= 0:
        return 1
    return 1 + sum(int(-first * b) for b in range(1, n + 1))


# -- the Katz growth oracle ---------------------------------------------------


def katz_slope_oracle(conn, imax=40):
    """Slope via boundedness of v(nabla_tau^i e) + sigma i over the
    candidate slopes a/b with b <= n.

    Entirely independent of the strata machinery: iterated application
    of M + tau to the standard basis, valuations read off entry orders.
    Vectors are truncated to a working window above their valuation; an
    undetermined valuation (swallowed by the window) retries the whole
    run with a doubled window, and a vector that stays indistinguishable
    from zero at the widest window ends the iteration with the
    valuations collected so far.

    The answer is the candidate whose sequence v_i + sigma i has the
    least spread.  The valuations are integers, so a spread is blurred
    by the rounding of sigma i, less than one: the answer must beat
    every other candidate by at least one, or the iterations do not
    separate the candidates and the oracle raises.
    """
    conn = conn.standardized()
    n = conn.n
    m = conn.matrix
    vals = None
    for window in (14, 28, 56, 112, 224):
        vecs = []
        for j in range(n):
            col = [LaurentScalar.zero() for _ in range(n)]
            col[j] = LaurentScalar.one()
            vecs.append(col)
        vals = []
        widen = False
        for _ in range(imax):
            vecs = [_apply_nabla(m, v) for v in vecs]
            orders = [entry.order for col in vecs for entry in col
                      if not entry.is_zero()]
            if not orders:
                if any(entry.prec is not INF for col in vecs for entry in col) \
                        and window < 224:
                    widen = True
                break
            v_i = min(orders)
            vals.append(v_i)
            cut = v_i + window
            vecs = [[entry.truncate(cut) for entry in col] for col in vecs]
        if not widen:
            break
    if not vals or all(v is None for v in vals):
        return Fraction(0)
    max_slope = max(-Fraction(v, i + 1) for i, v in enumerate(vals) if v is not None)
    if max_slope <= 0:
        return Fraction(0)
    candidates = sorted({Fraction(a, b) for b in range(1, n + 1)
                         for a in range(0, int((max_slope + 1) * b) + 1)})
    spreads = []
    for sigma in candidates:
        ds = [Fraction(v) + sigma * (i + 1) for i, v in enumerate(vals) if v is not None]
        spreads.append((max(ds) - min(ds), sigma))
    spreads.sort()
    (spread, sigma), (runner_up, other) = spreads[0], spreads[1]
    assert runner_up - spread >= 1, \
        "oracle cannot separate %s (spread %s) from %s (spread %s)" % (sigma, spread, other,
                                                                       runner_up)
    return sigma


def _apply_nabla(m, vec):
    out = m.matvec(vec)
    return [a + b.tau() for a, b in zip(out, vec)]


# -- brute-force fundamental test --------------------------------------------


def entry_min_order_table(blocks):
    """Minimal entry orders of P^r for the grouped standard chain,
    recomputed from scratch (independent of the library's formula):
    explicit membership of t^c E_uv against the listed lattices."""
    e = len(blocks)
    n = sum(blocks)
    group = []
    for b_idx, size in enumerate(blocks):
        group.extend([b_idx] * size)

    def lattice_exp(j, u):
        # L^j = sum t^(m_u) o e_u built by peeling the last block first
        q, s = divmod(j, e)
        # after s peels, blocks e-1, ..., e-s have gained one t
        extra = 1 if group[u] >= e - s else 0
        return q + extra

    def min_order(u, v, r):
        c = -(abs(r) + 8)
        while True:
            if all(c + lattice_exp(j, v) >= lattice_exp(j + r, u) for j in range(2 * e)):
                return c
            c += 1

    return min_order


def brute_force_fundamental(blocks, r, beta, max_power=None):
    """Non-fundamental iff beta^m lies in P^(1-rm) for some m <= n,
    with membership tested entry by entry against first principles."""
    n = sum(blocks)
    if max_power is None:
        max_power = n
    min_order = entry_min_order_table(blocks)
    power = LaurentMatrix.identity(n)
    for m in range(1, max_power + 1):
        power = power * beta
        level = 1 - r * m
        inside = True
        for u in range(n):
            for v in range(n):
                entry = power.rows[u][v]
                if entry.is_zero():
                    continue
                if entry.order < min_order(u, v, level):
                    inside = False
                    break
            if not inside:
                break
        if inside:
            return False
    return True


def krank(mat):
    if not mat or not mat[0]:
        return 0
    return len(rref(mat)[1])


def monomial_lattice_columns(exps):
    """Columns of the diagonal lattice sum t^(e_u) o e_u."""
    n = len(exps)
    cols = []
    for u in range(n):
        col = [LaurentScalar.zero() for _ in range(n)]
        col[u] = LaurentScalar.t_power(exps[u])
        cols.append(col)
    return cols


def seeded(seed):
    return random.Random(seed)


# -- reference kernel ---------------------------------------------------------
#
# Plain loops over dicts of ground-field values, cleaned by the public
# constructor after every operation.  They share nothing with the
# library's kernel but the LaurentScalar container.


def ref_mul_prec(a, b):
    if a.prec == INF and b.prec == INF:
        return INF
    return min(a.order + b.prec, b.order + a.prec)


def ref_mul(a, b):
    prec = ref_mul_prec(a, b)
    out = {}
    for i, x in a.coeffs.items():
        for j, y in b.coeffs.items():
            if i + j < prec:
                out[i + j] = out.get(i + j, 0) + x * y
    return LaurentScalar(out, prec)


def ref_add(a, b):
    out = dict(a.coeffs)
    for k, v in b.coeffs.items():
        out[k] = out.get(k, 0) + v
    return LaurentScalar(out, min(a.prec, b.prec))


def ref_sub(a, b):
    return ref_add(a, LaurentScalar({k: -v for k, v in b.coeffs.items()}, b.prec))


def _ref_scalar_inverse(c):
    return Fraction(1) / c if isinstance(c, (int, Fraction)) else ref_ext_inverse(c)


def ref_ext_inverse(x):
    """1/x in Q(zeta_m) by Gauss-Jordan on the phi x phi matrix of
    multiplication by x; ZeroDivisionError for zero."""
    field = x.field
    d = field.degree
    cols = []
    for j in range(d):
        basis = [Fraction(0)] * d
        basis[j] = Fraction(1)
        cols.append(list((x * Ext(field, tuple(basis))).coords))
    aug = [[cols[j][i] for j in range(d)] + [Fraction(1) if i == 0 else Fraction(0)]
           for i in range(d)]
    for c in range(d):
        piv = next((r for r in range(c, d) if aug[r][c] != 0), None)
        if piv is None:
            raise ZeroDivisionError("division by zero in %s" % field.name)
        aug[c], aug[piv] = aug[piv], aug[c]
        pv = aug[c][c]
        aug[c] = [v / pv for v in aug[c]]
        for r in range(d):
            if r != c and aug[r][c]:
                f = aug[r][c]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[c])]
    return Ext(field, tuple(aug[i][d] for i in range(d)))


def ref_inverse(a, digits=None):
    if not a.coeffs:
        raise ZeroLeading("inverse of zero(-to-precision) series")
    s = min(a.coeffs)
    inv_lead = _ref_scalar_inverse(a.coeffs[s])
    if len(a.coeffs) == 1 and a.prec == INF:
        return LaurentScalar({-s: inv_lead})
    if a.prec != INF:
        digits = int(a.prec - s) if digits is None else min(digits, int(a.prec - s))
    elif digits is None:
        digits = default_precision()
    if digits < PRECISION_FLOOR:
        raise PrecisionError("inverse window below floor")
    u = {k - s: v * inv_lead for k, v in a.coeffs.items() if k - s < digits}
    out = {0: Fraction(1)}
    for k in range(1, digits):
        acc = 0
        for j, uj in u.items():
            if 0 < j <= k:
                acc = acc + uj * out.get(k - j, 0)
        if acc != 0:
            out[k] = -acc
    return LaurentScalar({k - s: v * inv_lead for k, v in out.items()}, digits - s)


def ref_matmul(a, b):
    n = a.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = LaurentScalar.zero()
            for k in range(n):
                x, y = a.rows[i][k], b.rows[k][j]
                if (x.coeffs or x.prec != INF) and (y.coeffs or y.prec != INF):
                    acc = ref_add(acc, ref_mul(x, y))
            row.append(acc)
        rows.append(row)
    return LaurentMatrix(rows)


def ref_matinv(m, digits=None):
    """Gauss-Jordan with valuation pivoting, as LaurentMatrix.inverse."""
    n = m.n
    work = [list(m.rows[i]) + [LaurentScalar.one() if i == j else LaurentScalar.zero()
                               for j in range(n)] for i in range(n)]
    for c in range(n):
        candidates = [(work[r][c].order, r) for r in range(c, n) if work[r][c].coeffs]
        if not candidates:
            if any(work[r][c].prec != INF for r in range(c, n)):
                raise PrecisionError("pivot undetectable at available precision")
            raise SingularGauge("matrix is singular")
        piv = min(candidates)[1]
        work[c], work[piv] = work[piv], work[c]
        inv_piv = ref_inverse(work[c][c], digits)
        work[c] = [ref_mul(x, inv_piv) for x in work[c]]
        for r in range(n):
            f = work[r][c]
            if r != c and f.coeffs:
                work[r] = [ref_sub(x, ref_mul(f, y)) for x, y in zip(work[r], work[c])]
    return LaurentMatrix([row[n:] for row in work])


# -- reference slope descent ----------------------------------------------------


# The shear rounds of the reference descent give up after this many.
MAX_DESCENT_ROUNDS = 64


def _compositions(n):
    """Every composition of n (the block sizes of a standard chain),
    fewest blocks first."""
    out = []
    for cuts in range(1 << (n - 1)):
        blocks = []
        size = 1
        for pos in range(n - 1):
            if cuts & (1 << pos):
                blocks.append(size)
                size = 1
            else:
                size += 1
        blocks.append(size)
        out.append(tuple(blocks))
    out.sort(key=lambda b: (len(b), b))
    return out


def ref_is_nilpotent(pattern):
    """pattern^n == 0 for the n x n pattern, by repeated multiplication."""
    power = pattern
    for _ in range(len(pattern) - 1):
        power = kmatmul(power, pattern)
    return all(is_zero(c) for row in power for c in row)


def ref_is_fundamental(s):
    return not ref_is_nilpotent(reduce_stratum(s).graded_rep().pattern)


def _ref_permuted(matrix, perm):
    n = matrix.n
    return LaurentMatrix([[matrix.rows[perm[u]][perm[v]] for v in range(n)]
                          for u in range(n)])


def _ref_permutation_matrix(perm):
    n = len(perm)
    rows = [[LaurentScalar.zero() for _ in range(n)] for _ in range(n)]
    for j, i in enumerate(perm):
        rows[i][j] = LaurentScalar.one()
    return LaurentMatrix(rows)


def ref_scan_standard(matrix, n, perms):
    """Every (permutation, composition) pair in scan order: (perm, ctx,
    r) of the first fundamental or regular singular (r = 0) candidate,
    or None; an undetermined filtration degree skips the candidate."""
    for perm in perms:
        m_p = _ref_permuted(matrix, perm)
        for blocks in _compositions(n):
            ctx = standard_chain(blocks)
            try:
                d = filtration_degree(m_p, ctx)
            except PrecisionError:
                continue
            if d is INF or d >= 0:
                return perm, ctx, 0
            if ref_is_fundamental(Stratum(ctx, -d, m_p)):
                return perm, ctx, -d
    return None


def _ref_moser_gauge(matrix, kernel_power):
    """The shear gauge diag(t on the kernel coordinates) C^-1, with the
    constant kernel-flag basis C inverted as a Laurent matrix."""
    n = matrix.n
    ctx = standard_chain((n,))
    d = filtration_degree(matrix, ctx)
    if d is INF:
        raise FormalConnError("shear move on the zero matrix")
    pat = graded_component(matrix, ctx, d).pattern
    basis = kernel_flag_basis(pat)
    if basis is None:
        raise FormalConnError("leading coefficient has no kernel flag")
    h = LaurentMatrix.from_scalar_matrix([[basis[j][i] for j in range(n)] for i in range(n)])
    power = [list(r) for r in pat]
    for _ in range(kernel_power - 1):
        power = kmatmul(power, pat)
    ker_dim = max(1, len(knullspace(power)))
    ker_dim = min(ker_dim, n - 1) if ker_dim == n else ker_dim
    shear = LaurentMatrix([[LaurentScalar.t_power(1 if u < ker_dim else 0) if u == v
                            else LaurentScalar.zero() for v in range(n)] for u in range(n)])
    return shear * h.inverse()


def ref_fundamental_stratum(conn):
    """The slope descent with the reference scan, general gauge actions
    and Gauss-Jordan inverses of every gauge."""
    conn = conn.standardized()
    n = conn.n
    gauge = LaurentMatrix.identity(n)
    cur = conn
    perms = list(itertools.permutations(range(n))) if n <= 4 else [tuple(range(n))]
    for round_no in range(MAX_DESCENT_ROUNDS):
        found = ref_scan_standard(cur.matrix, n, perms)
        if found is not None:
            perm, ctx, r = found
            pm = _ref_permutation_matrix(perm)
            gauge = pm.inverse() * gauge
            cur = gauge_transform(pm.inverse(), cur)
            s = Stratum(ctx, r, cur.matrix, cur.nu)
            return gauge, cur, (s if r == 0 else reduce_stratum(s))
        h = _ref_moser_gauge(cur.matrix, 1 + round_no % max(n - 1, 1))
        gauge = h * gauge
        cur = gauge_transform(h, cur)
    raise FormalConnError("slope descent did not terminate")


# -- reference orbit search ---------------------------------------------------


def ref_orbit_equivalent(a, b):
    """The first w, in (permutation, twist) order, with weyl_act(w, b) = a,
    found by trying all m! e^m permutations and Galois twists and reading
    each block's translation off its degree-zero coefficient; None when
    there is none or the shapes differ.  Without the e-th roots of unity
    in the field only the trivial twist is tried."""
    if not a.same_shape(b):
        return None
    m, e, r = a.m, a.e, a.depth
    field = a.field
    if field.has_root_of_unity(e):
        galois_range = range(e)
        zeta = field.root_of_unity(e) if e > 1 else None
    else:
        galois_range = (0,)
        zeta = None
    for perm in itertools.permutations(range(m)):
        inv = [0] * m
        for j, p in enumerate(perm):
            inv[p] = j
        for galois in itertools.product(galois_range, repeat=m):
            transl = []
            for j in range(m):
                g = galois[j]
                cand = [c * zeta ** ((g * (i - r)) % e) if g else c
                        for i, c in enumerate(b.coeffs[inv[j]])]
                if cand[:-1] != a.coeffs[j][:-1]:
                    break
                scaled = (cand[-1] - a.coeffs[j][-1]) * e
                if not is_rational_value(scaled) or as_fraction(scaled).denominator != 1:
                    break
                transl.append(int(as_fraction(scaled)))
            else:
                return WeylElement(perm, galois, tuple(transl))
    return None


# -- reference steps of diagonalization ---------------------------------------


def ref_graded_level_solve(lead, target, ctx, level, r, keep=None, shift=0):
    """Solve ad(X)(lead) + shift * X = target on the graded piece at
    ``level``: each column is the graded component of the series product
    E lead - lead E (+ shift E) of a monomial basis matrix E, and the
    solution is summed one monomial matrix at a time."""
    tgt = graded_component(target, ctx, level)
    if tgt.is_zero():
        return LaurentMatrix.zero(ctx.n)
    slots = [(u, v, o) for (u, v, o) in graded_monomials(ctx, level + r)
             if keep is None or keep(u, v)]
    out_slots = [(u, v) for (u, v, _) in graded_monomials(ctx, level)
                 if keep is None or keep(u, v)]
    cols = []
    for (u, v, o) in slots:
        basis_elt = monomial_matrix(ctx, u, v, o)
        img = basis_elt * lead - lead * basis_elt
        if shift:
            img = img + basis_elt * Fraction(shift)
        pat = graded_component(img, ctx, level).pattern
        cols.append([pat[uu][vv] for (uu, vv) in out_slots])
    rhs = [tgt.pattern[u][v] for (u, v) in out_slots]
    x = ksolve([[cols[j][i] for j in range(len(slots))] for i in range(len(out_slots))], rhs)
    if x is None:
        return None
    sol = LaurentMatrix.zero(ctx.n)
    for coeff, (u, v, o) in zip(x, slots):
        if not is_zero(coeff):
            sol = sol + monomial_matrix(ctx, u, v, o, coeff)
    return sol


def _ref_varpi_block(e, d, coeff):
    rows = [[LaurentScalar.zero() for _ in range(e)] for _ in range(e)]
    for q in range(e):
        p = (q - d) % e
        rows[p][q] = LaurentScalar.t_power((d - q + p) // e, coeff)
    return rows


def ref_realization(x):
    """The toral element as a sum of scaled uniformizer powers per block,
    every entry truncated to ceil(prec / e) + 1 when prec is finite."""
    e, m = x.torus.e, x.torus.m
    n = e * m
    rows = [[LaurentScalar.zero() for _ in range(n)] for _ in range(n)]
    for j, block in enumerate(x.coeffs):
        acc = [[LaurentScalar.zero() for _ in range(e)] for _ in range(e)]
        for d, c in block.items():
            piece = _ref_varpi_block(e, d, c)
            acc = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(acc, piece)]
        for p in range(e):
            for q in range(e):
                rows[j * e + p][j * e + q] = acc[p][q]
    if x.prec != INF:
        cut = -(-x.prec // e) + 1
        rows = [[entry.truncate(cut) for entry in row] for row in rows]
    return LaurentMatrix(rows)


def ref_hensel_lift(phi, g0, h0, digits):
    """Linear Hensel lifting that recomputes the whole product g h to
    t^(k+1) at every digit k."""
    _, _, v = kpoly_gcdext(g0, h0)
    g = [LaurentScalar({0: c}) for c in g0]
    h = [LaurentScalar({0: c}) for c in h0]
    for k in range(1, digits):
        prod = [LaurentScalar.zero() for _ in range(len(g) + len(h) - 1)]
        for i, a in enumerate(g):
            for j, b in enumerate(h):
                prod[i + j] = prod[i + j] + (a * b).truncate(k + 1)
        e_k = kpoly_trim([(phi[i] - prod[i]).coeff_or_zero(k) for i in range(len(phi))])
        if kpoly_deg(e_k) < 0:
            continue
        _, a = kpoly_divmod(kpoly_mul(v, e_k), g0)
        b, _ = kpoly_divmod(kpoly_sub(e_k, kpoly_mul(a, h0)), g0)
        for poly, fix in ((g, a), (h, b)):
            for i, c in enumerate(fix):
                if not is_zero(c):
                    poly[i] = poly[i] + LaurentScalar.t_power(k, c)
    return [c.truncate(digits) for c in g], [c.truncate(digits) for c in h]


def ref_split_connection(conn, ctx, r, slot_lists, digits=8):
    """The off-block loop on series matrices: each round reads the
    filtration degree d of the off-blocks, solves the graded level and
    applies 1 - x by gauge_transform (an inverse to the session
    precision per round), until d reaches 1 - r + digits or the rounds
    (digits + 2r + 4) run out."""
    conn = conn.standardized()
    n = conn.n
    part_of = {u: idx for idx, slots in enumerate(slot_lists) for u in slots}
    lead_pat = [[graded_component(conn.matrix, ctx, -r).pattern[u][v]
                 if part_of[u] == part_of[v] else Fraction(0)
                 for v in range(n)] for u in range(n)]
    lead_mat = pattern_to_matrix(ctx, lead_pat, -r)
    p_total = LaurentMatrix.identity(n)
    cur = conn
    target = 1 - r + digits
    for _ in range(digits + 2 * r + 4):
        off = LaurentMatrix([[cur.matrix.rows[u][v] if part_of[u] != part_of[v]
                              else LaurentScalar.zero() for v in range(n)] for u in range(n)])
        d = filtration_degree(off, ctx, stop_at=target)
        if d is INF or d >= target:
            break
        x = graded_level_solve(lead_mat, off, ctx, d, r,
                               keep=lambda u, v: part_of[u] != part_of[v],
                               shift=-d if r == 0 else 0)
        if x is None:
            raise NotSplit("resonant obstruction at level %d" % (d + r))
        g = LaurentMatrix.identity(n) - x
        cur = gauge_transform(g, cur)
        p_total = g * p_total
    else:
        raise PrecisionError("splitting did not reach the requested depth")
    return p_total, cur


def ref_gauge_transform(g, conn):
    """The matrix g [nabla_tau] g^-1 - (tau g) g^-1, with g^-1 to the
    session default: three products."""
    g_inv = g.inverse()
    return g * conn.matrix * g_inv - conn.tau_of_matrix(g) * g_inv


def ref_pure_block_reduce(conn, ctx, r, field, digits):
    """Two-phase reduction of a pure block to q(varpi^(-1)), on series
    matrices: one gauge_transform per level.

    Phase one (levels up to r) absorbs Cartan components into q and
    solves the graded ad-equation; phase two additionally cancels the
    Cartan obstruction with gauges 1 + alpha varpi^v, whose derivative
    term has Cartan component (v/e) alpha varpi^v.
    Returns (gauge, dict of q-coefficients in degrees -r..0).
    """
    n = conn.n
    e = ctx.period
    assert e == n
    torus = TorusData(e, 1)
    nu = conn.nu
    cur = conn
    p_total = LaurentMatrix.identity(n)
    pat = graded_component(cur.matrix, ctx, -r).pattern
    # rank one is all Cartan: its leading coefficient may vanish (the one
    # nilpotent summand a regular split torus allows)
    head = (pat[0], pat[0][0]) if n == 1 else pure_leading(pat, field)
    if head is None:
        raise NotRegular("pure block leading term is not a varpi multiple")
    xs, alpha = head
    if any(x != alpha for x in xs):
        h = _ref_pure_normalizer(n, r, xs, alpha, field)
        cur = gauge_transform(h, cur)
        p_total = h * p_total
    q = {-r: alpha} if not is_zero(alpha) else {}
    lead = ToralElement(torus, [{-r: alpha}])
    # the realization of q is rebuilt only when q changes, and each
    # remainder's tame corestriction gives both c and the target
    q_real = ToralElement(torus, [q]).realization()
    guard = r + digits + 4
    for _ in range(guard):
        rem = cur.matrix - q_real
        try:
            d = filtration_degree(rem, ctx, stop_at=digits + 1)
        except PrecisionError:
            break
        if d is INF or d > digits:
            break
        v = d
        pi_rem = tame_corestriction(rem, torus, nu)
        c = pi_rem.coeffs[0].get(v, field.zero())
        if not is_zero(c):
            if v <= 0:
                q[v] = q.get(v, field.zero()) + c
                q_real = ToralElement(torus, [q]).realization()
            else:
                alpha_c = c * Fraction(e, v)
                u_gauge = LaurentMatrix.identity(n) + \
                    varpi_eps(torus, v, 0) * alpha_c
                cur = gauge_transform(u_gauge, cur)
                p_total = u_gauge * p_total
            rem = cur.matrix - q_real
            d2 = filtration_degree(rem, ctx, stop_at=digits + 1)
            if d2 is INF or d2 > digits:
                break
            if d2 > v:
                continue
            v = d2
            pi_rem = tame_corestriction(rem, torus, nu)
        target = rem - pi_rem.realization()
        try:
            tgt_deg = filtration_degree(target, ctx, stop_at=digits + 1)
        except PrecisionError:
            break
        if tgt_deg is INF or tgt_deg > v:
            continue
        x = graded_ad_image_solve(lead, target * Fraction(-1), ctx, tgt_deg)
        if x is None:
            raise NotRegular("pure reduction hit an unsolvable level")
        g = LaurentMatrix.identity(n) + x
        cur = gauge_transform(g, cur)
        p_total = g * p_total
    return p_total, q


def _ref_pure_normalizer(n, r, xs, alpha, field):
    """Constant diagonal p with Ad(p)(x varpi^(-r)) = alpha varpi^(-r):
    solve p_u = alpha p_(u-r) / x_u around the r-cycle (gcd(r,n)=1)."""
    diag = [None] * n
    diag[0] = field.one()
    u = 0
    for _ in range(n - 1):
        nxt = (u + r) % n
        val = alpha * diag[u]
        diag[nxt] = val * scalar_inverse(xs[nxt])
        u = nxt
    rows = [[LaurentScalar.from_scalar(diag[i]) if i == j else LaurentScalar.zero()
             for j in range(n)] for i in range(n)]
    return LaurentMatrix(rows)


def varpi_eps(torus, s, i, coeff=Fraction(1)):
    """varpi_E^s supported on block i."""
    n = torus.n
    rows = [[LaurentScalar.zero() for _ in range(n)] for _ in range(n)]
    block = varpi_block(torus.e, s, coeff)
    base = i * torus.e
    for p in range(torus.e):
        for q in range(torus.e):
            rows[base + p][base + q] = block[p][q]
    return LaurentMatrix(rows)


def spoly_mul(p, q, prec=INF):
    """The product of two polynomials with series coefficients, each
    coefficient product truncated at prec."""
    out = [LaurentScalar.zero() for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + (a * b).truncate(prec)
    return out


def ref_rref(mat):
    """Reduced row echelon form by Gauss-Jordan elimination in field
    scalars, the pivot row divided by its pivot at every step; returns
    (rref_matrix, pivot_columns)."""
    m = [list(row) for row in mat]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if not is_zero(m[i][c])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = scalar_inverse(m[r][c])
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and not is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


# -- the Hensel split -----------------------------------------------------------

HENSEL_GUARD = 8


def ref_split_stratum(s, field):
    """The split over k[[t]], as (g, g^-1, Ad(g^-1)(beta), parts) like
    ``strata._split_stratum``: phi = charpoly of the series y = beta^e
    t^r, known to r n + HENSEL_GUARD digits or to phi's least window,
    its coprime factorization lifted together by ``hensel_lift``, the
    o-kernel of each lifted factor at y, and a chain-adapted basis of
    each kernel as the columns of a series basis change g in P."""
    phi0 = charpoly(strata._y_pattern(s))
    factors = kpoly_factor(phi0, field)
    if len(factors) == 1:
        if kpoly_deg(factors[0][0]) == 1:
            raise IrreducibleStratum("pure stratum")
        raise NonsplitField("phi has no root in %s" % field.name)
    groups = []
    for fac, mult in factors:
        power = [field.one()]
        for _ in range(mult):
            power = kpoly_mul(power, fac)
        groups.append((fac, power))
    groups.sort(key=strata._group_sort_key)
    digits = s.r * s.n + HENSEL_GUARD
    y = _ref_power_truncated(s.beta, s.e, digits).shift(s.r).truncate(digits)
    phi = charpoly_series(y)
    digits = min([digits] + [c.prec for c in phi])
    phi = [c.truncate(digits) for c in phi]
    lifted = hensel_lift(phi, [power for _, power in groups], digits)
    g, slot_lists = _ref_adapted_basis_change(s.ctx, [_ref_series_kernel(f, y) for f in lifted])
    g_inv = g.inverse()
    conj = g_inv * s.beta * g
    return g, g_inv, conj, strata._split_parts(s, conj, slot_lists)


def ref_split_diagonalize(conn, digits):
    """``diagonalize`` with every positive-depth split taken by
    :func:`ref_split_stratum`; its series g is not constant, so the
    split connection g^-1 . nabla gets the term g^-1 tau(g) added.
    (``unittest.mock`` would do the swap, but it imports asyncio, and
    the benchmark imports this module.)"""
    def split(s, field):
        g, g_inv, conj, parts = ref_split_stratum(s, field)
        return g, g_inv, conj + g_inv * g.tau(), parts

    library_split = strata._split_stratum
    strata._split_stratum = split
    try:
        return connections.diagonalize(conn, digits)
    finally:
        strata._split_stratum = library_split


def _ref_power_truncated(mat, k, digits):
    """mat^k known modulo t^(digits+1): intermediate products are
    truncated with headroom for the remaining factors' polar depth."""
    order = mat.min_order()
    depth = 0 if order is INF else max(0, -int(order))
    out = LaurentMatrix.identity(mat.n)
    for i in range(k):
        out = (out * mat).truncate(digits + 1 + (k - 1 - i) * depth)
    return out


def _ref_series_kernel(spoly, mat):
    """o-basis columns of the kernel of spoly(mat), each shifted to
    order 0."""
    n = mat.n
    acc = LaurentMatrix.scalar(n, spoly[-1])
    for c in reversed(spoly[:-1]):
        acc = acc * mat + LaurentMatrix.scalar(n, c)
    _, _, null = column_echelon([[acc.rows[i][j] for i in range(n)] for j in range(n)],
                                track=True)
    out = []
    for vec in null:
        lead = min((c.order for c in vec if not c.is_zero()), default=0)
        out.append([c.shift(-lead) for c in vec])
    return out


def _ref_combine(cols, coeffs):
    out = [LaurentScalar.zero() for _ in cols[0]]
    for c, col in zip(coeffs, cols):
        if not c.is_zero():
            out = [a + c * b for a, b in zip(out, col)]
    return out


def _ref_reduce(ech, vec):
    """(coefficients, residual) of vec modulo an o-column echelon."""
    v = list(vec)
    coeffs = []
    for col, (row, order) in zip(ech.cols, ech.pivots):
        c = v[row].shift(-order)
        coeffs.append(c)
        if not c.is_zero():
            v = [a - c * b for a, b in zip(v, col)]
    return coeffs, v


def _ref_preimage_lattice(kcols, exps):
    """Basis of {x : sum x_k K_k lies in the monomial lattice with
    exponents exps}, for F-independent columns K."""
    scaled = [[entry.shift(-exps[row]) for row, entry in enumerate(col)] for col in kcols]
    ech, expr, null = column_echelon(scaled, track=True)
    assert not null
    return [[c.shift(-order) for c in col] for col, (_, order) in zip(expr, ech.pivots)]


def _ref_adapted_basis_change(ctx, kernels):
    """g in P whose columns are chain-adapted bases of the kernels, and
    the sorted slot list of each kernel: in each graded step L^i/L^(i+1),
    the kernels' vectors fill the slots of phase i in kernel order."""
    e, n = ctx.period, ctx.n
    chosen = {p: [] for p in range(e)}
    for part, kcols in enumerate(kernels):
        coords = [_ref_preimage_lattice(kcols, ctx.lattice_exponents(i)) for i in range(e + 1)]
        for i in range(e):
            ech = column_echelon(coords[i])
            rows = []
            for col in coords[i + 1]:
                coeffs, residual = _ref_reduce(ech, col)
                assert all(x.is_zero() for x in residual)
                rows.append([c.coeff_or_zero(0) for c in coeffs])
            pivots = rref(rows)[1] if rows else []
            chosen[i].extend((part, _ref_combine(kcols, ech.cols[j]))
                             for j in range(ech.rank) if j not in pivots)
    cols = [None] * n
    slot_lists = [[] for _ in kernels]
    for p in range(e):
        slots = [u for u, q in enumerate(ctx.phases) if q == p]
        picks = sorted(chosen[p], key=lambda pv: pv[0])
        assert len(picks) == len(slots)
        for slot, (part, vec) in zip(slots, picks):
            cols[slot] = vec
            slot_lists[part].append(slot)
    g = LaurentMatrix([[cols[j][i] for j in range(n)] for i in range(n)])
    return g, [sorted(sl) for sl in slot_lists]
