"""Standard lattice chains and parahoric filtrations.

A standard chain in F^n is encoded by a *phase* per basis vector: the
lattice L^j is the span of t^(m_u(j)) e_u with m_u(j) = ceil((j -
phase(u)) / e).  Then L^0 = o^n, L^(j+e) = t L^j, and membership of a
matrix entry in the congruence ideal P^l has the closed form

    ord(X[u][v]) >= ceil((l + phase(v) - phase(u)) / e).

Grouped layout (the standard chain of a composition) assigns phases
e-1-B(u) where B(u) is the index of the block containing u; the
torus-adapted interleaved layout repeats the complete-chain phases
inside each of the n/e diagonal blocks.
"""

import functools

from .errors import EmptyComposition, NotInFiltration, PrecisionError
from .linalg import kernel_flag_basis, kmatmul, kzeros, read_matrix, ring_of
from .matrices import LaurentMatrix
from .scalars import is_zero
from .series import INF, LaurentScalar


class LatticeChain:
    """Combinatorial shadow of a standard lattice chain: dimension,
    flag composition and period."""

    __slots__ = ("n", "blocks", "period")

    def __init__(self, n, blocks):
        blocks = tuple(blocks)
        if not blocks or any(b <= 0 for b in blocks):
            raise EmptyComposition("composition must be nonempty and positive")
        if sum(blocks) != n:
            raise EmptyComposition("composition %r does not sum to %d" % (blocks, n))
        self.n = n
        self.blocks = blocks
        self.period = len(blocks)

    def __repr__(self):
        return "LatticeChain(n=%d, blocks=%r)" % (self.n, self.blocks)


class ParahoricContext:
    """A standard parahoric: chain data and the phase vector, which decide
    the lattices, the congruence ideals and the graded pieces, and for
    uniform chains the shift generator varpi of P^1 and its powers (the
    uniformizers).  :meth:`grouped` and :meth:`interleaved` build the
    two standard layouts; any other phase vector may be given."""

    __slots__ = ("chain", "phases", "_varpi", "_classes", "_memo")

    def __init__(self, chain, phases):
        self.chain = chain
        self.phases = tuple(phases)
        self._varpi = None
        self._classes = None
        self._memo = {}

    # -- constructors ---------------------------------------------------

    @classmethod
    def grouped(cls, blocks):
        """The standard chain of a composition: phase e - 1 - b on block b."""
        blocks = tuple(blocks)
        phases = [len(blocks) - 1 - b for b, size in enumerate(blocks) for _ in range(size)]
        return cls(LatticeChain(sum(blocks), blocks), phases)

    @classmethod
    @functools.cache
    def interleaved(cls, e, m):
        """Torus-adapted context: m diagonal blocks of size e, each
        carrying the complete-chain phases; built once per shape."""
        return cls(LatticeChain(e * m, (m,) * e), [e - 1 - p for _ in range(m) for p in range(e)])

    # -- basic data -------------------------------------------------------

    @property
    def n(self):
        return self.chain.n

    @property
    def period(self):
        return self.chain.period

    @property
    def uniform(self):
        phases = set(self.phases)
        return len(phases) == self.period and len({self.phases.count(p) for p in phases}) == 1

    def min_entry_order(self, u, v, level):
        """Smallest t-order allowed for entry (u, v) of P^level."""
        e = self.period
        return -((-(level + self.phases[v] - self.phases[u])) // e)

    def same_filtration(self, other):
        return self.period == other.period and self.phases == other.phases

    @property
    def phase_classes(self):
        """For each residue c = 0, ..., e-1, the basis slots whose phase
        is c modulo e, in ascending order."""
        if self._classes is None:
            e = self.period
            classes = [[] for _ in range(e)]
            for u, p in enumerate(self.phases):
                classes[p % e].append(u)
            self._classes = tuple(tuple(c) for c in classes)
        return self._classes

    def memo(self, build, key):
        """build(self, key), built once per context and kept with it, as
        phase_classes is: index data that depends on the chain alone,
        such as the gather plans of torus.level_product."""
        value = self._memo.get((build, key))
        if value is None:
            value = self._memo[build, key] = build(self, key)
        return value

    # -- the shift generator -----------------------------------------------

    @property
    def varpi(self):
        """Generator of P^1 for uniform chains (None otherwise)."""
        if not self.uniform:
            return None
        if self._varpi is None:
            e = self.period
            n = self.n
            rows = [[LaurentScalar.zero() for _ in range(n)] for _ in range(n)]
            # within each phase class, order indices; the generator sends
            # the class of phase p to phase p+1 (mod e), acquiring t on wrap.
            by_phase = {}
            for u, p in enumerate(self.phases):
                by_phase.setdefault(p, []).append(u)
            for p in range(e):
                src = by_phase[p]
                dst = by_phase[(p + 1) % e]
                wrap = (p + 1) == e
                for s, d in zip(src, dst):
                    rows[d][s] = LaurentScalar.t_power(1) if wrap else LaurentScalar.one()
            self._varpi = LaurentMatrix(rows)
        return self._varpi

    def varpi_power(self, k):
        w = self.varpi
        assert w is not None, "varpi needs a uniform chain"
        e = self.period
        q, s = divmod(k, e)
        out = LaurentMatrix.identity(self.n).shift(q)
        for _ in range(s):
            out = out * w
        return out

    def __repr__(self):
        return "ParahoricContext(blocks=%r, phases=%r)" % (self.chain.blocks, self.phases)


def standard_chain(blocks):
    """The standard parahoric of a composition; Iwahori for (1,...,1),
    the maximal parahoric GL_n(o) for (n,)."""
    return ParahoricContext.grouped(blocks)


def fildeg_certified(x, ctx):
    """(degree over known-nonzero entries, certification bound): the
    filtration degree equals the first value when it does not exceed
    the second; beyond the bound the windows are silent."""
    e = ctx.period
    best = INF
    bound = INF
    for u in range(ctx.n):
        for v in range(ctx.n):
            entry = x.rows[u][v]
            off = ctx.phases[u] - ctx.phases[v]
            if entry.is_zero():
                if entry.prec is not INF:
                    bound = min(bound, e * entry.prec + off)
                continue
            best = min(best, e * entry.order + off)
            if entry.prec is not INF:
                bound = min(bound, e * entry.prec + off)
    return best, bound


def filtration_degree(x, ctx, stop_at=None):
    """Largest r with x in P^r; +inf for the zero matrix.

    Raises PrecisionError when a zero-to-precision entry leaves the
    answer undetermined -- unless ``stop_at`` is given and the degree
    is certified to be at least that, in which case +inf is returned
    as an "at least stop_at" sentinel.
    """
    best, bound = fildeg_certified(x, ctx)
    if bound < best:
        if stop_at is not None and bound >= stop_at and best is INF:
            return INF
        raise _undetermined(x, ctx, best, bound, stop_at)
    return best


def _undetermined(x, ctx, best, bound, stop_at=None):
    """The PrecisionError for a filtration degree that the windows leave
    undetermined (``fildeg_certified`` gave ``best`` and ``bound``), with
    the window that certifies the candidate degree, or P^stop_at when
    no entry is known to be nonzero."""
    target = stop_at if best is INF else best
    needed, short_by = (None, None) if target is None else certifying_window(x, ctx, target)
    return PrecisionError(
        "filtration degree undetermined: known bound %s < candidate %s" % (bound, best),
        needed=needed, short_by=short_by)


def certifying_window(x, ctx, level):
    """(needed, short_by) for certifying membership in P^level: needed
    is the least window t^w such that every entry known to it certifies
    it, the largest min_entry_order(u, v, level) over the entries whose
    own window falls short of theirs; short_by is the largest shortfall
    of such an entry."""
    short = [(ctx.min_entry_order(u, v, level), entry.prec)
             for u, row in enumerate(x.rows) for v, entry in enumerate(row)
             if entry.prec < ctx.min_entry_order(u, v, level)]
    return max(w for w, _ in short), max(w - p for w, p in short)


class GradedEndo:
    """Image of X in P^r / P^(r+1), stored as the n x n pattern matrix of
    leading coefficients (entry (u,v) is the coefficient at the minimal
    order slot when the phase pattern allows it, else 0)."""

    __slots__ = ("pattern", "r", "ctx")

    def __init__(self, pattern, r, ctx):
        self.pattern = pattern
        self.r = r
        self.ctx = ctx

    def compose(self, other):
        """(self in degree r) o (other in degree s) -> degree r+s."""
        assert self.ctx.same_filtration(other.ctx)
        return GradedEndo(kmatmul(self.pattern, other.pattern), self.r + other.r, self.ctx)

    def is_zero(self):
        return all(is_zero(c) for row in self.pattern for c in row)

    def is_nilpotent(self):
        """Whether the pattern is nilpotent, decided as the slope descent
        decides it: by its kernel flag (linalg.kernel_flag_basis) on its
        integer numerators."""
        ring = ring_of(self.pattern)
        return kernel_flag_basis(ring, read_matrix(ring, self.pattern)[1]) is not None

    def __eq__(self, other):
        if not isinstance(other, GradedEndo):
            return NotImplemented
        return (self.r == other.r and self.ctx.same_filtration(other.ctx)
                and self.pattern == other.pattern)

    def __repr__(self):
        return "GradedEndo(r=%d, pattern=%r)" % (self.r, self.pattern)


def graded_component(x, ctx, r):
    """The image of x in P^r / P^(r+1) (requires x in P^r)."""
    if not in_filtration(x, ctx, r):
        raise NotInFiltration("matrix does not lie in P^%d" % r)
    e = ctx.period
    n = ctx.n
    pat = kzeros(n, n)
    for u in range(n):
        for v in range(n):
            rem = (r + ctx.phases[v] - ctx.phases[u]) % e
            if rem == 0:
                o = (r + ctx.phases[v] - ctx.phases[u]) // e
                entry = x.rows[u][v]
                if o >= entry.prec:
                    raise PrecisionError("graded coefficient at t^%d unknown" % o, needed=o + 1)
                pat[u][v] = entry.coeff_or_zero(o)
    return GradedEndo(pat, r, ctx)


def graded_monomials(ctx, r):
    """Monomial basis of P^r / P^(r+1): list of (u, v, order)."""
    e = ctx.period
    out = []
    for u in range(ctx.n):
        for v in range(ctx.n):
            val = r + ctx.phases[v] - ctx.phases[u]
            if val % e == 0:
                out.append((u, v, val // e))
    return out


def pattern_to_matrix(ctx, pattern, r):
    """Realize a graded pattern as the monomial representative in P^r."""
    n = ctx.n
    e = ctx.period
    rows = [[LaurentScalar.zero() for _ in range(n)] for _ in range(n)]
    for u in range(n):
        for v in range(n):
            c = pattern[u][v]
            if not is_zero(c):
                val = r + ctx.phases[v] - ctx.phases[u]
                assert val % e == 0, "pattern entry off the graded support"
                rows[u][v] = LaurentScalar.t_power(val // e, c)
    return LaurentMatrix(rows)


def in_filtration(x, ctx, r):
    """x in P^r, decided exactly (PrecisionError when undecidable): a
    known coefficient below P^r decides it whatever the windows say."""
    best, bound = fildeg_certified(x, ctx)
    if best < r:
        return False
    if bound < r:
        raise _undetermined(x, ctx, best, bound)
    return True
