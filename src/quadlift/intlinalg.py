"""Exact integer linear algebra: Smith normal form and solving with it.

Everything runs over Python integers, which are arbitrary precision, so the
classical coefficient explosion during elimination cannot overflow.  The
Smith reduction pivots on a nonzero entry of minimal absolute value (lowest
row-major index on ties), a standard heuristic that keeps coefficients small
and makes every decomposition deterministic.
"""

from .record import Record


class IntMatrix:
    """A dense matrix of Python integers."""

    __slots__ = ("rows", "nrows", "ncols")

    def __init__(self, rows):
        rows = [list(r) for r in rows]
        self.nrows = len(rows)
        self.ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != self.ncols:
                raise ValueError("ragged rows")
            for x in r:
                if not isinstance(x, int):
                    raise TypeError("non-integer entry %r" % (x,))
        self.rows = rows

    def mul_vec(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("vector length %d != %d columns"
                             % (len(vec), self.ncols))
        return [sum(a * x for a, x in zip(row, vec)) for row in self.rows]

    def __repr__(self):
        return "IntMatrix(%r)" % (self.rows,)


class SmithDecomposition(Record):
    """U * A * V = D with U, V unimodular and D diagonal, d1 | d2 | ..."""

    __slots__ = ("U", "D", "V", "invariant_factors")

    @property
    def rank(self):
        return len(self.invariant_factors)


def _min_pivot(d, t, m, n):
    best = None
    best_abs = None
    for i in range(t, m):
        row = d[i]
        for j in range(t, n):
            x = row[j]
            if x:
                a = x if x > 0 else -x
                if best_abs is None or a < best_abs:
                    best, best_abs = (i, j), a
                    if a == 1:
                        return best
    return best


def smith_normal_form(a):
    """Smith decomposition of an IntMatrix (or plain list of rows)."""
    if not isinstance(a, IntMatrix):
        a = IntMatrix(a)
    m, n = a.nrows, a.ncols
    d = [row[:] for row in a.rows]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    t = 0
    while t < min(m, n):
        piv = _min_pivot(d, t, m, n)
        if piv is None:
            break
        i, j = piv
        if i != t:
            d[t], d[i] = d[i], d[t]
            u[t], u[i] = u[i], u[t]
        if j != t:
            for row in d:
                row[t], row[j] = row[j], row[t]
            for row in v:
                row[t], row[j] = row[j], row[t]
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]

        pivot = d[t][t]
        dirty = False
        for i in range(t + 1, m):
            if d[i][t]:
                q = d[i][t] // pivot
                if q:
                    d[i] = [x - q * y for x, y in zip(d[i], d[t])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[t])]
                if d[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if d[t][j]:
                q = d[t][j] // pivot
                if q:
                    for row in d:
                        row[j] -= q * row[t]
                    for row in v:
                        row[j] -= q * row[t]
                if d[t][j]:
                    dirty = True
        if dirty:
            continue

        # diagonal block is clean; force the divisibility chain
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if d[i][j] % pivot:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            d[t] = [x + y for x, y in zip(d[t], d[offender])]
            u[t] = [x + y for x, y in zip(u[t], u[offender])]
            continue
        t += 1

    factors = tuple(d[k][k] for k in range(min(m, n)) if d[k][k])
    return SmithDecomposition(IntMatrix(u), IntMatrix(d), IntMatrix(v), factors)


class SolveResult(Record):
    """Outcome of an integer linear solve.

    ``reason`` is None on success, otherwise "no rational solution" (the
    system is inconsistent over the rationals) or "no integer solution"
    (rationally solvable, but no integral point exists).
    """

    __slots__ = ("solution", "reason")

    def __init__(self, solution, reason=None):
        super().__init__(solution, reason)

    @property
    def ok(self):
        return self.solution is not None


def solve_with_smith(dec, b):
    """Solve A x = b given a Smith decomposition of A."""
    m, n = dec.D.nrows, dec.D.ncols
    if len(b) != m:
        raise ValueError("right-hand side length %d != %d rows" % (len(b), m))
    ub = dec.U.mul_vec(b)
    r = dec.rank
    for i in range(r, m):
        if ub[i]:
            return SolveResult(None, "no rational solution")
    y = [0] * n
    for i in range(r):
        q, rem = divmod(ub[i], dec.D.rows[i][i])
        if rem:
            return SolveResult(None, "no integer solution")
        y[i] = q
    return SolveResult(dec.V.mul_vec(y))
