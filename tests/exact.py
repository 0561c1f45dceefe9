"""The paper's formulas in exact arithmetic, the oracle of tests/test_kernels.py: fractions.Fraction on the
kernels' own float inputs (each a rational number), and decimal at 60 significant digits for the square roots
of the closed form and the quaternion, returned as Fractions.  Complex numbers are (re, im) pairs.  Each formula
is written as the paper and the docstrings state it, not in the kernels' operation order.
"""

from decimal import Context, Decimal, localcontext
from fractions import Fraction

G = (1, -1, -1, -1)  # the Minkowski metric, diagonal
CONTEXT = Context(prec=60)


def exact(x):
    """A float, or nested lists and tuples of them, as Fractions."""
    return [exact(v) for v in x] if isinstance(x, (list, tuple)) else Fraction(x)


def minkowski(a, b):
    return sum(g * x * y for g, x, y in zip(G, a, b))


def mueller_rows(intensity, stokes):
    """The reconstruction: column 0 of M is F/I, column j is (X - F)/I for X in (A, B, C)."""
    i, (f, *xs) = Fraction(intensity), exact(stokes)
    return [[f[r] / i] + [(x[r] - f[r]) / i for x in xs] for r in range(4)]


def residuals(intensity, stokes):
    """g(F, F) - I^2 and g(X, X) for X in (A, B, C), and max |r| / I^2."""
    i2, r = Fraction(intensity) ** 2, [minkowski(s, s) for s in exact(stokes)]
    r[0] -= i2
    return r, max(map(abs, r)) / i2


def outputs(rows, intensity):
    """The noiseless outputs M @ p of the probes (I, 0, 0, 0), (I, I, 0, 0), (I, 0, I, 0), (I, 0, 0, I)."""
    m, i = exact(rows), Fraction(intensity)
    return [[i * row[0] + (i * row[j] if j else 0) for row in m] for j in range(4)]


def metric_deviation(m):
    """max |(M^T g M - g)[i, j]| over every i, j."""
    c = list(zip(*m))
    return max(abs(minkowski(c[i], c[j]) - (G[i] if i == j else 0)) for i in range(4) for j in range(4))


def det(m):
    """The determinant by Laplace expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j] * det([row[:j] + row[j + 1:] for row in m[1:]]) for j in range(len(m)))


def lorentz(k):
    """L(k) entry by entry by the formula of lorentz_from_k's docstring, for k given as four complex numbers;
    i*(kvec x conj(kvec)) = 2*(x x y) for kvec = x + i*y."""
    x, y = exact([z.real for z in k]), exact([z.imag for z in k])
    re = [[x[a] * x[b] + y[a] * y[b] for b in range(4)] for a in range(4)]  # Re(ka*conj(kb))
    im = [y[0] * x[j] - x[0] * y[j] for j in range(4)]  # Im(k0*conj(kj))
    cross = [0] + [2 * (x[j] * y[l] - x[l] * y[j]) for j, l in ((2, 3), (3, 1), (1, 2))]
    a, b = re[0][0], re[1][1] + re[2][2] + re[3][3]
    return [[a + b] + [2 * im[j] + cross[j] for j in (1, 2, 3)]] + [
        [2 * im[i] - cross[i]] + [(a - b) * (i == j) + 2 * re[i][j]
                                  - sum((i - j) * (j - l) * (l - i) // 2 * 2 * re[0][l] for l in (1, 2, 3))
                                  for j in (1, 2, 3)] for i in (1, 2, 3)]


def norm(k):
    """k0^2 + kvec.kvec, without conjugation, as (re, im)."""
    x, y = exact([z.real for z in k]), exact([z.imag for z in k])
    return sum(a * a - b * b for a, b in zip(x, y)), sum(2 * a * b for a, b in zip(x, y))


def _dec(x):
    return Decimal(x.numerator) / Decimal(x.denominator)


def closed_form(rows):
    """(delta, M, N, q) of the reconstructed rows by the paper's closed form: trace = 4*delta^2,
    4*delta*M_j = -(r_j0 + r_0j), 4*delta*N = (r32 - r23, r13 - r31, r21 - r12) and q = (M - i*N)/delta."""
    r = exact(rows)
    trace = r[0][0] + r[1][1] + r[2][2] + r[3][3]
    m = [-(r[j][0] + r[0][j]) for j in (1, 2, 3)]
    n = [r[3][2] - r[2][3], r[1][3] - r[3][1], r[2][1] - r[1][2]]
    with localcontext(CONTEXT):
        four_delta = 2 * _dec(trace).sqrt()
        return (Fraction(four_delta / 4), [Fraction(_dec(x) / four_delta) for x in m],
                [Fraction(_dec(x) / four_delta) for x in n], [(x / trace, -y / trace) for x, y in zip(m, n)])


def spinor(delta, mvec, nvec):
    """k = +-(delta, N + i*M) / sqrt(delta^2 + (N + i*M).(N + i*M)), the principal root, with the sign that
    canonical_spinor_sign keeps: the first nonzero of (Re k0, Im k0, Re k1, ...) positive."""
    delta, mvec, nvec = exact([delta, mvec, nvec])
    re = delta * delta + sum(b * b - a * a for a, b in zip(mvec, nvec))
    im = 2 * sum(a * b for a, b in zip(mvec, nvec))
    with localcontext(CONTEXT):
        size = _dec(re * re + im * im).sqrt()  # |root|^2
        # the principal root a + ib; max() keeps a size rounded just below |re| from a negative square root
        a, b = [(max(x, Decimal(0)) / 2).sqrt() for x in (size + _dec(re), size - _dec(re))]
        b = b.copy_sign(_dec(im))
        k = [(Fraction((x * a + y * b) / size), Fraction((y * a - x * b) / size))  # (x + iy) * conj(root) / |root|^2
             for x, y in [(_dec(delta), 0)] + [(_dec(n), _dec(m)) for m, n in zip(mvec, nvec)]]
    return k if next((part > 0 for z in k for part in z if part), True) else [(-x, -y) for x, y in k]


def quaternion(rows):
    """The unit quaternion of a 3x3 rotation: 2*n0 = sqrt(trace + 1), and the axis part from the
    antisymmetric part, (r21 - r12, r02 - r20, r10 - r01) / (2*sqrt(trace + 1))."""
    r = exact(rows)
    with localcontext(CONTEXT):
        s = _dec(r[0][0] + r[1][1] + r[2][2] + 1).sqrt()
        return [Fraction(s / 2)] + [Fraction(_dec(d) / (2 * s)) for d in (
            r[2][1] - r[1][2], r[0][2] - r[2][0], r[1][0] - r[0][1])]
