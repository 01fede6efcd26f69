"""The replaced Teichmueller basis inverse, kept as the test oracle of
padic.ZqRing._teich_inverse.

invert_basis runs Gauss-Jordan elimination mod p^level in pure Python on
the deg x deg matrix whose columns are the coordinates of ring.teich_basis,
taking each pivot as the first entry of its column that is a unit and
inverting it by pow(..., -1, p^level).  ZqRing._teich_inverse inverts the
matrix mod p with gf.mat_inverse and lifts the result by Newton's
X <- X (2 - A X) instead, the rule ZqRing.inv follows for one element."""


def invert_basis(ring):
    """The inverse mod p^level of the matrix with columns teich_basis[j],
    as a list of rows of Python ints."""
    basis = ring.teich_basis
    n, mod, p = ring.deg, ring.modulus, ring.p
    a = [[basis[j].vec[i] % mod for j in range(n)] for i in range(n)]
    inv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if a[r][c] % p != 0)
        a[c], a[piv] = a[piv], a[c]
        inv[c], inv[piv] = inv[piv], inv[c]
        s = pow(a[c][c], -1, mod)
        a[c] = [(s * x) % mod for x in a[c]]
        inv[c] = [(s * x) % mod for x in inv[c]]
        for r in range(n):
            if r != c and a[r][c]:
                t = a[r][c]
                a[r] = [(x - t * y) % mod for x, y in zip(a[r], a[c])]
                inv[r] = [(x - t * y) % mod for x, y in zip(inv[r], inv[c])]
    return inv
