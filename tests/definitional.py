"""A definitional witness: finite commutative rings built from their addition
and multiplication tables alone, and their graphs built pair by pair.

The package's ring classes and row builders are checked against these.  A
TableRing knows nothing but its two tables: its zero and one are the
identities found in them, a unit is an element with an inverse, and each
graph is a literal loop over the pairs x < y that tests the class of x + y.
Nothing here reads ringsombor.rings.

Elements are numbered 0..order-1 in the order each constructor lists them.
A polynomial ring lists its coefficient tuples in itertools.product order,
constant coefficient first and most significant, which is the package's
indexing of F_p[x]/(x^k).
"""

from itertools import product

from ringsombor.graphs import Graph


class TableRing:
    """The ring on 0..order-1 whose sums and products are add[x][y] and
    mul[x][y]."""

    def __init__(self, name: str, add: list[list[int]], mul: list[list[int]]):
        self.name, self.add, self.mul = name, add, mul
        self.order = n = len(add)
        identity = list(range(n))
        self.zero = add.index(identity)
        self.one = mul.index(identity)
        self.units = [self.one in row for row in mul]
        self.unit_mask = sum(1 << x for x in range(n) if self.units[x])
        self.unit_count = sum(self.units)
        self.two_is_unit = self.units[add[self.one][self.one]]
        nonunits = [x for x in range(n) if not self.units[x]]
        # local: the non-units are an ideal, so closed under addition
        self.is_local = not any(self.units[add[x][y]] for x in nonunits for y in nonunits)

    def graph(self, want_unit: bool) -> Graph:
        """The unit graph (x ~ y iff x + y is a unit) or, with want_unit
        False, the total graph (x ~ y iff x + y is not a unit)."""
        n, add, units = self.order, self.add, self.units
        rows = [0] * n
        for x in range(n):
            for y in range(x + 1, n):
                if units[add[x][y]] == want_unit:
                    rows[x] |= 1 << y
                    rows[y] |= 1 << x
        return Graph(n, rows)


def _table_ring(name, elements, add, mul) -> TableRing:
    index = {e: i for i, e in enumerate(elements)}
    return TableRing(
        name,
        [[index[add(x, y)] for y in elements] for x in elements],
        [[index[mul(x, y)] for y in elements] for x in elements],
    )


def zn(n: int) -> TableRing:
    """The integers modulo n, in residue order."""
    r = range(n)
    add = [[(x + y) % n for y in r] for x in r]
    return TableRing(f"Z_{n}", add, [[x * y % n for y in r] for x in r])


def _coefficientwise_add(base: TableRing):
    return lambda a, b: tuple(base.add[s][t] for s, t in zip(a, b))


def quotient(base: TableRing, monic: tuple[int, ...], name: str) -> TableRing:
    """base[x]/(f) for the monic f = x^k + monic[k-1] x^(k-1) + ... +
    monic[0], its coefficients given as elements of base.  GF(q) is Z_p
    over an irreducible f, R[x]/(x^k) is every monic[i] base.zero."""
    k, badd, bmul = len(monic), base.add, base.mul
    # x^k = -monic[0] - monic[1] x - ... in the quotient
    low = [badd[c].index(base.zero) for c in monic]

    def mul(a, b):
        out = [base.zero] * (2 * k - 1)
        for i, s in enumerate(a):
            row = bmul[s]
            for j, t in enumerate(b, i):
                out[j] = badd[out[j]][row[t]]
        for top in range(2 * k - 2, k - 1, -1):  # c x^top = c x^(top-k) x^k
            row = bmul[out.pop()]
            for i, r in enumerate(low, top - k):
                out[i] = badd[out[i]][row[r]]
        return tuple(out)

    elements = list(product(range(base.order), repeat=k))
    return _table_ring(name, elements, _coefficientwise_add(base), mul)


def truncated(base: TableRing, k: int) -> TableRing:
    """base[x]/(x^k)."""
    return quotient(base, (base.zero,) * k, f"{base.name}[x]/(x^{k})")


def square_zero(base: TableRing) -> TableRing:
    """base[x, y]/(x, y)^2: a + bx + cy, where x^2 = xy = y^2 = 0."""
    badd, bmul = base.add, base.mul

    def mul(u, v):
        # (a + bx + cy)(d + ex + fy) = ad + (ae + bd) x + (af + cd) y
        (a, b, c), (d, e, f) = u, v
        return bmul[a][d], badd[bmul[a][e]][bmul[b][d]], badd[bmul[a][f]][bmul[c][d]]

    elements = list(product(range(base.order), repeat=3))
    return _table_ring(f"{base.name}[x,y]/(x,y)^2", elements, _coefficientwise_add(base), mul)


def field(p: int, monic: tuple[int, ...]) -> TableRing:
    """GF(p^k) as Z_p[x]/(f), f = x^k + ... + monic[0] irreducible mod p."""
    return quotient(zn(p), monic, f"F_{p ** len(monic)}")
