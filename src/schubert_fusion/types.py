"""Run-length types of weight vectors and their Poincare polynomials.

A composition {i_1, ..., i_s} of n records the block sizes of equal entries
in a weakly increasing weight vector.  Compositions of a fixed n are
partially ordered by refinement: c' >= c when the blocks of c are obtained
by merging consecutive blocks of c'.  The unique maximal type is all ones,
the unique minimal one is {n}.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import accumulate, groupby
from operator import sub


DEFAULT_DIMENSION_CAP = 100_000
RELATION_PARTICLE_CAP = 1_000_000


class DimensionCapError(RuntimeError):
    """Raised when a computation would exceed one of its budgets.

    Each budget is read at call time.  `_check_size` charges three:
    DEFAULT_DIMENSION_CAP (span dimensions, fusion-ring classes and
    coefficient updates, the entries of closed-form results), the `cap` of a
    peeling route (the product of the weights it peels) and
    RELATION_PARTICLE_CAP (the particles of the relation series).
    `fock.WEDGE_BLOCK_BUDGET` bounds the blocks a wedge model interns and
    the monomials a factor basis meets, every monomial of its images
    counted, and the CLI refuses a result with an integer too long to
    print.
    """


def _check_size(size: int, what: str, detail: str = "", cap: int | None = None,
                particles: bool = False) -> None:
    """Raise DimensionCapError once the charge `size` passes its cap.

    The cap is read here, at call time: RELATION_PARTICLE_CAP for a charge
    in particles, else the caller's own `cap`, else DEFAULT_DIMENSION_CAP.
    The message is "<what> would exceed the cap of <cap><detail>".
    """
    if particles:
        cap, detail = RELATION_PARTICLE_CAP, " particles"
    elif cap is None:
        cap = DEFAULT_DIMENSION_CAP
    if size > cap:
        raise DimensionCapError(f"{what} would exceed the cap of {cap}{detail}")


def check_int(value, what: str, low: int | None = None,
              high: int | None = None) -> int:
    """`value` itself, once it is an int in low..high, for the bounds given.

    This is the one integer rule of the package: a bool or a float is
    refused like any other non-int.  It is public so that the CLI checks
    its arguments by it under their own names.  `high` is only given with
    `low`.
    Raises ValueError "<what> must be <rule>, got <value!r>".
    """
    if (type(value) is int and (low is None or low <= value)
            and (high is None or value <= high)):
        return value
    if high is not None:
        rule = f"an integer in {low}..{high}"
    elif low is None:
        rule = "an integer"
    else:
        rule = {0: "a nonnegative integer", 1: "a positive integer"}.get(
            low, f"an integer >= {low}")
    raise ValueError(f"{what} must be {rule}, got {value!r}")


class _Validated:
    """Base of the records whose __new__ validates its fields.

    namedtuple's `_make`, which `_replace` calls, builds the tuple without
    __new__; routing it through the constructor keeps the checks.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Composition(_Validated, namedtuple("Composition", "parts")):
    """A composition of n: `parts` is the tuple of its positive block sizes."""

    __slots__ = ()

    def __new__(cls, parts):
        parts = tuple(parts)
        if not parts:
            raise ValueError("composition must have at least one part")
        for p in parts:
            check_int(p, "part", 1)
        return super().__new__(cls, parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def s(self) -> int:
        return len(self.parts)

    def __str__(self):
        return "{" + ",".join(str(p) for p in self.parts) + "}"


def compositions(n: int):
    """All compositions of n, ordered by their binary break masks.

    n is checked at the call, before the first composition is asked for.
    """
    check_int(n, "n", 1)

    def generate():
        for mask in range(1 << (n - 1)):
            parts = []
            size = 1
            for bit in range(n - 1):
                if mask >> bit & 1:
                    parts.append(size)
                    size = 1
                else:
                    size += 1
            parts.append(size)
            yield Composition(tuple(parts))

    return generate()


def weakly_increasing(values, minimum=None, allow_empty=False) -> tuple:
    """Validate a weakly increasing integer vector and return it as a tuple.

    Entries must be ints, at least `minimum` when one is given, by
    `check_int`; the empty vector passes only with `allow_empty`.  Raises
    ValueError otherwise.
    """
    values = tuple(values)
    if not values and not allow_empty:
        raise ValueError("vector must be nonempty")
    for a in values:
        check_int(a, "entry", minimum)
    if any(a > b for a, b in zip(values, values[1:])):
        raise ValueError(f"vector must be weakly increasing, got {values}")
    return values


def type_of(values) -> Composition:
    """Run-length type of a weakly increasing integer vector."""
    values = weakly_increasing(values)
    return Composition(tuple(sum(1 for _ in run) for _, run in groupby(values)))


def leq(lo: Composition, hi: Composition) -> bool:
    """True iff lo <= hi, i.e. hi refines lo.

    Each part of lo must be a sum of consecutive parts of hi, in order.
    """
    if lo.n != hi.n:
        raise ValueError(f"compositions of different n: {lo} vs {hi}")
    hi_iter = iter(hi.parts)
    for target in lo.parts:
        acc = 0
        while acc < target:
            acc += next(hi_iter)
        if acc != target:
            return False
    return True


def leq_by_vectors(lo: Composition, hi: Composition) -> bool:
    """The order `leq` read off the canonical weight vectors.

    hi refines lo iff every adjacent equality in hi's canonical vector is
    also an equality in lo's; an independent route to `leq`.
    """
    if lo.n != hi.n:
        raise ValueError(f"compositions of different n: {lo} vs {hi}")
    av, bv = canonical_A(hi), canonical_A(lo)
    return all(bv[i] == bv[i + 1]
               for i in range(len(av) - 1) if av[i] == av[i + 1])


def canonical_A(comp: Composition) -> tuple:
    """Smallest weight vector of the given type: i_1 twos, i_2 threes, ..."""
    _check_size(comp.n, f"weight vector of {comp.n} entries")
    out = []
    for block, size in enumerate(comp.parts, start=2):
        out.extend([block] * size)
    return tuple(out)


class PoincarePolynomial(_Validated,
                         namedtuple("PoincarePolynomial", "even_coeffs")):
    """Polynomial in q with support on even powers; coeff j is the q^{2j} term."""

    __slots__ = ()

    def __new__(cls, even_coeffs):
        even_coeffs = tuple(even_coeffs)
        if not even_coeffs:
            raise ValueError("a polynomial needs at least the constant term")
        for c in even_coeffs:
            check_int(c, "coefficient", 0)
        if len(even_coeffs) > 1 and even_coeffs[-1] == 0:
            raise ValueError("trailing zero coefficients are not canonical")
        return super().__new__(cls, even_coeffs)

    @property
    def degree(self) -> int:
        return 2 * (len(self.even_coeffs) - 1)

    def evaluate(self, x: int) -> int:
        return sum(c * x ** (2 * j) for j, c in enumerate(self.even_coeffs))

    def __mul__(self, other: "PoincarePolynomial") -> "PoincarePolynomial":
        """The product, by Kronecker substitution.

        Each factor is packed into one int, coefficient j in field j, and
        the two ints are multiplied once.  A coefficient of the product is
        a sum of at most min(len(a), len(b)) terms, each at most max(a) *
        max(b), so a field that holds that bound takes no carry.
        """
        a, b = self.even_coeffs, other.even_coeffs
        bound = min(len(a), len(b)) * max(a) * max(b)
        if not bound:  # a zero factor
            return PoincarePolynomial((0,))
        size = -(-bound.bit_length() // 8)  # whole bytes
        data = (_pack(a, size) * _pack(b, size)).to_bytes(
            (len(a) + len(b) - 1) * size, "little")
        return PoincarePolynomial(int.from_bytes(data[i:i + size], "little")
                                  for i in range(0, len(data), size))


def _pack(coeffs, size) -> int:
    """The int whose `size`-byte fields, lowest first, hold `coeffs`."""
    return int.from_bytes(b"".join(c.to_bytes(size, "little") for c in coeffs),
                          "little")


def _run_power(part: int, k: int) -> list:
    """Coefficients of (1 + x + ... + x^part)^k, by the power recurrence.

    For P = f^k with f = 1 + ... + x^part, f P' = k f' P gives a_0 = 1 and
    j a_j = sum over m = 1 .. min(part, j) of ((k + 1) m - j) a_{j-m}, that
    is (k + 1) s1 - j s0 with the window sums s0 = sum of a_{j-m} and
    s1 = sum of m a_{j-m}.  Sliding both windows from j - 1 to j takes a
    few big-int steps, so the k part + 1 coefficients cost O(k part) of
    them, where k passes of prefix sums cost O(k^2 part).
    """
    coeffs = [1]
    s0 = s1 = 0
    for j in range(1, k * part + 1):
        # a_{j-1} enters the windows at m = 1, every other term moves up
        # one m, and a_{j-1-part} leaves from m = part + 1
        enters = coeffs[j - 1]
        leaves = coeffs[j - 1 - part] if j > part else 0
        s1 += s0 + enters - (part + 1) * leaves
        s0 += enters - leaves
        coeffs.append(((k + 1) * s1 - j * s0) // j)
    return coeffs


def poincare(comp: Composition) -> PoincarePolynomial:
    """Closed-form Poincare polynomial: product over parts of 1 + q^2 + ... + q^{2i}.

    The factors commute, so the k parts equal to the most frequent part
    are one factor (1 + ... + q^{2i})^k, computed by `_run_power`.  Each
    other factor costs one pass over the running product: coefficient j of
    the product with 1 + ... + q^{2i} is the sum of the coefficients
    j - i .. j, a difference of two prefix sums.  Passes over a long run
    of equal parts would cost time cubic in its length, since each pass
    also makes the coefficients longer.
    """
    _check_size(comp.n + 1, f"Poincare polynomial of {comp.n + 1} coefficients")
    run, k = Counter(comp.parts).most_common(1)[0]
    coeffs = _run_power(run, k)
    for part in comp.parts:
        if part == run:
            continue
        # sums[part + m] is the sum of the first m coefficients, and the
        # part + 1 zeros before it stand for the empty sums
        sums = [0] * (part + 1) + list(accumulate(coeffs + [0] * part))
        coeffs = list(map(sub, sums[part + 1:], sums))
    return PoincarePolynomial(tuple(coeffs))


def poincare_recursive_single(n: int) -> PoincarePolynomial:
    """One-part Poincare polynomial via the orbit-cell recursion.

    P(n) = q^{2n} + q^{2n-2} + P(n-2), with P(0) = 1 and P(1) = 1 + q^2:
    each recursion step adds one open cell of dimension n and one of
    dimension n - 1 over the boundary copy two steps down.  The steps run
    upward from the base of n's parity, so long inputs need no deep stack.
    """
    check_int(n, "n", 0)
    _check_size(n + 1, f"Poincare polynomial of {n + 1} coefficients")
    coeffs = [1] * (n % 2 + 1)  # P(0) or P(1)
    for k in range(n % 2 + 2, n + 1, 2):
        coeffs += [0, 0]
        coeffs[k] += 1
        coeffs[k - 1] += 1
    return PoincarePolynomial(tuple(coeffs))

