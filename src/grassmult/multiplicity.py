"""The multiplicity of a point on a Schubert variety, by five independent
computation routes that must agree.

Indices come in pairs j <= i: the variety is labelled i, the point sits in
the open cell labelled j, and the multiplicity of that point is a positive
integer, computed here in exact integer arithmetic throughout.

Routes:

* ``mult_det``      signed determinant of a matrix of binomial
                    coefficients with column shifts ``s_vector``.
                    Production route: one pair by one Bareiss, a table
                    once per class (i, s) by half minors grown one
                    Laplace step per column, memoized by column prefix.
* ``mult_rec``      the defining recurrence, summing over downward
                    covering moves and dividing by ``degree``; filled by
                    rank in lexicographic order over a lattice whose
                    covering moves (lower_neighbor_entries) are built
                    once: one pair's interval [j, i] only, or, for a
                    sweep that asks for it, the whole index set once per
                    call. This is the authoritative oracle the other
                    routes are checked against.
* ``mult_sum``      alternating, binomially weighted sum of Vandermonde
                    products over a box of offsets, built one coordinate
                    at a time from the last, holding one level of terms,
                    each dropped once two shifted values collide; a table
                    sums each class (i, s) once.
* ``mult_product``  closed product form, applicable only to separated
                    pairs (j_d <= i_1).
* ``mult_weyman``   determinant in the Frobenius coordinates of the
                    partition cut out by i; defined at the base cell
                    j = (1, ..., d) only.

The sweep under the table, verify and bench commands (_sweep) names an
index by its rank in I(d, n), in the lexicographic order that
enumerate_indices yields: it takes cells and hands out up-sets as ranks,
and builds no index object.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterator, Sequence
from itertools import combinations
from math import comb
from operator import getitem, le, mul

from .arith import _Frozen, _Memo, _require_int, _require_ordered, _set_field, _superproduct, binom, exact_div
from .difference import _eval_poly, _extension_plan, _half_minors
from .indices import GrassmannIndex, leq, lower_neighbor_entries
from .matrices import _bareiss, _require_columns, _vandermonde

__all__ = [
    "ROUTE_DETERMINANT",
    "ROUTE_RECURRENCE",
    "ROUTE_SUM",
    "ROUTE_PRODUCT",
    "ROUTE_WEYMAN",
    "ROUTES",
    "RouteInapplicableError",
    "InvariantError",
    "FrobeniusCoordinates",
    "s_vector",
    "degree",
    "mult_det",
    "mult_rec",
    "mult_sum",
    "mult_product",
    "mult_weyman",
    "frobenius_coordinates",
    "alternating_vandermonde_sum",
]

ROUTE_DETERMINANT = "determinant"
ROUTE_RECURRENCE = "recurrence"
ROUTE_SUM = "sum"
ROUTE_PRODUCT = "product"
ROUTE_WEYMAN = "weyman"
ROUTES = (ROUTE_DETERMINANT, ROUTE_RECURRENCE, ROUTE_SUM, ROUTE_PRODUCT, ROUTE_WEYMAN)


class RouteInapplicableError(ValueError):
    """The requested formula does not cover the given pair of indices."""


class InvariantError(RuntimeError):
    """A computed result broke an invariant of the package: a bug, never
    bad input."""


class FrobeniusCoordinates(_Frozen):
    """Partition in Frobenius notation: arm and leg lengths of the diagonal
    hooks, each strictly decreasing; rank 0 encodes the empty partition."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: tuple[int, ...], beta: tuple[int, ...]) -> None:
        _set_field(self, "alpha", alpha)
        _set_field(self, "beta", beta)

    @property
    def rank(self) -> int:
        return len(self.alpha)


def _require_multiplicity(value: int) -> None:
    """The one check of a computed value: a multiplicity is >= 1."""
    if value < 1:
        raise InvariantError(f"multiplicity must be >= 1, got {value}")


def _require_pair(i: GrassmannIndex, j: GrassmannIndex) -> None:
    if not leq(j, i):
        raise ValueError(
            "cell not contained in variety (requires j <= i componentwise)"
        )


def s_vector(i: GrassmannIndex, j: GrassmannIndex) -> tuple[int, ...]:
    """Column shifts of the determinant route: position q counts the
    entries of j strictly larger than i_q.

    Equals (d-1, ..., 1, 0) at i == j and the zero vector exactly when the
    pair is separated (j_d <= i_1).
    """
    _require_pair(i, j)
    return tuple(j.d - bisect_right(j.entries, iq) for iq in i.entries)


def degree(i: GrassmannIndex, j: GrassmannIndex) -> int:
    """d minus the number of entries of i that also occur in j; the divisor
    of the recurrence. Zero exactly when i == j."""
    _require_pair(i, j)
    return _degree(i.entries, set(j.entries))


def _degree(entries: tuple[int, ...], floor_set: set[int]) -> int:
    """degree on the entries of i and the set of entries of j."""
    return len(entries) - len(floor_set.intersection(entries))


def mult_det(i: GrassmannIndex, j: GrassmannIndex) -> int:
    """Multiplicity as a signed binomial determinant (production route):
    the determinant family eval_poly at point i with shifts s_vector(i, j),
    whose entries need no second check."""
    return _eval_poly(s_vector(i, j), i.entries)


def mult_rec(i: GrassmannIndex, j: GrassmannIndex) -> int:
    """Multiplicity by the defining recurrence.

    Value 1 at i == j; otherwise the sum over downward covering moves that
    stay above j, divided (exactly) by degree. The recurrence engine fills
    the lattice of the interval [j, i] by rank, in lexicographic order: a
    covering move lowers one coordinate, so it always lands on a value
    filled earlier, and no recursion depth limit applies. Only [j, i] is
    built, never the whole index set.
    """
    _require_pair(i, j)
    lattice = _lattice(j.entries, i.entries)
    values = [0] * len(lattice)
    _recurrence(lattice, j.entries, range(len(lattice)), values)
    return values[-1]


def _lattice(floor: tuple[int, ...], ceil: tuple[int, ...]) -> list:
    """The interval [floor, ceil] for the recurrence engine, as one
    (t, lower) per rank in lexicographic order of t: lower holds
    (q, t_q - 1, k) for each covering move down from t that stays in the
    interval (lower_neighbor_entries above floor), q the 0-based position
    it lowers and k the rank of the tuple it lands on. The tuples are built
    one coordinate at a time, which keeps them in lexicographic order, and
    numbered by one dict, read only here."""
    level = [(e,) for e in range(floor[0], ceil[0] + 1)]
    for lo, hi in zip(floor[1:], ceil[1:]):
        level = [t + (e,) for t in level for e in range(max(lo, t[-1] + 1), hi + 1)]
    rank = {t: r for r, t in enumerate(level)}
    return [
        (t, [(q - 1, k[q - 1], rank[k]) for q, k in lower_neighbor_entries(t, floor)])
        for t in level
    ]


def _recurrence(lattice: list, floor: tuple[int, ...], ranks, values: list) -> None:
    """The recurrence's engine, performing no validation: set values[r] for
    each rank r of ranks in order, from the values its covering moves down
    reach while staying above floor, which is one comparison: the lowered
    entry is at least floor's at that position. ranks is increasing, its
    tuples are >= floor, and each such move lands on a rank earlier in
    ranks."""
    floor_set = set(floor)
    for r in ranks:
        t, lower = lattice[r]
        divisor = _degree(t, floor_set)
        if divisor:
            total = 0
            for q, dec, k in lower:
                if dec >= floor[q]:
                    total += values[k]
            values[r] = exact_div(total, divisor)
        else:
            values[r] = 1


def _weights(d: int, n: int) -> list[list[int]]:
    """Rank weights of I(d, n): W[q][e] for 0-based position q and value
    e = 0..n, such that the rank of t in the lexicographic order that
    enumerate_indices yields is the sum of W[q][t_q]. The tuples below t
    that first differ at q have a value v in (t_{q-1}, t_q) there, and
    sum_v C(n - v, d - q - 1) telescopes into C(n - t_{q-1}, d - q) minus
    C(n - t_q + 1, d - q): each part belongs to one coordinate."""
    return [[(q == 0) * comb(n, d) + (q < d - 1) * comb(n - e, d - q - 1) - comb(n - e + 1, d - q)
             for e in range(n + 1)] for q in range(d)]


def _walk(weights: list, floor: tuple[int, ...], keyed: bool) -> list[int]:
    """The t of I(d, n) with floor <= t componentwise, for strictly
    increasing floor, as increasing int keys: the rank of t (weights from
    _weights(d, n), whose rows of n + 1 entries give n), or when keyed that
    rank times d**d plus sum_q s_q d**q, s the s_vector of t above floor.
    A digit fits, as s_q <= d - 1 - q. Each key is a sum of one table entry
    per coordinate, K_q[e] = W_q[e] d**d + (d - bisect_right(floor, e)) d**q
    for e from floor_q to the top's n - d + q + 1 (0-based q), so the walk
    builds suffixes from the last coordinate to the first, grouped by first
    value: level q adds K_q[e] to the suffixes whose first value exceeds e,
    a tail of the level before, in one list comprehension per (q, e), which
    leaves every level in lexicographic order. It makes no value: _sweep
    checks a formula value once, when its class is evaluated, and the
    recurrence column by its least value."""
    d, n, keys, head = len(floor), len(weights[0]) - 1, [0], {}  # the empty suffix, above every value
    base = d**d if keyed else 1
    count = [d - bisect_right(floor, v) for v in range(n + 1)] if keyed else [0] * (n + 1)
    for q in range(d - 1, -1, -1):
        table, level, at, place = weights[q], [], {}, d**q
        for e in range(floor[q], n - d + q + 2):
            at[e], k = len(level), table[e] * base + count[e] * place
            level += [k + key for key in keys[head.get(e + 1, 0):]]
        keys, head = level, at
    return keys


def alternating_vandermonde_sum(shifts: Sequence[int], point: Sequence[int]) -> int:
    """Alternating, binomially weighted sum of Vandermonde products over
    all offset vectors below shifts, divided exactly by 1! 2! ... (d-1)!.

    At an index pair's shifts and entries this is the multiplicity; the
    expression itself is defined for every integer point.
    """
    point, shifts = _require_columns(point, shifts)
    return _vandermonde_sum(shifts, point)


def _vandermonde_sum(shifts: tuple[int, ...], point: tuple[int, ...]) -> int:
    """The sum route's engine: alternating_vandermonde_sum on checked
    tuples, performing no validation.

    A term is the tuple of shifted values t_q + k_q so far with its signed
    weight times their Vandermonde product. The coordinates are taken from
    the last to the first: the terms of coordinates q..d are built from
    those of q+1..d, and only the current level is held. s_vector is
    non-increasing and ends in 0, so the levels carry the smallest shifts
    and the first coordinate, whose shift is the largest, is only summed.
    """
    terms: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for q in range(len(point) - 1, 0, -1):
        terms = [(values + (y,), c) for values, y, c in _extend(terms, point[q], shifts[q])]
    total = sum(c for _, _, c in _extend(terms, point[0], shifts[0]))
    return exact_div(total, _superproduct(len(point)))


def _extend(terms: list, t: int, s: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Each term (values, c) extended by y = t + k for k = 0..s, as
    (values, y, c'): c' is c times (-1)^k binom(s, k) times x - y for every
    x of values, which belong to the coordinates after y's. A term with y
    among its values has product zero and is dropped."""
    for k in range(s + 1):
        y = t + k
        w = -binom(s, k) if k % 2 else binom(s, k)
        for values, c in terms:
            c *= w
            for x in values:
                if x == y:
                    break
                c *= x - y
            else:
                yield values, y, c


def mult_sum(i: GrassmannIndex, j: GrassmannIndex) -> int:
    """Multiplicity as the alternating Vandermonde sum, by its engine on a
    validated index's entries and their s_vector."""
    return _vandermonde_sum(s_vector(i, j), i.entries)


def mult_product(i: GrassmannIndex, j: GrassmannIndex) -> int:
    """Multiplicity for separated pairs: the Vandermonde product of i
    divided by 1! 2! ... (d-1)!.

    Raises RouteInapplicableError unless j_d <= i_1.
    """
    _require_pair(i, j)
    if refusal := _refusal(ROUTE_PRODUCT, i, j):
        raise RouteInapplicableError(refusal)
    return _product(i.entries)


def _product(entries: tuple[int, ...]) -> int:
    """The product route's engine: mult_product on the entries of i for a
    covered pair, which checks no scope and no input: the entries come from
    a validated index or from the sweep's walk."""
    return exact_div(_vandermonde(entries), _superproduct(len(entries)))


def frobenius_coordinates(partition: Sequence[int]) -> FrobeniusCoordinates:
    """Frobenius notation of a partition given as a weakly decreasing
    sequence of nonnegative integers (trailing zeros allowed).

    The rank is the number of diagonal cells of the diagram, alpha the arm
    lengths and beta the leg lengths of the diagonal hooks, the latter
    read off the conjugate partition.
    """
    parts = _require_ordered(partition, "partition")
    for pos, part in enumerate(parts):
        _require_int(part, "partition entry", pos + 1)
        if part < 0:
            raise ValueError(f"partition entries must be nonnegative, got {part}")
        if pos and part > parts[pos - 1]:
            raise ValueError("partition entries must be weakly decreasing")
    return FrobeniusCoordinates(*_frobenius(parts))


def _frobenius(parts: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """frobenius_coordinates' (alpha, beta) on a partition known to be
    valid, performing no validation."""
    rank = sum(1 for pos, part in enumerate(parts, start=1) if part >= pos)
    alpha = tuple(parts[pos - 1] - pos for pos in range(1, rank + 1))
    beta = tuple(
        sum(1 for part in parts if part >= pos) - pos for pos in range(1, rank + 1)
    )
    return alpha, beta


def mult_weyman(i: GrassmannIndex) -> int:
    """Multiplicity at the base cell j = (1, ..., d), as the determinant of
    binom(alpha_p + beta_q, alpha_p) over the Frobenius coordinates of the
    partition (i_d - d, ..., i_2 - 2, i_1 - 1). The empty partition (that
    is, i equal to the base cell) gives 1."""
    return _weyman(i.entries)


def _weyman(entries: tuple[int, ...]) -> int:
    """The weyman route's engine: mult_weyman on the entries of i."""
    lam = [entries[pos] - (pos + 1) for pos in range(len(entries))][::-1]
    alpha, beta = _frobenius(lam)
    if not alpha:
        return 1
    rows = [[binom(a + b, a) for b in beta] for a in alpha]
    return _bareiss(rows)


# ---------------------------------------------------------------------------
# route table: the scope and the call of every route, and the sweep over
# all pairs, stated once for all callers (the CLI commands and
# mult_product's guard)


def _floor(route: str, j_entries: tuple[int, ...]) -> tuple[int, ...] | None:
    """The least i that route covers at the cell j, given by its entries,
    or None when route covers no i at j.

    The i that route covers at j are exactly the up-set {i >= floor}, and
    in lexicographic order they are the tail of j's up-set from floor on.
    Determinant, recurrence and sum cover every i >= j. Product needs
    j_d <= i_1, and its floor is (j_d, j_d + 1, ..., j_d + d - 1): an
    increasing t is >= it exactly when t_1 >= j_d, and those t come after
    every t with t_1 < j_d. Weyman's floor is j at the base cell
    (1, ..., d), the one increasing positive j with j_d == d, and None
    elsewhere."""
    if route == ROUTE_PRODUCT:
        return tuple(range(j_entries[-1], j_entries[-1] + len(j_entries)))
    return None if route == ROUTE_WEYMAN and j_entries[-1] != len(j_entries) else j_entries


def _refusal(route: str, i: GrassmannIndex, j: GrassmannIndex) -> str | None:
    """Why route does not cover the pair j <= i, or None when it does."""
    floor = _floor(route, j.entries)
    if floor is not None and all(map(le, floor, i.entries)):
        return None
    if route == ROUTE_PRODUCT:
        return (
            f"route 'product' needs j_d <= i_1, "
            f"got j_d={j.entries[-1]} > i_1={i.entries[0]}"
        )
    return f"route 'weyman' is defined only for j = (1..d), got j={j}"


def _evaluate(route: str, i: GrassmannIndex, j: GrassmannIndex) -> int:
    """Value of route on a pair it covers. Route functions are looked up
    by module name at each call, never held, so a wrapper set on this
    module sees every call."""
    if route == ROUTE_DETERMINANT:
        return mult_det(i, j)
    if route == ROUTE_RECURRENCE:
        return mult_rec(i, j)
    if route == ROUTE_SUM:
        return mult_sum(i, j)
    if route == ROUTE_PRODUCT:
        return mult_product(i, j)
    if route == ROUTE_WEYMAN:
        return mult_weyman(i)
    raise ValueError(f"unknown route {route!r}")


def _sweep(
    d: int, n: int, cells: Sequence[int], routes: Sequence[str]
) -> Iterator[tuple[list[int], list[list[int]]]]:
    """For each cell j of cells, given by its rank in I(d, n) in the
    lexicographic order enumerate_indices yields: the up-set {i >= f} of
    the least floor f that the routes have at j (see _floor) as increasing
    ranks, walked once by _walk, and one column per route. The pairs a
    route covers are the tail of those ranks from its own floor's rank on,
    found by one bisection per cell and route, and its column holds the
    route's values on that tail only: it is aligned with
    ranks[len(ranks) - len(column):], and no pair's scope is tested. A
    cell that no route covers is not walked and yields no rank. Every i is
    >= j by construction, so no route checks containment per pair and none
    builds an index. Every value handed out is checked to be a
    multiplicity, or InvariantError is raised: a formula route's value
    once, when its class is evaluated, and the recurrence column by its
    least value. routes names routes of ROUTES, each once, as every caller
    has checked: no name is checked here.

    One list of the tuples of I(d, n) by rank and one table of rank weights
    (_weights) are built per call; a floor's rank is the sum of its
    weights. A pair's value depends on its class (i, s_vector(i, j)) alone,
    and the walk's int key codes that class as rank(i) * d**d plus the
    base-d digits of s when the determinant or the sum is asked for; else
    it is the bare rank, which decodes to s = 0. That is all product and
    weyman read: product's pairs are separated (s = 0), and weyman's value
    depends on i alone. Every route but the recurrence keeps its own values
    by key for this call, in a _Memo that evaluates a class once, on its
    first lookup (s_q <= d - 1 - q leaves at most d! codes, each decoded
    once): the determinant by mult_det's column split, with a half-minor
    memo per half for this call; the sum by its own engine, which keeps
    nothing between classes; product and weyman by their engines on i, once
    per i. Only when the recurrence is asked for is the lattice of I(d, n)
    built, once; its engine fills one value list by rank that each cell
    overwrites on the ranks of its up-set. Every column is read off its
    route's values, by key or by rank, in one expression.
    """
    tuples = list(combinations(range(1, n + 1), d))
    if ROUTE_RECURRENCE in routes:
        lattice, rec_values = _lattice(tuples[0], tuples[-1]), [0] * len(tuples)
    weights = _weights(d, n)
    h, left_plan, right_plan = _extension_plan(d)
    left_memo, right_memo = {}, {}
    keyed = ROUTE_DETERMINANT in routes or ROUTE_SUM in routes
    base = d**d if keyed else 1
    codes = _Memo(lambda code: tuple(code // d**q % d for q in range(d)))  # a shift code's s

    def det(t: tuple[int, ...], s: tuple[int, ...]) -> int:
        left = _half_minors(left_memo, t[:h], s[:h], left_plan, d)
        right = _half_minors(right_memo, t[h:], s[h:], right_plan, d)
        return sum(map(mul, left, right))

    def checked(engine) -> _Memo:
        """engine's values by class key for this call, each made from the
        decoded (t, s) on its key's first lookup and checked then, once."""
        def make(key: int) -> int:
            r, code = divmod(key, base)
            value = engine(tuples[r], codes[code])
            _require_multiplicity(value)
            return value
        return _Memo(make)

    tables = {
        route: checked(engine) for route, engine in (
            (ROUTE_DETERMINANT, det), (ROUTE_SUM, lambda t, s: _vandermonde_sum(s, t)),
            (ROUTE_PRODUCT, lambda t, s: _product(t)), (ROUTE_WEYMAN, lambda t, s: _weyman(t)),
        )
    }
    for c in cells:
        js = tuples[c]
        floors = [_floor(route, js) for route in routes]
        keys = _walk(weights, min(filter(None, floors)), keyed) if any(floors) else []
        ranks = [key // base for key in keys] if keyed else keys
        columns = []
        for route, floor in zip(routes, floors):
            if route == ROUTE_RECURRENCE:  # its floor is j, the walk's
                _recurrence(lattice, js, ranks, rec_values)
                column = list(map(rec_values.__getitem__, ranks))
                _require_multiplicity(min(column))
            else:
                past = floor is None or floor[-1] > n  # no rank: the column is empty
                skip = len(ranks) if past else bisect_left(ranks, sum(map(getitem, weights, floor)))
                column = list(map(tables[route].__getitem__, keys[skip:] if skip else keys))
            columns.append(column)
        yield ranks, columns
