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
                    covering moves are built once: one pair's interval
                    [j, i] only, or, for a sweep, the whole index set
                    once per call. This is the authoritative oracle the
                    other routes are checked against.
* ``mult_sum``      alternating, binomially weighted sum of Vandermonde
                    products over a box of offsets, built one coordinate
                    at a time from memoized prefix terms that are dropped
                    once two shifted values collide; a table sums each
                    class (i, s) once, with a prefix memo per cell.
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
from operator import le, mul

from .arith import _Frozen, _require_int, _set_field, binom, exact_div, factorial_superproduct
from .difference import _extension_plan, _half_minors, eval_poly
from .indices import GrassmannIndex, leq
from .matrices import _require_columns, determinant_bareiss, vandermonde

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
    the determinant family eval_poly at point i with shifts s_vector(i, j)."""
    return eval_poly(s_vector(i, j), i.entries)


def mult_rec(i: GrassmannIndex, j: GrassmannIndex) -> int:
    """Multiplicity by the defining recurrence.

    Value 1 at i == j; otherwise the sum over downward covering moves that
    stay above j, divided (exactly) by degree. The recurrence engine fills
    the interval [j, i] by rank, in lexicographic order: a covering move
    lowers one coordinate, so it always lands on a value filled earlier,
    and no recursion depth limit applies. Only [j, i] is built, never the
    whole index set; table sweeps run the engine on one lattice of the
    whole index set.
    """
    _require_pair(i, j)
    lattice = _lattice(j.entries, i.entries)
    values = [0] * len(lattice)
    _recurrence(lattice, j.entries, range(len(lattice)), values)
    return values[-1]


def _lattice(floor: tuple[int, ...], ceil: tuple[int, ...]) -> list:
    """The interval [floor, ceil] for the recurrence engine, as one
    (t, lower) per rank in lexicographic order of t: lower holds
    (q, t_q - 1, back) for each covering move down from t that stays in the
    interval, q the 0-based position it lowers and rank - back the rank it
    lands on.

    The tuples with one prefix ending in value e at position q form a
    block of size[q][e] ranks, which depends on (q, e) alone. The block of
    e - 1 is the tuples whose next entry is e, then the block of e in the
    same order, so a move lowering position q from e goes back size[q][e]
    ranks. size[q] holds e in [floor_q, ceil_q] only, so no table is wider
    than the interval. Built one coordinate at a time, as _up_set builds
    tuples, each prefix extending its moves alongside its tuple."""
    size = [dict.fromkeys(range(floor[-1], ceil[-1] + 1), 1)]
    for q in range(len(floor) - 2, -1, -1):
        after, row = size[0], {}
        count = sum(after.values())
        for e in range(floor[q], ceil[q] + 1):
            count -= after.get(e, 0)
            row[e] = count  # completions whose next entry exceeds e
        size.insert(0, row)
    first = size[0]
    level = [
        ((e,), ((0, e - 1, first[e]),) if e > floor[0] else ())
        for e in range(floor[0], ceil[0] + 1)
    ]
    for q in range(1, len(floor)):
        lo, hi, back = floor[q], ceil[q], size[q]
        level = [
            (t + (e,), lower + ((q, e - 1, back[e]),) if e > lo and e - 1 > t[-1] else lower)
            for t, lower in level for e in range(max(lo, t[-1] + 1), hi + 1)
        ]
    return level


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
            for q, dec, back in lower:
                if dec >= floor[q]:
                    total += values[r - back]
            values[r] = exact_div(total, divisor)
        else:
            values[r] = 1


def _up_set(floor: tuple[int, ...], ceil: tuple[int, ...], shifts: bool) -> list:
    """Strictly increasing tuples t with floor <= t <= ceil componentwise in
    lexicographic order, built one coordinate at a time; with shifts, as
    pairs (t, s_vector of t above floor), s read from a table of
    d - bisect_right(floor, v) per value v and extended alongside t."""
    if shifts:
        count = [len(floor) - bisect_right(floor, v) for v in range(ceil[-1] + 1)]
        level = [((e,), (count[e],)) for e in range(floor[0], ceil[0] + 1)]
        for lo, hi in zip(floor[1:], ceil[1:]):
            level = [
                (t + (e,), s + (count[e],)) for t, s in level for e in range(max(lo, t[-1] + 1), hi + 1)
            ]
        return level
    level = [(e,) for e in range(floor[0], ceil[0] + 1)]
    for lo, hi in zip(floor[1:], ceil[1:]):
        level = [t + (e,) for t in level for e in range(max(lo, t[-1] + 1), hi + 1)]
    return level


def alternating_vandermonde_sum(shifts: Sequence[int], point: Sequence[int]) -> int:
    """Alternating, binomially weighted sum of Vandermonde products over
    all offset vectors below shifts, divided exactly by 1! 2! ... (d-1)!.

    At an index pair's shifts and entries this is the multiplicity; the
    expression itself is defined for every integer point.
    """
    _require_columns(point, shifts)
    return _vandermonde_sum({}, tuple(shifts), tuple(point))


def _vandermonde_sum(memo: dict, shifts: tuple[int, ...], point: tuple[int, ...]) -> int:
    """The sum route's engine: alternating_vandermonde_sum on checked
    tuples, performing no validation.

    A term is the tuple of shifted values t_q + k_q so far with its signed
    weight times their Vandermonde product. The terms of each proper prefix
    are built from those of the prefix one shorter and kept in memo, keyed
    by (point prefix, shifts prefix); the last coordinate is only summed.
    """
    terms: list[tuple[tuple[int, ...], int]] = [((), 1)]
    for q in range(1, len(point)):
        key = (point[:q], shifts[:q])
        prefix = memo.get(key)
        if prefix is None:
            prefix = memo[key] = [
                (values + (y,), c) for values, y, c in _extend(terms, point[q - 1], shifts[q - 1])
            ]
        terms = prefix
    total = sum(c for _, _, c in _extend(terms, point[-1], shifts[-1]))
    return exact_div(total, factorial_superproduct(len(point)))


def _extend(terms: list, t: int, s: int) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """Each term (values, c) extended by y = t + k for k = 0..s, as
    (values, y, c'): c' is c times (-1)^k binom(s, k) times y - x for every
    x of values. A term with y among its values has product zero and is
    dropped."""
    for k in range(s + 1):
        y = t + k
        w = -binom(s, k) if k % 2 else binom(s, k)
        for values, c in terms:
            c *= w
            for x in values:
                if x == y:
                    break
                c *= y - x
            else:
                yield values, y, c


def mult_sum(i: GrassmannIndex, j: GrassmannIndex) -> int:
    """Multiplicity as the alternating Vandermonde sum."""
    return alternating_vandermonde_sum(s_vector(i, j), i.entries)


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
    covered pair, performing no validation."""
    return exact_div(vandermonde(entries), factorial_superproduct(len(entries)))


def frobenius_coordinates(partition: Sequence[int]) -> FrobeniusCoordinates:
    """Frobenius notation of a partition given as a weakly decreasing
    sequence of nonnegative integers (trailing zeros allowed).

    The rank is the number of diagonal cells of the diagram, alpha the arm
    lengths and beta the leg lengths of the diagonal hooks, the latter
    read off the conjugate partition.
    """
    parts = tuple(partition)
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
    return determinant_bareiss(rows)


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
) -> Iterator[tuple[list[int], list[list[int | None]]]]:
    """For each cell j of cells, given by its rank in I(d, n) in the
    lexicographic order enumerate_indices yields: the up-set {i >= f} of
    the least floor f that the routes have at j (see _floor) as increasing
    ranks, walked once by _up_set, and one column per route, aligned with
    those ranks. The pairs a route covers are the tail from its own
    floor's rank on, found by one bisection per cell and route: its column
    holds None before that rank and the route's value from it on, and no
    pair's scope is tested. A cell that no route covers is not walked and
    yields no rank. Every i is >= j by construction, so no route checks
    containment per pair and none builds an index. Each column is checked once as it is handed out: its
    least value must be a multiplicity, or InvariantError is raised.

    One lattice of I(d, n) and one rank map of its tuples are built per
    call, for every route. The determinant and the sum see a pair only
    through its class (i, s_vector(i, j)), which the walk yields. Each keeps
    its own values by class for this call and evaluates a class once: the
    determinant by mult_det's column split, with a half-minor memo per half
    for this call; the sum by its prefix-term engine, with a prefix memo
    per cell. The recurrence runs its engine on the lattice, with one value
    list by rank that each cell overwrites on the ranks of its up-set;
    product and weyman run their engines on the tail from their floor.
    """
    top = tuple(range(n - d + 1, n + 1))
    lattice = _lattice(tuple(range(1, d + 1)), top)
    rank, rec_values = {t: r for r, (t, _) in enumerate(lattice)}, [0] * len(lattice)
    h, left_plan, right_plan = _extension_plan(d)
    left_memo, right_memo, det_values, sum_values = {}, {}, {}, {}
    keyed = ROUTE_DETERMINANT in routes or ROUTE_SUM in routes

    def det(t: tuple[int, ...], s: tuple[int, ...]) -> int:
        left = _half_minors(left_memo, t[:h], s[:h], left_plan, d)
        right = _half_minors(right_memo, t[h:], s[h:], right_plan, d)
        return sum(map(mul, left, right))

    for c in cells:
        js = lattice[c][0]
        floors = [_floor(route, js) for route in routes]
        walk = _up_set(min(filter(None, floors)), top, keyed) if any(floors) else []
        ups = [t for t, _ in walk] if keyed else walk
        ranks = [rank[t] for t in ups]
        columns = []
        for route, floor in zip(routes, floors):
            skip = bisect_left(ranks, rank.get(floor, len(lattice)))
            if route == ROUTE_DETERMINANT:
                column = _by_class(det_values, walk, det)
            elif route == ROUTE_RECURRENCE:
                _recurrence(lattice, js, ranks, rec_values)
                column = [rec_values[r] for r in ranks]
            elif route == ROUTE_SUM:
                memo: dict = {}
                column = _by_class(sum_values, walk, lambda t, s: _vandermonde_sum(memo, s, t))
            elif route in (ROUTE_PRODUCT, ROUTE_WEYMAN):
                engine = _product if route == ROUTE_PRODUCT else _weyman
                column = [None] * skip + [engine(t) for t in ups[skip:]]
            else:
                raise ValueError(f"unknown route {route!r}")
            _require_multiplicity(min(column[skip:], default=1))
            columns.append(column)
        yield ranks, columns


def _by_class(values: dict, walk: list, engine) -> list[int]:
    """Values of walk's (t, s) pairs, engine(t, s) stored on a miss; a value is never 0."""
    get = values.get
    return [get(key) or values.setdefault(key, engine(*key)) for key in walk]
