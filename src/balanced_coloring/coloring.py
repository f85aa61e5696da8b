"""Red/blue colorings: balance verification, edge statistics, counting
identities, the forced-color constraints that seed the solver, and the one
lazy chain of generic certificates (degree parities, the leaf bound).

A coloring is one bit per vertex (set = red). The per-vertex residual is the
signed count red-minus-blue over the relevant neighborhood, closed for cnb
and open for nb; a coloring is balanced exactly when every residual is zero.
Residuals stay signed so search code can prune on bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import add, sub
from typing import Iterable, Iterator, Literal, Sequence, TypeVar

from .graphs import Graph, bits

Mode = Literal["cnb", "nb"]
_R = TypeVar("_R")
# the digits of bin() as the byte values 0 and 1
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
# a vertex's own term in its closed residual, by color (0 = blue, 1 = red)
_SIGN = (-1, 1)


class SizeMismatchError(ValueError):
    """Coloring length does not match the graph it is paired with."""


class InvalidColoringError(ValueError):
    """A coloring that was required to verify does not."""


class UnbalancedColoringError(InvalidColoringError):
    """A coloring that was required to have |R| = |B| does not."""


class IdentityViolationError(RuntimeError):
    """A counting identity failed on a verified coloring (a code bug)."""


def check_mode(mode: str) -> Mode:
    if mode not in ("cnb", "nb"):
        raise ValueError(f"mode must be 'cnb' or 'nb', got {mode!r}")
    return mode  # type: ignore[return-value]


@dataclass(frozen=True, slots=True)
class Coloring:
    """Red/blue assignment for vertices 0..n-1; bit v set means v is red."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if self.bits >> self.n:
            raise ValueError("color bits set beyond the last vertex")

    @classmethod
    def _trusted(cls, n: int, bits: int) -> Coloring:
        """A coloring whose bits are known to lie below bit n, skipping the
        checks of ``__post_init__``. Enumeration uses it once it has checked
        every mask; ``Coloring`` itself always checks."""
        c = object.__new__(cls)
        _set_n(c, n)
        _set_bits(c, bits)
        return c

    @classmethod
    def from_text(cls, text: str) -> Coloring:
        """Parse an 'R'/'B' string indexed by vertex id."""
        mask = 0
        for v, ch in enumerate(text):
            if ch == "R":
                mask |= 1 << v
            elif ch != "B":
                raise ValueError(f"character {ch!r} at position {v}: want 'R' or 'B'")
        return cls(len(text), mask)

    @classmethod
    def from_red(cls, n: int, reds: Iterable[int]) -> Coloring:
        mask = 0
        for v in reds:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside 0..{n - 1}")
            mask |= 1 << v
        return cls(n, mask)

    def to_text(self) -> str:
        return "".join("R" if (self.bits >> v) & 1 else "B" for v in range(self.n))

    def is_red(self, v: int) -> bool:
        return bool((self.bits >> v) & 1)

    def flip(self) -> Coloring:
        return Coloring(self.n, self.bits ^ ((1 << self.n) - 1))

    @property
    def red_count(self) -> int:
        return self.bits.bit_count()

    @property
    def blue_count(self) -> int:
        return self.n - self.bits.bit_count()

    def red_vertices(self) -> tuple[int, ...]:
        return tuple(bits(self.bits))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Coloring({self.to_text()!r})"


# Coloring._trusted fills the slots through their descriptors, past the
# frozen __setattr__; an object.__setattr__ call per field costs more than
# the checks it skips. _record does the same for the frozen records without
# slots that the hot paths build: solve's SolveStats and SolveOutcome, the
# peel's AdditionStep and TreeBuildScript, report's BalanceReport, and
# leaf_force's ForcedConstraints.
_set_n = Coloring.n.__set__  # type: ignore[attr-defined]
_set_bits = Coloring.bits.__set__  # type: ignore[attr-defined]


def _record(cls: type[_R], **fields: object) -> _R:
    """cls(**fields) for a frozen dataclass cls without slots, filled by one
    update of its dict; fields must name every field, defaulted ones too."""
    rec = object.__new__(cls)
    rec.__dict__.update(fields)
    return rec


def _check_pair(g: Graph, c: Coloring) -> None:
    if g.n != c.n:
        raise SizeMismatchError(f"graph has {g.n} vertices, coloring has {c.n}")


def _balance_rows(g: Graph, mode: Mode) -> Sequence[int]:
    """The rows of the balance matrix M as bitsets: v's closed neighborhood
    in cnb (M = A + I), its open one in nb (M = A). A coloring is balanced
    exactly when every row holds as many red vertices as blue ones."""
    return [a | (1 << v) for v, a in enumerate(g.adj)] if mode == "cnb" else g.adj


def residuals(g: Graph, c: Coloring, mode: Mode) -> tuple[int, ...]:
    """Per-vertex signed red-minus-blue count over the mode's neighborhood."""
    _check_pair(g, c)
    check_mode(mode)
    red = c.bits
    return tuple(2 * (row & red).bit_count() - row.bit_count()
                 for row in _balance_rows(g, mode))


def first_unbalanced(g: Graph, c: Coloring, mode: Mode) -> int | None:
    """Lowest vertex whose neighborhood is unbalanced, or None if balanced."""
    _check_pair(g, c)
    check_mode(mode)
    red = c.bits
    for v, row in enumerate(_balance_rows(g, mode)):
        if 2 * (row & red).bit_count() != row.bit_count():
            return v
    return None


def verify_cnb(g: Graph, c: Coloring) -> bool:
    """True iff every closed neighborhood has equal red and blue counts."""
    return first_unbalanced(g, c, "cnb") is None


def verify_nb(g: Graph, c: Coloring) -> bool:
    """True iff every open neighborhood has equal red and blue counts."""
    return first_unbalanced(g, c, "nb") is None


def verify(g: Graph, c: Coloring, mode: Mode) -> bool:
    return first_unbalanced(g, c, mode) is None


def require_valid(g: Graph, c: Coloring, mode: Mode, what: str) -> None:
    """Reject a caller-supplied coloring that does not verify under mode."""
    _require_balanced(first_unbalanced(g, c, mode), mode, what)


def _require_balanced(v: int | None, mode: Mode, what: str) -> None:
    """require_valid given the lowest unbalanced vertex v, or None."""
    if v is not None:
        raise InvalidColoringError(
            f"{what} must be {mode}-valid; neighborhood of vertex {v} is unbalanced"
        )


def checked_output(g: Graph, c: Coloring, mode: Mode, what: str) -> Coloring:
    """Return c after re-verifying it; the library's own output failing
    verification is a bug, reported as RuntimeError rather than ValueError."""
    if first_unbalanced(g, c, mode) is not None:  # pragma: no cover
        raise RuntimeError(f"internal error: {what} failed {mode} verification")
    return c


# ---------------------------------------------------------------------------
# Balance reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BalanceReport:
    """Exact per-coloring statistics.

    rr, bb, and rb count edges whose endpoints are both red, both blue, and
    mixed; the residual tuples hold the signed red-minus-blue count of each
    vertex's closed and open neighborhood.
    """

    red_count: int
    blue_count: int
    rr: int
    bb: int
    rb: int
    red_degree_sum: int
    blue_degree_sum: int
    closed_residuals: tuple[int, ...]
    open_residuals: tuple[int, ...]

    def first_violation(self, mode: Mode) -> int | None:
        """Lowest vertex whose neighborhood is unbalanced under mode (its
        residual is not zero), or None."""
        res = self.closed_residuals if mode == "cnb" else self.open_residuals
        return next((v for v, x in enumerate(res) if x), None) if any(res) else None

    def as_dict(self) -> dict:
        return {
            "red_count": self.red_count,
            "blue_count": self.blue_count,
            "rr": self.rr,
            "bb": self.bb,
            "rb": self.rb,
            "red_degree_sum": self.red_degree_sum,
            "blue_degree_sum": self.blue_degree_sum,
            "closed_residuals": list(self.closed_residuals),
            "open_residuals": list(self.open_residuals),
        }


def report(g: Graph, c: Coloring) -> BalanceReport:
    """The statistics of c on g, reading each row once (``_tally``)."""
    return _tally(g, c)[0]


def _tally(g: Graph, c: Coloring) -> tuple[BalanceReport, list[int], bytes]:
    """The report, the degree sequence and the colors (1 = red, one byte per
    vertex) from two bit_counts per row: v's degree d and red neighbor count
    r. v's open residual is 2r - d; its closed one adds 1 for red and -1 for
    blue. Over the red vertices, the r sum to 2rr and the d to the red degree
    sum; red-blue edges are the red degree sum less 2rr, and the blue
    degree sum counts each of them once and each blue-blue edge twice."""
    _check_pair(g, c)
    red = c.bits
    degs = list(map(int.bit_count, g.adj))
    reds = [(row & red).bit_count() for row in g.adj]
    colors = bin(red | 1 << g.n)[:2:-1].encode().translate(_BIT_VALUES)  # bit 0 first
    open_residuals = tuple(map(sub, map(add, reds, reds), degs))
    red_deg = sum(compress(degs, colors))
    rr2 = sum(compress(reds, colors))
    blue_deg = sum(degs) - red_deg
    rb = red_deg - rr2
    rep = _record(
        BalanceReport,
        red_count=c.red_count,
        blue_count=c.blue_count,
        rr=rr2 // 2,
        bb=(blue_deg - rb) // 2,
        rb=rb,
        red_degree_sum=red_deg,
        blue_degree_sum=blue_deg,
        closed_residuals=tuple(map(add, open_residuals, map(_SIGN.__getitem__, colors))),
        open_residuals=open_residuals,
    )
    return rep, degs, colors


# ---------------------------------------------------------------------------
# Counting identities
# ---------------------------------------------------------------------------

NOT_APPLICABLE = None

IdentityResult = tuple[str, "bool | None"]


def check_identities(
    g: Graph, c: Coloring, mode: Mode, strict: bool = False
) -> list[IdentityResult]:
    """Evaluate every counting identity that a valid coloring must satisfy.

    The coloring must already verify under ``mode``; identities conditioned
    on regularity report None (n/a) on irregular graphs. Every boolean entry
    must be True for a correct implementation, so ``strict=True`` (used by
    the test harness) raises IdentityViolationError on any False.
    """
    rep, degs, colors = _tally(g, c)
    check_mode(mode)
    _require_balanced(rep.first_violation(mode), mode, "coloring")
    n = g.n
    m = (rep.red_degree_sum + rep.blue_degree_sum) // 2
    # the common degree when g is regular (0 when it has no vertices)
    r = max(degs, default=0) if len(set(degs)) <= 1 else None
    results: list[IdentityResult] = []

    if mode == "cnb":
        results.append(
            (
                "degree-identity",
                rep.red_count + rep.red_degree_sum
                == rep.blue_count + rep.blue_degree_sum,
            )
        )
        if rep.red_count == rep.blue_count:
            results.append(("rr-eq-bb-when-balanced", rep.rr == rep.bb))
        else:
            results.append(("rr-eq-bb-when-balanced", NOT_APPLICABLE))
        results.append(
            (
                "vertex-count-parity",
                n % 4 == 0 if m % 2 == 0 else n % 4 == 2,
            )
        )
        residues = [d % 4 for d in degs]
        red_deg3 = list(compress(residues, colors)).count(3)
        blue_deg3 = residues.count(3) - red_deg3
        deg1 = residues.count(1)
        results.append(
            (
                "mod4-degree-counts",
                red_deg3 % 2 == 0 and blue_deg3 % 2 == 0 and deg1 % 2 == 0,
            )
        )
        if r is not None:
            ok = (
                2 * rep.red_count == n
                and 2 * rep.blue_count == n
                and 4 * rep.rb == (r + 1) * n
                and 8 * rep.rr == (r - 1) * n
                and 8 * rep.bb == (r - 1) * n
            )
            results.append(("regular-edge-counts", ok))
            results.append(("regular-order-residue", n % 4 == 0 or r % 4 == 1))
        else:
            results.append(("regular-edge-counts", NOT_APPLICABLE))
            results.append(("regular-order-residue", NOT_APPLICABLE))
    else:
        results.append(
            ("degree-sums-equal", rep.red_degree_sum == rep.blue_degree_sum)
        )
        results.append(("rr-eq-bb", rep.rr == rep.bb))
        # the regular counting argument needs r >= 1: on edgeless graphs any
        # coloring balances trivially and the color classes are unconstrained
        if r is not None and r > 0:
            ok = (
                2 * rep.red_count == n
                and 4 * rep.rb == r * n
                and 8 * rep.rr == r * n
                and 8 * rep.bb == r * n
            )
            results.append(("regular-edge-counts", ok))
        else:
            results.append(("regular-edge-counts", NOT_APPLICABLE))

    if strict:
        for name, holds in results:
            if holds is False:
                raise IdentityViolationError(
                    f"identity {name} failed on a verified {mode} coloring"
                )
    return results


# ---------------------------------------------------------------------------
# Forced-color constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ForcedConstraints:
    """Binary color constraints every valid coloring must satisfy, plus an
    infeasibility reason when no valid coloring can exist at all."""

    same: tuple[tuple[int, int], ...]
    opposite: tuple[tuple[int, int], ...]
    infeasible: str | None = None


def _twin_groups(rows: Sequence[int]) -> list[list[int]]:
    """Vertices grouped by equal open neighborhoods (cnb) or equal closed
    neighborhoods (nb), given the balance rows, each group ascending,
    groups in order of their lowest member. Twins must share a color: their
    balance rows differ only in the twins' own entries, so each row keys
    its group with its own entry flipped."""
    groups: dict[int, list[int]] = {}
    for v, row in enumerate(rows):
        groups.setdefault(row ^ (1 << v), []).append(v)
    return list(groups.values())


def leaf_force(g: Graph, mode: Mode) -> ForcedConstraints:
    """The forced colors: twin vertices (``_twin_groups``) share a color, as
    consecutive ``same`` pairs, and in cnb each leaf takes the color opposite
    its unique neighbor, as ``opposite`` pairs (leaf, neighbor); ``_Search``
    builds its classes from both. A vertex carrying more than (deg+1)/2
    leaves makes cnb infeasible outright (``leaf_overload``); no other
    contradiction can arise: each leaf group links to one twinless neighbor."""
    check_mode(mode)
    same = tuple(
        (a, b) for members in _twin_groups(_balance_rows(g, mode)) if len(members) > 1
        for a, b in zip(members, members[1:])
    )
    if mode == "nb":
        return _record(ForcedConstraints, same=same, opposite=(), infeasible=None)
    degs = g.degrees()
    opposite = tuple((v, row.bit_length() - 1) for v, row in enumerate(g.adj) if degs[v] == 1)
    return _record(ForcedConstraints, same=same, opposite=opposite,
                   infeasible=leaf_overload(g, degs))


def prefilter_reason(g: Graph, mode: Mode) -> str | None:
    """Cheap certificates that no balanced coloring exists, or None.

    cnb needs every degree odd (hence an even order) and ties the edge-count
    parity to the order mod 4; nb needs every degree even.
    """
    if mode == "cnb" and g.n % 2 == 1:
        return "odd vertex count"
    return _degree_parity(g.n, g.degrees(), mode)


def _degree_parity(n: int, degs: Sequence[int], mode: Mode) -> str | None:
    """prefilter_reason past the odd-order test, given the degree sequence."""
    if mode == "nb":
        return next((f"vertex {v} has odd degree {d}" for v, d in enumerate(degs) if d % 2), None)
    for v, d in enumerate(degs):
        if d % 2 == 0:
            return f"vertex {v} has even degree {d}"
    m = sum(degs) // 2
    if m % 2 == 0 and n % 4 != 0:
        return f"{m} edges (even) with order {n} not divisible by 4"
    if m % 2 == 1 and n % 4 != 2:
        return f"{m} edges (odd) with order {n} not 2 mod 4"
    return None


def _certificates(g: Graph, mode: Mode) -> Iterator[tuple[str, str]]:
    """Every generic proof that g has no balanced coloring, as (theorem,
    reason) pairs, lazily and cheapest first: prefilter_reason's
    (``degree-parity``; an odd cnb order needs no degrees), then in cnb
    leaf_overload's (``leaf-bound``), both from one degree pass."""
    odd = mode == "cnb" and g.n % 2 == 1
    if odd:
        yield "degree-parity", "odd vertex count"
    degs = g.degrees()
    why = None if odd else _degree_parity(g.n, degs, mode)
    if why is not None:
        yield "degree-parity", why
    if mode == "cnb":
        why = leaf_overload(g, degs)
        if why is not None:
            yield "leaf-bound", why


def leaf_overload(g: Graph, degs: Sequence[int]) -> str | None:
    """The reason no cnb coloring exists when some vertex carries more than
    (deg+1)/2 leaves (its leaves all take the color opposite its own),
    naming the lowest such vertex, or None. degs is g's degree sequence."""
    leaves = sum(1 << v for v, d in enumerate(degs) if d == 1)
    if not leaves:
        return None
    for v, row in enumerate(g.adj):
        leaf_nbrs = (row & leaves).bit_count()
        if 2 * leaf_nbrs > degs[v] + 1:
            return (
                f"vertex {v} carries {leaf_nbrs} leaves, "
                f"more than (deg+1)/2 = {(degs[v] + 1) / 2:g}"
            )
    return None
