"""Equation families a x + b y + c z = d and the invariants T and T*.

A family is identified with a point set in the projective plane via the
scaling equivalence of (a, b, c).  Each equation carries three attribute
values

    alpha = a / c,   beta = b / c,   gamma = a / b,

and the three coordinate planes correspond to attribute pairs:
plane z=1 uses (alpha, beta), plane x=1 uses (gamma, alpha), plane y=1
uses (gamma, beta).  T is a distinct-rows-distinct-columns subset, i.e. a
maximum bipartite matching over one attribute pair; T* asks every chosen
point to own a unique value of at least one of the three attributes (the
three planes give the same T* because the attribute triple is shared).
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .errors import (
    BadParameter,
    BudgetExceeded,
    InvalidOrder,
    ProportionalEquations,
    ZeroCoefficient,
)
from .field import PrimeField, multiplicative_subgroup

Plane = Literal["x", "y", "z"]
PLANES: tuple[Plane, ...] = ("x", "y", "z")

_EXACT_TSTAR_BUDGET = 24


@dataclass(frozen=True)
class AffineEquation:
    """a x + b y + c z = d with nonzero a, b, c."""

    a: int
    b: int
    c: int
    d: int = 0


@dataclass(frozen=True)
class ProjectivePoint:
    """Canonical representative (a, b, 1) of a coefficient triple."""

    a: int
    b: int


def canonicalize(fld: PrimeField, eq: AffineEquation) -> ProjectivePoint:
    """Scale (a, b, c) to the plane z = 1; proportional triples coincide."""
    p = fld.p
    a, b, c = eq.a % p, eq.b % p, eq.c % p
    if a == 0 or b == 0 or c == 0:
        raise ZeroCoefficient(f"coefficients must be nonzero mod {p}: {eq}")
    cinv = fld.inverse(c)
    return ProjectivePoint(a * cinv % p, b * cinv % p)


@dataclass(frozen=True)
class EquationFamily:
    """Equations keyed by their coefficient ratio (a : b : c) alone.

    Two equations with proportional coefficients are rejected whatever
    their d, so x + y + z = 0 and x + y + z = 1 cannot share a family: T,
    T* and the plane coordinates see only the projective point (a : b : c).
    """

    field: PrimeField
    equations: tuple[AffineEquation, ...]

    def __post_init__(self) -> None:
        pts = [canonicalize(self.field, eq) for eq in self.equations]
        seen: dict[ProjectivePoint, int] = {}
        for i, pt in enumerate(pts):
            if pt in seen:
                raise ProportionalEquations(
                    f"equations {seen[pt]} and {i} have proportional coefficients"
                )
            seen[pt] = i
        object.__setattr__(self, "_points", tuple(pts))

    @property
    def points(self) -> tuple[ProjectivePoint, ...]:
        return self._points  # type: ignore[attr-defined]

    @property
    def p(self) -> int:
        return self.field.p

    def __len__(self) -> int:
        return len(self.equations)

    def attributes(self, index: int) -> tuple[int, int, int]:
        """(alpha, beta, gamma) = (a/c, b/c, a/b) for one equation."""
        pt = self.points[index]
        gamma = pt.a * self.field.inverse(pt.b) % self.p
        return pt.a, pt.b, gamma

    def plane_coordinates(self, index: int, plane: Plane) -> tuple[int, int]:
        """Non-fixed coordinates of the point normalized into a plane."""
        alpha, beta, gamma = self.attributes(index)
        inv = self.field.inverse
        if plane == "z":
            return alpha, beta
        if plane == "x":  # (1, b/a, c/a)
            return inv(gamma), inv(alpha)
        return gamma, inv(beta)  # plane y: (a/b, 1, c/b)


@dataclass(frozen=True)
class WitnessSubset:
    plane: Plane
    indices: tuple[int, ...]
    kind: Literal["T", "Tstar"]


@dataclass(frozen=True)
class InvariantResult:
    value: int
    witness: WitnessSubset


def verify_witness(family: EquationFamily, w: WitnessSubset) -> bool:
    """Independent re-check of a witness against its own invariant."""
    if len(set(w.indices)) != len(w.indices):
        return False
    if w.kind == "T":
        coords = [family.plane_coordinates(i, w.plane) for i in w.indices]
        firsts = [c[0] for c in coords]
        seconds = [c[1] for c in coords]
        return len(set(firsts)) == len(firsts) and len(set(seconds)) == len(seconds)
    attrs = [family.attributes(i) for i in w.indices]
    return _tstar_valid(attrs)


def _tstar_valid(attrs: Sequence[tuple[int, int, int]]) -> bool:
    counts = [Counter(t[k] for t in attrs) for k in range(3)]
    return all(any(counts[k][t[k]] == 1 for k in range(3)) for t in attrs)


class _HopcroftKarp:
    """Maximum bipartite matching; adjacency is index -> (row, col)."""

    INF = float("inf")

    def __init__(self, edges: Sequence[tuple[int, int]]):
        self.rows = sorted({r for r, _ in edges})
        self.adj: dict[int, list[int]] = {r: [] for r in self.rows}
        for r, c in edges:
            self.adj[r].append(c)
        self.pair_row: dict[int, int] = {}
        self.pair_col: dict[int, int] = {}

    def _bfs(self) -> bool:
        dist = self.dist = {}
        queue = deque()
        for r in self.rows:
            if r not in self.pair_row:
                dist[r] = 0
                queue.append(r)
        found = False
        while queue:
            r = queue.popleft()
            for c in self.adj[r]:
                nxt = self.pair_col.get(c)
                if nxt is None:
                    found = True
                elif nxt not in dist:
                    dist[nxt] = dist[r] + 1
                    queue.append(nxt)
        return found

    def _dfs(self, r: int) -> bool:
        for c in self.adj[r]:
            nxt = self.pair_col.get(c)
            if nxt is None or (
                self.dist.get(nxt) == self.dist[r] + 1 and self._dfs(nxt)
            ):
                self.pair_row[r] = c
                self.pair_col[c] = r
                return True
        self.dist.pop(r, None)
        return False

    def solve(self) -> dict[int, int]:
        while self._bfs():
            for r in self.rows:
                if r not in self.pair_row:
                    self._dfs(r)
        return dict(self.pair_row)


def _plane_matching(family: EquationFamily, plane: Plane) -> list[int]:
    """Indices of a maximum distinct-rows-distinct-cols subset in a plane."""
    coords = [family.plane_coordinates(i, plane) for i in range(len(family))]
    # one edge per point; disambiguate parallel edges by remembering an index
    edge_owner: dict[tuple[int, int], int] = {}
    for i, rc in enumerate(coords):
        edge_owner.setdefault(rc, i)
    matching = _HopcroftKarp(sorted(edge_owner)).solve()
    return sorted(edge_owner[(r, c)] for r, c in matching.items())


def t_invariant(family: EquationFamily) -> InvariantResult:
    """T(E): maximum over the three planes of the largest subset with
    pairwise-distinct first and second coordinates (a maximum matching)."""
    best: InvariantResult | None = None
    for plane in PLANES:
        idx = _plane_matching(family, plane)
        if best is None or len(idx) > best.value:
            best = InvariantResult(
                len(idx), WitnessSubset(plane, tuple(idx), "T")
            )
    assert best is not None
    return best


def _fullest_column_and_row(
    coords: Sequence[tuple[int, int]],
) -> tuple[list[int], list[int]]:
    """Indices sharing the most common first coordinate (a column) and the
    most common second coordinate (a row); the first maximum wins ties."""
    columns: dict[int, list[int]] = {}
    rows: dict[int, list[int]] = {}
    for i, (a, b) in enumerate(coords):
        columns.setdefault(a, []).append(i)
        rows.setdefault(b, []).append(i)
    return max(columns.values(), key=len), max(rows.values(), key=len)


def greedy_t_witness(family: EquationFamily) -> WitnessSubset:
    """A T-type witness of size >= ceil(sqrt(|E|)).

    Phase 1 takes a maximal subset with all-distinct coordinates in the
    plane z = 1; phase 2 takes the fullest column or row, which becomes an
    all-distinct subset once normalized into the plane y = 1 (columns) or
    x = 1 (rows).  The larger of the two is returned.
    """
    n = len(family)
    coords = [family.plane_coordinates(i, "z") for i in range(n)]
    used_a: set[int] = set()
    used_b: set[int] = set()
    maximal: list[int] = []
    for i, (a, b) in enumerate(coords):
        if a not in used_a and b not in used_b:
            maximal.append(i)
            used_a.add(a)
            used_b.add(b)

    best_col, best_row = _fullest_column_and_row(coords)
    candidates = [
        WitnessSubset("z", tuple(maximal), "T"),
        WitnessSubset("y", tuple(sorted(best_col)), "T"),
        WitnessSubset("x", tuple(sorted(best_row)), "T"),
    ]
    best = max(candidates, key=lambda w: len(w.indices))
    if len(best.indices) ** 2 >= n:
        return best
    # The single-column/row shortcut can undershoot ceil(sqrt(|E|)); the
    # exact matching witness never does (a matching below sqrt(|E|) yields
    # a vertex cover below sqrt(|E|) lines, so some line -- hence some
    # column or row -- holds more than sqrt(|E|) points).
    return t_invariant(family).witness


def _greedy_tstar(family: EquationFamily, plane: Plane) -> list[int]:
    """Best column plus best row in one plane (the constructive witness)."""
    coords = [family.plane_coordinates(i, plane) for i in range(len(family))]
    best_col, best_row = _fullest_column_and_row(coords)
    return sorted(set(best_col) | set(best_row))


def _exact_tstar_indices(
    attrs: Sequence[tuple[int, int, int]], budget_ok: bool = True
) -> list[int]:
    """Maximum subset where every member owns a unique attribute value.

    The property is closed under removal, so branch-and-bound applies: a
    point with no unique attribute is either dropped, or kept, in which
    case all other points sharing one of its attributes must go.
    """
    n = len(attrs)
    best: list[int] = []

    def bad_points(current: list[int]) -> list[int]:
        counts = [Counter(attrs[i][k] for i in current) for k in range(3)]
        return [
            i
            for i in current
            if not any(counts[k][attrs[i][k]] == 1 for k in range(3))
        ]

    def solve(current: list[int], forced: frozenset[int]) -> None:
        nonlocal best
        if len(current) <= len(best):
            return
        bad = bad_points(current)
        if not bad:
            best = list(current)
            return
        free_bad = [i for i in bad if i not in forced]
        pivot = free_bad[0] if free_bad else bad[0]
        if pivot not in forced:
            solve([i for i in current if i != pivot], forced)
        # keep the pivot: clear one of its attributes of all other sharers
        for k in range(3):
            value = attrs[pivot][k]
            sharers = [i for i in current if i != pivot and attrs[i][k] == value]
            if any(i in forced for i in sharers):
                continue
            removed = set(sharers)
            solve(
                [i for i in current if i not in removed], forced | {pivot}
            )

    solve(list(range(n)), frozenset())
    return sorted(best)


def t_star_invariant(
    family: EquationFamily,
    mode: Literal["exact", "greedy"] = "exact",
    plane: Plane | None = None,
) -> InvariantResult:
    """T*(E): largest subset whose every point has a unique abscissa,
    ordinate or ratio.

    Exact mode is branch-and-bound (instances up to 24 equations); greedy
    mode replays the column-plus-row constructive witness, guaranteeing at
    least ceil(|E|/a) + ceil(|E|/b) - 1 for the minimal bounding a x b grid.
    """
    n = len(family)
    if mode == "exact":
        if n > _EXACT_TSTAR_BUDGET:
            raise BudgetExceeded(
                f"exact T* supports |E| <= {_EXACT_TSTAR_BUDGET}, got {n}"
            )
        attrs = [family.attributes(i) for i in range(n)]
        idx = _exact_tstar_indices(attrs)
        return InvariantResult(
            len(idx), WitnessSubset(plane or "z", tuple(idx), "Tstar")
        )
    planes = [plane] if plane else list(PLANES)
    best: InvariantResult | None = None
    for pl in planes:
        idx = _greedy_tstar(family, pl)
        if best is None or len(idx) > best.value:
            best = InvariantResult(len(idx), WitnessSubset(pl, tuple(idx), "Tstar"))
    assert best is not None
    return best


def ratio_set_size(family: EquationFamily) -> int:
    """|{ x / y : (x, y, 1) in S(E) }|, a lower bound for T*."""
    return len({family.attributes(i)[2] for i in range(len(family))})


def build_family(
    fld: PrimeField,
    kind: Literal["subgroup", "gamma_shift", "lambda", "parity", "explicit"],
    *,
    order: int | None = None,
    lambdas: Iterable[int] | None = None,
    q: int | None = None,
    equations: Iterable[tuple[int, int, int, int]] | None = None,
) -> EquationFamily:
    """Construct one of the named families.

    subgroup:    S(E) = Gamma x Gamma for the subgroup of given order;
    gamma_shift: gamma x + gamma y - z = 0 over gamma in Gamma;
    lambda:      x + y + lambda z = 0 over a nonzero lambda set;
    parity:      (-i) x + (-j) y + z = 0 over even pairs (i, j) in [q/2];
    explicit:    a literal (a, b, c, d) list.
    """
    p = fld.p
    if kind == "subgroup":
        if order is None:
            raise BadParameter("subgroup kind requires order")
        gamma = multiplicative_subgroup(fld, order)
        eqs = [
            AffineEquation(g1, g2, 1, 0) for g1 in gamma for g2 in gamma
        ]
        return EquationFamily(fld, tuple(eqs))
    if kind == "gamma_shift":
        if order is None:
            raise BadParameter("gamma_shift kind requires order")
        gamma = multiplicative_subgroup(fld, order)
        eqs = [AffineEquation(g, g, p - 1, 0) for g in gamma]
        return EquationFamily(fld, tuple(eqs))
    if kind == "lambda":
        if lambdas is None:
            raise BadParameter("lambda kind requires lambdas")
        lam = sorted({x % p for x in lambdas})
        if any(x == 0 for x in lam) or not lam:
            raise BadParameter("lambda values must be nonzero")
        return EquationFamily(
            fld, tuple(AffineEquation(1, 1, x, 0) for x in lam)
        )
    if kind == "parity":
        if q is None:
            raise BadParameter("parity kind requires q")
        eqs = parity_family_equations(fld, q)
        return EquationFamily(fld, tuple(eqs))
    if kind == "explicit":
        if equations is None:
            raise BadParameter("explicit kind requires equations")
        return EquationFamily(
            fld, tuple(AffineEquation(*e) for e in equations)
        )
    raise BadParameter(f"unknown family kind {kind!r}")


def parity_family_equations(fld: PrimeField, q: int) -> list[AffineEquation]:
    """Equations (-i) x + (-j) y + z = 0 over even pairs (i, j) in [q/2]."""
    p = fld.p
    if q % 2 != 0 or q < 4 or q * q >= p:
        raise BadParameter(f"need even q with 4 <= q < sqrt(p); got q={q}, p={p}")
    evens = [i for i in range(2, q // 2 + 1, 2)]
    return [
        AffineEquation((-i) % p, (-j) % p, 1, 0) for i in evens for j in evens
    ]


# -- family file format: header "p=<prime>", then "a b c d" per line -------


def dump_family(family: EquationFamily) -> str:
    lines = [f"p={family.p}"]
    for eq in family.equations:
        lines.append(f"{eq.a} {eq.b} {eq.c} {eq.d}")
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> EquationFamily:
    fld: PrimeField | None = None
    eqs: list[AffineEquation] = []
    line_of_point: dict[ProjectivePoint, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if fld is None:
            if not line.startswith("p="):
                raise BadParameter(f"line {lineno}: expected header 'p=<prime>'")
            fld = PrimeField(int(line[2:]))
            continue
        parts = line.split()
        if len(parts) != 4:
            raise BadParameter(f"line {lineno}: expected 'a b c d', got {line!r}")
        eq = AffineEquation(*(int(x) for x in parts))
        pt = canonicalize(fld, eq)
        if pt in line_of_point:
            raise ProportionalEquations(
                f"line {lineno} is proportional to line {line_of_point[pt]}"
            )
        line_of_point[pt] = lineno
        eqs.append(eq)
    if fld is None:
        raise BadParameter("empty family file")
    return EquationFamily(fld, tuple(eqs))


def load_family(path: str) -> EquationFamily:
    with open(path, encoding="utf-8") as fh:
        return parse_family(fh.read())
