"""Garside structures: simples, divisibility lattices, phi, normal forms.

A structure is built from a homogeneous presentation with a designated
Garside word Delta.  Simples are the congruence classes of prefixes of
words in Delta's class, so the build asks the lazy congruence oracle only
about Delta's class and the classes of its prefixes and suffixes.  Every
word of every simple is then looked up in one dictionary, and that
dictionary fills the n x n two-simple product table: entry [a][b] is the
simple a.b, or None when a.b is not simple.  Every table below (residuals,
division, gcd/lcm, the left-weighted product splitting, the automorphism
phi) reads its products from that table and is verified exhaustively.
The residual passes also fill each simple's divisor and multiple masks;
divisibility is a partial order, so the gcd (lcm) of two simples is the
one simple whose divisor (multiple) mask is the AND of theirs, and each
entry of the four gcd/lcm tables is one dict lookup keyed by that mask.
Axiom failures raise AxiomViolation with rendered witnesses instead of
producing a structure.

Elements of the Garside group are NormalForm values: an integer power of
Delta followed by left-weighted simple factors, none equal to the identity
or to Delta.  All arithmetic rests on one step: right-multiplying such a
factor list by a simple, with a single right-to-left sweep of the product
splitting table that stops at the first pair already left-weighted.  An
inverse letter a^-1 = da . Delta^-1 (da the complement of a) is taken as
x . a^-1 = Delta^-1 . phi^-1(x . da); signed products keep their factors
in a frame twisted by a pending power of phi and untwist once at the end.
Inversion has the closed form of El-Rifai and Morton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AxiomViolation, GarsideError
from .presentation import (
    DEFAULT_BUDGET,
    CongruenceTable,
    Presentation,
    Word,
    congruence_classes,
)


@dataclass(frozen=True)
class NormalForm:
    """Delta power plus left-weighted proper simple factors."""

    delta_power: int
    factors: tuple[int, ...]

IDENTITY_NF = NormalForm(0, ())


class GarsideStructure:
    """Verified Garside data for one presentation.

    Instances are built by build_garside and must be treated as immutable;
    all public methods are pure reads.
    """

    def __init__(self, presentation: Presentation, oracle: CongruenceTable):
        self.presentation = presentation
        self.oracle = oracle
        self.simples: tuple[Word, ...] = ()
        self.word_simple: dict[Word, int] = {}  # every word of a simple -> id
        self.identity = 0
        self.delta = 0
        self.atoms: tuple[int, ...] = ()
        self.generator_atoms: tuple[int, ...] = ()  # generator index -> atom
        self.product_table: list[list[int | None]] = []  # [a][b] = a * b, if simple
        self.left_div_mask: list[int] = []     # bit i set in entry j: i left-divides j
        self.atom_mask = 0  # bit a set for each atom a
        self.residual_left: list[list[int | None]] = []   # a * c = b  =>  [a][b] = c
        self.left_complement: tuple[int, ...] = ()   # a * comp(a) = Delta
        self._phi_powers: list[tuple[int, ...]] = []
        self.product_decomp_table: list[list[tuple[int, int]]] = []
        self._atom_nf: dict[int, NormalForm] = {}

    # -- rendering ---------------------------------------------------------

    def render_simple(self, i: int) -> str:
        return self.presentation.render(self.simples[i]) if i else "1"

    def format_normal_form(self, nf: NormalForm) -> str:
        parts = []
        if nf.delta_power:
            parts.append(
                "delta" if nf.delta_power == 1 else f"delta^{nf.delta_power}"
            )
        parts.extend(self.render_simple(f) for f in nf.factors)
        return " . ".join(parts) if parts else "1"

    # -- basic lookups -----------------------------------------------------

    @property
    def delta_length(self) -> int:
        return len(self.presentation.delta_word)

    def simple_of_word(self, word: Word) -> int | None:
        """Simple id of a positive word, or None when it is not a divisor."""
        return self.word_simple.get(word)

    def simple_product(self, a: int, b: int) -> int | None:
        """Product of two simples when it is again simple, else None."""
        return self.product_table[a][b]

    def simple_length(self, a: int) -> int:
        return len(self.simples[a])

    def left_divides(self, a: int, b: int) -> bool:
        return bool(self.left_div_mask[b] >> a & 1)

    def product_decomp(self, a: int, b: int) -> tuple[int, int]:
        return self.product_decomp_table[a][b]

    # -- phi ---------------------------------------------------------------

    @property
    def phi_order(self) -> int:
        return len(self._phi_powers)

    def phi_power_perm(self, k: int) -> tuple[int, ...]:
        return self._phi_powers[k % self.phi_order]

    def phi_simple(self, a: int, k: int = 1) -> int:
        return self.phi_power_perm(k)[a]

    def phi_fixed_simples(self, k: int) -> list[int]:
        perm = self.phi_power_perm(k)
        return [a for a in range(len(self.simples)) if perm[a] == a]

    # -- left-weightedness -------------------------------------------------

    def left_weighted(self, a: int, b: int) -> bool:
        """No atom x satisfies a*x <= Delta and x <= b."""
        mask = self.left_div_mask
        return not mask[self.left_complement[a]] & mask[b] & self.atom_mask

    # -- normal forms ------------------------------------------------------

    def _right_multiply(self, factors: list[int], s: int) -> int:
        """Right-multiply left-weighted proper factors by the simple s in place.

        One right-to-left sweep re-splits each pair (f_i, f_i+1) and stops at
        the first pair already left-weighted; the result is left-weighted,
        with any Deltas at the front and identities at the back.  Those
        identities are dropped and the Deltas removed; returns their count.
        """
        decomp = self.product_decomp_table
        i = len(factors)
        factors.append(s)
        while i:
            i -= 1
            c, d = decomp[factors[i]][factors[i + 1]]
            if c == factors[i]:  # c = f_i . e with e = 1, so d = f_i+1 too
                break
            factors[i] = c
            factors[i + 1] = d
        while factors and factors[-1] == self.identity:
            factors.pop()
        k = 0
        while k < len(factors) and factors[k] == self.delta:
            k += 1
        if k:
            del factors[:k]
        return k

    def _atom(self, gi: int) -> int:
        if not 0 <= gi < len(self.generator_atoms):
            raise GarsideError(f"generator index {gi} is out of range")
        return self.generator_atoms[gi]

    def normal_form(self, word: Word) -> NormalForm:
        """Normal form of a positive word in the generators."""
        return self.normal_form_simples([(self._atom(gi), 1) for gi in word])

    def normal_form_signed(self, letters: list[tuple[int, int]]) -> NormalForm:
        """Normal form of a group word given as (generator index, +-1) pairs."""
        return self.normal_form_simples(
            [(self._atom(gi), sign) for gi, sign in letters]
        )

    def normal_form_simples(self, letters: list[tuple[int, int]]) -> NormalForm:
        """Normal form of a product of simples given as (simple id, +-1) pairs.

        The running value is Delta^p . phi^t(factors).  A positive letter s
        appends phi^-t(s); a negative one appends phi^-t of its complement
        and lowers p and t by one, since y . s^-1 = Delta^-1 . phi^-1(y . ds).
        """
        comp = self.left_complement
        order = self.phi_order
        factors: list[int] = []
        p = t = 0
        perm = self.phi_power_perm(0)  # phi^-t
        for s, sign in letters:
            if sign > 0:
                p += self._right_multiply(factors, perm[s])
            else:
                p += self._right_multiply(factors, perm[comp[s]]) - 1
                t = (t - 1) % order
                perm = self.phi_power_perm(-t)
        perm = self.phi_power_perm(t)
        return NormalForm(p, tuple(perm[f] for f in factors))

    def nf_length(self, x: NormalForm) -> int:
        return x.delta_power * self.delta_length + sum(
            self.simple_length(f) for f in x.factors
        )

    # -- group arithmetic ----------------------------------------------------

    def multiply(self, x: NormalForm, y: NormalForm) -> NormalForm:
        """x . y = Delta^(p+q) . phi^q(x's factors) . y's factors, q = y's power."""
        perm = self.phi_power_perm(y.delta_power)
        factors = [perm[f] for f in x.factors]
        k = x.delta_power + y.delta_power
        for f in y.factors:
            k += self._right_multiply(factors, f)
        return NormalForm(k, tuple(factors))

    def invert(self, x: NormalForm) -> NormalForm:
        """Closed form, left-weighted as it stands: for x = Delta^p f_1...f_k,
        x^-1 = Delta^-(p+k) . phi^-(p+k)(df_k) ... phi^-(p+1)(df_1).
        """
        comp = self.left_complement
        p, k = x.delta_power, len(x.factors)
        return NormalForm(
            -p - k,
            tuple(
                self.phi_power_perm(-p - i)[comp[x.factors[i - 1]]]
                for i in range(k, 0, -1)
            ),
        )

    def power(self, x: NormalForm, k: int) -> NormalForm:
        if k < 0:
            return self.power(self.invert(x), -k)
        out = IDENTITY_NF
        base = x
        while k:
            if k & 1:
                out = self.multiply(out, base)
            base = self.multiply(base, base)
            k >>= 1
        return out

    def is_central(self, x: NormalForm) -> bool:
        for a in self.atoms:
            nf = self._atom_nf[a]
            if self.multiply(x, nf) != self.multiply(nf, x):
                return False
        return True


def _divisor_classes(g: GarsideStructure, prefixes: bool) -> set[Word]:
    oracle = g.oracle
    members = oracle.class_members(g.presentation.delta_word)
    out: set[Word] = set()
    for w in members:
        for k in range(len(w) + 1):
            out.add(oracle.rep(w[:k] if prefixes else w[k:]))
    return out


def _product_table(g: GarsideStructure) -> list[list[int | None]]:
    """[a][b] = the simple a * b, or None when it is not simple.

    A word of a followed by a word of b is a word of a * b, and word_simple
    holds every word of every simple, so one lookup per pair decides it.
    """
    lookup = g.word_simple.get
    return [[lookup(u + v) for v in g.simples] for u in g.simples]


def _build_residuals(
    g: GarsideStructure, left: bool
) -> tuple[list[list[int | None]], list[int], list[int]]:
    """Residuals from the two-simple products: [a][b] = c for a * c = b
    (left) or c * a = b (right).  A clash is reported at the least (a, b),
    with its two least candidates.

    Also returns the divisor and multiple masks on that side: bit a of
    div_mask[b] and bit b of mult_mask[a] are set iff a divides b.
    """
    n = len(g.simples)
    product = g.product_table
    table: list[list[int | None]] = [[None] * n for _ in range(n)]
    div_mask = [0] * n
    mult_mask = [0] * n
    clashes: dict[tuple[int, int], tuple[int, int]] = {}
    for a in range(n):
        row = table[a]
        bit = 1 << a
        multiples = 0
        for c in range(n):
            b = product[a][c] if left else product[c][a]
            if b is None:
                continue
            first = row[b]
            if first is None:
                row[b] = c
                div_mask[b] |= bit
                multiples |= 1 << b
            else:
                clashes.setdefault((a, b), (first, c))
        mult_mask[a] = multiples
    if clashes:
        a, b = min(clashes)
        first, second = clashes[a, b]
        side = "left" if left else "right"
        raise AxiomViolation(
            "lattice",
            [
                f"{side} residual of {g.render_simple(a)} in "
                f"{g.render_simple(b)} is not unique: "
                f"{g.render_simple(first)} vs {g.render_simple(second)}"
            ],
        )
    return table, div_mask, mult_mask


def _bound_table(
    g: GarsideStructure, masks: list[int], kind: str, lower: bool
) -> list[list[int]]:
    """gcd table when lower (masks = divisor masks), lcm table otherwise.

    Divisibility is reflexive, transitive and antisymmetric, so the gcd of
    a and b, when it exists, is the one simple whose divisor mask equals
    masks[a] & masks[b], and the lcm the one whose multiple mask equals it:
    each entry is one dict lookup.  A pair whose mask no simple owns fails
    the lattice axiom; its witness counts the common divisors (multiples)
    w that every other one divides (is divided by).
    """
    owner = {m: w for w, m in enumerate(masks)}.get
    table = []
    for a, mask_a in enumerate(masks):
        row = list(map(owner, map(mask_a.__and__, masks)))
        if None in row:
            # Rows above a had no gap, and the table is symmetric, so the
            # first gap of this row is the first failing pair with a <= b.
            b = row.index(None)
            common = mask_a & masks[b]
            winners = sum(
                1 for w, m in enumerate(masks) if common >> w & 1 and common & ~m == 0
            )
            what = ("gcd" if lower else "lcm") + f" ({kind})"
            raise AxiomViolation(
                "lattice",
                [
                    f"{what} of {g.render_simple(a)} and {g.render_simple(b)} "
                    f"has {winners} candidates"
                ],
            )
        table.append(row)
    return table


def build_garside(
    p: Presentation, budget: int = DEFAULT_BUDGET
) -> GarsideStructure:
    """Build and exhaustively verify the Garside structure over p."""
    if not p.delta_word:
        raise GarsideError("delta word must be non-empty")
    oracle = congruence_classes(p, len(p.delta_word), budget)
    g = GarsideStructure(p, oracle)

    # Simples and balancedness.
    prefixes = _divisor_classes(g, prefixes=True)
    suffixes = _divisor_classes(g, prefixes=False)
    if prefixes != suffixes:
        witnesses = [
            f"{p.render(w)} ({'left' if w in prefixes else 'right'} divisor only)"
            for w in sorted(prefixes ^ suffixes, key=lambda w: (len(w), w))
        ]
        raise AxiomViolation("balanced", witnesses)
    g.simples = tuple(sorted(prefixes, key=lambda w: (len(w), w)))
    g.word_simple = {
        w: i for i, simple in enumerate(g.simples) for w in oracle.class_members(simple)
    }
    g.delta = g.word_simple[p.delta_word]
    atom_ids = []
    for gi, name in enumerate(p.generators):
        a = g.simple_of_word((gi,))
        if a is None:
            raise AxiomViolation(
                "balanced", [f"generator {name} does not divide delta"]
            )
        atom_ids.append(a)
    g.generator_atoms = tuple(atom_ids)
    g.atoms = tuple(sorted(set(atom_ids)))
    g.atom_mask = sum(1 << a for a in g.atoms)
    g.product_table = _product_table(g)

    # Residuals, divisibility masks, lattice tables.  All four lattice tables
    # are checked for the lattice axiom; only the left gcd table is kept, as a
    # local, for the product splitting below.
    g.residual_left, g.left_div_mask, left_mult_mask = _build_residuals(
        g, left=True
    )
    residual_right, right_div_mask, right_mult_mask = _build_residuals(
        g, left=False
    )
    n = len(g.simples)
    gcd_left = _bound_table(g, g.left_div_mask, "left", lower=True)
    _bound_table(g, left_mult_mask, "left", lower=False)
    _bound_table(g, right_div_mask, "right", lower=True)
    _bound_table(g, right_mult_mask, "right", lower=False)

    # Complements and the Garside automorphism phi = complement squared.
    left_comp = [g.residual_left[a][g.delta] for a in range(n)]
    assert None not in left_comp
    assert all(residual_right[a][g.delta] is not None for a in range(n))
    g.left_complement = tuple(left_comp)
    if len(set(g.left_complement)) != n:
        seen: dict[int, int] = {}
        for a, c in enumerate(g.left_complement):
            if c in seen:
                raise AxiomViolation(
                    "phi",
                    [
                        f"complement is not injective: {g.render_simple(seen[c])} "
                        f"and {g.render_simple(a)} share {g.render_simple(c)}"
                    ],
                )
            seen[c] = a
    phi = tuple(g.left_complement[g.left_complement[a]] for a in range(n))
    bad = [a for a in (g.identity, g.delta) if phi[a] != a]
    if bad or sorted(phi) != list(range(n)):
        raise AxiomViolation(
            "phi", [f"phi is not a permutation fixing 1 and delta: {phi}"]
        )
    if {phi[a] for a in g.atoms} != set(g.atoms):
        raise AxiomViolation(
            "phi",
            [
                f"phi does not preserve atoms: "
                f"{[g.render_simple(phi[a]) for a in g.atoms]}"
            ],
        )
    powers = [tuple(range(n))]
    current = phi
    while current != powers[0]:
        powers.append(current)
        current = tuple(phi[current[a]] for a in range(n))
    g._phi_powers = powers

    # Left-weighted splitting of two-simple products.
    g.product_decomp_table = [[(0, 0)] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            e = gcd_left[g.left_complement[a]][b]
            c = g.product_table[a][e]
            d = g.residual_left[e][b]
            assert c is not None and d is not None
            if gcd_left[g.left_complement[c]][d] != g.identity:
                raise AxiomViolation(
                    "lattice",
                    [
                        f"product of {g.render_simple(a)} and {g.render_simple(b)} "
                        f"has no left-weighted splitting"
                    ],
                )
            g.product_decomp_table[a][b] = (c, d)
    # An atom equal to Delta (the free monoid on one letter) is Delta^1, not
    # a factor, so each atom goes through the normaliser.
    g._atom_nf = {a: g.normal_form_simples([(a, 1)]) for a in g.atoms}

    # Twist identity x * Delta = Delta * phi(x), at the normal-form level.
    for x in range(n):
        if g.normal_form_simples([(x, 1), (g.delta, 1)]) != g.normal_form_simples(
            [(g.delta, 1), (phi[x], 1)]
        ):
            raise AxiomViolation(
                "phi",
                [f"x.delta != delta.phi(x) for x = {g.render_simple(x)}"],
            )
    return g


def verify_presentation(p: Presentation, budget: int = DEFAULT_BUDGET) -> dict:
    """Run the staged axiom checks and emit the verification report."""
    stages = ("balanced", "lattice", "phi")
    axioms: dict[str, bool | None] = {s: None for s in stages}
    try:
        g = build_garside(p, budget)
    except AxiomViolation as exc:
        for stage in stages:
            if stage == exc.kind:
                axioms[stage] = False
                break
            axioms[stage] = True
        return {
            "schema": 1,
            "axioms": axioms,
            "simple_count": None,
            "phi_order": None,
            "witnesses": exc.witnesses,
        }
    return {
        "schema": 1,
        "axioms": {s: True for s in stages},
        "simple_count": len(g.simples),
        "phi_order": g.phi_order,
        "witnesses": [],
    }
