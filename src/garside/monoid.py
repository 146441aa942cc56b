"""Garside structures: simples, divisibility lattices, phi, normal forms.

A structure is built from a homogeneous presentation with a designated
Garside word Delta.  Simples are the congruence classes of prefixes of
words in Delta's class, so the build asks the lazy congruence oracle only
about Delta's class and the classes of its prefixes and suffixes.  Once
the prefix classes equal the suffix classes, every word the oracle has
closed is a word of some simple, so one pass over the oracle gives a
dictionary from every such word to its simple.  That dictionary fills the
n x n two-simple product table: entry [a][b] is the simple a.b, or None
when a.b is not simple.  The residual and gcd tables and the automorphism
phi read their products from that table, and the gcd table, its rows
permuted by the left complement, is the splitting table that normal
forms and left-weightedness read.  The oracle and the word dictionary are locals of
the build: the structure keeps one word per simple (its lex-least) and
the tables, and nothing after the build looks a word up.  It also keeps
the enumeration budget it was built under, which caps the divided sets
enumerated over it (garside.divided).

The build checks only the axioms that can reject an input, and raises
AxiomViolation with rendered witnesses at the first that fails:

- balanced: the prefix classes of Delta equal its suffix classes, and every
  generator divides Delta;
- lattice: left residuals of simples are unique (a.c = a.c' forces c = c'),
  and every two simples have a left gcd.  The residual pass fills each
  simple's divisor mask; divisibility is a partial order, so the gcd of two
  simples is the one simple whose mask is the AND of theirs, one dict
  lookup per entry.

Standard Garside theory (Dehornoy-Paris 1999; Dehornoy et al., Foundations
of Garside Theory, EMS 2015) derives the rest from these, so the build
does not check it.  Write ∂a for the left complement, a.∂a = Delta.

- Complement injectivity: every part of a simple is simple, so ∂ is
  defined on all simples; it is onto because suffixes are prefixes, hence
  it is a bijection.
- Right residuals: c.a = c'.a = b gives ∂c = a.∂b = ∂c', so a bijective ∂
  gives right cancellation, c = c'.
- Left lcm, right gcd and right lcm: ∂ reverses order between left and
  right divisibility, and a finite meet-semilattice with top Delta is a
  lattice.
- phi a permutation fixing 1 and Delta, preserving atoms: phi = ∂^2 is a
  bijection and keeps length.
- Left-weighted splitting: a.b = c.d with e = gcd(∂a, b), c = a.e and
  e.d = b needs only left cancellation and left gcds, and the pair (a, b)
  is left-weighted iff e = 1.  The structure keeps e as its one splitting
  table, the gcd rows permuted by ∂: normal forms and left-weightedness
  read it, and c and d are read off the product and residual tables.
- Twist identity x.Delta = Delta.phi(x): both are x.∂x.phi(x).

The "phi" stage of a report therefore holds whenever "lattice" does.  The
build that checks all of these is kept in the tests as the reference.

Elements of the Garside group are NormalForm values: an integer power of
Delta followed by left-weighted simple factors, none equal to the identity
or to Delta.  All arithmetic rests on one step: right-multiplying such a
factor list by a simple, with a single right-to-left sweep of the
splitting table that stops at the first pair already left-weighted.  An
inverse letter a^-1 = ∂a . Delta^-1 is taken as
x . a^-1 = Delta^-1 . phi^-1(x . ∂a); signed products keep their factors
in a frame twisted by a pending power of phi and untwist once at the end.
Inversion has the closed form of El-Rifai and Morton.
"""

from __future__ import annotations

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

    def __init__(self, presentation: Presentation, budget: int):
        self.presentation = presentation
        self.budget = budget  # the enumeration cap it was built under
        self.simples: tuple[Word, ...] = ()  # lex-least word of each simple
        self.identity = 0
        self.delta = 0
        self.atoms: tuple[int, ...] = ()
        self.generator_atoms: tuple[int, ...] = ()  # generator index -> atom
        self.product_table: list[list[int | None]] = []  # [a][b] = a * b, if simple
        self.left_div_mask: list[int] = []     # bit i set in entry j: i left-divides j
        self.residual_left: list[list[int | None]] = []   # a * c = b  =>  [a][b] = c
        self.left_complement: tuple[int, ...] = ()   # a * comp(a) = Delta
        # [a][b] = e = gcd(comp(a), b): a * b = (a * e) * d with e * d = b,
        # and (a, b) is left-weighted iff e = 1.  Rows are the gcd table's.
        self.split: list[list[int]] = []
        self._phi_powers: list[tuple[int, ...]] = []
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

    def simple_product(self, a: int, b: int) -> int | None:
        """Product of two simples when it is again simple, else None."""
        return self.product_table[a][b]

    def simple_length(self, a: int) -> int:
        return len(self.simples[a])

    def left_divides(self, a: int, b: int) -> bool:
        return bool(self.left_div_mask[b] >> a & 1)

    def product_decomp(self, a: int, b: int) -> tuple[int, int]:
        """The left-weighted pair (c, d) with c * d = a * b."""
        e = self.split[a][b]
        return self.product_table[a][e], self.residual_left[e][b]

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
        """gcd(comp(a), b) = 1: no atom x satisfies a*x <= Delta and x <= b."""
        return self.split[a][b] == self.identity

    # -- normal forms ------------------------------------------------------

    def _right_multiply(self, factors: list[int], s: int) -> int:
        """Right-multiply left-weighted proper factors by the simple s in place.

        One right-to-left sweep re-splits each pair (f_i, f_i+1) into
        (f_i . e, d) with e = gcd(comp(f_i), f_i+1) and e . d = f_i+1, and
        stops at the first pair with e = 1, already left-weighted; the result
        is left-weighted, with any Deltas at the front and identities at the
        back.  Those identities are dropped and the Deltas removed; returns
        their count.
        """
        split = self.split
        product = self.product_table
        residual = self.residual_left
        i = len(factors)
        factors.append(s)
        b = s  # the right member of the pair at i, carried from the last step
        while i:
            i -= 1
            a = factors[i]
            e = split[a][b]
            if not e:  # e = 1 (simple 0): the pair is left-weighted
                break
            factors[i + 1] = residual[e][b]
            b = factors[i] = product[a][e]
        while factors and not factors[-1]:
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


def _divisor_classes(
    oracle: CongruenceTable, delta_word: Word
) -> tuple[set[Word], set[Word]]:
    """Classes of the prefixes and of the suffixes of Delta's words."""
    prefixes: set[Word] = set()
    suffixes: set[Word] = set()
    for w in oracle.class_members(delta_word):
        for k in range(len(w) + 1):
            prefixes.add(oracle.rep(w[:k]))
            suffixes.add(oracle.rep(w[k:]))
    return prefixes, suffixes


def _product_table(
    simples: tuple[Word, ...], word_map: dict[Word, int]
) -> list[list[int | None]]:
    """[a][b] = the simple a * b, or None when it is not simple.

    A word of a followed by a word of b is a word of a * b, and word_map
    holds every word of every simple, so one lookup per pair decides it.
    """
    lookup = word_map.get
    return [[lookup(u + v) for v in simples] for u in simples]


def _build_residuals(g: GarsideStructure) -> tuple[list[list[int | None]], list[int]]:
    """Left residuals from the two-simple products: [a][b] = c for a * c = b.
    A clash is reported at the least (a, b), with its two least candidates.

    Also returns the divisor masks: bit a of div_mask[b] is set iff a
    left-divides b.
    """
    n = len(g.simples)
    table: list[list[int | None]] = [[None] * n for _ in range(n)]
    div_mask = [0] * n
    clashes: dict[tuple[int, int], tuple[int, int]] = {}
    for a, products in enumerate(g.product_table):
        row = table[a]
        bit = 1 << a
        for c, b in enumerate(products):
            if b is None:
                continue
            first = row[b]
            if first is None:
                row[b] = c
                div_mask[b] |= bit
            else:
                clashes.setdefault((a, b), (first, c))
    if clashes:
        a, b = min(clashes)
        first, second = clashes[a, b]
        raise AxiomViolation(
            "lattice",
            [
                f"left residual of {g.render_simple(a)} in "
                f"{g.render_simple(b)} is not unique: "
                f"{g.render_simple(first)} vs {g.render_simple(second)}"
            ],
        )
    return table, div_mask


def _bound_table(g: GarsideStructure, masks: list[int]) -> list[list[int]]:
    """Left gcd table from the left divisor masks.

    Divisibility is reflexive, transitive and antisymmetric, so the gcd of
    a and b, when it exists, is the one simple whose divisor mask equals
    masks[a] & masks[b]: each entry is one dict lookup.  A pair whose mask
    no simple owns fails the lattice axiom, and its witness reports 0
    candidates, always: a common divisor w that every other one divides
    would have masks[w] ⊇ common, and w ∈ common, so every v ∈ masks[w]
    divides w, which divides a and b, so v ∈ common; then masks[w] = common,
    and w would own the mask.
    """
    owner = {m: w for w, m in enumerate(masks)}.get
    table = []
    for a, mask_a in enumerate(masks):
        row = list(map(owner, map(mask_a.__and__, masks)))
        if None in row:
            # Rows above a had no gap, and the table is symmetric, so the
            # first gap of this row is the first failing pair with a <= b.
            b = row.index(None)
            raise AxiomViolation(
                "lattice",
                [
                    f"gcd (left) of {g.render_simple(a)} and {g.render_simple(b)} "
                    "has 0 candidates"
                ],
            )
        table.append(row)
    return table


def build_garside(
    p: Presentation, budget: int = DEFAULT_BUDGET
) -> GarsideStructure:
    """Build the Garside structure over p, checking the axioms that can fail."""
    if not p.delta_word:
        raise GarsideError("delta word must be non-empty")
    oracle = congruence_classes(p, len(p.delta_word), budget)
    g = GarsideStructure(p, budget)

    # Simples and balancedness.
    prefixes, suffixes = _divisor_classes(oracle, p.delta_word)
    if prefixes != suffixes:
        witnesses = [
            f"{p.render(w)} ({'left' if w in prefixes else 'right'} divisor only)"
            for w in sorted(prefixes ^ suffixes, key=lambda w: (len(w), w))
        ]
        raise AxiomViolation("balanced", witnesses)
    g.simples = tuple(sorted(prefixes, key=lambda w: (len(w), w)))
    # The oracle closed only Delta's class and its prefix and suffix classes,
    # which are now all simples: every closed word belongs to a simple.
    simple_id = {w: i for i, w in enumerate(g.simples)}
    word_map = {w: simple_id[rep] for w, rep in oracle.reps.items()}
    g.delta = word_map[p.delta_word]
    atom_ids = []
    for gi, name in enumerate(p.generators):
        a = word_map.get((gi,))
        if a is None:
            raise AxiomViolation(
                "balanced", [f"generator {name} does not divide delta"]
            )
        atom_ids.append(a)
    g.generator_atoms = tuple(atom_ids)
    g.atoms = tuple(sorted(set(atom_ids)))
    g.product_table = _product_table(g.simples, word_map)

    # The two lattice checks: unique left residuals, then left gcds.
    g.residual_left, g.left_div_mask = _build_residuals(g)
    gcd_left = _bound_table(g, g.left_div_mask)

    # Complements and the Garside automorphism phi = complement squared.
    n = len(g.simples)
    g.left_complement = tuple(g.residual_left[a][g.delta] for a in range(n))
    phi = tuple(g.left_complement[c] for c in g.left_complement)
    powers = [tuple(range(n))]
    current = phi
    while current != powers[0]:
        powers.append(current)
        current = tuple(phi[current[a]] for a in range(n))
    g._phi_powers = powers

    # Left-weighted splitting of two-simple products: row a of the gcd
    # table permuted to comp(a), so [a][b] = gcd(comp(a), b).
    g.split = [gcd_left[c] for c in g.left_complement]
    # An atom equal to Delta (the free monoid on one letter) is Delta^1, not
    # a factor, so each atom goes through the normaliser.
    g._atom_nf = {a: g.normal_form_simples([(a, 1)]) for a in g.atoms}
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
