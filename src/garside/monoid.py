"""Garside structures: simples, divisibility lattices, phi, normal forms.

A structure is built from a homogeneous presentation with a designated
Garside word Delta, in two halves.  The front end, build_garside, asks the
lazy congruence oracle only about Delta's class and the classes of its
prefixes and suffixes.  Once the prefix classes equal the suffix classes,
every word the oracle has closed is a word of some simple and no other word
is, so n . k reads of it give right multiplication by the k generators: the
simple x.t, or None.  Those reads and the simples' lex-least words are a
Garside germ (Dehornoy et al., Foundations of Garside Theory, ch. VI), and
the front end ends by handing them to the GarsideStructure constructor, the
back end, which derives every table from them and never sees the oracle.
The lex-least word of a simple b is b't, with b' the simple of its first
|b| - 1 letters, so a.b = (a.b').t fills the n x n two-simple product
table column by column with list reads: entry [a][b] is the simple a.b, or
None when a.b is not simple.  The residual and gcd tables and the
automorphism phi read their products from that table, and the gcd table,
its rows permuted by the left complement, is the splitting table that
normal forms and left-weightedness read.  The structure keeps one word per
simple (its lex-least) and the tables, not right multiplication, and
nothing after the build looks a word up.  It also keeps the enumeration
budget it was built under, which caps the divided sets enumerated over it
(garside.divided).

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
or to Delta.  All arithmetic rests on one sweep: right-multiplying such a
factor list by a sequence of simples, each taken by one right-to-left pass
of the splitting table that stops at the first pair already left-weighted,
or as soon as the simple it carries leftwards becomes Delta.  By the twist
identity, prefix . Delta . suffix = Delta . phi(prefix . phi^-1(suffix)),
so the pass drops that Delta and relabels by phi^-1 only the factors it
has passed, instead of walking Delta through the whole prefix.  The sweep
keeps its factors in a frame twisted by a pending power of phi, which each
Delta taken out raises by one, and the caller untwists once at the end.
An inverse letter a^-1 = ∂a . Delta^-1 is taken as
x . a^-1 = Delta^-1 . phi^-1(x . ∂a), which lowers the twist by one.  As
the Delta power moves with the twist, the twist is that power modulo
phi's order, and the sweep returns the power alone.  The sweep reads the
letters themselves, (key, sign) pairs and a map from key to simple: the
generator atoms for a word in the generators, the identity for a product
of simples.  It folds each run of letters of one sign into one simple
through the product table as it reads them, and takes the run into the
factors as soon as the next letter does not fold.  A normal form is one
sweep over its word, and a product one sweep over the right factor's
simples; a random signed word costs one or two splitting lookups per
letter, whatever its length.  The atom map is a dict, so its lookup
refuses a generator index out of range, a negative one included.
Inversion has the closed form of El-Rifai and Morton.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, repeat
from operator import itemgetter

from .errors import AxiomViolation, GarsideError
from .presentation import (
    DEFAULT_BUDGET,
    CongruenceTable,
    Presentation,
    Word,
    congruence_classes,
)


class NormalForm(namedtuple("NormalForm", ["delta_power", "factors"])):
    """Delta power plus left-weighted proper simple factors (a tuple of ids)."""

    __slots__ = ()

IDENTITY_NF = NormalForm(0, ())

# The letter _sweep reads after a word's last.  Its sign, 0, is no run's
# (letters are signed +-1), so it ends the last run; key 0 is generator 0,
# or the identity among the simples.
_END = ((0, 0),)


class GarsideStructure:
    """Verified Garside data for one presentation, derived from its germ.

    build_garside finds the germ through the congruence closure.  Instances
    must be treated as immutable; all public methods are pure reads.
    """

    identity = 0  # the empty word sorts first

    def __init__(
        self,
        presentation: Presentation,
        budget: int,
        simples: tuple[Word, ...],
        right: list[dict[int, int]],
    ):
        """Derive every table from the germ (simples, right), checking the
        axioms that can fail (see the module docstring).

        simples holds each simple's lex-least word in (length, word) order,
        so the identity comes first and Delta, the one simple of length
        |Delta|, last; each word less its last letter is the word of a
        simple.  right[t][x] is the simple x . t for generator index t,
        defined exactly when x . t is simple.  budget is the enumeration
        cap kept for the divided sets enumerated over the structure.
        """
        self.presentation = presentation
        self.budget = budget
        self.simples = simples
        n = len(simples)
        self.delta = n - 1
        atom_ids = [times.get(self.identity) for times in right]
        if None in atom_ids:
            name = presentation.generators[atom_ids.index(None)]
            raise AxiomViolation("balanced", [f"generator {name} does not divide delta"])
        self.generator_atoms = tuple(atom_ids)  # generator index -> atom
        self._atom_of = dict(enumerate(atom_ids))  # refuses a bad index
        self.atoms = tuple(sorted(set(atom_ids)))
        # The lex-least word of b, less its last letter t, is the lex-least
        # word of a shorter simple b' (a lesser word of b' then t would be a
        # lesser word of b), so column b of the product table is column b'
        # taken through right[t]: a . b = (a . b') . t.
        simple_id = {w: i for i, w in enumerate(simples)}
        columns = [range(n)]
        for w in simples[1:]:
            columns.append(list(map(right[w[-1]].get, columns[simple_id[w[:-1]]])))
        # [a][b] = a * b, if simple
        self.product_table = list(map(list, zip(*columns)))

        # The two lattice checks: unique left residuals (a * c = b  =>
        # [a][b] = c, with bit a of left_div_mask[b] set), then left gcds.
        self.residual_left, self.left_div_mask = _build_residuals(self)
        gcd_left = _bound_table(self, self.left_div_mask)

        # Complements (a * comp(a) = Delta) and the Garside automorphism
        # phi = complement squared.
        self.left_complement = tuple(row[self.delta] for row in self.residual_left)
        phi = tuple(self.left_complement[c] for c in self.left_complement)
        powers = [tuple(range(n))]
        current = phi
        while current != powers[0]:
            powers.append(current)
            current = tuple(phi[current[a]] for a in range(n))
        self._phi_powers = powers

        # [a][b] = e = gcd(comp(a), b): a * b = (a * e) * d with e * d = b,
        # and (a, b) is left-weighted iff e = 1.  Rows are the gcd table's.
        self.split = [gcd_left[c] for c in self.left_complement]
        # An atom equal to Delta (the free monoid on one letter) is Delta^1,
        # not a factor, so each atom goes through the normaliser.
        self._atom_nf = {a: self.normal_form_simples([(a, 1)]) for a in self.atoms}

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

    def _sweep(self, factors: list[int], letters, simple_of) -> int:
        """Right-multiply left-weighted proper factors in place by letters,
        (key, sign) pairs standing for simple_of[key] to the power sign.

        Returns p: the old factors times the letters are
        Delta^p . phi^t(new factors), t = p mod phi's order, as every Delta
        taken out, and every inverse letter, moves p and t together.  Each
        run of letters of one sign is folded left to right as it is read: a
        letter joins the run while the product table has their product,
        r . s for positive letters and s . r for inverse ones, as
        r^-1 . s^-1 = (s . r)^-1.  A letter that does not join ends the run,
        which the frame then takes: a positive run r appends phi^-t(r), and
        a negative one phi^-t(dr) then Delta^-1, as y . r^-1 =
        y . dr . Delta^-1 and y . Delta^-1 = Delta^-1 . phi^-1(y).  Each
        append re-splits the pairs (f_i, f_i+1) right to left into
        (f_i . e, d), e = gcd(comp(f_i), f_i+1) and e . d = f_i+1, up to
        the first pair with e = 1 or until the carried f_i is Delta, which
        is dropped as the passed suffix is relabelled by phi^-1 and the
        frame twists by phi.  An identity can arise only at the back.
        A key that simple_of refuses raises from its lookup (KeyError for
        a dict).
        """
        split = self.split
        product = self.product_table
        residual = self.residual_left
        delta = self.delta
        comp = self.left_complement
        powers = self._phi_powers
        order = len(powers)
        untwist = powers[-1].__getitem__  # phi^-1
        p = 0
        perm = powers[0]  # phi^-t
        run, run_sign, positive = self.identity, 1, True
        for key, sign in chain(letters, _END):
            s = simple_of[key]
            if sign == run_sign:
                folded = product[run][s] if positive else product[s][run]
                if folded is not None:
                    run = folded
                    continue
            b = perm[run] if positive else perm[comp[run]]  # the carried simple
            i = len(factors)
            factors.append(b)
            while i and b != delta:
                i -= 1
                a = factors[i]
                e = split[a][b]
                if not e:  # e = 1 (simple 0): the pair is left-weighted
                    break
                factors[i + 1] = residual[e][b]
                b = factors[i] = product[a][e]
            if b != delta:
                if not factors[-1]:
                    factors.pop()
                if not positive:
                    p -= 1
                    perm = powers[-p % order]
            else:
                del factors[i]  # only the carry can be Delta, and it sits at i
                if order > 1:
                    factors[i:] = map(untwist, factors[i:])
                if factors and not factors[-1]:
                    factors.pop()
                if positive:
                    p += 1
                    perm = powers[-p % order]
            run, run_sign, positive = s, sign, sign > 0
        return p

    def _untwist(self, p: int, factors: list[int]) -> tuple[int, ...]:
        """phi^t(factors), t = p mod phi's order, for the p _sweep returned."""
        t = p % len(self._phi_powers)
        if t:
            factors = map(self._phi_powers[t].__getitem__, factors)
        return tuple(factors)

    def _generator_normal_form(self, letters, indices) -> NormalForm:
        """Normal form of letters keyed by generator index.  The atom map
        refuses a bad index; only then are indices read for the first."""
        factors: list[int] = []
        try:
            p = self._sweep(factors, letters, self._atom_of)
        except KeyError:
            bad = next(gi for gi in indices if gi not in self._atom_of)
            raise GarsideError(f"generator index {bad} is out of range") from None
        return NormalForm(p, self._untwist(p, factors))

    def normal_form(self, word: Word) -> NormalForm:
        """Normal form of a positive word in the generators."""
        return self._generator_normal_form(zip(word, repeat(1)), word)

    def normal_form_signed(self, letters: list[tuple[int, int]]) -> NormalForm:
        """Normal form of a group word given as (generator index, +-1) pairs."""
        return self._generator_normal_form(letters, map(itemgetter(0), letters))

    def normal_form_simples(self, letters: list[tuple[int, int]]) -> NormalForm:
        """Normal form of a product of simples given as (simple id, +-1) pairs:
        one sweep multiplies the identity by the letters.  The identity and
        Delta may be letters.  Left normal forms are unique, so the runs the
        sweep folds change the work and not the result."""
        factors: list[int] = []
        p = self._sweep(factors, letters, self._phi_powers[0])
        return NormalForm(p, self._untwist(p, factors))

    def nf_length(self, x: NormalForm) -> int:
        return x.delta_power * self.delta_length + sum(
            self.simple_length(f) for f in x.factors
        )

    # -- group arithmetic ----------------------------------------------------

    def multiply(self, x: NormalForm, y: NormalForm) -> NormalForm:
        """x . y = Delta^(p+q) . phi^q(x's factors) . y's factors, q = y's
        power: one sweep appends y's factors to x's twisted ones.  No two of
        them fold, as a left-weighted pair (a, b) has a . b simple only when
        b = 1."""
        perm = self.phi_power_perm(y.delta_power)
        factors = [perm[f] for f in x.factors]
        p = self._sweep(factors, zip(y.factors, repeat(1)), self._phi_powers[0])
        return NormalForm(x.delta_power + y.delta_power + p, self._untwist(p, factors))

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
        """x^k: for k >= 1, k.bit_length() - 1 squarings and popcount(k) - 1
        further products."""
        if k < 0:
            return self.power(self.invert(x), -k)
        out = IDENTITY_NF if not k else None
        while k:
            if k & 1:
                out = x if out is None else self.multiply(out, x)
            k >>= 1
            if k:
                x = self.multiply(x, x)
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
    """Build the Garside structure over p, checking the axioms that can fail:
    the closure front end, which finds the germ (simples, right)."""
    if not p.delta_word:
        raise GarsideError("delta word must be non-empty")
    oracle = congruence_classes(p, len(p.delta_word), budget)

    # Simples and balancedness.
    prefixes, suffixes = _divisor_classes(oracle, p.delta_word)
    if prefixes != suffixes:
        witnesses = [
            f"{p.render(w)} ({'left' if w in prefixes else 'right'} divisor only)"
            for w in sorted(prefixes ^ suffixes, key=lambda w: (len(w), w))
        ]
        raise AxiomViolation("balanced", witnesses)
    simples = tuple(sorted(prefixes, key=lambda w: (len(w), w)))
    # right[t] maps x to the simple x . t, when it is simple.  The oracle
    # closed only Delta's class and its prefix and suffix classes, which are
    # now all simples, so a closed word is a word of a simple and any other
    # word is not.  These n . k reads are the last the build makes of it.
    simple_id = {w: i for i, w in enumerate(simples)}
    right: list[dict[int, int]] = [{} for _ in p.generators]
    for x, w in enumerate(simples):
        for t, times in enumerate(right):
            y = simple_id.get(oracle.reps.get(w + (t,)))
            if y is not None:
                times[x] = y
    return GarsideStructure(p, budget, simples, right)


def axiom_stages(violation: AxiomViolation | None = None) -> dict[str, bool | None]:
    """The "axioms" of a verification report: every stage True, or, for the
    violation a build raised, True before its stage, False at it and None
    after."""
    stages = ("balanced", "lattice", "phi")
    if violation is None:
        return dict.fromkeys(stages, True)
    axioms: dict[str, bool | None] = dict.fromkeys(stages)
    for stage in stages:
        if stage == violation.kind:
            axioms[stage] = False
            break
        axioms[stage] = True
    return axioms


def verify_presentation(p: Presentation, budget: int = DEFAULT_BUDGET) -> dict:
    """Run the staged axiom checks and emit the verification report."""
    try:
        g = build_garside(p, budget)
    except AxiomViolation as exc:
        return {
            "schema": 1,
            "axioms": axiom_stages(exc),
            "simple_count": None,
            "phi_order": None,
            "witnesses": exc.witnesses,
        }
    return {
        "schema": 1,
        "axioms": axiom_stages(),
        "simple_count": len(g.simples),
        "phi_order": g.phi_order,
        "witnesses": [],
    }
