"""Reference Garside build for differential tests.

The build as it stood before it was cut down to the checks that can
reject an input: two residual passes (left and right), divisor and
multiple masks on both sides, all four gcd/lcm tables, complement
injectivity, phi as a permutation fixing 1 and Delta that preserves atoms,
the left-weighted splitting of every two-simple product and the twist
identity x.Delta = Delta.phi(x).  Its product table looks up the word of
every two simples, one after the other, in a map of every word of every
simple; the build derives its table from right multiplication by atoms
instead.  Tests compare its reports and tables with
`garside.monoid.build_garside`, so the checks the build no longer runs
still run on every input the tests build.
"""

from __future__ import annotations

from garside.errors import AxiomViolation, GarsideError
from garside.monoid import GarsideStructure
from garside.presentation import (
    DEFAULT_BUDGET,
    CongruenceTable,
    Presentation,
    Word,
    congruence_classes,
)


def _divisor_classes(
    oracle: CongruenceTable, delta_word: Word, prefixes: bool
) -> set[Word]:
    members = oracle.class_members(delta_word)
    out: set[Word] = set()
    for w in members:
        for k in range(len(w) + 1):
            out.add(oracle.rep(w[:k] if prefixes else w[k:]))
    return out


def _product_table(
    simples: tuple[Word, ...], word_map: dict[Word, int]
) -> list[list[int | None]]:
    """[a][b] = the simple a * b, or None when it is not simple.

    A word of a followed by a word of b is a word of a * b, and word_map
    holds every word of every simple, so one lookup per pair decides it.
    """
    return [[word_map.get(u + v) for v in simples] for u in simples]


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
    # The constructor derives the tables from a germ; this build fills
    # each table of a bare instance itself.
    g = object.__new__(GarsideStructure)
    g.presentation, g.budget = p, budget

    # Simples and balancedness.
    prefixes = _divisor_classes(oracle, p.delta_word, prefixes=True)
    suffixes = _divisor_classes(oracle, p.delta_word, prefixes=False)
    if prefixes != suffixes:
        witnesses = [
            f"{p.render(w)} ({'left' if w in prefixes else 'right'} divisor only)"
            for w in sorted(prefixes ^ suffixes, key=lambda w: (len(w), w))
        ]
        raise AxiomViolation("balanced", witnesses)
    g.simples = tuple(sorted(prefixes, key=lambda w: (len(w), w)))
    # Every word of every simple, copied class by class.
    word_map = {
        w: i for i, simple in enumerate(g.simples) for w in oracle.class_members(simple)
    }
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
    g._atom_of = dict(enumerate(atom_ids))
    g.atoms = tuple(sorted(set(atom_ids)))
    g.product_table = _product_table(g.simples, word_map)

    # Residuals, divisibility masks, lattice tables.  All four lattice tables
    # are checked for the lattice axiom; only the left gcd table is kept, as a
    # local, for the splitting table below.
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

    # Left-weighted splitting of two-simple products: a * b = c * d with
    # e = gcd(comp(a), b), c = a * e and e * d = b.
    g.split = [[0] * n for _ in range(n)]
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
            g.split[a][b] = e
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
