"""The dual-free family of monoids attached to the type B braid groups.

For each n >= 1 this builds the monoid on generators b1 .. bn subject to

  b1 b2 b1 b2 = b2 b1 b2 b1                    (the length-four braiding)
  bi b(i+1) bi = b(i+1) bi b(i+1)   2 <= i < n (ordinary braiding)
  bi bj = bj bi                     |i - j| > 1 (distant commutation)

with Garside element delta = (b1 b2 ... bn)^n.  The distinguished periodic
element is epsilon = bn b(n-1) ... b1, an n-th root of delta.

Group elements of the enveloping group carry a winding number: the signed
count of b1 letters.  Winding is a homomorphism onto the integers, and the
index-e subgroups of interest are exactly the kernels of winding mod e.
"""

from __future__ import annotations

from .errors import GarsideError
from .monoid import GarsideStructure, NormalForm
from .presentation import Presentation, Word


def typeb_presentation(n: int) -> Presentation:
    """The presentation on b1 .. bn described in the module docstring."""
    if n < 1:
        raise GarsideError(f"need at least one generator, got n={n}")
    generators = tuple(f"b{i}" for i in range(1, n + 1))
    relations: list[tuple[Word, Word]] = []
    if n >= 2:
        relations.append(((0, 1, 0, 1), (1, 0, 1, 0)))
    for i in range(1, n - 1):
        relations.append(((i, i + 1, i), (i + 1, i, i + 1)))
    for i in range(n):
        for j in range(i + 2, n):
            relations.append(((i, j), (j, i)))
    delta = tuple(range(n)) * n
    return Presentation(generators, tuple(relations), delta)


def epsilon_word(n: int) -> Word:
    """The word bn b(n-1) ... b1."""
    if n < 1:
        raise GarsideError(f"need at least one generator, got n={n}")
    return tuple(range(n - 1, -1, -1))


def winding(letters: list[tuple[int, int]]) -> int:
    """Signed count of b1 letters in a signed word.

    Each letter is (generator index, +1 or -1); generator index 0 is b1.
    """
    return sum(sign for index, sign in letters if index == 0)


def is_member(letters: list[tuple[int, int]], e: int) -> bool:
    """Whether a signed word lies in the winding-kernel subgroup mod e."""
    if e < 1:
        raise GarsideError(f"subgroup index must be positive, got e={e}")
    return winding(letters) % e == 0


def check_epsilon(g: GarsideStructure, n: int) -> dict:
    """Verify that epsilon = bn .. b1 is an n-th root of delta.

    The structure g must have been built from typeb_presentation(n).
    Returns a small report dict; for n = 2 it also records that the claim
    is syntactic, i.e. epsilon^2 and delta are the two sides of the
    length-four braiding relation, so no normal-form computation is needed
    to see it.
    """
    p = g.presentation
    eps = epsilon_word(n)
    expected = tuple(f"b{i}" for i in range(1, n + 1))
    if p.generators != expected:
        raise GarsideError(
            f"structure has generators {p.generators}, wanted {expected}"
        )
    eps_nf = g.normal_form(eps)
    power = g.power(eps_nf, n)
    delta_nf = g.normal_form(p.delta_word)
    syntactic = None
    if n == 2:
        doubled = eps + eps
        syntactic = any(
            {lhs, rhs} == {doubled, p.delta_word} for lhs, rhs in p.relations
        )
    return {
        "epsilon": p.render(eps),
        "epsilon_power_is_delta": power == delta_nf == NormalForm(1, ()),
        "delta_central": g.is_central(delta_nf),
        "phi_order": g.phi_order,
        "syntactic_b1": syntactic,
    }
