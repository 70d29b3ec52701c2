"""The product form of the retract theorem: the oracle ``finheyt.morphism.is_retract``
is checked against.

For a product P presented by a factor pair with quotients B and C, B is a
retract of P exactly when a hom chi: B -> C exists, with section
psi(x) = (x, chi(x)).  ``retract_via_factor_pair`` builds that witness from the
pair's coordinates; the library's retract search never runs this route.
"""

from finheyt.errors import TheoremViolation
from finheyt.morphism import Homomorphism, RetractWitness, homs, isomorphic


def retract_via_factor_pair(p, b, fp) -> tuple[bool, RetractWitness | None]:
    """Retract witness per the product theorem construction psi(x) = (x, chi(x)).

    Returns (applicable, witness): applicable is False when b is isomorphic to
    neither quotient, in which case the theorem route says nothing.
    """
    quotients = (fp.quotient_a, fp.quotient_b)
    coords = [divmod(v, fp.quotient_b.size) for v in fp.iso.map]
    verdicts = []
    witness = None
    for i, mine in enumerate(quotients):
        sigma = isomorphic(b, mine)
        if sigma is None:
            continue
        chi = homs(mine, quotients[1 - i], "any")
        verdicts.append(chi is not None)
        if chi is None or witness is not None:
            continue
        # psi(y) is the x whose coordinate i is sigma(y) and whose other one is chi of it
        sigma_inv = sigma.inverse().map
        psi = {sigma_inv[c[i]]: x for x, c in enumerate(coords) if chi.map[c[i]] == c[1 - i]}
        witness = RetractWitness(
            retraction=Homomorphism(p, b, tuple(sigma_inv[c[i]] for c in coords)),
            injection=Homomorphism(b, p, tuple(psi[y] for y in b.elements)),
        )
    if not verdicts:
        return False, None
    if witness is None and any(verdicts):
        raise TheoremViolation("hom exists but the product construction built no witness")
    if len(set(verdicts)) > 1:
        raise TheoremViolation("the two product orientations disagree about retractness")
    return True, witness
