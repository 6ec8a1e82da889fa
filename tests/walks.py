"""Helpers shared by more than one test module.  pyproject.toml puts this
directory on pytest's `pythonpath`, so `from walks import ...` works under
every import mode."""
from qpiverify.factored import sum_terms_mod


def walk_triple(out, mod, n):
    """`sum_terms_mod`'s (A, (c, s), brackets) as the triple (A, D's
    residue, D's bracket counts) that the list walk returns and the digests
    pin.  D's residue is A of the same walk over [(c, s, brackets)]."""
    acc, (c, s), brackets = out
    return acc, sum_terms_mod([(c, s, brackets)], mod, n)[0], {m: k for m, _, _, k in brackets}
