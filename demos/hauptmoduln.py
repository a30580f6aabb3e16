"""Replicable Hauptmoduln and the j-invariant.

Prints the leading q-expansion terms of the level-n Hauptmoduln j_n for
n = 2..5 and verifies, in exact cyclotomic arithmetic on Puiseux series,
the algebraic relations j = k_n f_n(j_n)^3 / v_n(j_n)^n tying each one to
the modular j-invariant.  Also checks that the Rogers-Ramanujan continued
fraction equals the level-5 Hauptmodul.

Run: python demos/hauptmoduln.py
"""

from fractions import Fraction

from equiops import qseries as qs

for n in (2, 3, 4, 5):
    series = qs.hauptmodul(n, Fraction(3))
    print("j%d = %r" % (n, series))
    residual = qs.verify_j_relation(n, 8)
    print("   j-relation residual to order 8: %s" % (
        "0 (exact)" if residual.is_zero else repr(residual)))

print()
print("Rogers-Ramanujan fraction equals j5 to order 6:", qs.rr_equals_j5(6).is_zero)
value = qs.heins_value(1j)
print("Schwarzian-quotient value at tau=i: %.10f%+.10fi (expected -i)"
      % (value.real, value.imag))
