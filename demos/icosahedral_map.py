"""The icosahedral equivariant map: construction, syzygies, dynamics.

Builds K = phi(v5, -12) = (z^11 + 66 z^6 - 11 z)/(-11 z^10 - 66 z^5 + 1)
from the degree-12 vertex form of the icosahedron, checks the invariant
syzygy e^2 - f^3 = 1728 v^5, and shows that the 20 face centers form
superattracting 2-cycles of K.

Run: python demos/icosahedral_map.py
"""

from equiops.operators import klein_vector_field, phi_operator
from equiops.parsing import poly_literal, ratfn_literal
from equiops.properties import check_syzygy, klein_cycles
from equiops.report import load_config

cfg = load_config("A5")
v5 = cfg.vertex_form.poly

print("icosahedral vertex form   v5 =", poly_literal(v5))
k = phi_operator(v5, -12)
print("equivariant map  phi(v5,-12) =", ratfn_literal(k))
print("vector-field construction agrees:", klein_vector_field(v5, 12) == k)

ok, detail = check_syzygy(cfg)
print("%s:" % detail, ok)

print()
print(klein_cycles(cfg).text())
