"""Graph polynomials by two independent routes.

The rank-generating function W(u, v) sums u^rank v^corank over all edge
subsets; the Tutte polynomial T(x, y) comes from memoized deletion and
contraction.  The two are related by a change of variables, and both
specialize to the chromatic and flow polynomials.
"""

from fractions import Fraction

from rcpotts import (
    BivariatePolynomial,
    Multigraph,
    chromatic_poly,
    count_flows,
    count_proper_colourings,
    eval_poly,
    flow_poly,
    rank_gen_poly,
    triangle,
    tutte_poly,
)

g = triangle()
print("triangle rank-generating function:", rank_gen_poly(g).terms)
print("triangle Tutte polynomial:        ", tutte_poly(g).terms)

# the transform: T(x, y) = (x-1)^(|V|-1) W(1/(x-1), y-1) on connected graphs
x, y = Fraction(3), Fraction(2)
lhs = (x - 1) ** (g.n - 1) * eval_poly(rank_gen_poly(g), 1 / (x - 1), y - 1)
print(f"W-transform at ({x},{y}):", lhs, "=", eval_poly(tutte_poly(g), x, y))

# chromatic specialization, cross-checked against direct enumeration
for q in range(1, 5):
    poly_val = eval_poly(chromatic_poly(g), Fraction(q), Fraction(0))
    print(f"proper {q}-colourings: {poly_val} (enumeration: {count_proper_colourings(g, q)})")

# flow specialization: the triangle has q-1 nowhere-zero mod-q flows
for q in range(2, 6):
    poly_val = eval_poly(flow_poly(g), Fraction(q), Fraction(0))
    print(f"nowhere-zero mod-{q} flows: {poly_val} (brute force: {count_flows(g, q)})")

# a bridge kills every flow
bridge = Multigraph(2, ((0, 1),))
print("flow polynomial of a bridge is zero:", flow_poly(bridge) == BivariatePolynomial())
