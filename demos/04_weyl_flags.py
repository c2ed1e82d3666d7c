"""
Graded Weyl modules and their Demazure flags
============================================

Assemble graded local Weyl characters, decompose them into level-one
pieces, and verify the dimension product law.
"""

from demflag import (DominantLWeight, affinize, datum_from_label,
                     graded_weyl_character, level_flag, local_weyl_character,
                     weyl_dim_product_check)

# Simply laced: the Weyl module IS a single Demazure module.
A2 = datum_from_label("A2")
g, fd = graded_weyl_character(A2, A2.weight([1, 1]))
print("A2 w1+w2 flag pieces:", fd.pieces)
print("mass:", g.mass())
print()

# Non-simply-laced: the flag can have several pieces at several grades.
C2 = datum_from_label("C2")
for h in ((1, 0), (0, 1), (2, 0), (1, 1)):
    g, fd = graded_weyl_character(C2, C2.weight(h))
    pieces = [(w.h, grade, mult) for w, grade, mult in fd.pieces]
    print(f"C2 {h}: mass {g.mass()}, flag {pieces}")
print()

# Dimensions multiply over fundamental factors.
for h in ((2, 0), (1, 1), (0, 2)):
    ok, (mass, product) = weyl_dim_product_check(C2, C2.weight(h))
    print(f"C2 {h}: mass {mass} == product {product}: {ok}")
print()

# Raising the level refines a Demazure character into higher-level pieces.
A1 = datum_from_label("A1")
ad = affinize(A1)
fd = level_flag(ad, 1, 2, A1.weight([3]))
print("A1 D(1,3w) as level-2 flag:",
      [(w.h, grade, mult) for w, grade, mult in fd.pieces])
print()

# Labelled summands tensor; the ungraded character is the product.
om = A1.weight([1])
f = local_weyl_character(A1, DominantLWeight(((om, "a"), (om, "b"))))
print("two labelled copies of w:", {h: c for (h, _), c in f.terms()})
