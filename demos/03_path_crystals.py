"""
Path crystals as an independent cross-check
===========================================

Generate a Demazure subset of the path crystal with root operators and
compare its character against the exponent-ladder computation.
"""

from demflag import (DemazureLabel, affinize, crystal_character,
                     datum_from_label, demazure_word_char, f_edge_lines,
                     generate_demazure_set, joseph_highest, root_op_f,
                     solve_extremal, straight_path)

A1 = datum_from_label("A1")
ad = affinize(A1)

# A path is a sequence of segments (direction v, duration t).  It is stored
# on integers: a common denominator n and, per segment, the scaled duration
# n*t with the direction v, which is integral; `segments` gives the rational
# form back.  The straight path to a dominant weight is the highest element
# of its crystal.
Lam = ad.fundamental_weight(1)
pi = straight_path(ad, Lam)
print("highest path:", pi.segments, "weight:", pi.weight())

# Lowering operators bend paths; each application subtracts a simple root.
low = root_op_f(ad, 1, pi)
print("f_1 applied:", low.weight())
print("f_1 twice:", root_op_f(ad, 1, low))
print()

# Characters computed from the crystal agree with the ladder characters.
lab = DemazureLabel(1, A1.weight([2]))
top, word = solve_extremal(ad, lab)
ps = generate_demazure_set(ad, top, word)
print("paths generated:", len(ps.paths))
print("crystal char == ladder char:",
      crystal_character(ps) == demazure_word_char(ad, word, top))
print()
print("lowering edges inside the set:")
print(f_edge_lines(ps))

# Highest terms of straight(mu) * crystal index the next level's flag.
pairs = joseph_highest(ad, ad.fundamental_weight(0), top, word)
for b, nu in pairs:
    print("highest element at", b.weight(), "gives nu =", nu)
