"""Exact characters, dimensions, and flags of affine Demazure modules.

The package computes, in exact integer and rational arithmetic:

* finite and untwisted affine root data in Bourbaki conventions,
* Demazure characters by operator ladders along reduced words,
* stable affine Demazure modules labelled by level, dominant classical
  weight, and grade offset,
* piecewise-linear path crystals realizing the same characters by an
  independent construction,
* graded local Weyl characters together with their level-one Demazure
  flags, in every finite type, via the short-root subsystem when the type
  is not simply laced,
* flags of low-level characters by higher-level Demazure characters in
  simply-laced type.

See the ``demflag`` command line for the same functionality over JSON, CSV,
and plain tables.
"""

from . import errors
from .characters import (Character, check_w_invariance_per_grade,
                         demazure_step, demazure_word_char, forget_grading,
                         weyl_character_finite)
from .demazure import (DemazureLabel, demazure_character, demazure_dim,
                       solve_extremal)
from .flags import (DominantLWeight, FlagDecomposition, graded_weyl_character,
                    greedy_decompose, level_flag, local_weyl_character,
                    weyl_dim_product_check)
from .lspath import (LSPath, PathSet, crystal_character, f_edge_lines,
                     generate_demazure_set, joseph_highest, root_op_f,
                     straight_path)
from .root_data import (AffineDatum, RootDatum, ShortEmbedding, Weight,
                        affinize, apply_word, build_finite_datum,
                        datum_from_label, eta_lambda, make_dominant,
                        reflect_weight, short_subdatum)

__version__ = "0.1.0"

__all__ = [
    "AffineDatum", "Character", "DemazureLabel", "DominantLWeight",
    "FlagDecomposition", "LSPath", "PathSet", "RootDatum", "ShortEmbedding",
    "Weight", "affinize", "apply_word", "build_finite_datum",
    "check_w_invariance_per_grade", "crystal_character",
    "datum_from_label", "demazure_character", "demazure_dim", "demazure_step",
    "demazure_word_char", "errors", "eta_lambda",
    "f_edge_lines", "forget_grading", "generate_demazure_set",
    "graded_weyl_character", "greedy_decompose", "joseph_highest",
    "level_flag", "local_weyl_character", "make_dominant",
    "reflect_weight", "root_op_f", "short_subdatum", "solve_extremal",
    "straight_path", "weyl_character_finite",
    "weyl_dim_product_check",
]
