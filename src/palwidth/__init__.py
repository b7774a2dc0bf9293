"""Constructive palindromic-width toolkit for wreath products over integer
lattices and free metabelian groups, with exact verification throughout."""

from .errors import BudgetExceeded, HypothesisViolation, VerificationError
from .identities import (PalindromicFactorList, commutator_three_palindromes,
                         conjugate_factorization)
from .lamplighter import (OracleResult, TwoPalDecomposition, TwoPalWitness,
                          certify_width_three, enumerate_palindromes,
                          is_palindromic_element, lamp_element,
                          minimal_palindromic_length_bfs, palindrome_for,
                          two_palindrome_decision)
from .lattice import LatticeFn, grid_vectors, zero_fn
from .metabelian import (FlowElement, SquareCoeffs, circulation_to_squares,
                         evaluate_word_flow, flow_from_json, flow_to_json,
                         free_alphabet, identity_flow, invert_flow,
                         lattice_word, multiply_flow, squares_to_element)
from .metabelian_factor import (BattlementPlan, battlement_correct,
                                factorize_metabelian, palindromize_conjugated,
                                palindromize_gridzero, palindromize_skew,
                                metabelian_width_bound)
from .skew import (SkewPiece, skew_split_fixed_centers, skew_split_grid,
                   skew_split_half)
from .symmetric import (SymmetricSplit, symmetric_split,
                        symmetric_split_refined_r1)
from .words import (Alphabet, EPSILON, Factorization, Word, check_factorization,
                    concat, format_word, free_equal, parse_word, power,
                    reduced_concat)
from .wreath import (BaseGroup, CyclicGroup, IntegerGroup, WordGroup,
                     WreathContext, WreathElement, base_from_name,
                     element_from_json, element_to_json, evaluate_word,
                     identity_element, invert, make_element, multiply)
from .wreath_factor import (SnakePlan, build_snake, factorize_wreath,
                            factorize_wreath_z, inject)

__version__ = "0.1.0"
