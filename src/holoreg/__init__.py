"""Cyclic regular subgroups in holomorphs of finite groups.

A library for deciding, constructing, and independently verifying whether
the holomorph of a finite group N contains a regular subgroup generated by a
single element (equivalently, whether a skew brace exists with additive
group N and cyclic multiplicative group).  The classifier runs a structure
theorem over an explicit decomposition N = M x| P; a brute-force oracle over
the holomorph cross-checks every verdict.
"""

from .groups import (BoundExceeded, FiniteGroup, GroupDefinitionError,
                     Homomorphism, HomomorphismError, all_homomorphisms,
                     automorphism_group, center,
                     commutator_subgroup, cyclic_group, dihedral_group,
                     direct_product, find_isomorphism, generating_set,
                     is_cgroup, is_normal, is_subgroup,
                     normal_hall_odd_subgroup, quaternion_group, quotient_group,
                     respects_product, semidirect_product, subgroup_generated,
                     sylow_subgroup, words)
from .cgroups import (CGroupAut, CGroupPresentation, aut_decompose,
                      cgroup_aut_group, cgroup_auts, cgroup_group,
                      geometric_sum, multiplicative_order, recognize_cgroup,
                      unit_groups)
from .holomorph import (DEFAULT_HOL_BOUND, CrossedHom, HolElement,
                        HolElements, SkewBrace, all_regular_subgroups,
                        conjugation_perm, crossed_from_regular,
                        cyclic_regular_oracle,
                        is_regular_subgroup, lambda_embedding,
                        regular_from_crossed,
                        regular_subgroup_as_group,
                        regular_subgroups_isomorphic_to, rho_embedding,
                        skew_brace_from_regular, subgroup_generated_by_hol)
from .realizability import (CorpusEntry, Decomposition, Verdict,
                            cgroup_pool, cgroup_witness, classify,
                            classify_rump, closed_form_products, construct,
                            corpus_representatives, decompose,
                            generate_corpus, normalize_alpha,
                            quotient_action_probe, twisted_partial_products)
from .specs import (SpecError, build_semidirect_from_auts, dump_cayley_table,
                    load_cayley_table, parse_aut_spec, parse_group_spec)

__version__ = "0.1.0"
