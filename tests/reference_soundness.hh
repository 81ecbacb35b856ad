/**
 * @file
 * A test-only reference soundness check: gen::soundnessCheck as it was
 * before the axiomatic side became outcome-directed. It walks every
 * candidate (Skipped when the walk trips the candidate ceiling), runs
 * the model on every coherent one and renders each consistent
 * candidate's outcome key, then explores and reports the explored keys
 * missing from that set. It exists so that the production check, which
 * decides the ceiling from the candidate count, explores first and only
 * looks for witnesses of the explored outcomes, can be compared with an
 * independent exhaustive implementation. It parses the test's rendered
 * source, so it also checks the production path's lowering.
 */

#ifndef REX_TESTS_REFERENCE_SOUNDNESS_HH
#define REX_TESTS_REFERENCE_SOUNDNESS_HH

#include "gen/hammer.hh"

namespace rex::gen::reference {

/** The exhaustive soundness check of @p test under @p config. */
SeedResult soundnessCheck(const GeneratedTest &test,
                          const HammerConfig &config);

} // namespace rex::gen::reference

#endif // REX_TESTS_REFERENCE_SOUNDNESS_HH
