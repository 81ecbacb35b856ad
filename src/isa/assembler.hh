/**
 * @file
 * Assembler: litmus-test assembly text -> decoded program.
 */

#ifndef REX_ISA_ASSEMBLER_HH
#define REX_ISA_ASSEMBLER_HH

#include <map>
#include <string>
#include <vector>

#include "isa/instruction.hh"

namespace rex::isa {

/**
 * A decoded straight-line program with labels.
 *
 * Label pseudo-instructions are removed from @c code; @c labels maps each
 * label name to the index of the instruction it precedes (possibly
 * code.size() for a trailing label).
 *
 * Programs are built by append() and then checked by checkBranches():
 * assemble() does so from text, and the synthesizer's lowering
 * (gen/spec.hh) from its IR, so both share one label and LDP/STP rule.
 */
struct Program {
    std::vector<Instruction> code;
    std::map<std::string, std::size_t> labels;

    /**
     * Append one decoded statement. A Label pseudo-instruction defines
     * its label at the current end of @c code (fatal() when already
     * defined); LDP/STP expand into their two single-copy-atomic element
     * accesses (§3.4/§6: each may fault independently), the second one
     * location cell past the first and marked pairSecond (fatal() when
     * an LDP destination overlaps its base register).
     */
    void append(const Instruction &inst);

    /** fatal() when a branch targets an undefined label. */
    void checkBranches() const;

    /** Index of @p label, fatal() when absent. */
    std::size_t labelIndex(const std::string &label) const;

    /** Render the program as assembly text. */
    std::string toString() const;
};

/**
 * Assemble a program text (newline/';'-separated statements, "//"
 * comments).
 * @throws FatalError on syntax errors or unknown mnemonics.
 */
Program assemble(const std::string &text);

/** Assemble a single statement (no labels). */
Instruction assembleStatement(const std::string &statement);

} // namespace rex::isa

#endif // REX_ISA_ASSEMBLER_HH
