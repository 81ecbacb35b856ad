/**
 * @file
 * Unit tests for the ISA substrate: register/sysreg parsing, the lexer,
 * the assembler (including every addressing mode and the paper's exact
 * instruction sequences), and disassembly round-trips.
 */

#include <gtest/gtest.h>

#include "base/logging.hh"
#include "isa/assembler.hh"
#include "isa/lexer.hh"

namespace rex::isa {
namespace {

TEST(Registers, ParseAndName)
{
    EXPECT_EQ(parseReg("X0"), RegId{0});
    EXPECT_EQ(parseReg("x30"), RegId{30});
    EXPECT_EQ(parseReg("W3"), RegId{3});
    EXPECT_EQ(parseReg("XZR"), kZeroReg);
    EXPECT_EQ(parseReg("WZR"), kZeroReg);
    EXPECT_FALSE(parseReg("X31").has_value());
    EXPECT_FALSE(parseReg("Y2").has_value());
    EXPECT_FALSE(parseReg("X").has_value());
    EXPECT_EQ(regName(5), "X5");
    EXPECT_EQ(regName(kZeroReg), "XZR");
}

TEST(Sysregs, ParseShorthandsAndFullNames)
{
    EXPECT_EQ(parseSysreg("ESR_EL1"), Sysreg::ESR_EL1);
    EXPECT_EQ(parseSysreg("elr_el1"), Sysreg::ELR_EL1);
    EXPECT_EQ(parseSysreg("IAR"), Sysreg::ICC_IAR1_EL1);
    EXPECT_EQ(parseSysreg("EOIR"), Sysreg::ICC_EOIR1_EL1);
    EXPECT_EQ(parseSysreg("DIR"), Sysreg::ICC_DIR_EL1);
    EXPECT_EQ(parseSysreg("ICC_SGI1R_EL1"), Sysreg::ICC_SGI1R_EL1);
    EXPECT_FALSE(parseSysreg("NOPE_EL1").has_value());
}

TEST(Sysregs, Classification)
{
    EXPECT_TRUE(isSelfSynchronising(Sysreg::ELR_EL1));
    EXPECT_TRUE(isSelfSynchronising(Sysreg::SPSR_EL1));
    EXPECT_FALSE(isSelfSynchronising(Sysreg::ESR_EL1));
    EXPECT_TRUE(isGicRegister(Sysreg::ICC_IAR1_EL1));
    EXPECT_FALSE(isGicRegister(Sysreg::TPIDR_EL1));
}

TEST(Lexer, SplitsStatementsAndLabels)
{
    auto statements = splitStatements(
        "MOV X0,#1\nSTR X0,[X1] // store\nL: NOP; ISB\n");
    ASSERT_EQ(statements.size(), 5u);
    EXPECT_EQ(statements[2], "L:");
    EXPECT_EQ(statements[3], "NOP");
    EXPECT_EQ(statements[4], "ISB");
}

TEST(Lexer, TokenizesImmediates)
{
    auto tokens = tokenizeStatement("MOV X2, #0xf");
    ASSERT_GE(tokens.size(), 4u);
    EXPECT_EQ(tokens[3].kind, TokenKind::Immediate);
    EXPECT_EQ(tokens[3].value, 15);
    EXPECT_THROW(tokenizeStatement("MOV X2, #zz"), FatalError);
    EXPECT_THROW(tokenizeStatement("MOV X2, $1"), FatalError);
}

TEST(Assembler, BasicMoves)
{
    Instruction mov = assembleStatement("MOV X3,#5");
    EXPECT_EQ(mov.op, Opcode::MovImm);
    EXPECT_EQ(mov.rd, 3);
    EXPECT_EQ(mov.imm, 5);

    Instruction shifted = assembleStatement("MOV X2, #1, LSL #40");
    EXPECT_EQ(shifted.shift, 40);

    Instruction movr = assembleStatement("MOV X1, X2");
    EXPECT_EQ(movr.op, Opcode::MovReg);
    EXPECT_EQ(movr.rn, 2);
}

TEST(Assembler, AddressingModes)
{
    EXPECT_EQ(assembleStatement("LDR X0,[X1]").mode, AddrMode::BaseOnly);
    EXPECT_EQ(assembleStatement("LDR X0,[X1,X2]").mode, AddrMode::BaseReg);
    EXPECT_EQ(assembleStatement("LDR X0,[X1,#8]").mode, AddrMode::BaseImm);
    Instruction post = assembleStatement("LDR X0,[X1],#8");
    EXPECT_EQ(post.mode, AddrMode::PostIndex);
    EXPECT_EQ(post.imm, 8);
    Instruction pre = assembleStatement("STR X0,[X1,#16]!");
    EXPECT_EQ(pre.mode, AddrMode::PreIndex);
    EXPECT_EQ(pre.imm, 16);
}

TEST(Assembler, AcquireReleaseExclusive)
{
    EXPECT_EQ(assembleStatement("LDAR X0,[X1]").op, Opcode::Ldar);
    EXPECT_EQ(assembleStatement("LDAPR X0,[X1]").op, Opcode::Ldapr);
    EXPECT_EQ(assembleStatement("STLR X0,[X1]").op, Opcode::Stlr);
    EXPECT_EQ(assembleStatement("LDXR X0,[X1]").op, Opcode::Ldxr);
    Instruction stxr = assembleStatement("STXR W3,X2,[X1]");
    EXPECT_EQ(stxr.op, Opcode::Stxr);
    EXPECT_EQ(stxr.rs, 3);
    EXPECT_EQ(stxr.rd, 2);
    EXPECT_EQ(stxr.rn, 1);
}

TEST(Assembler, Barriers)
{
    EXPECT_EQ(assembleStatement("DMB SY").barrier, BarrierKind::DmbSy);
    EXPECT_EQ(assembleStatement("DMB LD").barrier, BarrierKind::DmbLd);
    EXPECT_EQ(assembleStatement("DMB ST").barrier, BarrierKind::DmbSt);
    EXPECT_EQ(assembleStatement("DSB SY").barrier, BarrierKind::DsbSy);
    EXPECT_EQ(assembleStatement("DSB ST").barrier, BarrierKind::DsbSt);
    EXPECT_EQ(assembleStatement("DMB ISH").barrier, BarrierKind::DmbSy);
    EXPECT_EQ(assembleStatement("DMB ISHST").barrier, BarrierKind::DmbSt);
    EXPECT_EQ(assembleStatement("ISB").op, Opcode::Isb);
    EXPECT_THROW(assembleStatement("DMB XX"), FatalError);
}

TEST(Assembler, AluOps)
{
    Instruction eor = assembleStatement("EOR X6,X2,X2");
    EXPECT_EQ(eor.op, Opcode::Alu);
    EXPECT_EQ(eor.alu, AluOp::Eor);
    Instruction add = assembleStatement("ADD X5,X4,#1");
    EXPECT_TRUE(add.aluImmediate);
    EXPECT_EQ(add.imm, 1);
    Instruction andi = assembleStatement("AND X3,X3,#0xFFFFFF");
    EXPECT_EQ(andi.alu, AluOp::And);
    EXPECT_EQ(andi.imm, 0xFFFFFF);
}

TEST(Assembler, ExceptionsAndSysregs)
{
    EXPECT_EQ(assembleStatement("SVC #0").op, Opcode::Svc);
    EXPECT_EQ(assembleStatement("ERET").op, Opcode::Eret);
    Instruction mrs = assembleStatement("MRS X4,ESR_EL1");
    EXPECT_EQ(mrs.op, Opcode::Mrs);
    EXPECT_EQ(mrs.sysreg, Sysreg::ESR_EL1);
    Instruction msr = assembleStatement("MSR ELR_EL1,X5");
    EXPECT_EQ(msr.op, Opcode::Msr);
    EXPECT_EQ(msr.rn, 5);
    Instruction daif = assembleStatement("MSR DAIFSet, #0xf");
    EXPECT_EQ(daif.op, Opcode::MsrDaifSet);
    EXPECT_EQ(daif.imm, 0xf);
    EXPECT_EQ(assembleStatement("MSR DAIFClr, #0xf").op,
              Opcode::MsrDaifClr);
}

TEST(Assembler, CmpAndConditionalBranch)
{
    Instruction cmp = assembleStatement("CMP X0,#1");
    EXPECT_EQ(cmp.op, Opcode::Cmp);
    EXPECT_TRUE(cmp.aluImmediate);
    EXPECT_EQ(cmp.imm, 1);
    Instruction cmpr = assembleStatement("CMP X0,X2");
    EXPECT_FALSE(cmpr.aluImmediate);
    EXPECT_EQ(cmpr.rm, 2);

    Instruction beq = assembleStatement("B.EQ somewhere");
    EXPECT_EQ(beq.op, Opcode::BCond);
    EXPECT_EQ(beq.cond, CondCode::Eq);
    EXPECT_EQ(beq.label, "somewhere");
    EXPECT_EQ(assembleStatement("B.NE L").cond, CondCode::Ne);
    EXPECT_EQ(assembleStatement("B.GE L").cond, CondCode::Ge);
    EXPECT_EQ(assembleStatement("B.LT L").cond, CondCode::Lt);
    EXPECT_THROW(assembleStatement("B.XX L"), FatalError);
}

TEST(Conditions, Semantics)
{
    EXPECT_TRUE(condHoldsFor(CondCode::Eq, 3, 3));
    EXPECT_FALSE(condHoldsFor(CondCode::Eq, 3, 4));
    EXPECT_TRUE(condHoldsFor(CondCode::Ne, 3, 4));
    EXPECT_TRUE(condHoldsFor(CondCode::Ge, 3, 3));
    EXPECT_TRUE(condHoldsFor(CondCode::Gt, 4, 3));
    EXPECT_TRUE(condHoldsFor(CondCode::Le, -5, 3));
    EXPECT_TRUE(condHoldsFor(CondCode::Lt, -5, 3));
    EXPECT_FALSE(condHoldsFor(CondCode::Lt, 3, 3));
}

TEST(Assembler, PairAccessesExpand)
{
    // LDP/STP expand into their two single-copy-atomic element
    // accesses, one cell (0x1000) apart.
    Program prog = assemble("STP X2,X3,[X1]\nLDP X4,X5,[X1]\n");
    ASSERT_EQ(prog.code.size(), 4u);
    EXPECT_EQ(prog.code[0].op, Opcode::Str);
    EXPECT_EQ(prog.code[0].rd, 2);
    EXPECT_FALSE(prog.code[0].pairSecond);
    EXPECT_EQ(prog.code[1].op, Opcode::Str);
    EXPECT_EQ(prog.code[1].rd, 3);
    EXPECT_EQ(prog.code[1].imm, 0x1000);
    EXPECT_TRUE(prog.code[1].pairSecond);
    EXPECT_EQ(prog.code[2].op, Opcode::Ldr);
    EXPECT_EQ(prog.code[3].mode, AddrMode::BaseImm);

    // Base-overlapping LDP is rejected.
    EXPECT_THROW(assemble("LDP X1,X2,[X1]"), FatalError);
    // Pairs only support base / base+imm addressing.
    EXPECT_THROW(assembleStatement("LDP X1,X2,[X3],#8"), FatalError);
}

TEST(Assembler, BranchesAndLabels)
{
    Program prog = assemble(
        "LDR X0,[X1]\n"
        "CBNZ X0,LC00\n"
        "LC00:\n"
        "SVC #0\n");
    ASSERT_EQ(prog.code.size(), 3u);
    EXPECT_EQ(prog.labelIndex("LC00"), 2u);
    EXPECT_EQ(prog.code[1].op, Opcode::Cbnz);
    EXPECT_EQ(prog.code[1].label, "LC00");
}

TEST(Assembler, TrailingLabel)
{
    Program prog = assemble("NOP\nEND:\n");
    EXPECT_EQ(prog.labelIndex("END"), 1u);
}

TEST(Assembler, UndefinedBranchTargetFails)
{
    EXPECT_THROW(assemble("CBZ X0,NOWHERE"), FatalError);
    EXPECT_THROW(assemble("L:\nL:\nNOP"), FatalError);  // duplicate label
}

TEST(Assembler, ProgramAppendKeepsTheAssemblerRules)
{
    // Programs built instruction by instruction (the synthesizer's
    // lowering) go through the same rules as assembled text.
    Program prog;
    prog.append(assembleStatement("LDP X4,X5,[X1]"));
    prog.append(assembleStatement("L:"));
    prog.append(assembleStatement("CBNZ X4,L"));
    ASSERT_EQ(prog.code.size(), 3u);
    EXPECT_EQ(prog.code[0].op, Opcode::Ldr);
    EXPECT_TRUE(prog.code[1].pairSecond);
    EXPECT_EQ(prog.code[1].imm, 0x1000);
    EXPECT_EQ(prog.labelIndex("L"), 2u);
    prog.checkBranches();

    EXPECT_THROW(prog.append(assembleStatement("L:")), FatalError);
    EXPECT_THROW(prog.append(assembleStatement("LDP X1,X2,[X1]")),
                 FatalError);
    prog.append(assembleStatement("B NOWHERE"));
    EXPECT_THROW(prog.checkBranches(), FatalError);
}

TEST(Assembler, RejectsUnknownMnemonic)
{
    EXPECT_THROW(assembleStatement("FROB X1,X2"), FatalError);
    EXPECT_THROW(assembleStatement("LDR X0 [X1]"), FatalError);
    EXPECT_THROW(assembleStatement("MRS X0,NOT_A_REG"), FatalError);
}

TEST(Assembler, DisassemblyRoundTrip)
{
    // toString must re-assemble to the same instruction.
    const char *statements[] = {
        "MOV X1,#7",
        "MOV X2,#1,LSL #40",
        "LDR X0,[X1]",
        "LDR X0,[X1,X2]",
        "STR X3,[X4],#8",
        "STR X3,[X4,#8]!",
        "LDAR X0,[X1]",
        "STLR X0,[X1]",
        "STXR W3,X2,[X1]",
        "DMB SY",
        "DSB ST",
        "ISB",
        "EOR X6,X2,X2",
        "ADD X5,X4,#1",
        "SVC #0",
        "ERET",
        "MRS X4,ELR_EL1",
        "MSR ESR_EL1,X5",
        "MSR DAIFSet,#15",
        "NOP",
    };
    for (const char *text : statements) {
        Instruction first = assembleStatement(text);
        Instruction second = assembleStatement(first.toString());
        EXPECT_EQ(first.toString(), second.toString()) << text;
    }
}

TEST(Assembler, PaperFigureListings)
{
    // The exact thread bodies from the paper's figures must assemble.
    EXPECT_NO_THROW(assemble(
        "MOV X0,#1\nSTR X0,[X1]\nDMB SY\nLDR X2,[X3]\n"));
    EXPECT_NO_THROW(assemble(
        "LDR X0,[X1]\nMRS X4,ESR_EL1\nEOR X5,X0,X0\nADD X5,X4,X5\n"
        "MSR ESR_EL1,X5\nSVC #0\n"));
    EXPECT_NO_THROW(assemble(
        "MRS X3,IAR\nAND X3,X3,#0xFFFFFF\nDSB SY\nMSR EOIR,X3\nISB\n"
        "MOV X0,#1\nLDR X1,[X2]\nDSB SY\nMSR DIR,X3\nERET\n"));
    EXPECT_NO_THROW(assemble(
        "MOV X2, #1, LSL #40\nMSR ICC_SGI1R_EL1, X2\n"));
}

} // namespace
} // namespace rex::isa
