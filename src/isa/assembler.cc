#include "isa/assembler.hh"

#include "base/logging.hh"
#include "base/strings.hh"
#include "isa/lexer.hh"

namespace rex::isa {

namespace {

/** Cursor over the token stream of one statement. */
class Cursor
{
  public:
    Cursor(const std::vector<Token> &tokens, const std::string &stmt)
        : _tokens(tokens), _stmt(stmt)
    {}

    const Token &peek() const { return _tokens[_pos]; }

    const Token &
    next()
    {
        const Token &t = _tokens[_pos];
        if (t.kind != TokenKind::End)
            ++_pos;
        return t;
    }

    void
    expect(TokenKind kind, const char *what)
    {
        if (!next().is(kind))
            fail(std::string("expected ") + what);
    }

    RegId
    reg()
    {
        const Token &t = next();
        if (!t.is(TokenKind::Ident))
            fail("expected register");
        auto r = parseReg(t.text);
        if (!r)
            fail("bad register '" + t.text + "'");
        return *r;
    }

    std::int64_t
    imm()
    {
        const Token &t = next();
        if (!t.is(TokenKind::Immediate))
            fail("expected immediate");
        return t.value;
    }

    std::string
    ident()
    {
        const Token &t = next();
        if (!t.is(TokenKind::Ident))
            fail("expected identifier");
        return t.text;
    }

    bool
    tryConsume(TokenKind kind)
    {
        if (peek().is(kind)) {
            next();
            return true;
        }
        return false;
    }

    void
    end()
    {
        if (!peek().is(TokenKind::End))
            fail("trailing tokens");
    }

    [[noreturn]] void
    fail(const std::string &why) const
    {
        fatal(why + " in statement: " + _stmt);
    }

  private:
    const std::vector<Token> &_tokens;
    const std::string &_stmt;
    std::size_t _pos = 0;
};

/** Parse "[Xn]", "[Xn,Xm]", "[Xn,#i]", "[Xn,#i]!", "[Xn],#i". */
void
parseAddress(Cursor &cur, Instruction &inst)
{
    cur.expect(TokenKind::LBracket, "'['");
    inst.rn = cur.reg();
    inst.mode = AddrMode::BaseOnly;
    if (cur.tryConsume(TokenKind::Comma)) {
        if (cur.peek().is(TokenKind::Immediate)) {
            inst.imm = cur.imm();
            inst.mode = AddrMode::BaseImm;
        } else {
            inst.rm = cur.reg();
            inst.mode = AddrMode::BaseReg;
        }
    }
    cur.expect(TokenKind::RBracket, "']'");
    if (inst.mode == AddrMode::BaseImm &&
            cur.tryConsume(TokenKind::Bang)) {
        inst.mode = AddrMode::PreIndex;
    } else if (inst.mode == AddrMode::BaseOnly &&
            cur.tryConsume(TokenKind::Comma)) {
        inst.imm = cur.imm();
        inst.mode = AddrMode::PostIndex;
    }
}

BarrierKind
parseBarrierDomain(Cursor &cur, bool dsb)
{
    std::string dom = toUpper(cur.ident());
    if (dom == "SY")
        return dsb ? BarrierKind::DsbSy : BarrierKind::DmbSy;
    if (dom == "LD")
        return dsb ? BarrierKind::DsbLd : BarrierKind::DmbLd;
    if (dom == "ST")
        return dsb ? BarrierKind::DsbSt : BarrierKind::DmbSt;
    // ISH* domains behave like the SY forms for our purposes.
    if (dom == "ISH" || dom == "OSH" || dom == "NSH")
        return dsb ? BarrierKind::DsbSy : BarrierKind::DmbSy;
    if (dom == "ISHLD" || dom == "OSHLD" || dom == "NSHLD")
        return dsb ? BarrierKind::DsbLd : BarrierKind::DmbLd;
    if (dom == "ISHST" || dom == "OSHST" || dom == "NSHST")
        return dsb ? BarrierKind::DsbSt : BarrierKind::DmbSt;
    cur.fail("bad barrier domain '" + dom + "'");
}

Instruction
parseAlu(Cursor &cur, AluOp op)
{
    Instruction inst;
    inst.op = Opcode::Alu;
    inst.alu = op;
    inst.rd = cur.reg();
    cur.expect(TokenKind::Comma, "','");
    inst.rn = cur.reg();
    cur.expect(TokenKind::Comma, "','");
    if (cur.peek().is(TokenKind::Immediate)) {
        inst.imm = cur.imm();
        inst.aluImmediate = true;
    } else {
        inst.rm = cur.reg();
    }
    return inst;
}

Instruction
parseLoad(Cursor &cur, Opcode op)
{
    Instruction inst;
    inst.op = op;
    inst.rd = cur.reg();
    cur.expect(TokenKind::Comma, "','");
    parseAddress(cur, inst);
    return inst;
}

} // namespace

Instruction
assembleStatement(const std::string &statement)
{
    std::vector<Token> tokens = tokenizeStatement(statement);
    Cursor cur(tokens, statement);

    const Token &head = cur.next();
    if (!head.is(TokenKind::Ident))
        cur.fail("expected mnemonic or label");

    // Label definition: "name:".
    if (cur.peek().is(TokenKind::Colon)) {
        cur.next();
        cur.end();
        Instruction inst;
        inst.op = Opcode::Label;
        inst.label = head.text;
        return inst;
    }

    std::string mn = toUpper(head.text);
    Instruction inst;

    if (mn == "NOP") {
        inst.op = Opcode::Nop;
    } else if (mn == "MOV") {
        inst.rd = cur.reg();
        cur.expect(TokenKind::Comma, "','");
        if (cur.peek().is(TokenKind::Immediate)) {
            inst.op = Opcode::MovImm;
            inst.imm = cur.imm();
            if (cur.tryConsume(TokenKind::Comma)) {
                std::string lsl = toUpper(cur.ident());
                if (lsl != "LSL")
                    cur.fail("expected LSL");
                inst.shift = static_cast<std::uint8_t>(cur.imm());
            }
        } else {
            inst.op = Opcode::MovReg;
            inst.rn = cur.reg();
        }
    } else if (mn == "LDR") {
        inst = parseLoad(cur, Opcode::Ldr);
    } else if (mn == "STR") {
        inst = parseLoad(cur, Opcode::Str);
    } else if (mn == "LDAR") {
        inst = parseLoad(cur, Opcode::Ldar);
    } else if (mn == "LDAPR") {
        inst = parseLoad(cur, Opcode::Ldapr);
    } else if (mn == "STLR") {
        inst = parseLoad(cur, Opcode::Stlr);
    } else if (mn == "LDXR") {
        inst = parseLoad(cur, Opcode::Ldxr);
    } else if (mn == "LDP" || mn == "STP") {
        inst.op = mn == "LDP" ? Opcode::Ldp : Opcode::Stp;
        inst.rd = cur.reg();
        cur.expect(TokenKind::Comma, "','");
        inst.rs = cur.reg();
        cur.expect(TokenKind::Comma, "','");
        parseAddress(cur, inst);
        if (inst.mode != AddrMode::BaseOnly &&
                inst.mode != AddrMode::BaseImm) {
            cur.fail("LDP/STP support only base or base+imm addressing");
        }
    } else if (mn == "STXR") {
        inst.op = Opcode::Stxr;
        inst.rs = cur.reg();
        cur.expect(TokenKind::Comma, "','");
        inst.rd = cur.reg();
        cur.expect(TokenKind::Comma, "','");
        parseAddress(cur, inst);
    } else if (mn == "DMB" || mn == "DSB") {
        inst.op = mn == "DMB" ? Opcode::Dmb : Opcode::Dsb;
        inst.barrier = parseBarrierDomain(cur, mn == "DSB");
    } else if (mn == "ISB") {
        inst.op = Opcode::Isb;
        inst.barrier = BarrierKind::Isb;
    } else if (mn == "ADD") {
        inst = parseAlu(cur, AluOp::Add);
    } else if (mn == "SUB") {
        inst = parseAlu(cur, AluOp::Sub);
    } else if (mn == "EOR") {
        inst = parseAlu(cur, AluOp::Eor);
    } else if (mn == "AND") {
        inst = parseAlu(cur, AluOp::And);
    } else if (mn == "ORR") {
        inst = parseAlu(cur, AluOp::Orr);
    } else if (mn == "CMP") {
        inst.op = Opcode::Cmp;
        inst.rn = cur.reg();
        cur.expect(TokenKind::Comma, "','");
        if (cur.peek().is(TokenKind::Immediate)) {
            inst.imm = cur.imm();
            inst.aluImmediate = true;
        } else {
            inst.rm = cur.reg();
        }
    } else if (mn.size() > 2 && mn[0] == 'B' && mn[1] == '.') {
        inst.op = Opcode::BCond;
        std::string cc = mn.substr(2);
        if (cc == "EQ")
            inst.cond = CondCode::Eq;
        else if (cc == "NE")
            inst.cond = CondCode::Ne;
        else if (cc == "GE")
            inst.cond = CondCode::Ge;
        else if (cc == "GT")
            inst.cond = CondCode::Gt;
        else if (cc == "LE")
            inst.cond = CondCode::Le;
        else if (cc == "LT")
            inst.cond = CondCode::Lt;
        else
            cur.fail("unsupported condition code '" + cc + "'");
        inst.label = cur.ident();
    } else if (mn == "CBZ" || mn == "CBNZ") {
        inst.op = mn == "CBZ" ? Opcode::Cbz : Opcode::Cbnz;
        inst.rd = cur.reg();
        cur.expect(TokenKind::Comma, "','");
        inst.label = cur.ident();
    } else if (mn == "B") {
        inst.op = Opcode::B;
        inst.label = cur.ident();
    } else if (mn == "SVC") {
        inst.op = Opcode::Svc;
        inst.imm = cur.imm();
    } else if (mn == "ERET") {
        inst.op = Opcode::Eret;
    } else if (mn == "MRS") {
        inst.op = Opcode::Mrs;
        inst.rd = cur.reg();
        cur.expect(TokenKind::Comma, "','");
        std::string name = cur.ident();
        auto sysreg = parseSysreg(name);
        if (!sysreg)
            cur.fail("unknown system register '" + name + "'");
        inst.sysreg = *sysreg;
    } else if (mn == "MSR") {
        std::string name = cur.ident();
        std::string upper = toUpper(name);
        cur.expect(TokenKind::Comma, "','");
        if (upper == "DAIFSET") {
            inst.op = Opcode::MsrDaifSet;
            inst.imm = cur.imm();
        } else if (upper == "DAIFCLR") {
            inst.op = Opcode::MsrDaifClr;
            inst.imm = cur.imm();
        } else {
            auto sysreg = parseSysreg(name);
            if (!sysreg)
                cur.fail("unknown system register '" + name + "'");
            inst.op = Opcode::Msr;
            inst.sysreg = *sysreg;
            inst.rn = cur.reg();
        }
    } else {
        cur.fail("unknown mnemonic '" + mn + "'");
    }

    cur.end();
    return inst;
}

std::size_t
Program::labelIndex(const std::string &label) const
{
    auto it = labels.find(label);
    if (it == labels.end())
        fatal("undefined label '" + label + "'");
    return it->second;
}

std::string
Program::toString() const
{
    std::string out;
    for (std::size_t i = 0; i < code.size(); ++i) {
        for (const auto &[name, idx] : labels) {
            if (idx == i)
                out += name + ":\n";
        }
        out += "    " + code[i].toString() + "\n";
    }
    for (const auto &[name, idx] : labels) {
        if (idx == code.size())
            out += name + ":\n";
    }
    return out;
}

void
Program::append(const Instruction &inst)
{
    if (inst.op == Opcode::Label) {
        if (!labels.emplace(inst.label, code.size()).second)
            fatal("duplicate label '" + inst.label + "'");
        return;
    }
    if (inst.op != Opcode::Ldp && inst.op != Opcode::Stp) {
        code.push_back(inst);
        return;
    }
    if (inst.op == Opcode::Ldp &&
            (inst.rd == inst.rn || inst.rs == inst.rn)) {
        fatal("LDP destination overlaps the base register");
    }
    // Element cells are one location apart (the memory model's cell
    // granularity; see litmus/litmus.hh).
    Instruction first;
    first.op = inst.op == Opcode::Ldp ? Opcode::Ldr : Opcode::Str;
    first.rd = inst.rd;
    first.rn = inst.rn;
    first.imm = inst.imm;
    first.mode = inst.mode == AddrMode::BaseOnly ? AddrMode::BaseOnly
                                                 : AddrMode::BaseImm;

    Instruction second = first;
    second.rd = inst.rs;
    second.imm = inst.imm + 0x1000;
    second.mode = AddrMode::BaseImm;
    second.pairSecond = true;
    code.push_back(first);
    code.push_back(second);
}

void
Program::checkBranches() const
{
    for (const Instruction &inst : code) {
        if (inst.isBranch())
            labelIndex(inst.label);
    }
}

Program
assemble(const std::string &text)
{
    Program program;
    for (const std::string &stmt : splitStatements(text))
        program.append(assembleStatement(stmt));
    // Validate branch targets eagerly so errors point at assembly time.
    program.checkBranches();
    return program;
}

} // namespace rex::isa
