#include "cat/ast.hh"

#include "base/strings.hh"

namespace rex::cat {

std::string
Expr::toString() const
{
    switch (kind) {
      case Kind::Name:
        return name;
      case Kind::Zero:
        return "0";
      case Kind::Union:
        return concat({"(", lhs->toString(), " | ", rhs->toString(), ")"});
      case Kind::Inter:
        return concat({"(", lhs->toString(), " & ", rhs->toString(), ")"});
      case Kind::Diff:
        return concat({"(", lhs->toString(), " \\ ", rhs->toString(), ")"});
      case Kind::Seq:
        return concat({"(", lhs->toString(), "; ", rhs->toString(), ")"});
      case Kind::Closure:
        return lhs->toString() + "+";
      case Kind::RtClosure:
        return lhs->toString() + "*";
      case Kind::Optional:
        return lhs->toString() + "?";
      case Kind::Inverse:
        return lhs->toString() + "^-1";
      case Kind::Complement:
        return concat({"~", lhs->toString()});
      case Kind::Bracket:
        return concat({"[", lhs->toString(), "]"});
      case Kind::If:
        return concat({"(if ... then ", lhs->toString(), " else ",
                       rhs->toString(), ")"});
      case Kind::App:
        return name + "(" + lhs->toString() + ")";
    }
    return "?";
}

} // namespace rex::cat
