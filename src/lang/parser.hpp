// Recursive-descent parser for the Appendix A grammar.
//
// Produces the generic Expr tree of ast.hpp, with every identifier interned
// into the program's SymbolTable and every formal or local reference in a
// procedure body given its frame slot. Special forms (defun, macro, cond,
// do, ...) are otherwise recognized by the interpreter, not the parser, so
// the grammar here is just: program := form*; form := NUMBER | STRING | variable
// | '(' form* ')'; variable := SYMBOL ('.' index){0,2}; index := NUMBER |
// SYMBOL | '(' form* ')'.
#pragma once

#include <functional>
#include <optional>
#include <string>

#include "lang/ast.hpp"

namespace rsg::lang {

Program parse_program(const std::string& source);

// Parses exactly one form (testing convenience).
Expr parse_form(const std::string& source);

// The frame layout of a (defun|macro NAME (FORMALS...) [(locals LOCALS...)]
// BODY...) form; nullopt for any other form. A malformed formals or locals
// list is first passed to `reject` with its diagnostic (the interpreter
// throws it from there). parse_program gives the body's variables their
// slots from this layout, and the interpreter builds the definition's
// frames from it.
using RejectForm = std::function<void(const Expr& site, const char* message)>;
std::optional<FrameLayout> frame_layout(const Expr& form, const RejectForm& reject);

}  // namespace rsg::lang
