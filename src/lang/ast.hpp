// AST for the design-file language (Ch. 4, grammar in Appendix A).
//
// The language is a Lisp subset with one syntactic extension: *indexed
// variables*. `l.3`, `c.i` and `c.(- i 1)` denote variables whose name is
// composed with the value of an index expression at evaluation time; two
// index positions are allowed (`cl.i.j`, the BNF's "2indexed variable").
// Index expressions evaluate in the environment of the *use site*, then the
// binding keyed by (base symbol, indices) is looked up like any simple
// variable — which is how design files address the rows/columns of array
// structures without list types (§4).
//
// The parser resolves what does not depend on a run: every identifier is a
// symbol id (symbols.hpp), so a call head names its built-in handler or its
// definition slot by id, and a variable inside a procedure body that names
// one of the procedure's formals or locals carries that name's frame slot
// (§4.5's per-procedure frame, laid out by parser.hpp's frame_layout).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lang/symbols.hpp"

namespace rsg::lang {

inline constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

struct Expr {
  enum class Kind {
    kNumber,  // integer literal
    kString,  // "double-quoted" literal
    kVar,     // simple or indexed variable reference
    kList,    // parenthesized form: call, special form, or bare list
  };

  Kind kind = Kind::kNumber;
  std::int64_t number = 0;
  std::string text;              // kString: contents; kVar: base name
  SymbolId sym = 0;              // kVar: the base name's symbol
  std::uint32_t slot = kNoSlot;  // simple kVar in a procedure body: its frame slot
  std::vector<Expr> indices;     // kVar: 0..2 index expressions
  std::vector<Expr> elements;    // kList: including the head position

  int line = 0;
  int column = 0;

  bool is_var(const std::string& name) const { return kind == Kind::kVar && text == name; }
  bool is_simple_var() const { return kind == Kind::kVar && indices.empty(); }
};

// The frame of a procedure (defun or macro): one slot per distinct formal
// or local name, formals first. A name listed twice shares its slot, so
// binding formals then locals in order leaves the last binding visible.
struct FrameLayout {
  std::vector<SymbolId> names;         // slot i holds names[i]
  std::vector<std::uint32_t> formals;  // each formal's slot, in call order
  std::vector<std::uint32_t> locals;   // each local's slot
  std::size_t body_start = 3;          // index of the first body form

  std::uint32_t slot_of(SymbolId sym) const {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == sym) return static_cast<std::uint32_t>(i);
    }
    return kNoSlot;
  }
};

// A parsed program: its top-level forms and the symbol table their ids
// index. Copies share one immutable body, so a definition can keep the
// forms it points into alive after the caller's Program is gone.
struct ProgramBody : std::enable_shared_from_this<ProgramBody> {
  std::shared_ptr<const SymbolTable> symbols;
  std::vector<Expr> forms;
};

class Program {
 public:
  Program() {
    auto body = std::make_shared<ProgramBody>();
    body->symbols = std::make_shared<const SymbolTable>();
    body_ = std::move(body);
  }
  explicit Program(std::shared_ptr<const ProgramBody> body) : body_(std::move(body)) {}

  std::size_t size() const { return body_->forms.size(); }
  const Expr& operator[](std::size_t i) const { return body_->forms[i]; }

  const SymbolTable& symbols() const { return *body_->symbols; }
  const std::shared_ptr<const ProgramBody>& body() const { return body_; }

 private:
  std::shared_ptr<const ProgramBody> body_;
};

}  // namespace rsg::lang
