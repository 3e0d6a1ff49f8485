#include "lang/parser.hpp"

#include "lang/lexer.hpp"
#include "support/error.hpp"

namespace rsg::lang {

namespace {

class Parser {
 public:
  Parser(std::vector<Token> tokens, SymbolTable& symbols)
      : tokens_(std::move(tokens)), symbols_(symbols) {}

  std::vector<Expr> parse_program() {
    std::vector<Expr> forms;
    while (peek().kind != Token::Kind::kEnd) forms.push_back(parse_form());
    return forms;
  }

  Expr parse_form() {
    const Token& token = peek();
    switch (token.kind) {
      case Token::Kind::kNumber: {
        Expr e = make(Expr::Kind::kNumber, token);
        e.number = token.number;
        next();
        return e;
      }
      case Token::Kind::kString: {
        Expr e = make(Expr::Kind::kString, token);
        e.text = token.text;
        next();
        return e;
      }
      case Token::Kind::kSymbol:
        return parse_variable();
      case Token::Kind::kLParen:
        return parse_list();
      case Token::Kind::kRParen:
        throw LangError("unexpected ')'", token.line, token.column);
      case Token::Kind::kDot:
        throw LangError("unexpected '.' (an index must follow a variable name)", token.line,
                        token.column);
      case Token::Kind::kEnd:
        throw LangError("unexpected end of input", token.line, token.column);
    }
    throw LangError("unreachable", token.line, token.column);
  }

  bool at_end() const { return pos_ >= tokens_.size() || tokens_[pos_].kind == Token::Kind::kEnd; }

 private:
  Expr make(Expr::Kind kind, const Token& token) {
    Expr e;
    e.kind = kind;
    e.line = token.line;
    e.column = token.column;
    return e;
  }

  Expr parse_variable() {
    const Token& name = expect(Token::Kind::kSymbol, "variable name");
    Expr e = make(Expr::Kind::kVar, name);
    e.text = name.text;
    e.sym = symbols_.intern(e.text);
    // Up to two index positions (the BNF's indexed / 2indexed variables).
    while (peek().kind == Token::Kind::kDot && e.indices.size() < 2) {
      next();  // consume '.'
      e.indices.push_back(parse_index());
    }
    if (peek().kind == Token::Kind::kDot) {
      throw LangError("more than two indices on variable '" + e.text + "'", peek().line,
                      peek().column);
    }
    return e;
  }

  Expr parse_index() {
    const Token& token = peek();
    switch (token.kind) {
      case Token::Kind::kNumber: {
        Expr e = make(Expr::Kind::kNumber, token);
        e.number = token.number;
        next();
        return e;
      }
      case Token::Kind::kSymbol: {
        // A plain variable index; dots after it would be ambiguous and are
        // rejected (write c.(x.i) if needed).
        Expr e = make(Expr::Kind::kVar, token);
        e.text = token.text;
        e.sym = symbols_.intern(e.text);
        next();
        return e;
      }
      case Token::Kind::kLParen:
        return parse_list();
      default:
        throw LangError("expected number, variable or '(' after '.'", token.line, token.column);
    }
  }

  Expr parse_list() {
    const Token& open = expect(Token::Kind::kLParen, "'('");
    Expr e = make(Expr::Kind::kList, open);
    while (peek().kind != Token::Kind::kRParen) {
      if (peek().kind == Token::Kind::kEnd) {
        throw LangError("missing ')' for list opened here", open.line, open.column);
      }
      e.elements.push_back(parse_form());
    }
    next();  // consume ')'
    return e;
  }

  const Token& peek() const { return tokens_[pos_]; }
  void next() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  const Token& expect(Token::Kind kind, const std::string& what) {
    const Token& token = peek();
    if (token.kind != kind) {
      throw LangError("expected " + what, token.line, token.column);
    }
    next();
    return token;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
  SymbolTable& symbols_;
};

bool is_procedure_form(const Expr& e) {
  return e.kind == Expr::Kind::kList && !e.elements.empty() && e.elements[0].is_simple_var() &&
         (e.elements[0].sym == kSymDefun || e.elements[0].sym == kSymMacro);
}

// Gives each plain variable that names a formal or local of the innermost
// enclosing procedure its frame slot. A procedure's body only ever runs in
// that procedure's frame, so the slot is valid wherever the form runs.
void assign_slots(Expr& e, const FrameLayout* layout) {
  switch (e.kind) {
    case Expr::Kind::kNumber:
    case Expr::Kind::kString:
      return;
    case Expr::Kind::kVar:
      if (layout != nullptr && e.indices.empty()) e.slot = layout->slot_of(e.sym);
      for (Expr& index : e.indices) assign_slots(index, layout);
      return;
    case Expr::Kind::kList:
      if (is_procedure_form(e)) {
        if (const std::optional<FrameLayout> inner =
                frame_layout(e, [](const Expr&, const char*) {})) {
          for (std::size_t i = inner->body_start; i < e.elements.size(); ++i) {
            assign_slots(e.elements[i], &*inner);
          }
          return;
        }
      }
      for (Expr& element : e.elements) assign_slots(element, layout);
      return;
  }
}

}  // namespace

std::optional<FrameLayout> frame_layout(const Expr& form, const RejectForm& reject) {
  if (form.elements.size() < 3 || !form.elements[1].is_simple_var()) return std::nullopt;
  const Expr& formals = form.elements[2];
  if (formals.kind != Expr::Kind::kList) {
    reject(formals, "formals must be a parenthesized list");
    return std::nullopt;
  }
  FrameLayout layout;
  const auto slot_for = [&layout](SymbolId sym) {
    std::uint32_t slot = layout.slot_of(sym);
    if (slot == kNoSlot) {
      slot = static_cast<std::uint32_t>(layout.names.size());
      layout.names.push_back(sym);
    }
    return slot;
  };
  for (const Expr& formal : formals.elements) {
    if (!formal.is_simple_var()) {
      reject(formal, "formal parameter must be a plain name");
      return std::nullopt;
    }
    layout.formals.push_back(slot_for(formal.sym));
  }
  if (form.elements.size() > 3) {
    const Expr& maybe_locals = form.elements[3];
    if (maybe_locals.kind == Expr::Kind::kList && !maybe_locals.elements.empty() &&
        maybe_locals.elements.front().kind == Expr::Kind::kVar &&
        maybe_locals.elements.front().sym == kSymLocals) {
      for (std::size_t i = 1; i < maybe_locals.elements.size(); ++i) {
        const Expr& local = maybe_locals.elements[i];
        if (!local.is_simple_var()) {
          reject(local, "local must be a plain name");
          return std::nullopt;
        }
        layout.locals.push_back(slot_for(local.sym));
      }
      layout.body_start = 4;
    }
  }
  return layout;
}

Program parse_program(const std::string& source) {
  auto symbols = std::make_shared<SymbolTable>();
  auto body = std::make_shared<ProgramBody>();
  body->forms = Parser(tokenize(source), *symbols).parse_program();
  for (Expr& form : body->forms) assign_slots(form, nullptr);
  body->symbols = std::move(symbols);
  return Program(std::move(body));
}

Expr parse_form(const std::string& source) {
  SymbolTable symbols;
  Parser parser(tokenize(source), symbols);
  Expr form = parser.parse_form();
  if (!parser.at_end()) throw Error("parse_form: trailing input after form");
  return form;
}

}  // namespace rsg::lang
