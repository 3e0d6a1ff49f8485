// Parameter files (§1.1, §4.1, Appendix C).
//
// The parameter file provides the size and functional specification of a
// particular generation run by setting up bindings in the interpreter's
// GLOBAL environment; design files see them through the §4.1 scoping rules.
//
// Syntax (one entry per line):
//   .directive:value        driver directive; the pipeline reads .top_cell
//                           (output cell) and .compact (`xy` compacts the
//                           output). Any other directive is parsed and
//                           ignored.
//   name = 17               integer parameter
//   name = "some string"    string parameter (e.g. new cell names)
//   name = othername        SYMBOL parameter — re-resolved at use time, the
//                           Figure 4.1 renaming mechanism (corecell = cell)
// Comments start with ';' or '#'.
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "lang/interp.hpp"
#include "lang/value.hpp"

namespace rsg {

struct ParameterFile {
  // Directive keys without the leading dot, in file order for reproducible
  // diagnostics; duplicate keys keep the last value.
  std::map<std::string, std::string> directives;
  std::vector<std::pair<std::string, lang::Value>> assignments;

  static ParameterFile parse(const std::string& text);

  // Installs every assignment into the interpreter's global environment.
  void apply(lang::Interpreter& interp) const;

  const std::string* directive(const std::string& key) const {
    auto it = directives.find(key);
    return it == directives.end() ? nullptr : &it->second;
  }
};

// Shared helper: reads a whole file or throws rsg::Error.
std::string read_text_file(const std::string& path);

}  // namespace rsg
