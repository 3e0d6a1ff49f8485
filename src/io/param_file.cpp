#include "io/param_file.hpp"

#include <cctype>
#include <fstream>
#include <sstream>

#include "support/error.hpp"

namespace rsg {

namespace {

std::string strip(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool is_integer(const std::string& s) {
  if (s.empty()) return false;
  std::size_t i = (s[0] == '-' || s[0] == '+') ? 1 : 0;
  if (i == s.size()) return false;
  for (; i < s.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

}  // namespace

std::string read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw Error("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

ParameterFile ParameterFile::parse(const std::string& text) {
  ParameterFile result;
  std::istringstream lines(text);
  std::string line;
  int line_number = 0;
  while (std::getline(lines, line)) {
    ++line_number;
    // Strip comments.
    const std::size_t comment = line.find_first_of(";#");
    if (comment != std::string::npos) line.resize(comment);
    line = strip(line);
    if (line.empty()) continue;

    if (line[0] == '.') {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) {
        throw Error("parameter file line " + std::to_string(line_number) +
                    ": directive needs ':' — " + line);
      }
      result.directives[strip(line.substr(1, colon - 1))] = strip(line.substr(colon + 1));
      continue;
    }

    const std::size_t equals = line.find('=');
    if (equals == std::string::npos) {
      throw Error("parameter file line " + std::to_string(line_number) +
                  ": expected name=value — " + line);
    }
    const std::string name = strip(line.substr(0, equals));
    const std::string raw = strip(line.substr(equals + 1));
    if (name.empty() || raw.empty()) {
      throw Error("parameter file line " + std::to_string(line_number) +
                  ": empty name or value — " + line);
    }

    lang::Value value;
    if (raw.size() >= 2 && raw.front() == '"' && raw.back() == '"') {
      value = lang::Value::string(raw.substr(1, raw.size() - 2));
    } else if (is_integer(raw)) {
      value = lang::Value::integer(std::stoll(raw));
    } else {
      value = lang::Value::symbol(raw);
    }
    result.assignments.emplace_back(name, std::move(value));
  }
  return result;
}

void ParameterFile::apply(lang::Interpreter& interp) const {
  for (const auto& [name, value] : assignments) interp.set_global(name, value);
}

}  // namespace rsg
