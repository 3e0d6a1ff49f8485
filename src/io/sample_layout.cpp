#include "io/sample_layout.hpp"

#include <cctype>
#include <sstream>
#include <utility>
#include <vector>

#include "iface/interface.hpp"
#include "io/cif_reader.hpp"
#include "support/error.hpp"

namespace rsg {

namespace {

struct Line {
  int number = 0;
  std::vector<std::string> words;
};

std::vector<Line> split_lines(const std::string& text) {
  std::vector<Line> result;
  std::istringstream stream(text);
  std::string raw;
  int number = 0;
  while (std::getline(stream, raw)) {
    ++number;
    const std::size_t comment = raw.find_first_of(";#");
    if (comment != std::string::npos) raw.resize(comment);
    std::istringstream words(raw);
    Line line;
    line.number = number;
    std::string word;
    while (words >> word) line.words.push_back(word);
    if (!line.words.empty()) result.push_back(std::move(line));
  }
  return result;
}

[[noreturn]] void fail(const Line& line, const std::string& message) {
  throw Error("sample layout line " + std::to_string(line.number) + ": " + message);
}

Coord parse_coord(const Line& line, const std::string& word) {
  try {
    return std::stoll(word);
  } catch (...) {
    fail(line, "expected a coordinate, got '" + word + "'");
  }
}

struct AssemblyInstance {
  std::string name;
  const Cell* cell = nullptr;
  Placement placement;
  int declaration_order = 0;
};

class SampleParser {
 public:
  SampleParser(CellTable& cells, InterfaceTable& interfaces)
      : cells_(cells), interfaces_(interfaces) {}

  SampleLayoutStats parse(const std::string& text) {
    const std::vector<Line> lines = split_lines(text);
    std::size_t i = 0;
    while (i < lines.size()) {
      const Line& line = lines[i];
      const std::string& keyword = line.words[0];
      if (keyword == "cell") {
        i = parse_cell(lines, i);
      } else if (keyword == "assembly") {
        i = parse_assembly(lines, i);
      } else {
        fail(line, "expected 'cell' or 'assembly', got '" + keyword + "'");
      }
    }
    return stats_;
  }

 private:
  std::size_t parse_cell(const std::vector<Line>& lines, std::size_t i) {
    const Line& header = lines[i];
    if (header.words.size() != 2) fail(header, "usage: cell <name>");
    Cell& cell = cells_.create(header.words[1]);
    ++stats_.cells;
    ++i;
    for (; i < lines.size(); ++i) {
      const Line& line = lines[i];
      const std::string& keyword = line.words[0];
      if (keyword == "end") return i + 1;
      if (keyword == "box") {
        if (line.words.size() != 6) fail(line, "usage: box <layer> <x0> <y0> <x1> <y1>");
        cell.add_box(parse_layer(line.words[1]),
                     Box(parse_coord(line, line.words[2]), parse_coord(line, line.words[3]),
                         parse_coord(line, line.words[4]), parse_coord(line, line.words[5])));
        ++stats_.boxes;
      } else if (keyword == "point") {
        if (line.words.size() != 4) fail(line, "usage: point <name> <x> <y>");
        cell.add_label(line.words[1],
                       {parse_coord(line, line.words[2]), parse_coord(line, line.words[3])});
        ++stats_.points;
      } else if (keyword == "inst") {
        if (line.words.size() != 6) fail(line, "usage: inst <name> <cell> <x> <y> <orientation>");
        const Cell* sub = std::as_const(cells_).find(line.words[2]);
        if (sub == nullptr) fail(line, "unknown cell '" + line.words[2] + "' (define it first)");
        cell.add_instance(sub,
                          Placement{{parse_coord(line, line.words[3]),
                                     parse_coord(line, line.words[4])},
                                    Orientation::parse(line.words[5])},
                          line.words[1]);
      } else {
        fail(line, "unknown statement '" + keyword + "' in cell body");
      }
    }
    fail(header, "missing 'end' for cell '" + header.words[1] + "'");
  }

  std::size_t parse_assembly(const std::vector<Line>& lines, std::size_t i) {
    const Line& header = lines[i];
    std::vector<AssemblyInstance> instances;
    ++i;
    for (; i < lines.size(); ++i) {
      const Line& line = lines[i];
      const std::string& keyword = line.words[0];
      if (keyword == "end") return i + 1;
      if (keyword == "inst") {
        if (line.words.size() != 6) fail(line, "usage: inst <name> <cell> <x> <y> <orientation>");
        const Cell* cell = cells_.find(line.words[2]);
        if (cell == nullptr) fail(line, "unknown cell '" + line.words[2] + "'");
        for (const AssemblyInstance& existing : instances) {
          if (existing.name == line.words[1]) {
            fail(line, "duplicate instance name '" + line.words[1] + "' in assembly");
          }
        }
        instances.push_back({line.words[1], cell,
                             Placement{{parse_coord(line, line.words[3]),
                                        parse_coord(line, line.words[4])},
                                       Orientation::parse(line.words[5])},
                             static_cast<int>(instances.size())});
        ++stats_.assembly_instances;
      } else if (keyword == "label") {
        parse_label(line, instances);
      } else {
        fail(line, "unknown statement '" + keyword + "' in assembly body");
      }
    }
    fail(header, "missing 'end' for assembly");
  }

  void parse_label(const Line& line, const std::vector<AssemblyInstance>& instances) {
    // label <num> at <x> <y>       — positional (overlap-region) form
    // label <num> from <a> to <b>  — explicit endpoints, reference = a
    if (line.words.size() == 5 && line.words[2] == "at") {
      const int index = static_cast<int>(parse_coord(line, line.words[1]));
      const Point at{parse_coord(line, line.words[3]), parse_coord(line, line.words[4])};
      const AssemblyInstance* first = nullptr;
      const AssemblyInstance* second = nullptr;
      for (const AssemblyInstance& inst : instances) {
        if (!inst.placement.apply(inst.cell->bounding_box()).contains(at)) continue;
        if (first == nullptr) {
          first = &inst;
        } else if (second == nullptr) {
          second = &inst;
        } else {
          fail(line, "label at " + std::to_string(at.x) + "," + std::to_string(at.y) +
                         " lies inside more than two instances — use 'label N from A to B'");
        }
      }
      if (first == nullptr || second == nullptr) {
        fail(line, "label must lie in the overlap region of exactly two instances");
      }
      declare(line, index, *first, *second);
    } else if (line.words.size() == 6 && line.words[2] == "from" && line.words[4] == "to") {
      const int index = static_cast<int>(parse_coord(line, line.words[1]));
      const AssemblyInstance* a = find_instance(line, instances, line.words[3]);
      const AssemblyInstance* b = find_instance(line, instances, line.words[5]);
      declare(line, index, *a, *b);
    } else {
      fail(line, "usage: label <num> at <x> <y>   or   label <num> from <a> to <b>");
    }
  }

  static const AssemblyInstance* find_instance(const Line& line,
                                               const std::vector<AssemblyInstance>& instances,
                                               const std::string& name) {
    for (const AssemblyInstance& inst : instances) {
      if (inst.name == name) return &inst;
    }
    fail(line, "no instance named '" + name + "' in this assembly");
  }

  void declare(const Line& line, int index, const AssemblyInstance& reference,
               const AssemblyInstance& other) {
    const Interface iface = Interface::from_placements(reference.placement, other.placement);
    try {
      interfaces_.declare(reference.cell->name(), other.cell->name(), index, iface);
    } catch (const Error& e) {
      fail(line, e.what());
    }
    ++stats_.interfaces_declared;
  }

  CellTable& cells_;
  InterfaceTable& interfaces_;
  SampleLayoutStats stats_;
};

}  // namespace

SampleLayoutStats load_sample_layout(const std::string& text, CellTable& cells,
                                     InterfaceTable& interfaces) {
  // CIF starts with a comment '(' or a DS command; the text format with a
  // keyword or a ';'/'#' comment.
  for (const char c : text) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    if (c == '(' || c == 'D') return load_sample_layout_cif(text, cells, interfaces);
    break;
  }
  return SampleParser(cells, interfaces).parse(text);
}

}  // namespace rsg
