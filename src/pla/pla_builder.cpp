#include "pla/pla_builder.hpp"

#include "io/param_file.hpp"
#include "layout/flatten.hpp"
#include "rsg/compiled_design.hpp"
#include "rsg/session.hpp"
#include "support/error.hpp"

namespace rsg::pla {

lang::Interpreter::EncodingTable to_encoding_table(const TruthTable& table) {
  lang::Interpreter::EncodingTable result;
  result.inputs = table.num_inputs();
  result.outputs = table.num_outputs();
  for (const Term& term : table.terms()) {
    std::vector<int> in;
    in.reserve(term.inputs.size());
    for (const InBit bit : term.inputs) in.push_back(static_cast<int>(bit));
    std::vector<int> out;
    out.reserve(term.outputs.size());
    for (const bool bit : term.outputs) out.push_back(bit ? 1 : 0);
    result.in.push_back(std::move(in));
    result.out.push_back(std::move(out));
  }
  return result;
}

GeneratorResult generate_pla(const TruthTable& table) {
  const lang::Interpreter::EncodingTable encoding = to_encoding_table(table);
  GenerationSession session(CompiledDesign::compile(read_text_file(designs_path("pla.sample")),
                                                    read_text_file(designs_path("pla.rsg"))));
  session.set_encoding_table(&encoding);
  return session.generate(read_text_file(designs_path("pla.par")), "pla");
}

bool is_foldable(const TruthTable& table) {
  // Folding pairs output 2c-1 with output 2c; an odd output count leaves an
  // unpaired column and cannot fold.
  if (table.num_outputs() % 2 != 0) return false;
  const int split = table.num_terms() / 2;
  for (int o = 0; o < table.num_outputs(); ++o) {
    const bool upper = (o % 2 == 0);  // 0-based: outputs 1,3,5.. are upper
    for (int t = 0; t < table.num_terms(); ++t) {
      if (!table.terms()[static_cast<std::size_t>(t)].outputs[static_cast<std::size_t>(o)]) {
        continue;
      }
      if (upper && t >= split) return false;
      if (!upper && t < split) return false;
    }
  }
  return true;
}

GeneratorResult generate_folded_pla(const TruthTable& table) {
  if (!is_foldable(table)) {
    throw Error("generate_folded_pla: personality is not fold-compatible "
                "(crosspoints cross the segment boundary)");
  }
  const lang::Interpreter::EncodingTable encoding = to_encoding_table(table);
  GenerationSession session(
      CompiledDesign::compile(read_text_file(designs_path("pla.sample")),
                              read_text_file(designs_path("pla_folded.rsg"))));
  session.set_encoding_table(&encoding);
  return session.generate(read_text_file(designs_path("pla.par")), "foldedpla");
}

GeneratorResult generate_decoder(int num_inputs) {
  std::string params = read_text_file(designs_path("pla.par"));
  params += "\ndecbits = " + std::to_string(num_inputs) + "\n";
  GenerationSession session(CompiledDesign::compile(read_text_file(designs_path("pla.sample")),
                                                    read_text_file(designs_path("decoder.rsg"))));
  return session.generate(params, "decoder");
}

TruthTable recover_truth_table(const Cell& layout, int num_inputs, int num_outputs,
                               int num_terms, Point origin) {
  // Rebuild the personality from cut-box positions. The AND plane spans
  // columns [0, n*kCellW); connect-ao adds kConnectW; OR columns follow.
  TruthTable table(num_inputs, num_outputs);
  std::vector<Term> terms(static_cast<std::size_t>(num_terms));
  for (Term& term : terms) {
    term.inputs.assign(static_cast<std::size_t>(num_inputs), InBit::kDontCare);
    term.outputs.assign(static_cast<std::size_t>(num_outputs), false);
  }

  const Coord or_base = static_cast<Coord>(num_inputs) * kCellW + kConnectW;
  for (const LayerBox& lb : flatten_boxes(layout)) {
    if (lb.layer != Layer::kContactCut) continue;
    const Coord x = lb.box.lo.x - origin.x;
    const Coord y = lb.box.lo.y - origin.y;
    // Row t's mask cut sits at y = -(t-1)*kCellH - 6.
    const Coord row_index = (-y - 6) / kCellH;
    if (row_index < 0 || row_index >= num_terms) {
      throw Error("recover_truth_table: cut box outside the term rows");
    }
    Term& term = terms[static_cast<std::size_t>(row_index)];
    if (x < or_base) {
      const Coord column = x / kCellW;
      const Coord offset = x - column * kCellW;
      if (column < 0 || column >= num_inputs) {
        throw Error("recover_truth_table: cut box outside the AND columns");
      }
      if (offset == kTrueX) {
        term.inputs[static_cast<std::size_t>(column)] = InBit::kOne;
      } else if (offset == kCompX) {
        term.inputs[static_cast<std::size_t>(column)] = InBit::kZero;
      } else {
        throw Error("recover_truth_table: unrecognized AND crosspoint offset");
      }
    } else {
      const Coord column = (x - or_base) / kCellW;
      const Coord offset = (x - or_base) - column * kCellW;
      if (column < 0 || column >= num_outputs || offset != kOrX) {
        throw Error("recover_truth_table: unrecognized OR crosspoint");
      }
      term.outputs[static_cast<std::size_t>(column)] = true;
    }
  }
  for (Term& term : terms) table.add_term(std::move(term));
  return table;
}

}  // namespace rsg::pla
