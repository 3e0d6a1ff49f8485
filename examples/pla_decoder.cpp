// Two architectures from ONE sample layout (§1.2.2): a PLA personalized by
// a truth table, and a decoder built from the same cells — the scope HPLA's
// assembled-sample requirement gives up.
//
// Also runs the HPLA-style baseline on the same personality and verifies
// both outputs are crosspoint-equivalent.
#include <iostream>

#include "hpla/hpla.hpp"
#include "io/svg_writer.hpp"
#include "pla/pla_builder.hpp"

int main() {
  try {
    // A small traffic-light style personality: 4 inputs, 3 outputs.
    const rsg::pla::TruthTable table = rsg::pla::TruthTable::parse(
        "10-1 101\n"
        "01-0 110\n"
        "--11 011\n"
        "0--- 100\n");

    // --- RSG PLA ------------------------------------------------------------
    const rsg::GeneratorResult pla = rsg::pla::generate_pla(table);
    std::cout << "RSG PLA:      " << pla.top->flattened_instance_count()
              << " instances, bbox " << pla.top->bounding_box() << "\n";
    rsg::write_svg_file("pla.svg", *pla.top);

    // --- RSG decoder from the same sample ------------------------------------
    const rsg::GeneratorResult dec = rsg::pla::generate_decoder(3);
    std::cout << "RSG decoder:  " << dec.top->flattened_instance_count()
              << " instances, bbox " << dec.top->bounding_box() << "\n";
    rsg::write_svg_file("decoder.svg", *dec.top);

    // --- HPLA baseline --------------------------------------------------------
    rsg::CellTable hpla_cells;
    rsg::hpla::install_pla_library(hpla_cells);
    const rsg::Cell& sample = rsg::hpla::build_sample_pla(hpla_cells);
    const rsg::hpla::Description d = rsg::hpla::compile_description(sample);
    rsg::hpla::GenerateStats stats;
    const rsg::Cell& hpla_out = rsg::hpla::generate(hpla_cells, d, table, "hpla-pla", &stats);
    std::cout << "HPLA PLA:     " << stats.instances_placed << " instances, "
              << stats.relocated_cell_copies << " relocated cell copies\n";

    // --- Equivalence ----------------------------------------------------------
    const auto from_rsg = rsg::pla::recover_truth_table(*pla.top, 4, 3, 4);
    const auto from_hpla = rsg::pla::recover_truth_table(hpla_out, 4, 3, 4);
    std::cout << "crosspoint-equivalent: " << (from_rsg == from_hpla ? "yes" : "NO") << "\n";
    std::cout << "sample the user draws: RSG " << pla.sample_stats.assembly_instances
              << " example instances vs HPLA " << d.sample_instance_count
              << " (a fully assembled 2x2x2 PLA)\n";
    std::cout << "wrote pla.svg, decoder.svg\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
