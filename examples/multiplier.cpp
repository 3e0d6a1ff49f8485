// The Chapter 5 case study end to end: generate a pipelined Baugh–Wooley
// array multiplier layout from the Appendix B/C files, then run the
// register-level simulator across pipelining degrees — the β exploration
// the thesis performs with EXCL + SPICE.
//
// Usage: multiplier [size]   (default 16, the Appendix C asize)
#include <cstdlib>
#include <iomanip>
#include <iostream>

#include "arch/simulator.hpp"
#include "io/cif_writer.hpp"
#include "io/param_file.hpp"
#include "io/svg_writer.hpp"
#include "rsg/generator.hpp"

int main(int argc, char** argv) {
  const int size = argc > 1 ? std::atoi(argv[1]) : 16;
  if (size < 2 || size > 64) {
    std::cerr << "size must be in [2, 64]\n";
    return 1;
  }

  try {
    // --- Layout generation -------------------------------------------------
    rsg::Generator generator;
    std::string params = rsg::read_text_file(rsg::designs_path("mult.par"));
    params += "\nasize = " + std::to_string(size) + "\n";
    const rsg::GeneratorResult result =
        generator.run(rsg::read_text_file(rsg::designs_path("mult.sample")),
                      rsg::read_text_file(rsg::designs_path("mult.rsg")), params);

    std::cout << "=== " << size << "x" << size << " bit-systolic multiplier ===\n";
    std::cout << "top cell:          " << result.top->name() << "\n";
    std::cout << "flat instances:    " << result.top->flattened_instance_count() << "\n";
    std::cout << "flat boxes:        " << result.top->flattened_box_count() << "\n";
    std::cout << "bounding box:      " << result.top->bounding_box() << "\n";
    std::cout << std::fixed << std::setprecision(3);
    std::cout << "phase times (s):   read sample " << result.times.read_sample.count()
              << ", execute design " << result.times.execute_design.count() << ", compact "
              << result.times.compact.count() << ", write output "
              << result.times.write_output.count() << "\n";
    std::cout << "total:             " << result.times.total().count()
              << "  (the thesis reports 5 s for 32x32 on a DEC-2060)\n";

    rsg::write_cif_file("multiplier.cif", *result.top);
    rsg::write_svg_file("multiplier.svg", *result.top);
    std::cout << "wrote multiplier.cif, multiplier.svg\n\n";

    // --- The pipelining-degree exploration (Figure 5.2) --------------------
    std::cout << "beta  stages  latency  reg-bits  max-FA-depth  checked\n";
    for (const int beta : {1, 2, 4, 8}) {
      const rsg::arch::MultiplierSpec spec{size, size};
      rsg::arch::PipelinedMultiplier mult(spec, beta);
      // Quick functional spot-check.
      std::uint64_t state = 7;
      auto next = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
      };
      bool ok = true;
      std::vector<std::int64_t> expect;
      std::vector<std::int64_t> got;
      for (int i = 0; i < 32; ++i) {
        const auto a =
            static_cast<std::int64_t>(next() % (1ull << size)) - (1ll << (size - 1));
        const auto b =
            static_cast<std::int64_t>(next() % (1ull << size)) - (1ll << (size - 1));
        expect.push_back(a * b);
        const auto out = mult.step(a, b);
        if (out.valid) got.push_back(out.product);
      }
      for (const auto p : mult.drain()) got.push_back(p);
      ok = (got == expect);

      const auto& config = mult.config();
      std::cout << std::setw(4) << beta << std::setw(8) << config.stages() << std::setw(9)
                << mult.latency() << std::setw(10) << config.total_register_bits
                << std::setw(14) << rsg::arch::max_stage_depth(config) << std::setw(9)
                << (ok ? "ok" : "FAIL") << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
