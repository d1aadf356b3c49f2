// Hardware-cost table: the paper's §3 implementation-cost claim in
// numbers. ALO is pure combinational logic on the VC status register
// (Figure 3); LF needs busy-VC popcounts and a comparator; DRIL adds
// per-node threshold/timer registers. Costs are per router.
#include <cstdio>
#include <exception>
#include <iostream>

#include "core/cost_model.hpp"
#include "util/cli.hpp"
#include "obs/log.hpp"
#include "util/csv.hpp"

using namespace wormsim;

int main(int argc, char** argv) {
  try {
    const util::ArgParser args(argc, argv);
    args.reject_unknown();  // takes no flags
    std::cout << "# Hardware cost per router (two-input-gate equivalents; "
                 "conventions in core/cost_model.hpp)\n";
    std::cout << "# paper expectation: ALO needs only some logic gates — "
                 "no registers, no comparators; LF/DRIL need counting and "
                 "thresholds\n";
    util::CsvWriter csv(std::cout);
    csv.header({"channels", "vcs", "mechanism", "comb_gates",
                "register_bits", "comparator_bits", "adder_bits",
                "total_gate_equiv"});
    const unsigned shapes[][2] = {{4, 2}, {4, 3}, {6, 3}, {8, 3}, {8, 4}};
    for (const auto& shape : shapes) {
      for (const auto kind :
           {core::LimiterKind::ALO, core::LimiterKind::LF,
            core::LimiterKind::DRIL}) {
        const auto c = core::estimate_cost(kind, shape[0], shape[1]);
        csv.row(shape[0], shape[1], core::limiter_name(kind),
                c.combinational_gates, c.register_bits, c.comparator_bits,
                c.adder_bits, c.total_gate_equivalents());
      }
    }
    return 0;
  } catch (const std::exception& e) {
    obs::logf(obs::LogLevel::Error, "error: %s\n", e.what());
    return 1;
  }
}
