// perfbench_driver — the benchmark's measuring program.
//
//   perfbench_driver prepare --seed N --seconds S --dir D [--smoke]
//   perfbench_driver run --workload W --seed N --seconds S --trace 0|1
//                        --dir D --serve-bin PATH [--commit C] [--smoke]
//
// `prepare` writes every input the program under test receives into D;
// `run` measures one workload over them and prints the result line.
// perfbench/run.py builds this binary and cegraph_serve and runs both
// steps; see perfbench/README.md.
#include <cstdio>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Flags flags;
  if (!perfbench::ParseFlags(argc, argv, &flags)) return 2;
  if (flags.mode == "prepare") return perfbench::Prepare(flags);
  perfbench::WorkloadConfig config;
  if (!perfbench::ConfigFor(flags.workload, &config)) {
    std::fprintf(stderr, "unknown workload %s\n", flags.workload.c_str());
    return 2;
  }
  auto inputs = perfbench::LoadInputs(flags);
  if (!inputs.ok()) {
    std::fprintf(stderr, "inputs: %s\n", inputs.status().ToString().c_str());
    return 1;
  }
  if (flags.trace) return perfbench::RunTraced(flags, config, *inputs);
  if (config.plan) return perfbench::RunPlan(flags, config, *inputs);
  return perfbench::RunServe(flags, config, *inputs);
}
