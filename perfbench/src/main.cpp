// perfbench: the repository benchmark.  One process builds a workload's
// fixtures, starts the serving stack in-process, drives it from an
// in-process load generator over loopback TCP, checks every reply and
// prints the result object as the last line of stdout.
//
//   perfbench --workload <auth_warm|fleet_mixed|enroll_n64> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//             --cache-dir <dir> --trace-dir <dir>
//
// run.py builds this binary and supplies the directories.
#include <iostream>
#include <stdexcept>
#include <string>

#include "workload.hpp"

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  try {
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string flag = argv[i], value = argv[i + 1];
      if (flag == "--workload") cfg.workload = value;
      else if (flag == "--seed") cfg.seed = std::stoull(value);
      else if (flag == "--seconds") cfg.seconds = std::stod(value);
      else if (flag == "--trace") cfg.trace = value == "1";
      else if (flag == "--work-dir") cfg.work_dir = value;
      else if (flag == "--cache-dir") cfg.cache_dir = value;
      else if (flag == "--trace-dir") cfg.trace_dir = value;
      else throw std::invalid_argument("unknown flag " + flag);
    }
    if (argc % 2 == 0 || cfg.workload.empty() || cfg.work_dir.empty() ||
        cfg.cache_dir.empty() || cfg.trace_dir.empty() || cfg.seconds <= 0)
      throw std::invalid_argument("missing or malformed arguments");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  try {
    return perfbench::run(cfg);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: run failed: " << e.what() << "\n";
    return 1;
  }
}
