// reasched end-to-end benchmark program. Usage:
//
//   e2ebench --workload <hotspot-closed|fullstack-closed|durable-closed|
//                        fullstack-openloop>
//            --seed <n> --seconds <s> --trace <0|1> --out <dir>
//            [--why <text>] [--commit <id>] [--source-digest <hex>]
//
// Prints the tables, a provenance line and, last, one JSON object with the
// correctness verdict and the end-to-end metrics (--trace 0) or the
// per-layer metrics (--trace 1). Normally started by run.py, which builds
// this binary first.
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

bool parse(int argc, char** argv, e2e::Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out") {
      args.out_dir = value;
    } else if (key == "--why") {
      args.why = value;
    } else if (key == "--commit") {
      args.commit = value;
    } else if (key == "--source-digest") {
      args.source_digest = value;
    } else {
      std::fprintf(stderr, "e2ebench: unknown option %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 != 1) {
    std::fprintf(stderr, "e2ebench: option without a value\n");
    return false;
  }
  return args.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  e2e::Args args;
  if (!parse(argc, argv, args)) return 2;
  try {
    std::filesystem::create_directories(args.out_dir);
    e2e::Result result;
    if (args.workload == "hotspot-closed") {
      result = e2e::run_hotspot_closed(args);
    } else if (args.workload == "fullstack-closed") {
      result = e2e::run_fullstack_closed(args);
    } else if (args.workload == "fullstack-openloop") {
      result = e2e::run_fullstack_openloop(args);
    } else if (args.workload == "durable-closed") {
      result = e2e::run_durable_closed(args);
    } else {
      std::fprintf(stderr, "e2ebench: unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    e2e::emit(args, result);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "e2ebench: %s\n", error.what());
    return 1;
  }
  return 0;
}
