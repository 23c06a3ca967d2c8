// perfbench_driver — runs one benchmark workload and prints one JSON
// object: provenance, outcome counts and metrics (value + unit).
//
//   perfbench_driver --workload serve_batch_hot --seed 7 --seconds 10
//                    --trace 0 [--smoke] [--corrupt-digest]
//
// --trace 0 measures the end-to-end metrics; --trace 1 replays the
// workload's stack through its layers and reports per-layer metrics,
// probing the other stacks at a small size so every layer is measured.
// The exit code is 0 only when every output check passed.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"
#include "poi/kernel_tiers.h"
#include "workloads.h"

namespace {

using namespace perfbench;

constexpr const char* kWorkloads[] = {"serve_batch_hot", "serve_batch_cold",
                                      "serve_tcp_open", "attack_linkage"};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload NAME --seed N "
               "--seconds S --trace 0|1 [--smoke] [--corrupt-digest]\n"
               "workloads:";
  for (const char* w : kWorkloads) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (flag == "--corrupt-digest") {
      options.corrupt_digest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || options.workload == w;
  if (!known) usage("unknown workload '" + options.workload + "'");
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  return options;
}

void run(const Options& options, Outcome& out) {
  const std::string& w = options.workload;
  const bool cold = w == "serve_batch_cold";
  const bool batch = w == "serve_batch_hot" || cold;
  if (!options.trace) {
    if (batch) run_batch(options, cold, out);
    if (w == "serve_tcp_open") run_tcp(options, out);
    if (w == "attack_linkage") run_linkage(options, out);
    return;
  }
  const StackTrace serving = trace_batch(options, cold, batch, out);
  const StackTrace tcp = trace_tcp(options, w == "serve_tcp_open", out);
  const StackTrace linkage = trace_linkage(options, w == "attack_linkage", out);
  const StackTrace& own =
      batch ? serving : (w == "serve_tcp_open" ? tcp : linkage);
  out.metric("trace.overhead_share", own.overhead_share, "ratio");
  out.metric("trace.coverage_share", own.coverage_share, "ratio");
}

void print(const Options& options, const Outcome& out) {
  const char* env_kernel = std::getenv("POIPRIVACY_KERNEL");
  std::string json = "{\"provenance\":{";
  json += "\"workload\":" + json_string(options.workload);
  json += ",\"seed\":" + std::to_string(options.seed);
  json += ",\"seconds\":" + json_number(options.seconds);
  json += ",\"trace\":" + std::string(options.trace ? "1" : "0");
  json += ",\"smoke\":" + std::string(options.smoke ? "true" : "false");
  json += ",\"hardware_threads\":" +
          std::to_string(std::thread::hardware_concurrency());
  json += ",\"kernel_tier\":" +
          json_string(std::string(poiprivacy::poi::kernel_tier_name(
              poiprivacy::poi::active_kernel_tier())));
  json += ",\"kernel_env\":" +
          (env_kernel ? json_string(env_kernel) : std::string("null"));
  for (const auto& [key, value] : out.notes()) {
    json += "," + json_string(key) + ":" + value;
  }
  json += "},\"correct\":" + std::string(out.correct ? "true" : "false");
  json += ",\"attempted\":" + std::to_string(out.attempted);
  json += ",\"failed\":" + std::to_string(out.failed);
  json += ",\"metrics\":{";
  bool first = true;
  for (const Outcome::Metric& m : out.metrics()) {
    if (!first) json += ",";
    first = false;
    json += json_string(m.name) + ":{\"value\":" +
            (m.value ? json_number(*m.value) : std::string("null")) +
            ",\"unit\":" + json_string(m.unit) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Outcome out;
  try {
    run(options, out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
  print(options, out);
  return out.correct && out.failed == 0 ? 0 : 1;
}
