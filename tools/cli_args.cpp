#include "tools/cli_args.h"

#include <cstdlib>
#include <iostream>

namespace tp::cli {

int run_guarded(int argc, char** argv, int (*run)(int argc, char** argv)) {
  try {
    return run(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "usage error: " << e.what() << "\n";
    return kExitUsage;
  } catch (const Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return kExitInternal;
  }
}

Args::Args(int argc, char** argv, int first, std::set<std::string> known,
           std::set<std::string> flags) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    std::string value;
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    // The name is checked before any value is taken, so a trailing typo
    // reads as unknown rather than as missing its value.
    const bool flag = flags.count(arg) > 0;
    if (!flag && known.count(arg) == 0)
      throw UsageError("unknown option --" + arg);
    if (eq == std::string::npos && !flag) {
      if (i + 1 >= argc)
        throw UsageError("option --" + arg + " needs a value");
      value = argv[++i];
    }
    options_[arg] = value;
  }
}

std::string Args::get(const std::string& name,
                      const std::string& fallback) const {
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

i64 Args::get_int(const std::string& name, i64 fallback) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return fallback;
  return std::strtoll(it->second.c_str(), nullptr, 10);
}

}  // namespace tp::cli
