// --key=value / --flag argument bag shared by the command-line tools.
// `--flag` alone stores "1"; anything not starting with "--" exits with
// status 2.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

namespace vbatt::tools {

class Args {
 public:
  /// Parse argv[first..argc).
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
        std::exit(2);
      }
      const std::string body = arg.substr(2);
      const std::size_t eq = body.find('=');
      if (eq == std::string::npos) {
        values_.insert_or_assign(body, std::string{"1"});
      } else {
        values_.insert_or_assign(body.substr(0, eq), body.substr(eq + 1));
      }
    }
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double number(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  bool flag(const std::string& key) const { return values_.contains(key); }

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace vbatt::tools
