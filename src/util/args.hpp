// Declarative command-line parsing shared by the CLI drivers, the bench
// harnesses, and the network daemons. Options are registered with a target
// (flag, string, number, or a custom callback for list/enum values) and
// parse() walks argv once: unknown options, missing values, and malformed
// numbers are errors, `--help`/`-h` sets help_requested() and short-circuits.
// usage() renders the registered options in registration order.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace baps::util {

/// Splits on `sep`, dropping empty items ("a,,b" → {"a","b"}).
inline std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::string item;
  for (char c : s) {
    if (c == sep) {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else {
      item.push_back(c);
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

/// Whole-string numeric parses: trailing junk is a failure, not a truncation.
inline bool parse_number(const std::string& s, double* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

inline bool parse_number(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s[0] == '-' || s[0] == '+') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  // strtoull saturates to ULLONG_MAX with ERANGE on overflow; reject rather
  // than silently clamp.
  if (errno == ERANGE || end != s.c_str() + s.size()) return false;
  *out = v;
  return true;
}

/// Byte sizes with optional binary suffix: "4096", "512k", "64M", "2g"
/// (case-insensitive; k/m/g are powers of 1024). Overflow-checked — a value
/// whose scaled result would wrap uint64_t is rejected, not truncated.
inline bool parse_byte_size(const std::string& s, std::uint64_t* out) {
  if (s.empty()) return false;
  std::uint64_t mult = 1;
  std::size_t digits = s.size();
  switch (s.back() | 0x20) {  // ASCII tolower; leaves digits unchanged
    case 'k': mult = 1ULL << 10; --digits; break;
    case 'm': mult = 1ULL << 20; --digits; break;
    case 'g': mult = 1ULL << 30; --digits; break;
    default: break;
  }
  std::uint64_t v = 0;
  if (!parse_number(s.substr(0, digits), &v)) return false;
  if (mult != 1 && v > std::numeric_limits<std::uint64_t>::max() / mult) {
    return false;
  }
  *out = v * mult;
  return true;
}

/// Durations with optional unit suffix: "1s", "250ms", "2m" (minutes), or a
/// bare number meaning seconds ("0.5"). Result is seconds; negative values
/// and values that are or scale to nan/inf ("nan", "inf", "1e400") are
/// rejected.
inline bool parse_duration_seconds(const std::string& s, double* out) {
  if (s.empty()) return false;
  double scale = 1.0;
  std::size_t digits = s.size();
  if (s.size() >= 2 && s.compare(s.size() - 2, 2, "ms") == 0) {
    scale = 1e-3;
    digits = s.size() - 2;
  } else if (s.back() == 's') {
    digits = s.size() - 1;
  } else if (s.back() == 'm') {
    scale = 60.0;
    digits = s.size() - 1;
  }
  double v = 0.0;
  if (!parse_number(s.substr(0, digits), &v)) return false;
  const double seconds = v * scale;
  if (!std::isfinite(seconds) || seconds < 0.0) return false;
  *out = seconds;
  return true;
}

class ArgParser {
 public:
  explicit ArgParser(std::string program, std::string summary = {})
      : program_(std::move(program)), summary_(std::move(summary)) {}

  ArgParser& flag(const std::string& name, bool* out, const std::string& help) {
    add(name, "", help, [out](const std::string&) {
      *out = true;
      return true;
    }, /*takes_value=*/false);
    return *this;
  }

  ArgParser& option(const std::string& name, std::string* out,
                    const std::string& value_name, const std::string& help) {
    add(name, value_name, help, [out](const std::string& v) {
      *out = v;
      return true;
    }, /*takes_value=*/true);
    return *this;
  }

  ArgParser& option(const std::string& name, double* out,
                    const std::string& value_name, const std::string& help) {
    add(name, value_name, help, [out](const std::string& v) {
      return parse_number(v, out);
    }, /*takes_value=*/true);
    return *this;
  }

  ArgParser& option(const std::string& name, std::uint64_t* out,
                    const std::string& value_name, const std::string& help) {
    add(name, value_name, help, [out](const std::string& v) {
      return parse_number(v, out);
    }, /*takes_value=*/true);
    return *this;
  }

  /// uint64 byte quantity accepting the k/m/g suffixes of parse_byte_size
  /// ("--store-capacity 512m"). Plain digit strings parse identically to
  /// option(uint64_t*).
  ArgParser& bytes(const std::string& name, std::uint64_t* out,
                   const std::string& value_name, const std::string& help) {
    add(name, value_name, help, [out](const std::string& v) {
      return parse_byte_size(v, out);
    }, /*takes_value=*/true);
    return *this;
  }

  /// Duration in seconds accepting the s/ms/m suffixes of
  /// parse_duration_seconds ("--ts-interval 250ms"). Bare numbers parse as
  /// seconds, identically to option(double*).
  ArgParser& duration(const std::string& name, double* out,
                      const std::string& value_name, const std::string& help) {
    add(name, value_name, help, [out](const std::string& v) {
      return parse_duration_seconds(v, out);
    }, /*takes_value=*/true);
    return *this;
  }

  ArgParser& option(const std::string& name, std::uint32_t* out,
                    const std::string& value_name, const std::string& help) {
    return bounded(name, out, value_name, help);
  }

  ArgParser& option(const std::string& name, std::uint16_t* out,
                    const std::string& value_name, const std::string& help) {
    return bounded(name, out, value_name, help);
  }

  /// For list/enum values: `fn` consumes the raw value, returning false to
  /// reject it (the parser reports the offending option).
  ArgParser& custom(const std::string& name, const std::string& value_name,
                    const std::string& help,
                    std::function<bool(const std::string&)> fn) {
    add(name, value_name, help, std::move(fn), /*takes_value=*/true);
    return *this;
  }

  /// Opt in to bare (non-option) arguments; without this they stay errors.
  /// Collected in order into positionals(). `value_name` is for usage().
  ArgParser& allow_positionals(const std::string& value_name) {
    positional_name_ = value_name;
    allow_positionals_ = true;
    return *this;
  }

  /// Walks argv. False (with *error) on unknown options, missing or rejected
  /// values. `--help`/`-h` sets help_requested() and stops parsing.
  bool parse(int argc, char** argv, std::string* error) {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--help" || a == "-h") {
        help_requested_ = true;
        return true;
      }
      Opt* opt = find(a);
      if (opt == nullptr) {
        if (allow_positionals_ && a.rfind("--", 0) != 0) {
          positionals_.push_back(a);
          continue;
        }
        if (error != nullptr) *error = "unknown argument: " + a;
        return false;
      }
      std::string value;
      if (opt->takes_value) {
        if (i + 1 >= argc) {
          if (error != nullptr) *error = a + " needs a value";
          return false;
        }
        value = argv[++i];
      }
      if (!opt->apply(value)) {
        if (error != nullptr) *error = "bad value for " + a + ": " + value;
        return false;
      }
    }
    return true;
  }

  bool help_requested() const { return help_requested_; }
  const std::vector<std::string>& positionals() const { return positionals_; }

  std::string usage() const {
    std::string out = "usage: " + program_ + " [options]";
    if (allow_positionals_) out += " [" + positional_name_ + " ...]";
    out += "\n";
    if (!summary_.empty()) out += summary_ + "\n";
    out += "\noptions:\n";
    for (const Opt& opt : opts_) {
      std::string left = "  " + opt.name;
      if (opt.takes_value) left += " " + opt.value_name;
      if (left.size() < 26) left.resize(26, ' ');
      out += left + " " + opt.help + "\n";
    }
    std::string help_line = "  --help, -h";
    help_line.resize(26, ' ');
    out += help_line + " print this message\n";
    return out;
  }

 private:
  struct Opt {
    std::string name;
    std::string value_name;
    std::string help;
    std::function<bool(const std::string&)> apply;
    bool takes_value = false;
  };

  template <typename T>
  ArgParser& bounded(const std::string& name, T* out,
                     const std::string& value_name, const std::string& help) {
    add(name, value_name, help, [out](const std::string& v) {
      std::uint64_t wide = 0;
      if (!parse_number(v, &wide)) return false;
      if (wide > std::numeric_limits<T>::max()) return false;
      *out = static_cast<T>(wide);
      return true;
    }, /*takes_value=*/true);
    return *this;
  }

  void add(const std::string& name, const std::string& value_name,
           const std::string& help, std::function<bool(const std::string&)> fn,
           bool takes_value) {
    opts_.push_back(Opt{name, value_name, help, std::move(fn), takes_value});
  }

  Opt* find(const std::string& name) {
    for (Opt& opt : opts_) {
      if (opt.name == name) return &opt;
    }
    return nullptr;
  }

  std::string program_;
  std::string summary_;
  std::vector<Opt> opts_;
  std::vector<std::string> positionals_;
  std::string positional_name_;
  bool allow_positionals_ = false;
  bool help_requested_ = false;
};

}  // namespace baps::util
